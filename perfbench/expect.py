"""Expected answers, worked out without the package under test.

Every bound of the package is a function of the class kind and the first
two target coefficients (B1, B2).  This module restates the documented
(B1, B2) of each catalog entry and evaluates each determinant at the
extremal point (a2, a3) of the theorem, so the benchmark can check the
program's output without calling it.  The golden table is read, never
written.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

# The hypotheses admit equality (sine sits exactly on the T2(2) boundary).
SLACK = 1e-12
REL_TOL = 1e-11

GOLDEN = Path("tests") / "data" / "golden_table.csv"


def b12(cls: str, params: dict) -> tuple[float, float]:
    """The documented (B1, B2) of a catalog entry."""
    if cls == "classical":
        return 2.0, 2.0
    if cls == "janowski":
        a, b = params["A"], params["B"]
        return a - b, -b * (a - b)
    if cls == "order-alpha":
        return 2 * (1 - params["alpha"]), 2 * (1 - params["alpha"])
    if cls == "exp":
        return 1 - params["alpha"], (1 - params["alpha"]) / 2
    if cls == "custom":
        return params["b1"], params["b2"]
    return {
        "cardioid": (4 / 3, 2 / 3),
        "sine": (1.0, 0.0),
        "lune": (1.0, 0.5),
        "parabolic": (8 / math.pi**2, 16 / (3 * math.pi**2)),
        "limacon": (math.sqrt(2), 0.5),
        "nephroid": (1.0, 0.0),
    }[cls]


def extremal_a2a3(kind: str, b1: float, b2: float) -> tuple[complex, complex]:
    """(a2, a3) of the rotated extremal K (starlike) or H (convex)."""
    if kind == "starlike":
        return 1j * b1, -(b1 * b1 + b2) / 2
    return 0.5j * b1, -(b1 * b1 + b2) / 6


# At the extremal point both determinants are real.  Their signed value is
# the bound's formula, which the program reports whether or not the
# hypothesis holds; outside it the T3(1) formula can be negative.

def t22(kind: str, b1: float, b2: float) -> tuple[float, bool]:
    """T2(2) formula value, and whether the theorem proves it sharp."""
    a2, a3 = extremal_a2a3(kind, b1, b2)
    return (a3 * a3 - a2 * a2).real, b1 <= abs(b2 + b1 * b1) + SLACK


def t31(kind: str, b1: float, b2: float) -> tuple[float, bool]:
    """T3(1) formula value, and whether the theorem proves it sharp."""
    a2, a3 = extremal_a2a3(kind, b1, b2)
    hi = (3 if kind == "starlike" else 2) * b1 * b1 - b1
    hyp = b1 - b1 * b1 - SLACK <= b2 <= hi + SLACK
    return (1 - 2 * a2 * a2 - a3 * (a3 - 2 * a2 * a2)).real, hyp


def fekete_szego(kind: str, b1: float, b2: float, mu: float) -> float:
    """Ma-Minda bound on |a3 - mu*a2^2| in its max form."""
    if kind == "starlike":
        return max(b1, abs(b2 + b1 * b1 - 2 * mu * b1 * b1)) / 2
    return max(b1, abs(b2 + b1 * b1 - 1.5 * mu * b1 * b1)) / 6


def close(got, want: float, tol: float = REL_TOL) -> bool:
    return (
        isinstance(got, (int, float))
        and not isinstance(got, bool)
        and math.isfinite(got)
        and abs(got - want) <= tol * max(1.0, abs(want))
    )


def load_golden(root: Path) -> dict[tuple[str, str], dict]:
    """Golden rows keyed by (class, kind), numbers parsed, flags as bools."""
    rows = {}
    with open(root / GOLDEN, newline="") as fh:
        for r in csv.DictReader(fh):
            rows[(r["class"], r["kind"])] = {
                "B1": float(r["B1"]),
                "B2": float(r["B2"]),
                "T22": float(r["T22"]),
                "T22_ok": r["T22_ok"] == "true",
                "T31": float(r["T31"]),
                "T31_ok": r["T31_ok"] == "true",
            }
    return rows
