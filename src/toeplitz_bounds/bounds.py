"""Closed-form coefficient and Toeplitz determinant bounds.

Everything here is a pure function of the class kind (starlike/convex) and
the first two target coefficients (B1, B2).  Each formula is written once
for both kinds.  By Alexander's relation, f is convex exactly when z f' is
starlike, so the convex a_n is the starlike a_n divided by n.  At the
extremal point |a2| = B1/c2 and |a3| = |B2 + B1^2|/c3, with (c2, c3) =
(1, 2) for starlike and (2, 6) for convex (``ClassKind.scale``).

Each determinant bound comes with a hypothesis verdict: the formula value
is always computed, but it is only a proven sharp bound when the
hypothesis inequalities hold.  Callers must treat flagged values as
estimates.  A value that overflows a float is a ValueError, never a sharp inf.

Hypothesis comparisons carry a slack of 1e-12 * max(1, B1^2, |B2|), the size
of the terms compared, toward acceptance: every inequality admits equality
(sine sits on the T2(2) boundary B1 = |B2 + B1^2|), even after rounding.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .catalog import PhiSpec, b_coeffs, validate

HYP_SLACK = 1e-12


class ClassKind(enum.Enum):
    # scale is (c2, c3), an attribute, so no lookup hashes
    STARLIKE = "starlike", (1, 2)
    CONVEX = "convex", (2, 6)

    def __new__(cls, value: str, scale: tuple[int, int]):
        member = object.__new__(cls)
        member._value_, member.scale = value, scale
        return member


class BoundFragment(NamedTuple):
    """A determinant bound value plus whether its hypothesis holds."""

    value: float
    hypothesis_ok: bool


class BoundReport(NamedTuple):
    kind: ClassKind
    b1: float
    b2: float
    a2_bound: float
    a3_bound: float
    t22: BoundFragment
    t31: BoundFragment
    notes: tuple[str, ...]


def check_domain(b1: float, b2: float = 0.0, mu: float = 0.0) -> None:
    """The one input check of every formula here and of the oracle."""
    if not b1 > 0:
        raise ValueError("B1 must be positive")
    if not (math.isfinite(b1) and math.isfinite(b2)):
        raise ValueError("B1 and B2 must be finite")
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")


def fekete_szego(kind: ClassKind, b1: float, b2: float, mu: float) -> float:
    """Sharp bound on |a3 - mu*a2^2| for real weight mu."""
    check_domain(b1, b2, mu)
    c2, c3 = kind.scale
    m = c3 / (c2 * c2)  # 2 (starlike) or 1.5 (convex)
    # one B1^2 term, exact at m*mu = 1; the modulus first: max(nan, b1) is nan
    value = max(abs(b2 + (1 - m * mu) * b1 * b1), b1) / c3
    if not math.isfinite(value):
        raise ValueError(f"the Fekete-Szego bound overflows a float at mu = {mu:g}")
    return value


def a2_bound(kind: ClassKind, b1: float) -> float:
    check_domain(b1)
    return b1 / kind.scale[0]


def _fragment(value: float, ok: bool, b1: float, b2: float) -> BoundFragment:
    if not math.isfinite(value):
        raise ValueError(f"the bounds overflow a float at B1 = {b1:g}, B2 = {b2:g}")
    return BoundFragment(value, ok)


def t22_bound(kind: ClassKind, b1: float, b2: float) -> BoundFragment:
    """Bound on |a3^2 - a2^2|; proven sharp when B1 <= |B2 + B1^2|."""
    check_domain(b1, b2)
    c2, c3 = kind.scale
    s = b2 + b1 * b1
    value = s * s / (c3 * c3) + b1 * b1 / (c2 * c2)
    return _fragment(value, b1 <= abs(s) + HYP_SLACK * max(1.0, b1 * b1, abs(b2)), b1, b2)


def _t31_interval(kind: ClassKind, b1: float) -> tuple[float, float, float]:
    """(lo, hi, k): T3(1) is proven sharp for lo <= B2 <= hi = k*B1^2 - B1."""
    c2, c3 = kind.scale
    k = 2 * c3 / (c2 * c2) - 1
    return b1 - b1 * b1, k * b1 * b1 - b1, k


def t31_bound(kind: ClassKind, b1: float, b2: float) -> BoundFragment:
    """Bound on |1 - 2*a2^2 - a3*(a3 - 2*a2^2)|.

    Proven sharp when B1 - B1^2 <= B2 <= k*B1^2 - B1, with k = 3 (starlike)
    or k = 2 (convex).
    """
    check_domain(b1, b2)
    c2, c3 = kind.scale
    lo, hi, k = _t31_interval(kind, b1)
    s = b2 + b1 * b1
    value = 1 + 2 * b1 * b1 / (c2 * c2) + s * (k * b1 * b1 - b2) / (c3 * c3)
    slack = HYP_SLACK * max(1.0, b1 * b1, abs(b2))
    return _fragment(value, lo - slack <= b2 <= hi + slack, b1, b2)


def _hypothesis_notes(kind: ClassKind, b1: float, b2: float,
                      t22: BoundFragment, t31: BoundFragment) -> list[str]:
    notes = []
    if not t22.hypothesis_ok:
        notes.append(
            f"t22: |B2 + B1^2| = {abs(b2 + b1 * b1):.6g} < B1 = {b1:.6g}; "
            "open case, value is the formula only"
        )
    if not t31.hypothesis_ok:
        lo, hi, k = _t31_interval(kind, b1)
        if b2 < lo:
            notes.append(f"t31: B2 = {b2:.6g} < B1 - B1^2 = {lo:.6g}")
        else:
            notes.append(f"t31: B2 = {b2:.6g} > {k:g}*B1^2 - B1 = {hi:.6g}")
    return notes


def admissible_b12(spec: PhiSpec) -> tuple[float, float]:
    """(B1, B2) of an admissible phi; an inadmissible one is a ValueError."""
    validate(spec)
    return b_coeffs(spec)


def full_report(spec: PhiSpec, kind: ClassKind) -> BoundReport:
    """Every bound for one (phi, class kind) pair, from b_coeffs' one expansion of phi."""
    b1, b2 = admissible_b12(spec)
    t22 = t22_bound(kind, b1, b2)
    t31 = t31_bound(kind, b1, b2)
    return BoundReport(
        kind=kind, b1=b1, b2=b2, a2_bound=a2_bound(kind, b1),
        a3_bound=fekete_szego(kind, b1, b2, 0.0), t22=t22, t31=t31,
        notes=tuple(_hypothesis_notes(kind, b1, b2, t22, t31)))
