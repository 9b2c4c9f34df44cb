"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import json
import time
from contextlib import contextmanager

from toeplitz_bounds import catalog
from toeplitz_bounds.bounds import (
    ClassKind,
    fekete_szego,
    t22_bound,
    t31_bound,
)
from toeplitz_bounds.cli import main, table_rows
from toeplitz_bounds.extremal import h_phi, k_phi, residual
from toeplitz_bounds.oracle import OracleConfig, maximize

ST, CV = ClassKind.STARLIKE, ClassKind.CONVEX

SPECS = catalog.TABLE

# (T22 starlike, T31 starlike, T22 convex, T31 convex); None = no proven value
GOLDEN_EXACT = {
    "classical": (13, 24, 2, 4),
    "exp": (25 / 16, 63 / 16, 5 / 16, 25 / 16),
    "cardioid": (265 / 81, 200 / 27, 445 / 729, 1520 / 729),
    "sine": (5 / 4, 15 / 4, 5 / 18, 14 / 9),
    "lune": (25 / 16, 63 / 16, 5 / 16, 25 / 16),
    "limacon": (57 / 16, 135 / 16, 97 / 144, 323 / 144),
    "nephroid": (5 / 4, 15 / 4, 5 / 18, 14 / 9),
}
GOLDEN_PARABOLIC = (1.01547, 2.74232, 0.204083, None)

FULL_BUDGET = OracleConfig(samples=200_000, seed=7, polish_steps=40)


@contextmanager
def verdict(num, desc):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {num} ({desc}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {num} ({desc}): PASS")


def golden_entries():
    """(label, kind, functional, proven bound) for each table cell."""
    for label, spec in SPECS.items():
        b1, b2 = catalog.b_coeffs(spec)
        for kind in (ST, CV):
            for name, frag in (
                ("t22", t22_bound(kind, b1, b2)),
                ("t31", t31_bound(kind, b1, b2)),
            ):
                yield label, spec, b1, b2, kind, name, frag


def test_criterion_1_golden_table():
    with verdict(1, "golden table, 1e-9, <1s"):
        start = time.perf_counter()
        rows = {(r["class"], r["kind"]): r for r in table_rows()}
        for label, exact in GOLDEN_EXACT.items():
            quads = [
                rows[(label, "starlike")]["T22"],
                rows[(label, "starlike")]["T31"],
                rows[(label, "convex")]["T22"],
                rows[(label, "convex")]["T31"],
            ]
            for got, want in zip(quads, exact):
                assert abs(got - want) <= 1e-9, (label, got, want)
        p = rows[("parabolic", "starlike")]
        assert abs(p["T22"] - GOLDEN_PARABOLIC[0]) <= 1e-5
        assert abs(p["T31"] - GOLDEN_PARABOLIC[1]) <= 1e-5
        assert abs(rows[("parabolic", "convex")]["T22"] - GOLDEN_PARABOLIC[2]) <= 1e-5
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"golden table took {elapsed:.2f}s"


def test_criterion_2_hypothesis_detection():
    with verdict(2, "hypothesis detection"):
        b1, b2 = catalog.b_coeffs(catalog.TABLE["parabolic"])
        frag = t31_bound(CV, b1, b2)
        assert not frag.hypothesis_ok
        assert b2 > 2 * b1 * b1 - b1
        for i in range(100):
            alpha = i / 100
            b1, b2 = catalog.b_coeffs(catalog.order_alpha(alpha))
            assert t31_bound(ST, b1, b2).hypothesis_ok == (alpha <= 2 / 3), alpha
            assert t31_bound(CV, b1, b2).hypothesis_ok == (alpha <= 1 / 2), alpha


def test_criterion_3_sharpness():
    with verdict(3, "extremal sharpness 1e-9, residual 1e-10"):
        for label, spec, b1, b2, kind, name, frag in golden_entries():
            ef = (k_phi if kind is ST else h_phi)(spec, order=10)
            assert residual(ef, spec) <= 1e-10, (label, kind)
            if not frag.hypothesis_ok:
                continue
            value = abs(ef.t22_value if name == "t22" else ef.t31_value)
            assert abs(value - frag.value) <= 1e-9, (label, kind, name)


def test_criterion_4_oracle_verification():
    with verdict(4, "oracle 200k samples seed 7, <60s"):
        start = time.perf_counter()
        cells = {}  # one maximize per cell, over the functionals it proves
        for label, spec, b1, b2, kind, name, frag in golden_entries():
            if frag.hypothesis_ok:
                cells.setdefault((label, b1, b2, kind), []).append((name, frag))
        for (label, b1, b2, kind), proven in cells.items():
            names = tuple(name for name, _ in proven)
            for (name, frag), res in zip(proven, maximize(kind, b1, b2, names,
                                                          FULL_BUDGET)):
                assert frag.value - 1e-3 <= res.sup_estimate <= frag.value + 1e-9, (
                    label, kind, name, res.sup_estimate, frag.value,
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_5_fekete_szego():
    with verdict(5, "Fekete-Szego oracle agreement and branch continuity"):
        fast = OracleConfig(samples=20_000, seed=7, polish_steps=30)
        for label, spec in SPECS.items():
            b1, b2 = catalog.b_coeffs(spec)
            for kind in (ST, CV):
                if kind is ST:
                    lo = (b2 + b1 * b1 - b1) / (2 * b1 * b1)
                    hi = (b2 + b1 * b1 + b1) / (2 * b1 * b1)
                    mid = b1 / 2
                else:
                    lo = 2 * (b2 + b1 * b1 - b1) / (3 * b1 * b1)
                    hi = 2 * (b2 + b1 * b1 + b1) / (3 * b1 * b1)
                    mid = b1 / 6
                # continuity at both branch thresholds
                assert abs(fekete_szego(kind, b1, b2, lo) - mid) <= 1e-10
                assert abs(fekete_szego(kind, b1, b2, hi) - mid) <= 1e-10
                for mu in (-1.0, 0.0, 0.5, 1.0, 2.0, lo, hi):
                    closed = fekete_szego(kind, b1, b2, mu)
                    res = maximize(kind, b1, b2, "fs", fast, mu=mu)
                    assert abs(res.sup_estimate - closed) <= 1e-3, (
                        label, kind, mu,
                    )


def test_criterion_6_property_suites():
    with verdict(6, "property suites"):
        # ring axioms / roundtrips / crosscheck run in their own modules;
        # spot-check the pieces the criterion names plus bit determinism.
        import numpy as np

        from toeplitz_bounds import series
        from test_oracle import caratheodory_crosscheck
        from toeplitz_bounds.oracle import SchwarzPoint

        rng = np.random.default_rng(42)
        params = np.random.default_rng(43)
        order = 6
        for _ in range(50):
            def rand():
                re = rng.uniform(-2, 2, order + 1)
                im = rng.uniform(-2, 2, order + 1)
                return series.from_coeffs(re + 1j * im)

            a, b, c = rand(), rand(), rand()
            assert series.max_abs_diff(
                series.mul(series.mul(a, b), c), series.mul(a, series.mul(b, c))
            ) <= 1e-10
            # the closed-form expansions against their defining identities,
            # on parameters from their own generator: `rng`'s draws for the
            # other checks do not depend on these
            B, A = sorted(params.uniform(-1, 1, 2))
            jan = catalog.phi_series(catalog.janowski(A, B), order)
            assert series.max_abs_diff(
                series.mul(jan, series.from_coeffs((1, B), order)),
                series.from_coeffs((1, A), order),
            ) <= 1e-15
            ex = catalog.phi_series(catalog.alpha_exponential(params.uniform(0, 1)), order)
            assert all(abs((n + 1) * ex[n + 1] - ex[n]) <= 1e-15 * abs(ex[n])
                       for n in range(1, order))
            u = series.from_coeffs((1,) + tuple(0.2 * c for c in a[1:]))
            r = series.sqrt1p(u)
            assert series.max_abs_diff(series.mul(r, r), u) <= 1e-10

        n = 10_000
        r = rng.uniform(0, 1, n)
        t1 = rng.uniform(0, 2 * np.pi, n)
        rho = rng.uniform(0, 1, n) * (1 - r * r)
        t2 = rng.uniform(0, 2 * np.pi, n)
        for i in range(n):
            p = SchwarzPoint(
                complex(r[i] * np.exp(1j * t1[i])),
                complex(rho[i] * np.exp(1j * t2[i])),
            )
            assert caratheodory_crosscheck(ST, 1.7, -0.6, p) <= 1e-12

        cfg = OracleConfig(samples=50_000, seed=7)
        assert maximize(ST, 1.3, 0.4, "t31", cfg) == maximize(ST, 1.3, 0.4, "t31", cfg)


def test_criterion_7_open_case(capsys):
    with verdict(7, "open-case labeling and reproducibility"):
        code = main([
            "verify", "--class", "custom", "--b1", "1", "--b2", "-0.9",
            "--kind", "starlike", "--samples", "20000", "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "estimate only (open case)" in out

        code = main([
            "bounds", "--class", "custom", "--b1", "1", "--b2", "-0.9",
            "--kind", "starlike", "--output", "json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert doc["t22"]["sharp"] is False

        cfg = OracleConfig(samples=50_000, seed=7)
        a = maximize(ST, 1.0, -0.9, "t22", cfg)
        b = maximize(ST, 1.0, -0.9, "t22", cfg)
        assert a == b
