"""Tests for the brute-force maximization oracle."""

import cmath
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplitz_bounds import _kernels, catalog, oracle
from toeplitz_bounds.bounds import (
    ClassKind,
    fekete_szego,
    t22_bound,
    t31_bound,
)
from toeplitz_bounds.oracle import OracleConfig, SchwarzPoint, maximize

ST, CV = ClassKind.STARLIKE, ClassKind.CONVEX


REGION_TOL = 1e-12


def in_region(w1, w2, tol=REGION_TOL):
    """The reference predicate of the Schur region |w1| <= 1, |w2| <= 1 - |w1|^2,
    on scalars or elementwise on arrays, that draws and polished points are
    checked against."""
    r = abs(w1)  # |w1| > 1 + tol leaves no w2: the cap is below -tol
    return abs(w2) <= 1 - r * r + tol


# The reference route that the oracle's (w1, w2) kernels are checked
# against: (a2, a3) through the coefficients c1, c2 of the Caratheodory
# function (1 + w)/(1 - w).  test_acceptance.py imports it from here.

def a2a3_from_caratheodory(kind: ClassKind, b1: float, b2: float,
                           c1: complex, c2: complex) -> tuple[complex, complex]:
    """(a2, a3) via the half-plane-function coefficients c1 = 2w1, c2 = 2(w2+w1^2)."""
    if kind is ClassKind.STARLIKE:
        a2 = b1 * c1 / 2
        a3 = ((b1 * b1 - b1 + b2) * c1 * c1 + 2 * b1 * c2) / 8
    else:
        a2 = b1 * c1 / 4
        a3 = ((-b1 + b1 * b1 + b2) * c1 * c1 + 2 * b1 * c2) / 24
    return a2, a3


def caratheodory_crosscheck(kind: ClassKind, b1: float, b2: float,
                            p: SchwarzPoint) -> float:
    """Discrepancy between the direct (w1,w2) route and the (c1,c2) route."""
    a2w, a3w = _kernels.a2a3(kind, b1, b2, p.w1, p.w2)
    c1 = 2 * p.w1
    c2 = 2 * (p.w2 + p.w1 * p.w1)
    a2c, a3c = a2a3_from_caratheodory(kind, b1, b2, c1, c2)
    return max(abs(a2w - a2c), abs(a3w - a3c))


def polish_one(kind, b1, b2, name, mu, w1, w2, halvings):
    """``_kernels.polish`` on the candidates of one functional: its (value, w1, w2)."""
    return _kernels.polish(kind, b1, b2, (name,), mu, np.reshape(w1, (1, -1)),
                           np.reshape(w2, (1, -1)), halvings)[1][0]


FAST = OracleConfig(samples=20_000, seed=7, polish_steps=30)

CATALOG_B = [
    ("classical", 2.0, 2.0),
    ("exp", 1.0, 0.5),
    ("cardioid", 4 / 3, 2 / 3),
    ("sine", 1.0, 0.0),
    ("limacon", 2**0.5, 0.5),
]


def random_points(n, seed=0):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0, 1, n)
    t1 = rng.uniform(0, 2 * np.pi, n)
    rho = rng.uniform(0, 1, n) * (1 - r * r)
    t2 = rng.uniform(0, 2 * np.pi, n)
    return [
        SchwarzPoint(complex(ri * np.exp(1j * a)), complex(pi * np.exp(1j * b)))
        for ri, a, pi, b in zip(r, t1, rho, t2)
    ]


class TestCoefficientMaps:
    def test_starlike_witness_point(self):
        a2, a3 = _kernels.a2a3(ST, 2, 2, 1j, 0)
        assert a2 == pytest.approx(2j)
        assert a3 == pytest.approx(-3)

    def test_convex_witness_point(self):
        a2, a3 = _kernels.a2a3(CV, 1, 0.5, 1j, 0)
        assert a2 == pytest.approx(0.5j)
        assert a3 == pytest.approx(-0.25)

    def test_zero_point(self):
        assert _kernels.a2a3(ST, 1.5, 0.2, 0, 0) == (0, 0)


class TestFunctionalValues:
    def test_t22_classical(self):
        assert _kernels.functional("t22", 2j, -3) == pytest.approx(13.0)

    def test_t31_identity_row(self):
        assert _kernels.functional("t31", 0, 0) == pytest.approx(1.0)

    def test_t31_lune_extremal(self):
        assert _kernels.functional("t31", 1j, -0.75) == pytest.approx(63 / 16)

    @pytest.mark.parametrize("name", ["t23", "FS", "", None])
    def test_unknown_name_raises(self, name):
        w = np.array([[1j]])
        with pytest.raises(ValueError, match="^unknown functional "):
            _kernels.functional(name, 1j, 0.5)
        with pytest.raises(ValueError, match="^unknown functional "):
            _kernels.eval_batch(name, 0.0, w[0], w[0])
        with pytest.raises(ValueError, match="^unknown functional "):
            _kernels.polish(ST, 1.0, 0.5, (name,), 0.0, w, 0 * w, 1)

    def test_maximize_checks_the_kernels_names(self, monkeypatch):
        # one list of names: maximize's check before sampling reads the kernels'
        assert _kernels.FUNCTIONALS == ("t22", "t31", "fs")
        monkeypatch.setattr(_kernels, "FUNCTIONALS", ("t22", "t31"))
        with pytest.raises(ValueError, match="^unknown functional 'fs'$"):
            maximize(ST, 1.0, 0.5, ("fs",), OracleConfig(samples=0))


class TestCrosscheck:
    def test_random_points(self):
        for p in random_points(10_000):
            assert caratheodory_crosscheck(ST, 2, 2, p) <= 1e-12
            assert caratheodory_crosscheck(CV, 1.3, -0.4, p) <= 1e-12

    def test_witness_point(self):
        p = SchwarzPoint(1j, 0)
        assert caratheodory_crosscheck(ST, 2, 2, p) <= 1e-14

    def test_real_boundary_point(self):
        assert caratheodory_crosscheck(CV, 1, 1e-9, SchwarzPoint(1, 0)) <= 1e-14

    def test_classical_c_bounds(self):
        # |c1| <= 2 and |c2| <= 2 on the whole region
        for p in random_points(2_000, seed=3):
            assert abs(2 * p.w1) <= 2 + 1e-12
            assert abs(2 * (p.w2 + p.w1 * p.w1)) <= 2 + 1e-12


class TestMaximize:
    def test_classical_t22(self):
        res = maximize(ST, 2, 2, ("t22",), FAST)[0]
        assert res.sup_estimate == pytest.approx(13.0, abs=1e-3)

    def test_parabolic_convex_t22(self):
        b1, b2 = catalog.b_coeffs(catalog.TABLE["parabolic"])
        res = maximize(CV, b1, b2, ("t22",), FAST)[0]
        assert res.sup_estimate == pytest.approx(0.204083, abs=1e-3)

    def test_open_case_estimate(self):
        res = maximize(ST, 1, -0.9, ("t22",), FAST)[0]
        # the witness point value is always attainable, bound or not
        assert res.sup_estimate >= 1.0025 - 1e-12

    def test_determinism(self):
        a = maximize(ST, 1.1, 0.3, ("t31",), FAST)[0]
        b = maximize(ST, 1.1, 0.3, ("t31",), FAST)[0]
        assert a == b

    def test_argmax_reproduces_value(self):
        res = maximize(CV, 1.2, 0.1, ("t22",), FAST)[0]
        a2, a3 = _kernels.a2a3(CV, 1.2, 0.1, *res.argmax)
        assert _kernels.functional("t22", a2, a3) == pytest.approx(
            res.sup_estimate, abs=1e-12
        )

    @pytest.mark.parametrize("label,b1,b2", CATALOG_B)
    def test_soundness_and_sharpness(self, label, b1, b2):
        for kind in (ST, CV):
            for name, frag in (
                ("t22", t22_bound(kind, b1, b2)),
                ("t31", t31_bound(kind, b1, b2)),
            ):
                if not frag.hypothesis_ok:
                    continue
                res = maximize(kind, b1, b2, (name,), FAST)[0]
                assert res.sup_estimate <= frag.value + 1e-9
                assert res.sup_estimate >= frag.value - 1e-3

    @pytest.mark.parametrize("mu", [-1.0, 0.0, 0.5, 1.0, 2.0])
    def test_fekete_szego_agreement(self, mu):
        for label, b1, b2 in CATALOG_B:
            for kind in (ST, CV):
                res = maximize(kind, b1, b2, ("fs",), FAST, mu=mu)[0]
                closed = fekete_szego(kind, b1, b2, mu)
                assert res.sup_estimate == pytest.approx(closed, abs=1e-3), (
                    label, kind, mu,
                )

    @pytest.mark.parametrize("samples", [1, 5, 8, 20_003])
    def test_samples_is_budget_plus_distinguished(self, samples):
        cfg = OracleConfig(samples=samples, seed=7, polish_steps=0)
        assert maximize(ST, 2, 2, ("t22",), cfg)[0].samples == samples + 8

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError, match="^OracleConfig.samples must be an integer >= 1"):
            maximize(ST, 1, 0, ("t22",), OracleConfig(samples=0))

    @pytest.mark.parametrize("field,value", [
        ("samples", -1), ("samples", 10.5), ("samples", 1000.0), ("samples", True),
        ("samples", "1000"), ("seed", -1), ("seed", 1.0), ("seed", None), ("seed", False),
        ("seed", np.int64(-1)), ("polish_steps", -3), ("polish_steps", 2.5),
        ("polish_steps", None),
    ])
    def test_rejects_a_bad_config_field_before_sampling(self, monkeypatch, field, value):
        # unchecked, polish_steps=-3 ran no polish and was reported back, seed=-1
        # raised numpy's bare message and samples=10.5 a TypeError
        def forbidden(*args):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(oracle, "_sample_shard", forbidden)
        cfg = OracleConfig(samples=1000, seed=1, polish_steps=3)._replace(**{field: value})
        with pytest.raises(ValueError) as err:
            maximize(ST, 1.0, 0.5, ("t22",), cfg)
        low = 1 if field == "samples" else 0
        assert str(err.value) == f"OracleConfig.{field} must be an integer >= {low}, got {value!r}"

    def test_accepts_numpy_integers_and_each_fields_least_value(self):
        cfg = OracleConfig(samples=1, seed=0, polish_steps=0)
        res = maximize(ST, 1.0, 0.5, ("t22",), OracleConfig(*map(np.int64, cfg)))[0]
        assert res == maximize(ST, 1.0, 0.5, ("t22",), cfg)[0]
        # echoed as Python ints, which render_json writes as numbers, not strings
        assert {type(n) for n in (res.samples, res.seed, res.polish_steps)} == {int}

    def test_rejects_unknown_functional(self):
        with pytest.raises(ValueError, match="^unknown functional 't23'$"):
            maximize(ST, 1, 0, ("t23",), FAST)

    def test_a_bare_name_is_not_a_tuple_of_names(self):
        with pytest.raises(ValueError, match="^unknown functional 't'$"):
            maximize(ST, 1, 0, "t22", FAST)

    @pytest.mark.parametrize("names", [("t23",), ("t22", "t23"), ("t23", "t31", "fs"),
                                       ("t22", "t31", "FS"), ()])
    def test_rejects_bad_names_before_sampling(self, monkeypatch, names):
        def forbidden(*args):
            raise AssertionError("sampled before the names were checked")

        monkeypatch.setattr(oracle, "_sample_shard", forbidden)
        with pytest.raises(ValueError, match="functional"):
            maximize(ST, 1, 0, names, FAST)

    @pytest.mark.parametrize("names", [("t22",), ("t22", "t31", "fs")])
    @pytest.mark.parametrize("b1", [0.0, -1.0, float("nan")])
    def test_rejects_b1_not_positive_before_sampling(self, monkeypatch, names, b1):
        def forbidden(*args):
            raise AssertionError("sampled before B1 was checked")

        monkeypatch.setattr(oracle, "_sample_shard", forbidden)
        with pytest.raises(ValueError, match="^B1 must be positive$"):
            maximize(ST, b1, 0.0, names, FAST)

    @pytest.mark.parametrize("b1,b2,mu,message", [
        (1.0, float("nan"), 0.0, "B1 and B2 must be finite"),
        (1.0, float("inf"), 0.0, "B1 and B2 must be finite"),
        (float("inf"), 0.0, 0.0, "B1 and B2 must be finite"),
        (1.0, 0.0, float("nan"), "mu must be finite"),
        (1.0, 0.0, -float("inf"), "mu must be finite"),
    ])
    def test_rejects_non_finite_inputs_before_sampling(self, monkeypatch, b1, b2, mu,
                                                        message):
        # unchecked, a nan B2 is sampled and reported as a nan sup_estimate
        def forbidden(*args):
            raise AssertionError("sampled before the inputs were checked")

        monkeypatch.setattr(oracle, "_sample_shard", forbidden)
        with pytest.raises(ValueError, match=f"^{message}$"):
            maximize(ST, b1, b2, ("t22",), FAST, mu=mu)

    @pytest.mark.parametrize("kind", [ST, CV])
    @pytest.mark.parametrize("b1,b2", [(4 / 3, 2 / 3), (1.0, -0.9)],
                             ids=["cardioid", "custom-1-0.9"])
    @pytest.mark.parametrize("samples", [20_000, 20_003])
    def test_several_functionals_match_separate_calls(self, kind, b1, b2, samples):
        # One pass of sampling serves every functional, bit for bit.
        cfg = OracleConfig(samples=samples, seed=7)
        names = ("t22", "t31", "fs")
        together = maximize(kind, b1, b2, names, cfg, mu=0.7)
        separate = tuple(maximize(kind, b1, b2, (name,), cfg, mu=0.7)[0] for name in names)
        assert together == separate
        assert repr(together) == repr(separate)  # -0.0 and 0.0 compare equal

    # Exact results at a fixed seed and budget: a change in the arithmetic
    # order of a kernel, or in the sampling, shows up here.
    @pytest.mark.parametrize("kind,b1,b2,name,mu,sup,w1,w2", [
        (ST, 2.0, 2.0, "t22", 0.0, 13.000000000000004,
         8.381903171539307e-09 + 1j, 0j),
        (CV, 4 / 3, 2 / 3, "t31", 0.0, 2.085048010973937, -1j, 0j),
        (ST, 1.0, -0.9, "t31", 0.0, 3.0975, -1j, 0j),
        (CV, 1.0, 0.5, "fs", 0.7, 0.1666666666666667,
         0j, 0.062256926931431845 - 0.9980601560272079j),
    ])
    def test_pinned_results(self, kind, b1, b2, name, mu, sup, w1, w2):
        cfg = OracleConfig(samples=20_000, seed=7)
        res = maximize(kind, b1, b2, (name,), cfg, mu=mu)[0]
        assert repr(res.sup_estimate) == repr(sup)
        assert repr(res.argmax) == repr(SchwarzPoint(w1, w2))
        assert res.samples == 20_008


class TestKernels:
    def test_fekete_szego_default_mu_is_zero(self):
        assert _kernels.functional("fs", 1j, 0.5) == 0.5  # |a3 - 0*a2^2|, not |0.5 + 1|

    @pytest.mark.parametrize("kind", [ST, CV])
    @pytest.mark.parametrize("name", ["t22", "t31", "fs"])
    def test_batch_matches_scalar(self, kind, name):
        # One formula serves both paths.  numpy's SIMD loops for complex
        # multiply and abs round differently from scalar arithmetic, so the
        # two agree to rounding rather than bit for bit.
        pts = random_points(2_000, seed=5)
        w1 = np.array([p.w1 for p in pts])
        w2 = np.array([p.w2 for p in pts])
        b1, b2, mu = 1.3, -0.4, 0.7
        batch = _kernels.eval_batch(name, mu, *_kernels.a2a3(kind, b1, b2, w1, w2))
        for value, p1, p2 in zip(batch, w1, w2):
            # polish evaluates numpy scalars, the extremal values Python complex
            for s1, s2 in ((p1, p2), (complex(p1), complex(p2))):
                a2, a3 = _kernels.a2a3(kind, b1, b2, s1, s2)
                scalar = _kernels.functional(name, a2, a3, mu)
                assert value == pytest.approx(scalar, rel=1e-14, abs=1e-14)

    def test_polish_never_calls_eval_batch(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("polish must evaluate scalars itself")

        monkeypatch.setattr(_kernels, "eval_batch", forbidden)
        val, w1, w2 = polish_one(ST, 2.0, 2.0, "t22", 0.0,
                                 np.complex128(0.9j), np.complex128(0.1), 40)
        assert val == pytest.approx(13.0, abs=1e-3)
        assert in_region(complex(w1), complex(w2))


class TestSampleShard:
    """Where one shard's draws lie and how they spread, at fixed seeds."""

    ULP = np.finfo(float).eps  # one ulp of 1.0
    CASES = [(7, 0, 25_000), (11, 3, 25_001), (0, 7, 9), (5, 0, 2), (5, 1, 1)]

    @staticmethod
    def halves(seed, shard, n):
        """(w1, w2) of the boundary half, then of the interior draws."""
        w1, w2 = oracle._sample_shard(seed, shard, n)
        assert len(w1) == len(w2) == n + (len(oracle.DISTINGUISHED) if shard == 0 else 0)
        start, mid = len(w1) - n, len(w1) - n + n // 2
        return (w1[start:mid], w2[start:mid]), (w1[mid:], w2[mid:])

    PINS = [
        (7, 0, 25_000, "a7d145550400144d6054bc4bb703fd15a6d806c803c439a258e1f40f74911987"),
        (11, 3, 25_001, "e6972dccea4cccd35950de3da6c71407d4315ed0b9e77451a598b5733dddffb0"),
        (5, 1, 1, "574bf8633f82c4c8484cc559e860b5acb12653bde84f386c15dfff74a3f55dd4"),
    ]

    @pytest.mark.parametrize("seed,shard,n,digest", PINS)
    def test_draws_are_pinned_bytewise(self, seed, shard, n, digest):
        # every bit of every draw, zero signs included, as the sampler first gave them
        w1, w2 = oracle._sample_shard(seed, shard, n)
        assert hashlib.sha256(w1.tobytes() + w2.tobytes()).hexdigest() == digest

    def test_a_reused_block_gives_the_pinned_draws(self):
        # a block that held nan and then a larger shard: each pinned shard drawn
        # into it writes every byte it returns and reads none left behind
        block = oracle._block(30_000)
        block.fill(np.nan)
        oracle._sample_shard(3, 0, 30_000, block)
        for seed, shard, n, digest in self.PINS:
            w1, w2 = oracle._sample_shard(seed, shard, n, block)
            assert hashlib.sha256(w1.tobytes() + w2.tobytes()).hexdigest() == digest

    def test_maximize_draws_every_shard_into_one_block(self, monkeypatch):
        blocks = []
        sample = oracle._sample_shard

        def recorded(seed, shard, n, block):
            blocks.append(block)
            return sample(seed, shard, n, block)

        monkeypatch.setattr(oracle, "_sample_shard", recorded)
        maximize(ST, 1.0, 0.5, ("t22",), OracleConfig(samples=2_001, seed=7))
        assert len(blocks) == oracle.SHARDS and all(b is blocks[0] for b in blocks)
        assert blocks[0].shape == oracle._block(251).shape  # the largest shard, 2001 // 8 + 1

    @pytest.mark.parametrize("seed,shard,n", CASES)
    def test_every_draw_is_in_the_region(self, seed, shard, n):
        w1, w2 = oracle._sample_shard(seed, shard, n)
        assert in_region(w1, w2).all()

    def test_shard_zero_starts_with_the_distinguished_points(self):
        w1, w2 = oracle._sample_shard(7, 0, 100)
        assert repr(list(zip(w1[:8].tolist(), w2[:8].tolist()))) == repr(
            list(oracle.DISTINGUISHED))

    @pytest.mark.parametrize("seed,shard,n", CASES)
    def test_boundary_half_is_on_the_circle_with_w2_zero(self, seed, shard, n):
        (w1, w2), _ = self.halves(seed, shard, n)
        assert len(w1) == n // 2
        assert (np.abs(np.abs(w1) - 1.0) <= 2 * self.ULP).all()
        assert (w2 == 0).all()

    @pytest.mark.parametrize("seed,shard,n", CASES)
    def test_interior_w2_is_on_the_shell(self, seed, shard, n):
        _, (w1, w2) = self.halves(seed, shard, n)
        assert len(w1) == n - n // 2
        assert (np.abs(np.abs(w2) - (1.0 - np.abs(w1) ** 2)) <= 1e-15).all()

    @pytest.mark.parametrize("seed,shard", [(7, 0), (7, 5), (123, 2)])
    def test_interior_radius_is_a_fourth_root_of_a_uniform(self, seed, shard):
        # |w1|^4 is uniform on [0, 1): mean 1/2, variance 1/12
        _, (w1, _) = self.halves(seed, shard, 25_000)
        x = np.abs(w1) ** 4
        assert abs(x.mean() - 0.5) <= 5 * (1 / 12 / len(x)) ** 0.5

    @pytest.mark.parametrize("seed,shard", [(7, 0), (7, 5), (123, 2)])
    def test_angles_are_balanced_over_the_octants(self, seed, shard):
        (b1, _), (i1, i2) = self.halves(seed, shard, 25_000)
        for w in (b1, i1, i2):
            octant = np.floor(np.angle(w) / (np.pi / 4)).astype(int) % 8
            counts = np.bincount(octant, minlength=8)
            n = len(w)
            assert (np.abs(counts - n / 8) <= 5 * (n * (1 / 8) * (7 / 8)) ** 0.5).all()

    @pytest.mark.parametrize("n", [1, 2, 9, 25_000])
    def test_deterministic_per_seed_and_shard(self, n):
        for seed, shard in [(7, 0), (7, 1), (8, 1)]:
            a = oracle._sample_shard(seed, shard, n)
            b = oracle._sample_shard(seed, shard, n)
            assert [w.tobytes() for w in a] == [w.tobytes() for w in b]
        drawn = [oracle._sample_shard(seed, 1, n)[0].tobytes() for seed in (7, 8)]
        drawn.append(oracle._sample_shard(7, 2, n)[0].tobytes())
        assert len(set(drawn)) == 3

    @pytest.mark.parametrize("samples", [1, 2, 9])
    def test_maximize_is_deterministic_at_tiny_budgets(self, samples):
        cfg = OracleConfig(samples=samples, seed=3)
        a = maximize(CV, 1.3, -0.4, ("t22", "t31", "fs"), cfg, mu=0.7)
        b = maximize(CV, 1.3, -0.4, ("t22", "t31", "fs"), cfg, mu=0.7)
        assert repr(a) == repr(b)
        assert all(res.samples == samples + 8 for res in a)

    def test_polish_starts_from_the_best_draws(self, monkeypatch):
        starts = []

        def recorded(kind, b1, b2, names, mu, w1, w2, halvings):
            starts.extend(zip(names, w1.tolist(), w2.tolist()))
            return 0.0, ((0.0, 0j, 0j),) * len(names)

        monkeypatch.setattr(_kernels, "polish", recorded)
        maximize(CV, 1.3, -0.4, ("t22", "t31"), OracleConfig(samples=2_000, seed=7))
        assert [name for name, _, _ in starts] == ["t22", "t31"]
        # every value at the length maximize evaluates it: rounding depends on it
        shards = [oracle._sample_shard(7, shard, 250) for shard in range(oracle.SHARDS)]
        kept_counts = []
        for name, w1, w2 in starts:
            value = {}
            for s1, s2 in shards:
                vals = _kernels.functional(name, *_kernels.a2a3(CV, 1.3, -0.4, s1, s2))
                value.update(zip(zip(s1.tolist(), s2.tolist()), vals.tolist()))
            ranked = sorted(value.values())
            assert ranked[-oracle.TOP_CANDIDATES] > ranked[-oracle.TOP_CANDIDATES - 1]
            top = [p for p in value if value[p] >= ranked[-oracle.TOP_CANDIDATES]]
            row = list(zip(w1, w2))
            n = next((j for j in range(1, len(row)) if row[j] == row[0]), len(row))
            kept, pad = row[:n], row[n:]
            kept_counts.append(n)
            assert pad == [row[0]] * len(pad)
            assert [value[p] for p in kept] == sorted((value[p] for p in kept), reverse=True)
            assert value[kept[0]] == ranked[-1] and set(kept) <= set(top)
            for j, p in enumerate(kept):
                assert all(basin_distance(p, q) > oracle.BASIN for q in kept[:j])
            for p in set(top) - set(kept):
                assert any(basin_distance(p, q) <= oracle.BASIN and value[q] >= value[p]
                           for q in kept)
        assert max(kept_counts) == len(starts[0][1]) < oracle.TOP_CANDIDATES

    def test_distinct_keeps_a_start_only_beyond_the_basin(self):
        b = oracle.BASIN
        w1 = np.array([[1j, 1j + b, 1j + 1.5 * b, 1j + 2.75 * b, -1j, -1j + 0.5 * b],
                       [0.5, 0.5, 0.5, 0.5, 0.5, 0.5]])
        w2 = np.array([[0j, 0j, 0j, 0j, 0j, 0j],
                       [0j, b * 1j, 2 * b * 1j, 0.5 + 0j, 0.5 * b, 0.5 + 0.5j * b]])
        d1, d2 = oracle._distinct(w1, w2)
        # at exactly BASIN a start shares the basin; later ones are judged against
        # the kept ones only, and the shorter row is padded with its first start
        assert d1.tolist() == [[1j, 1j + 1.5 * b, 1j + 2.75 * b, -1j], [0.5] * 4]
        assert d2.tolist() == [[0j] * 4, [0j, 2 * b * 1j, 0.5, 0j]]

    def test_one_a2a3_per_shard_and_one_eval_batch_per_functional(self, monkeypatch):
        calls = dict.fromkeys(["a2a3", "eval_batch"], 0)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(_kernels, name, counted(name, getattr(_kernels, name)))
        # polish evaluates through a2a3 as well: a stub keeps maximize's own calls
        monkeypatch.setattr(_kernels, "polish", lambda *args: (0.0, ((0.0, 0j, 0j),) * 2))
        maximize(ST, 1.0, 0.5, ("t22", "t31"), OracleConfig(samples=2_000, seed=7))
        assert calls == {"a2a3": oracle.SHARDS, "eval_batch": 2 * oracle.SHARDS}


def basin_distance(p, q):
    """The max-norm distance of two Schwarz points that _distinct thins by."""
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


class TestStartsPerBasin:
    """Thinning the polish's starts to one per basin only saves sweeps: a
    dropped start would have found no more than the kept ones."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([ST, CV]), st.floats(0.01, 5.0), st.floats(-5.0, 5.0),
           st.floats(-5.0, 5.0), st.integers(0, 2**32 - 1),
           st.sampled_from([200, 2_000, 20_000]))
    def test_sup_is_at_least_that_of_every_draw_polished(self, kind, b1, b2, mu, seed,
                                                          samples):
        cfg = OracleConfig(samples=samples, seed=seed)
        names = ("t22", "t31", "fs")
        thinned = maximize(kind, b1, b2, names, cfg, mu=mu)
        with mock.patch.object(oracle, "_distinct", lambda w1, w2: (w1, w2)):
            every = maximize(kind, b1, b2, names, cfg, mu=mu)
        for got, ref in zip(thinned, every):
            v = ref.sup_estimate
            assert got.sup_estimate >= v - 1e-15 * max(1.0, abs(v))

    def test_sweeps_on_a_sharp_cell(self, monkeypatch):
        # exp at alpha = 0, starlike: the witness (+-i, 0) wins, and without the
        # thinning its near-copies kept every level at 8 sweeps (179 in all)
        calls = []
        project = _kernels._project
        monkeypatch.setattr(_kernels, "_project", lambda p: calls.append(1) or project(p))
        res = maximize(ST, 1.0, 0.5, ("t22", "t31"), OracleConfig(seed=7))
        assert [r.sup_estimate for r in res] == pytest.approx(
            [t22_bound(ST, 1.0, 0.5).value, t31_bound(ST, 1.0, 0.5).value], rel=1e-15)
        assert len(calls) - 1 <= 60  # one projection of the starts, one per sweep


def test_in_region_predicate():
    assert in_region(1j, 0)
    assert in_region(0.5, 0.75)
    assert not in_region(0.5, 0.76)
    assert not in_region(1.1, 0)


@given(st.floats(1.0 + 1e-9, 2.0), st.floats(0.0, 2 * cmath.pi),
       st.floats(0.0, 2.0), st.floats(0.0, 2 * cmath.pi))
def test_in_region_rejects_w1_outside_the_disc(r, t1, rho, t2):
    # 1 < |w1| <= 2 leaves no admissible w2, not even w2 = 0
    w1 = cmath.rect(r, t1)
    assert not in_region(w1, 0j)
    assert not in_region(w1, cmath.rect(rho, t2))


def test_distinguished_points_are_the_witnesses():
    # (+-i, 0) and (+-1, 0) on the circle, and w2 on its unit circle at w1 = 0
    assert oracle.DISTINGUISHED == ((1j, 0), (-1j, 0), (1, 0), (-1, 0),
                                    (0, 1), (0, -1), (0, 1j), (0, -1j))


def test_distinguished_points_are_in_the_region():
    assert len(oracle.DISTINGUISHED) == 8
    for w1, w2 in oracle.DISTINGUISHED:
        assert in_region(w1, w2, tol=0.0)


def test_documented_defaults():
    assert OracleConfig().seed == 7
    assert OracleConfig().samples == 200_000
    assert OracleConfig().polish_steps == 40
    assert (oracle.SHARDS, oracle.TOP_CANDIDATES, oracle.BASIN) == (8, 16, 2**-7)


class TestPolish:
    def test_reaches_supremum_on_the_circle(self):
        # Coordinate ascent stalled at 12.99976 here, on |w1| = 1.
        val, _, _ = polish_one(ST, 2.0, 2.0, "t22", 0.0,
                               np.complex128(0.9j), np.complex128(0.1), 40)
        assert val == pytest.approx(13.0, abs=1e-9)

    @pytest.mark.parametrize("witness", [1j, -1j])
    def test_batch_returns_best_point_and_keeps_witness(self, witness):
        pts = random_points(16, seed=11)
        w1 = np.array([p.w1 for p in pts])
        w2 = np.array([p.w2 for p in pts])
        w1[5], w2[5] = witness, 0
        start = _kernels.eval_batch("t22", 0.0, *_kernels.a2a3(ST, 2.0, 2.0, w1, w2))
        val, p1, p2 = polish_one(ST, 2.0, 2.0, "t22", 0.0, w1, w2, 40)
        assert (type(val), type(p1), type(p2)) == (float, complex, complex)
        assert in_region(p1, p2)
        assert val >= start[5]
        assert val == pytest.approx(13.0, abs=1e-12)

    def test_first_item_is_the_largest_row_value(self):
        # The benchmark's tracer reads float(result[0]) of each polish call.
        pts = random_points(32, seed=11)
        w1 = np.array([p.w1 for p in pts]).reshape(2, 16)
        w2 = np.array([p.w2 for p in pts]).reshape(2, 16)
        best, rows = _kernels.polish(CV, 1.3, -0.4, ("t22", "t31"), 0.0,
                                     w1, w2, 3)
        assert type(best) is float and len(rows) == 2
        assert best == max(value for value, _, _ in rows) == rows[1][0]

    @pytest.mark.parametrize("kind", [ST, CV])
    @pytest.mark.parametrize("name", ["t22", "t31", "fs"])
    def test_divides_by_no_zero(self, kind, name):
        # On or outside the circle with w2 = 0, |w2| and its cap are both 0:
        # the projection must not divide there, or numpy warns on stderr.
        w1 = np.array([1j, -1, 0.6 + 0.8j, 0.3, 1.5])
        w2 = np.array([0, 0, 0, 0.2j, 0])
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            polish_one(kind, 1.3, -0.4, name, 0.7, w1, w2, 12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([ST, CV]),
           st.sampled_from(["t22", "t31", "fs"]),
           st.floats(0.1, 3.0), st.floats(-2.0, 2.0))
    def test_batch_is_best_of_single_polishes(self, seed, kind, name, b1, b2):
        # The shared step must not couple the candidates.
        pts = random_points(6, seed=seed)
        w1 = np.array([p.w1 for p in pts])
        w2 = np.array([p.w2 for p in pts])
        batch = polish_one(kind, b1, b2, name, 0.7, w1, w2, 12)
        single = max(polish_one(kind, b1, b2, name, 0.7, p.w1, p.w2, 12)[0]
                     for p in pts)
        assert batch[0] == pytest.approx(single, rel=1e-14, abs=0)


class TestArgmaxCarriesItsValue:
    """The value returned is the functional at the point returned.  The
    points here have w2 != 0, where evaluating one point and reporting
    another (say, w2 read as x2 - i*y2) shows: at w2 = 0 it cannot."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([ST, CV]),
           st.sampled_from(["t22", "t31", "fs"]),
           st.floats(0.1, 3.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.integers(0, 3))
    def test_polish(self, seed, kind, name, b1, b2, mu, halvings):
        pts = random_points(6, seed=seed)
        w1 = np.array([p.w1 for p in pts])
        w2 = np.array([p.w2 for p in pts])
        val, p1, p2 = polish_one(kind, b1, b2, name, mu, w1, w2, halvings)
        at, scale = value_and_scale(kind, b1, b2, name, mu, p1, p2)
        assert abs(val - at) <= 1e-13 * scale

    @pytest.mark.parametrize("kind", [ST, CV])
    @pytest.mark.parametrize("polish_steps", [0, 3])
    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_maximize_when_a_draw_wins(self, monkeypatch, kind, polish_steps, mu):
        # Only the origin is distinguished, so the Fekete-Szego maximum of
        # this middle-branch cell, at w1 = 0 and |w2| = 1, goes to a draw.
        monkeypatch.setattr(oracle, "DISTINGUISHED", ((0j, 0j),))
        cfg = OracleConfig(samples=64, seed=3, polish_steps=polish_steps)
        res = maximize(kind, 1.0, -0.9, ("fs",), cfg, mu=mu)[0]
        assert res.argmax.w1 != 0 and res.argmax.w2 != 0
        a2, a3 = _kernels.a2a3(kind, 1.0, -0.9, *res.argmax)
        assert _kernels.functional("fs", a2, a3, mu) == pytest.approx(res.sup_estimate,
                                                                    rel=1e-13)


@st.composite
def schwarz_points(draw):
    """A point of the Schur region |w1| <= 1, |w2| <= 1 - |w1|^2."""
    r = draw(st.floats(0.0, 1.0))
    rho = draw(st.floats(0.0, 1.0)) * (1.0 - r * r)
    t1, t2 = draw(st.floats(0.0, 2 * cmath.pi)), draw(st.floats(0.0, 2 * cmath.pi))
    return cmath.rect(r, t1), cmath.rect(rho, t2)


def value_and_scale(kind, b1, b2, name, mu, w1, w2):
    """The functional at (w1, w2) and a bound on the size of its terms.

    The tolerance is relative to the terms, not to the value, which can
    cancel to zero.
    """
    a2, a3 = _kernels.a2a3(kind, b1, b2, w1, w2)
    scale = (1.0 + abs(mu)) * (1.0 + abs(a2) ** 2 + abs(a3)) ** 2
    return _kernels.functional(name, a2, a3, mu), scale


class TestInvariance:
    @settings(max_examples=200, deadline=None)
    @given(schwarz_points(), st.sampled_from([ST, CV]),
           st.sampled_from(["t22", "t31", "fs"]),
           st.floats(0.01, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_conjugation(self, point, kind, name, b1, b2, mu):
        # Real B1, B2 and mu: F(conj w1, conj w2) = F(w1, w2).
        w1, w2 = point
        base, scale = value_and_scale(kind, b1, b2, name, mu, w1, w2)
        conj, _ = value_and_scale(kind, b1, b2, name, mu,
                                  w1.conjugate(), w2.conjugate())
        assert abs(conj - base) <= 1e-12 * scale

    @settings(max_examples=200, deadline=None)
    @given(st.lists(schwarz_points(), min_size=1, max_size=40), st.sampled_from([ST, CV]),
           st.sampled_from(["t22", "t31", "fs"]),
           st.floats(0.01, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_sign_and_conjugation_are_bitwise(self, points, kind, name, b1, b2, mu):
        # w1 enters as a2 = c*w1 and w1*w1, and a2 only as a2*a2, so w1 -> -w1
        # moves no bit; B1, B2 and mu are real, so conjugation conjugates each
        # step exactly and leaves every modulus.  The ties between the
        # conjugate witnesses (+-i, 0) rest on this.
        w1, w2 = np.array(points).T.copy()  # contiguous rows, like their images

        def images(w1, w2):
            return [(w1, w2), (-w1, w2), (w1.conjugate(), w2.conjugate()),
                    (-w1.conjugate(), w2.conjugate())]

        arrays = {_kernels.eval_batch(name, mu, *_kernels.a2a3(kind, b1, b2, *p)).tobytes()
                  for p in images(w1, w2)}
        assert len(arrays) == 1
        for p1, p2 in points:
            scalars = {_kernels.functional(name, *_kernels.a2a3(kind, b1, b2, *p), mu).hex()
                       for p in images(p1, p2)}
            assert len(scalars) == 1

    @settings(max_examples=200, deadline=None)
    @given(schwarz_points(), st.sampled_from([ST, CV]), st.floats(0.0, 2 * cmath.pi),
           st.floats(0.01, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_fekete_szego_rotation(self, point, kind, theta, b1, b2, mu):
        # w1 -> u w1, w2 -> u^2 w2 maps a2 -> u a2 and a3 -> u^2 a3, |u| = 1.
        w1, w2 = point
        u = cmath.exp(1j * theta)
        base, scale = value_and_scale(kind, b1, b2, "fs", mu, w1, w2)
        turned, _ = value_and_scale(kind, b1, b2, "fs", mu,
                                    u * w1, u * u * w2)
        assert abs(turned - base) <= 1e-12 * scale


class TestMaximumModulus:
    """For fixed w1 each functional is |a polynomial in w2|, so its maximum
    over the disc |w2| <= 1 - |w1|^2 lies on the circle.  The oracle's
    search of the whole region rests on this reduction.

    The interior value comes from the batch kernel the oracle samples with;
    the circle is evaluated by the independent Caratheodory route, so a
    change to the coefficient map that keeps it polynomial in w2 still
    shows.
    """

    CIRCLE = np.exp(2j * np.pi * np.arange(4096) / 4096)

    @pytest.mark.parametrize("kind", [ST, CV])
    @pytest.mark.parametrize("name", ["t22", "t31", "fs"])
    @settings(max_examples=60, deadline=None)
    @given(r=st.floats(0.0, 1.0), t1=st.floats(0.0, 2 * cmath.pi),
           shrink=st.floats(0.0, 0.99), t2=st.floats(0.0, 2 * cmath.pi),
           b1=st.floats(0.01, 5.0), b2=st.floats(-5.0, 5.0), mu=st.floats(-5.0, 5.0))
    def test_interior_is_at_most_the_circle(self, kind, name, r, t1, shrink, t2,
                                            b1, b2, mu):
        w1 = cmath.rect(r, t1)
        cap = 1.0 - r * r
        w2 = cmath.rect(shrink * cap, t2)
        inside = _kernels.eval_batch(name, mu, *_kernels.a2a3(
            kind, b1, b2, np.array([w1]), np.array([w2])))[0]
        a2, a3 = a2a3_from_caratheodory(kind, b1, b2, 2 * w1,
                                        2 * (cap * self.CIRCLE + w1 * w1))
        on_circle = _kernels.functional(name, a2, a3, mu).max()
        _, scale = value_and_scale(kind, b1, b2, name, mu, w1, w2)
        assert inside <= on_circle + 1e-9 * scale
