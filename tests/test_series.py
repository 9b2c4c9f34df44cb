"""Unit and property tests for the truncated power series kernel."""

import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplitz_bounds import catalog, series
from toeplitz_bounds.series import from_coeffs


def one(order):
    """The series 1 of the given order."""
    return from_coeffs((1,), order)


def z(order):
    """The series z of the given order."""
    return from_coeffs((0, 1), order)


def approx_equal(a, b, tol: float) -> bool:
    return series.max_abs_diff(a, b) <= tol


def add(a, b):
    """Element-wise sum, as catalog's lune and parabolic maps write it."""
    assert len(a) == len(b)
    return tuple(x + y for x, y in zip(a, b))


def scale(factor, s):
    return tuple(factor * c for c in s)


coeff = st.complex_numbers(
    max_magnitude=10, allow_nan=False, allow_infinity=False
)


@st.composite
def random_series(draw, order=None, min_order=2, max_order=8):
    n = order if order is not None else draw(st.integers(min_order, max_order))
    return from_coeffs(draw(st.lists(coeff, min_size=n + 1, max_size=n + 1)))


@st.composite
def random_series_triple(draw):
    n = draw(st.integers(2, 8))
    return tuple(draw(random_series(order=n)) for _ in range(3))


def unit_constant(s):
    return (1 + 0j,) + s[1:]


def zero_constant(s):
    return (0j,) + s[1:]


class TestBasicOps:
    def test_order_mismatch(self):
        for op in (series.mul, series.compose, series.max_abs_diff):
            with pytest.raises(ValueError, match="order mismatch: 2 != 3"):
                op(z(2), z(3))

    def test_mul_difference_of_squares(self):
        a = from_coeffs((1, 1), 2)
        b = from_coeffs((1, -1), 2)
        assert series.mul(a, b) == (1, 0, -1)

    def test_mul_identity(self):
        s = from_coeffs((2, 1j, -1), 2)
        assert series.mul(s, one(2)) == s

    def test_mul_truncates(self):
        s = from_coeffs((1, 1, 1), 2)
        assert series.mul(s, s) == (1, 2, 3)

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_max_abs_diff_keeps_nan(self, at):
        cs = [0j, 0j, 0j]
        cs[at] = complex("nan")
        a = from_coeffs((5, 0, 0), 2)
        assert math.isnan(series.max_abs_diff(a, tuple(cs)))

    def test_max_abs_diff_is_the_largest_difference(self):
        a = from_coeffs((1, 2, 3), 2)
        assert series.max_abs_diff(a, from_coeffs((1, 2.5, 13), 2)) == 10
        assert series.max_abs_diff(a, from_coeffs((1, 12, 3.5), 2)) == 10
        assert series.max_abs_diff(a, a) == 0

    def test_from_coeffs_cuts_and_pads(self):
        assert from_coeffs((1, 2, 3), 1) == (1, 2)
        assert from_coeffs((), 2) == (0j, 0j, 0j)
        assert len(from_coeffs((1, 2))) == 2
        with pytest.raises(ValueError, match="order must be >= 0"):
            from_coeffs((1, 2), -2)
        with pytest.raises(ValueError, match="at least the constant coefficient"):
            from_coeffs(())

    def test_from_coeffs_keeps_signed_zeros(self):
        got = from_coeffs((-0.0, 1, complex(0.0, -0.0)), 3)
        assert repr(got) == "(-0.0, 1, -0j, 0.0)"


class TestCompose:
    def test_rotation(self):
        outer = from_coeffs((1, 2, 3), 2)
        inner = from_coeffs((0, 1j), 2)
        assert approx_equal(series.compose(outer, inner),
                            from_coeffs((1, 2j, -3), 2), 1e-15)

    def test_identity_inner(self):
        s = from_coeffs((1, -2, 1j), 2)
        assert approx_equal(series.compose(s, z(2)), s, 1e-15)

    def test_affine_outer(self):
        outer = from_coeffs((1, 1), 2)
        inner = from_coeffs((0, 2, 3), 2)
        assert approx_equal(series.compose(outer, inner),
                            from_coeffs((1, 2, 3), 2), 1e-15)

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError, match="zero constant"):
            series.compose(one(2), one(2))

    def test_accepts_a_constant_up_to_the_tolerance(self):
        inner = from_coeffs((series.COMPOSE_TOL, 1), 2)
        assert series.compose(from_coeffs((0, 1), 2), inner) == inner


class TestSqrt1p:
    def test_lune_expansion(self):
        # sqrt(1+z^2) = 1 + z^2/2 - z^4/8; the lune map adds z to it
        s = series.sqrt1p(from_coeffs((1, 0, 1), 4))
        assert s == (1, 0, 0.5, 0, -0.125)

    def test_sqrt_of_one(self):
        assert series.sqrt1p(one(4)) == one(4)

    def test_parabolic_construction(self):
        # (2/pi^2)(2 artanh t)^2 with t^2 = z gives B1 = 8/pi^2,
        # B2 = 16/(3 pi^2), B3 = 184/(45 pi^2).
        order = 3
        g = from_coeffs(1 / (2 * k + 1) for k in range(order + 1))
        phi = add(one(order),
                  scale(8 / math.pi**2, series.mul(series.mul(g, g), z(order))))
        pi2 = math.pi**2
        expected = from_coeffs((1, 8 / pi2, 16 / (3 * pi2), 184 / (45 * pi2)), order)
        assert approx_equal(phi, expected, 1e-15)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="constant term exactly 1"):
            series.sqrt1p(z(2))
        with pytest.raises(ValueError, match="constant term exactly 1"):
            series.sqrt1p(from_coeffs((1 + 1e-15, 1), 2))


class TestRingProperties:
    # Products of magnitude-10 coefficients accumulate rounding up to a
    # few 1e-12, so mul-based axioms get the 1e-10 gate tolerance.

    @given(random_series_triple())
    def test_mul_commutes(self, abc):
        a, b, _ = abc
        assert approx_equal(series.mul(a, b), series.mul(b, a), 1e-10)

    @given(random_series_triple())
    def test_associativity(self, abc):
        a, b, c = abc
        assert approx_equal(series.mul(series.mul(a, b), c),
                            series.mul(a, series.mul(b, c)), 1e-10)

    @given(random_series_triple())
    def test_distributivity(self, abc):
        a, b, c = abc
        assert approx_equal(series.mul(a, add(b, c)),
                            add(series.mul(a, b), series.mul(a, c)), 1e-10)

    @settings(deadline=None)
    @given(random_series_triple())
    def test_compose_associativity(self, abc):
        a, b, c = abc
        b, c = zero_constant(b), zero_constant(c)
        lhs = series.compose(series.compose(a, b), c)
        rhs = series.compose(a, series.compose(b, c))
        # composed coefficients grow like products of inner powers; scale
        # the tolerance with their magnitude
        size = max(1.0, max(abs(x) for x in lhs + rhs))
        assert approx_equal(lhs, rhs, 1e-10 * size)

    @given(random_series(min_order=2, max_order=6))
    def test_sqrt_roundtrip(self, s):
        # Magnitude-10 inputs let sqrt coefficients blow up; keep the
        # roundtrip well-conditioned.
        s = unit_constant(scale(0.2, s))
        r = series.sqrt1p(s)
        assert approx_equal(series.mul(r, r), s, 1e-10)


def as_complex(s):
    return tuple(map(complex, s))


def scatter_mul(a, b):
    """The Cauchy product as an input-index scatter over complex coefficients."""
    n = len(a) - 1
    out = [0j] * (n + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ai * b[j]
    return tuple(out)


REAL_ITEMS = st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10, 10)),
                      min_size=1, max_size=9)


class TestRealCoefficients:
    """On real floats mul and sqrt1p return floats, and give the real parts of
    the complex computation bit for bit: the O(N^2) work of catalog and
    extremal runs on floats."""

    @given(random_series_triple())
    def test_mul_is_the_scatter_bitwise(self, abc):
        a, b, _ = abc
        a = (0j,) + a[1:]  # a zero coefficient, which the scatter skips
        assert repr(series.mul(a, b)) == repr(scatter_mul(a, b))

    @given(REAL_ITEMS, REAL_ITEMS)
    def test_mul_on_floats(self, xs, ys):
        n = min(len(xs), len(ys))
        a, b = tuple(xs[:n]), tuple(ys[:n])
        got = series.mul(a, b)
        assert all(type(x) is float for x in got)
        assert repr(as_complex(got)) == repr(scatter_mul(as_complex(a), as_complex(b)))

    def test_mul_sums_in_index_order(self):
        # (1e16 - 1e16) + 1 is 1 in floats, but (1 - 1e16) + 1e16 is 0
        a, b = (1e16, -1e16, 1.0), (1.0, 1.0, 1.0)
        assert series.mul(a, b)[2] == 1.0
        assert series.mul(a[::-1], b)[2] == 0.0

    @given(REAL_ITEMS)
    def test_sqrt1p_on_floats(self, xs):
        a = (1.0,) + tuple(0.2 * x for x in xs)
        got = series.sqrt1p(a)
        assert type(got) is tuple and all(type(x) is float for x in got)
        assert as_complex(got) == series.sqrt1p(as_complex(a))

    def test_sqrt1p_of_a_float_one_is_a_float_one(self):
        assert repr(series.sqrt1p((1.0, 0.0, 0.0))) == "(1.0, 0.0, 0.0)"


def test_series_defines_no_class():
    """A series is a plain tuple; the module holds functions only."""
    assert not [name for name, obj in vars(series).items()
                if inspect.isclass(obj) and obj.__module__ == series.__name__]


ITEMS = st.lists(st.one_of(st.integers(-5, 5), st.floats(-5, 5), coeff),
                 min_size=1, max_size=8)


def all_complex(s) -> bool:
    return type(s) is tuple and len(s) > 0 and all(type(c) is complex for c in s)


class TestTupleContract:
    """Every phi_series coefficient is a float, for every kind: the CLI's
    byte-identical output depends on it.  The series operations keep the
    coefficient type they are given."""

    @given(ITEMS, st.one_of(st.none(), st.integers(0, 8)))
    def test_from_coeffs_keeps_each_element(self, items, order):
        got = from_coeffs(items, order)
        n = len(items) if order is None else order + 1
        assert type(got) is tuple and len(got) == n
        assert all(x is y for x, y in zip(got, items))
        assert repr(got[len(items):]) == repr((0.0,) * (n - len(items)))

    @settings(deadline=None)
    @given(ITEMS, ITEMS)
    def test_mul_compose_sqrt1p_on_complex(self, xs, ys):
        n = max(len(xs), len(ys)) - 1
        a, b = as_complex(from_coeffs(xs, n)), as_complex(from_coeffs(ys, n))
        assert all_complex(series.mul(a, b))
        assert all_complex(series.compose(a, zero_constant(b)))
        assert all_complex(series.sqrt1p(unit_constant(a)))

    @settings(deadline=None)
    @given(st.sampled_from(tuple(catalog.PARAMS)), st.integers(2, 40),
           st.floats(-1, 1), st.floats(0, 1, exclude_max=True))
    def test_phi_series_every_kind(self, kind, order, a, alpha):
        spec = {"janowski": catalog.janowski(a, -1.0),
                "order-alpha": catalog.order_alpha(alpha),
                "exp": catalog.alpha_exponential(alpha),
                "custom": catalog.custom(1, 0.5 * a, 0)}.get(kind, catalog.PhiSpec(kind))
        got = catalog.phi_series(spec, order)
        assert type(got) is tuple and len(got) == order + 1
        assert all(type(c) is float for c in got)
