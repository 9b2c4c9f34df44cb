"""Unit and property tests for the truncated power series kernel."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplitz_bounds import series
from toeplitz_bounds.series import Series, from_coeffs


def approx_equal(a: Series, b: Series, tol: float) -> bool:
    return series.max_abs_diff(a, b) <= tol


coeff = st.complex_numbers(
    max_magnitude=10, allow_nan=False, allow_infinity=False
)


@st.composite
def random_series(draw, order=None, min_order=2, max_order=8):
    n = order if order is not None else draw(st.integers(min_order, max_order))
    return Series(tuple(draw(st.lists(coeff, min_size=n + 1, max_size=n + 1))))


@st.composite
def random_series_triple(draw):
    n = draw(st.integers(2, 8))
    return tuple(draw(random_series(order=n)) for _ in range(3))


def unit_constant(s: Series) -> Series:
    return Series((1,) + s.coeffs[1:])


def zero_constant(s: Series) -> Series:
    return Series((0j,) + s.coeffs[1:])


class TestBasicOps:
    def test_add_cancellation(self):
        a = from_coeffs((1, 1), 1)
        b = from_coeffs((1, -1), 1)
        assert (a + b).coeffs == (2, 0)

    def test_add_identity(self):
        s = from_coeffs((3, 1j, -2), 2)
        assert s + series.zero(2) == s

    def test_add_coefficientwise(self):
        a = from_coeffs((1, 2, 2), 2)
        b = from_coeffs((0, 0, 1), 2)
        assert (a + b).coeffs == (1, 2, 3)

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order mismatch"):
            series.add(series.one(2), series.one(3))

    def test_mul_difference_of_squares(self):
        a = from_coeffs((1, 1), 2)
        b = from_coeffs((1, -1), 2)
        assert (a * b).coeffs == (1, 0, -1)

    def test_mul_identity(self):
        s = from_coeffs((2, 1j, -1), 2)
        assert s * series.one(2) == s

    def test_mul_truncates(self):
        s = from_coeffs((1, 1, 1), 2)
        assert (s * s).coeffs == (1, 2, 3)

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_max_abs_diff_keeps_nan(self, at):
        cs = [0j, 0j, 0j]
        cs[at] = complex("nan")
        a = from_coeffs((5, 0, 0), 2)
        assert math.isnan(series.max_abs_diff(a, Series(tuple(cs))))

    def test_from_coeffs_cuts_and_pads(self):
        assert from_coeffs((1, 2, 3), 1).coeffs == (1, 2)
        assert from_coeffs((), 2) == series.zero(2)
        assert from_coeffs((1, 2)).order == 1
        with pytest.raises(ValueError, match="order must be >= 0"):
            from_coeffs((1, 2), -2)

    def test_derive_power_rule(self):
        f = from_coeffs((0, 1, 2, 3), 3)
        assert series.derive(f).coeffs == (1, 4, 9, 0)

    def test_derive_constant(self):
        assert series.derive(series.one(3)) == series.zero(3)


class TestDiv:
    def test_geometric(self):
        q = series.div(from_coeffs((1, 1), 3), from_coeffs((1, -1), 3))
        assert q.coeffs == (1, 2, 2, 2)

    def test_self_division(self):
        s = from_coeffs((2, 1, 1j), 2)
        assert approx_equal(series.div(s, s), series.one(2), 1e-15)

    def test_janowski_coefficients(self):
        # (1+Az)/(1+Bz) = 1 + (A-B)z - B(A-B)z^2 + ... with A=.5, B=-.5
        q = series.div(from_coeffs((1, 0.5), 2), from_coeffs((1, -0.5), 2))
        assert approx_equal(q, from_coeffs((1, 1, 0.5), 2), 1e-15)

    def test_zero_constant_divisor(self):
        with pytest.raises(ValueError, match="zero constant"):
            series.div(series.one(2), series.z(2))


class TestCompose:
    def test_rotation(self):
        outer = from_coeffs((1, 2, 3), 2)
        inner = series.z(2).scale(1j)
        assert approx_equal(series.compose(outer, inner),
                            from_coeffs((1, 2j, -3), 2), 1e-15)

    def test_identity_inner(self):
        s = from_coeffs((1, -2, 1j), 2)
        assert approx_equal(series.compose(s, series.z(2)), s, 1e-15)

    def test_affine_outer(self):
        outer = from_coeffs((1, 1), 2)
        inner = from_coeffs((0, 2, 3), 2)
        assert approx_equal(series.compose(outer, inner),
                            from_coeffs((1, 2, 3), 2), 1e-15)

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError, match="zero constant"):
            series.compose(series.one(2), series.one(2))


class TestSqrtExpLog:
    def test_lune_expansion(self):
        # z + sqrt(1+z^2) = 1 + z + z^2/2 + 0 z^3 - z^4/8
        s = series.sqrt1p(from_coeffs((1, 0, 1), 4)) + series.z(4)
        assert approx_equal(s, from_coeffs((1, 1, 0.5, 0, -0.125), 4), 1e-15)

    def test_sqrt_of_one(self):
        assert series.sqrt1p(series.one(4)) == series.one(4)

    def test_exp_series(self):
        e = series.exp(series.z(3))
        assert approx_equal(e, from_coeffs((1, 1, 0.5, 1 / 6), 3), 1e-15)

    def test_log_exp_roundtrip(self):
        assert approx_equal(series.log(series.exp(series.z(5))), series.z(5), 1e-12)

    def test_parabolic_construction(self):
        # (2/pi^2)(2 artanh t)^2 with t^2 = z gives B1 = 8/pi^2,
        # B2 = 16/(3 pi^2), B3 = 184/(45 pi^2).
        order = 3
        g = Series(tuple(1 / (2 * k + 1) for k in range(order + 1)))
        phi = series.one(order) + series.mul(
            series.mul(g, g), series.z(order)
        ).scale(8 / math.pi**2)
        pi2 = math.pi**2
        expected = from_coeffs((1, 8 / pi2, 16 / (3 * pi2), 184 / (45 * pi2)), order)
        assert approx_equal(phi, expected, 1e-15)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            series.sqrt1p(series.z(2))
        with pytest.raises(ValueError):
            series.exp(series.one(2))
        with pytest.raises(ValueError):
            series.log(series.z(2))


class TestRingProperties:
    # Addition is exact in floats; products of magnitude-10 coefficients
    # accumulate rounding up to a few 1e-12, so mul-based axioms get the
    # 1e-10 gate tolerance.

    @given(random_series_triple())
    def test_add_mul_commute(self, abc):
        a, b, _ = abc
        assert approx_equal(a + b, b + a, 1e-12)
        assert approx_equal(a * b, b * a, 1e-10)

    @given(random_series_triple())
    def test_associativity(self, abc):
        a, b, c = abc
        assert approx_equal((a + b) + c, a + (b + c), 1e-12)
        assert approx_equal((a * b) * c, a * (b * c), 1e-10)

    @given(random_series_triple())
    def test_distributivity(self, abc):
        a, b, c = abc
        assert approx_equal(a * (b + c), a * b + a * c, 1e-10)

    @given(random_series_triple())
    def test_div_roundtrip(self, abc):
        a, b, _ = abc
        if abs(b.coeffs[0]) < 1e-6:
            b = Series((1,) + b.coeffs[1:])
        q = series.div(a, b)
        # Small divisor constants make the quotient explode; scale the
        # tolerance with its magnitude, floored at the gate tolerance.
        tol = 1e-10 * max(1.0, max(abs(c) for c in q.coeffs))
        assert approx_equal(series.mul(q, b), a, tol)

    def test_div_roundtrip_tiny_constant(self):
        a = from_coeffs((2, 1, -1), 2)
        b = from_coeffs((1e-6, 0.5), 2)
        q = series.div(a, b)
        scale = max(abs(c) for c in q.coeffs)
        assert series.max_abs_diff(series.mul(q, b), a) <= 1e-10 * scale

    @settings(deadline=None)
    @given(random_series_triple())
    def test_compose_associativity(self, abc):
        a, b, c = abc
        b, c = zero_constant(b), zero_constant(c)
        lhs = series.compose(series.compose(a, b), c)
        rhs = series.compose(a, series.compose(b, c))
        # composed coefficients grow like products of inner powers; scale
        # the tolerance with their magnitude
        scale = max(1.0, max(abs(x) for x in lhs.coeffs + rhs.coeffs))
        assert approx_equal(lhs, rhs, 1e-10 * scale)

    @given(random_series_triple())
    def test_product_rule(self, abc):
        a, b, _ = abc
        lhs = series.derive(series.mul(a, b))
        rhs = series.mul(series.derive(a), b) + series.mul(a, series.derive(b))
        assert series.max_abs_diff(lhs, rhs, upto=a.order - 1) <= 1e-9

    @given(random_series(min_order=2, max_order=6))
    def test_sqrt_roundtrip(self, s):
        # Magnitude-10 inputs let sqrt coefficients blow up; keep the
        # roundtrip well-conditioned.
        s = unit_constant(s.scale(0.2))
        r = series.sqrt1p(s)
        assert approx_equal(series.mul(r, r), s, 1e-10)

    @given(random_series(min_order=2, max_order=6))
    def test_exp_log_roundtrip(self, s):
        s = zero_constant(s.scale(0.1))
        assert approx_equal(series.log(series.exp(s)), s, 1e-10)
