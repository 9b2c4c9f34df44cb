"""Tests for the phi catalog: expansions, coefficients, admissibility."""

import math

import pytest

from toeplitz_bounds import catalog, series
from toeplitz_bounds.catalog import PhiSpec, b_coeffs, phi_series, validate
from toeplitz_bounds.series import from_coeffs


def close(s, expected, tol=1e-12):
    return series.max_abs_diff(s, expected) <= tol


class TestPhiSeries:
    def test_classical_half_plane(self):
        s = phi_series(catalog.janowski(1, -1), order=3)
        assert close(s, from_coeffs((1, 2, 2, 2), 3))

    def test_cardioid(self):
        s = phi_series(catalog.CARDIOID, order=2)
        assert close(s, from_coeffs((1, 4 / 3, 2 / 3), 2))

    def test_sine(self):
        s = phi_series(catalog.SINE, order=3)
        assert close(s, from_coeffs((1, 1, 0, -1 / 6), 3))

    def test_lune(self):
        s = phi_series(catalog.LUNE, order=4)
        assert close(s, from_coeffs((1, 1, 0.5, 0, -0.125), 4))

    def test_nephroid(self):
        s = phi_series(catalog.NEPHROID, order=3)
        assert close(s, from_coeffs((1, 1, 0, -1 / 3), 3))

    def test_parabolic_third_coefficient(self):
        s = phi_series(catalog.PARABOLIC, order=3)
        assert abs(s[3] - 184 / (45 * math.pi**2)) <= 1e-12

    def test_missing_parameters(self):
        with pytest.raises(ValueError):
            phi_series(PhiSpec("janowski"), order=3)


class TestBCoeffs:
    def test_exponential(self):
        assert b_coeffs(catalog.alpha_exponential(0.0)) == pytest.approx((1.0, 0.5))

    def test_limacon(self):
        b1, b2 = b_coeffs(catalog.LIMACON)
        assert b1 == pytest.approx(math.sqrt(2), abs=1e-14)
        assert b2 == pytest.approx(0.5, abs=1e-14)

    def test_parabolic(self):
        b1, b2 = b_coeffs(catalog.PARABOLIC)
        assert b1 == pytest.approx(8 / math.pi**2, abs=1e-13)
        assert b2 == pytest.approx(16 / (3 * math.pi**2), abs=1e-13)

    def test_complex_coefficients_rejected(self):
        with pytest.raises(ValueError, match="real"):
            b_coeffs(catalog.custom(1.0, 0.5j))

    @pytest.mark.parametrize("spec", [
        catalog.janowski(0.75, -0.25),
        catalog.order_alpha(0.3),
        catalog.alpha_exponential(0.6),
        catalog.CARDIOID,
        catalog.SINE,
        catalog.LUNE,
        catalog.PARABOLIC,
        catalog.LIMACON,
        catalog.NEPHROID,
    ])
    def test_expansion_matches_closed_form(self, spec):
        b1, b2 = b_coeffs(spec)
        k1, k2 = catalog.closed_form_b12(spec)
        assert abs(b1 - k1) <= 1e-12
        assert abs(b2 - k2) <= 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75])
def test_order_alpha_is_janowski_special_case(alpha):
    lhs = phi_series(catalog.order_alpha(alpha), order=8)
    rhs = phi_series(catalog.janowski(1 - 2 * alpha, -1), order=8)
    assert close(lhs, rhs)


class TestValidate:
    def test_admissible_janowski(self):
        assert validate(catalog.janowski(0.5, -0.5)).ok

    def test_janowski_needs_b_below_a(self):
        v = validate(catalog.janowski(0.2, 0.8))
        assert not v.ok
        assert any("B < A" in msg for msg in v.violations)

    def test_custom_b1_zero(self):
        v = validate(catalog.custom(0.0))
        assert not v.ok
        assert any("B1 > 0" in msg for msg in v.violations)

    @pytest.mark.parametrize("coeffs", [
        (1.0, float("nan")), (float("inf"), 0.0), (1.0, 0.0, complex(0, float("inf"))),
    ])
    def test_custom_non_finite(self, coeffs):
        v = validate(catalog.custom(*coeffs))
        assert not v.ok
        assert any("finite" in msg for msg in v.violations)

    def test_alpha_range(self):
        assert not validate(catalog.alpha_exponential(1.0)).ok
        assert validate(catalog.alpha_exponential(0.999)).ok

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PhiSpec("koebe")
