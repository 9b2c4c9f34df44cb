"""Tests for the phi catalog: expansions, coefficients, admissibility."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toeplitz_bounds import catalog, series
from toeplitz_bounds.catalog import PhiSpec, b_coeffs, phi_series, validate
from toeplitz_bounds.series import from_coeffs


def one(order):
    """The series 1 of the given order."""
    return from_coeffs((1,), order)


def z(order):
    """The series z of the given order."""
    return from_coeffs((0, 1), order)


def close(s, expected, tol=1e-12):
    return series.max_abs_diff(s, expected) <= tol


def closed_form_b12(spec):
    """The documented (B1, B2) of each catalog kind, the reference for b_coeffs."""
    if spec.kind == "janowski":
        return (spec.A - spec.B, -spec.B * (spec.A - spec.B))
    if spec.kind == "order-alpha":
        a = spec.alpha
        return (2 * (1 - a), 2 * (1 - a))
    if spec.kind == "exp":
        return (1 - spec.alpha, (1 - spec.alpha) / 2)
    return {
        "cardioid": (4 / 3, 2 / 3),
        "sine": (1.0, 0.0),
        "lune": (1.0, 0.5),
        "parabolic": (8 / math.pi**2, 16 / (3 * math.pi**2)),
        "limacon": (math.sqrt(2), 0.5),
        "nephroid": (1.0, 0.0),
    }[spec.kind]


class TestPhiSeries:
    def test_classical_half_plane(self):
        s = phi_series(catalog.janowski(1, -1), order=3)
        assert close(s, from_coeffs((1, 2, 2, 2), 3))

    def test_cardioid(self):
        s = phi_series(catalog.TABLE["cardioid"], order=2)
        assert close(s, from_coeffs((1, 4 / 3, 2 / 3), 2))

    def test_sine(self):
        s = phi_series(catalog.TABLE["sine"], order=3)
        assert close(s, from_coeffs((1, 1, 0, -1 / 6), 3))

    def test_lune(self):
        s = phi_series(catalog.TABLE["lune"], order=4)
        assert close(s, from_coeffs((1, 1, 0.5, 0, -0.125), 4))

    def test_nephroid(self):
        s = phi_series(catalog.TABLE["nephroid"], order=3)
        assert close(s, from_coeffs((1, 1, 0, -1 / 3), 3))

    def test_parabolic_third_coefficient(self):
        s = phi_series(catalog.TABLE["parabolic"], order=3)
        assert abs(s[3] - 184 / (45 * math.pi**2)) <= 1e-12

    @pytest.mark.parametrize("spec,message", [
        (PhiSpec("janowski"), "janowski requires parameters A and B"),
        (PhiSpec("janowski", A=0.5), "janowski requires parameters A and B"),
        (PhiSpec("order-alpha"), "order-alpha requires parameter alpha"),
        (PhiSpec("exp"), "exp requires parameter alpha"),
    ])
    def test_missing_parameters(self, spec, message):
        # validate names the same violation after its "inadmissible spec: " prefix
        with pytest.raises(ValueError, match=f"^{message}$"):
            phi_series(spec, order=3)
        assert violation(spec) == message

    def test_default_order(self):
        assert phi_series(catalog.TABLE["sine"]) == phi_series(catalog.TABLE["sine"], 10)
        assert len(phi_series(catalog.TABLE["sine"])) == 11

    def test_integer_parameters_give_floats(self):
        for spec in (PhiSpec("janowski", A=1, B=-1), PhiSpec("order-alpha", alpha=0),
                     PhiSpec("exp", alpha=0), catalog.custom(1, 2)):
            assert all(type(c) is float for c in phi_series(spec, 4))


class TestCustomConstructor:
    """A custom phi is real from construction on: its coefficients are
    floats, and one more than REAL_TOL off the real axis is refused."""

    @pytest.mark.parametrize("coeffs", [
        (1, 0.5j), (0.5j, 0.5j), (1, 0.5, 0.3j), (1 + 2e-12j,), (1, 0.5 - 2e-12j),
        (1.0, 0.0, complex(0, float("inf"))), (complex(1, float("nan")),),
    ])
    def test_rejects_a_coefficient_off_the_axis(self, coeffs):
        with pytest.raises(ValueError, match="^custom coefficients must be real$"):
            catalog.custom(*coeffs)
        with pytest.raises(ValueError, match="^custom coefficients must be real$"):
            PhiSpec("custom", custom=coeffs)

    @pytest.mark.parametrize("coeffs", [
        (1, 2), (1 + 1e-12j, 2), (1, 0.5 - 1e-12j, -0.0), (complex(-0.0, 1e-12), 0.0),
        (-0.0, complex(0.5, -0.0)), (5e-324, float("nan"), float("inf")),
    ])
    def test_stores_the_real_part_bit_for_bit(self, coeffs):
        spec = catalog.custom(*coeffs)
        assert all(type(c) is float for c in spec.custom)
        assert repr(spec.custom) == repr(tuple(complex(c).real for c in coeffs))
        assert spec.describe_params() == dict(zip(("b1", "b2", "b3"), spec.custom))

    def test_b1_and_b2_within_the_tolerance(self):
        assert b_coeffs(catalog.custom(1 + 1e-12j, 0.5 - 1e-12j)) == (1.0, 0.5)
        assert catalog.custom(1 + 1e-12j, 2).describe_params() == {"b1": 1.0, "b2": 2.0}

    def test_replace_and_make_run_the_checks(self):
        # the namedtuple API builds through __new__ too, not around it
        with pytest.raises(ValueError, match="^custom coefficients must be real$"):
            catalog.custom(1.0, 0.5)._replace(custom=(1.0, 0.5j))
        with pytest.raises(ValueError, match="^custom coefficients must be real$"):
            PhiSpec._make(("custom", None, None, None, (2j,)))
        with pytest.raises(ValueError, match="^unknown phi kind 'cusp'$"):
            catalog.TABLE["cardioid"]._replace(kind="cusp")
        spec = catalog.custom(1.0, 0.5)._replace(custom=(2, 1e-12j, -0.0))
        assert type(spec) is PhiSpec
        assert repr(spec.custom) == "(2.0, 0.0, -0.0)"
        assert PhiSpec._make(spec) == spec


class TestElementwiseMaps:
    """The lune and parabolic maps add series element-wise, and sine is
    built from floats; their reprs, signed zeros included, are pinned as
    they were built before a series became a tuple."""

    def test_lune_is_z_plus_root(self):
        got = phi_series(catalog.TABLE["lune"], 7)
        assert repr(got) == "(1.0, 1.0, 0.5, 0.0, -0.125, 0.0, 0.0625, 0.0)"
        root = series.sqrt1p(from_coeffs((1, 0, 1), 7))
        assert got == tuple(x + y for x, y in zip(z(7), root))

    def test_parabolic_is_one_plus_scaled_tail(self):
        got = phi_series(catalog.TABLE["parabolic"], 4)
        assert repr(got) == ("(1.0, 0.8105694691387022, 0.5403796460924681, "
                             "0.41429106200422555, 0.33966720611526563)")
        assert got[0] == 1
        # 1 + (8/pi^2) z g(z)^2 with g = sum z^k/(2k+1): g^2 = 1 + 2/3 z + ...
        assert got[1] == 8 / math.pi**2
        assert abs(got[2] - 8 / math.pi**2 * 2 / 3) <= 1e-16

    def test_sine_repr(self):
        assert repr(phi_series(catalog.TABLE["sine"], 5)) == (
            "(1.0, 1.0, 0.0, -0.16666666666666666, 0.0, 0.008333333333333333)")


class TestBCoeffs:
    def test_exponential(self):
        assert b_coeffs(catalog.alpha_exponential(0.0)) == pytest.approx((1.0, 0.5))

    def test_limacon(self):
        b1, b2 = b_coeffs(catalog.TABLE["limacon"])
        assert b1 == pytest.approx(math.sqrt(2), abs=1e-14)
        assert b2 == pytest.approx(0.5, abs=1e-14)

    def test_parabolic(self):
        b1, b2 = b_coeffs(catalog.TABLE["parabolic"])
        assert b1 == pytest.approx(8 / math.pi**2, abs=1e-13)
        assert b2 == pytest.approx(16 / (3 * math.pi**2), abs=1e-13)

    @pytest.mark.parametrize("spec", [
        catalog.janowski(0.75, -0.25),
        catalog.order_alpha(0.3),
        catalog.alpha_exponential(0.6),
        catalog.TABLE["cardioid"],
        catalog.TABLE["sine"],
        catalog.TABLE["lune"],
        catalog.TABLE["parabolic"],
        catalog.TABLE["limacon"],
        catalog.TABLE["nephroid"],
    ])
    def test_expansion_matches_closed_form(self, spec):
        b1, b2 = b_coeffs(spec)
        k1, k2 = closed_form_b12(spec)
        assert abs(b1 - k1) <= 1e-12
        assert abs(b2 - k2) <= 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75])
def test_order_alpha_is_janowski_special_case(alpha):
    lhs = phi_series(catalog.order_alpha(alpha), order=8)
    rhs = phi_series(catalog.janowski(1 - 2 * alpha, -1), order=8)
    assert close(lhs, rhs)


def violation(spec):
    """What validate names for an inadmissible spec, without its prefix."""
    with pytest.raises(ValueError, match="^inadmissible spec: ") as exc:
        validate(spec)
    return str(exc.value).removeprefix("inadmissible spec: ")


def admissible(spec) -> bool:
    try:
        validate(spec)
    except ValueError:
        return False
    return True


class TestValidate:
    def test_admissible_janowski(self):
        assert validate(catalog.janowski(0.5, -0.5)) is None

    def test_janowski_needs_b_below_a(self):
        assert "B < A" in violation(catalog.janowski(0.2, 0.8))

    def test_custom_b1_zero(self):
        assert "B1 > 0" in violation(catalog.custom(0.0))

    @pytest.mark.parametrize("coeffs", [
        (1.0, float("nan")), (float("inf"), 0.0), (1.0, 0.0, -float("inf")),
    ])
    def test_custom_non_finite(self, coeffs):
        assert "finite" in violation(catalog.custom(*coeffs))

    @pytest.mark.parametrize("A,B", [(0.5, -1.5), (1.5, 0.0), (0.5, 0.5)])
    def test_janowski_parameter_range(self, A, B):
        # -1 <= B < A <= 1: B below -1, A above 1 and B = A are rejected
        assert violation(catalog.janowski(A, B)) == "janowski requires -1 <= B < A <= 1"
        assert admissible(catalog.janowski(1.0, -1.0))

    def test_alpha_range(self):
        assert not admissible(catalog.alpha_exponential(1.0))
        assert admissible(catalog.alpha_exponential(0.999))

    @pytest.mark.parametrize("spec,message", [
        (PhiSpec("janowski", A=0.5), "janowski requires parameters A and B"),
        (PhiSpec("janowski", B=0.5), "janowski requires parameters A and B"),
        (PhiSpec("order-alpha"), "order-alpha requires parameter alpha"),
        (PhiSpec("exp"), "exp requires parameter alpha"),
        (catalog.order_alpha(-0.1), "order-alpha requires 0 <= alpha < 1"),
        (catalog.alpha_exponential(float("nan")), "exp requires 0 <= alpha < 1"),
        (PhiSpec("custom"), "custom requires at least the coefficient b1"),
    ])
    def test_each_violation_is_named(self, spec, message):
        assert violation(spec) == message

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PhiSpec("koebe")

    @pytest.mark.parametrize("b1", [0.0, -0.0, -1.0, complex(-0.0, 1e-12), -1 - 1e-12j])
    def test_custom_b1_not_positive(self, b1):
        assert violation(catalog.custom(b1, 0.5)) == "B1 > 0 violated"

    @pytest.mark.parametrize("b1", [5e-324, 1 + 1e-12j, 1 - 1e-12j])
    def test_custom_b1_within_real_tol(self, b1):
        assert admissible(catalog.custom(b1))

    @pytest.mark.parametrize("b1", [float("nan"), -float("inf")])
    def test_finite_check_comes_first(self, b1):
        assert violation(catalog.custom(b1)) == "custom coefficients must be finite"

    @pytest.mark.parametrize("spec", [
        *catalog.TABLE.values(), catalog.janowski(0.5, -0.5), catalog.janowski(0.5, 0.5),
        catalog.order_alpha(0.3), catalog.alpha_exponential(1.0), catalog.custom(1.0, -0.9),
        catalog.custom(-0.5), catalog.PhiSpec("custom"),
    ])
    def test_expands_no_phi(self, monkeypatch, spec):
        def refuse(*args, **kwargs):
            raise AssertionError("validate expanded phi")

        monkeypatch.setattr(catalog, "phi_series", refuse)
        admissible(spec)


# validate checks the parameters only; these are the facts about phi that
# it relies on, for every kind
WIDE = st.floats(-1.5, 1.5)
ACCEPTED = st.one_of(
    st.builds(catalog.janowski, WIDE, WIDE),
    st.builds(catalog.order_alpha, WIDE),
    st.builds(catalog.alpha_exponential, WIDE),
    st.sampled_from([PhiSpec(kind) for kind, needs in catalog.PARAMS.items() if not needs]),
    st.lists(st.floats(-1e6, 1e6), max_size=3).map(lambda cs: catalog.custom(*cs)),
).filter(admissible)


@given(ACCEPTED)
@example(catalog.order_alpha(1 - 2**-53))
@example(catalog.alpha_exponential(1 - 2**-53))
@example(catalog.janowski(0.5, math.nextafter(0.5, -math.inf)))
@example(catalog.janowski(math.nextafter(-1.0, 0.0), -1.0))
@example(catalog.janowski(1.0, -1.0))
@example(catalog.custom(5e-324))
@example(catalog.custom(1 + 1e-12j))
def test_accepted_spec_has_phi0_one_and_positive_b1(spec):
    validate(spec)
    head = phi_series(spec, 3)
    assert head[0] == 1.0 and head[1] > 0


# The janowski and exp expansions as they were built before the closed
# forms: series division of 1+Az by 1+Bz, and the formal exponential of z
# through e' = z'e, both in complex arithmetic.  phi_series must give the
# same repr as a complex series, which also tells apart 0.0 and -0.0.

def as_complex(s):
    return tuple(map(complex, s))


def ref_janowski(A, B, order):
    pad = (0j,) * (order - 1)
    a, b = (1 + 0j, complex(A)) + pad, (1 + 0j, complex(B)) + pad
    q = [0j] * (order + 1)
    for m in range(order + 1):
        acc = a[m]
        for k in range(1, m + 1):
            acc -= b[k] * q[m - k]
        q[m] = acc / b[0]
    return tuple(q)


def ref_exp(alpha, order):
    zs = (0j, 1 + 0j) + (0j,) * (order - 1)
    e = [0j] * (order + 1)
    e[0] = 1
    for m in range(1, order + 1):
        acc = 0j
        for k in range(1, m + 1):
            acc += k * zs[k] * e[m - k]
        e[m] = acc / m
    const = (complex(alpha),) + (0j,) * order
    return tuple(x + (1 - alpha) * complex(c) for x, c in zip(const, e))


def ref_parabolic(order):
    """The parabolic expansion as built before the factor z became a shift:
    a Cauchy product with the series z."""
    g = series.from_coeffs(1.0 / (2 * k + 1) for k in range(order + 1))
    g2 = series.mul(g, g)
    shifted = series.mul(g2, z(order))
    return tuple(x + 8 / math.pi**2 * y for x, y in zip(one(order), shifted))


UNIT = st.floats(-1, 1)
ALPHAS = st.one_of(st.just(0.0), st.floats(0, 1, exclude_max=True))
ORDERS = st.integers(2, 400)


class TestClosedForms:
    @settings(deadline=None)
    @given(UNIT, st.one_of(st.sampled_from([0.0, -1.0, 1e-300]), UNIT), ORDERS)
    @example(0.5, 0.0, 400)  # B = 0
    @example(1.0, -1.0, 400)  # the classical half-plane map
    @example(0.75, 0.5, 400)  # B > 0
    @example(-0.0, 0.0, 2)  # A - B = -0.0
    def test_janowski_matches_series_division(self, A, B, order):
        got = phi_series(catalog.janowski(A, B), order)
        assert repr(as_complex(got)) == repr(ref_janowski(A, B, order))
        # (1 + Az)/(1 + Bz) times 1 + Bz
        prod = series.mul(got, from_coeffs((1, B), order))
        assert series.max_abs_diff(prod, from_coeffs((1, A), order)) <= 1e-15

    @settings(deadline=None)
    @given(ALPHAS, ORDERS)
    @example(0.0, 400)
    def test_order_alpha_matches_series_division(self, alpha, order):
        got = phi_series(catalog.order_alpha(alpha), order)
        assert repr(as_complex(got)) == repr(ref_janowski(1 - 2 * alpha, -1.0, order))

    @settings(deadline=None)
    @given(ALPHAS, ORDERS)
    @example(0.0, 400)
    def test_exp_matches_formal_exponential(self, alpha, order):
        got = phi_series(catalog.alpha_exponential(alpha), order)
        assert repr(as_complex(got)) == repr(ref_exp(alpha, order))
        # alpha + (1 - alpha) e^z: (n+1) c_(n+1) = c_n for n >= 1
        assert got[1] == 1 - alpha
        for n in range(1, order):
            assert math.isclose((n + 1) * got[n + 1].real, got[n].real,
                                rel_tol=1e-15, abs_tol=1e-300)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 250))
    @example(2)
    @example(250)
    def test_parabolic_shift_matches_product_by_z(self, order):
        got = phi_series(catalog.TABLE["parabolic"], order)
        assert repr(got) == repr(ref_parabolic(order))


def positive_zeros(cs):
    """True when every zero part of every coefficient is +0.0."""
    return all(math.copysign(1, x) == 1
               for c in cs for x in (c.real, c.imag) if x == 0)


class TestClosedFormValues:
    """The values the series division and exponential were checked on, now
    checked on the closed forms that replaced them."""

    def test_geometric(self):
        # (1+z)/(1-z) = 1 + 2z + 2z^2 + ..., exactly
        assert phi_series(catalog.janowski(1, -1), order=3) == (1, 2, 2, 2)

    def test_janowski_coefficients(self):
        # (1+Az)/(1+Bz) = 1 + (A-B)z - B(A-B)z^2 + ... with A=.5, B=-.5
        assert phi_series(catalog.janowski(0.5, -0.5), order=2) == (1, 1, 0.5)

    def test_equal_parameters_give_one(self):
        for a in (-0.3, 0.0, 0.3):
            got = phi_series(catalog.janowski(a, a), order=6)
            assert got == one(6)
            assert positive_zeros(got)

    def test_b_zero_tail_is_positive_zero(self):
        got = phi_series(catalog.janowski(0.5, 0.0), order=6)
        assert got[:2] == (1, 0.5)
        assert got[2:] == (0,) * 5
        assert positive_zeros(got)

    def test_underflow_gives_positive_zero(self):
        got = phi_series(catalog.janowski(1.0, 1e-300), order=5)
        assert got[2] == -1e-300
        assert got[3:] == (0,) * 3
        assert positive_zeros(got)

    def test_exp_series(self):
        s = phi_series(catalog.alpha_exponential(0.0), order=3)
        assert close(s, from_coeffs((1, 1, 0.5, 1 / 6), 3), 1e-15)

    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-0.5, 0.5))
    def test_janowski_sums_to_the_map(self, A, B, r):
        cs = phi_series(catalog.janowski(A, B), order=60)
        value = sum(c * r**n for n, c in enumerate(cs))
        assert abs(value - (1 + A * r) / (1 + B * r)) <= 1e-12

    @given(ALPHAS, st.floats(-1, 1))
    def test_exp_sums_to_the_map(self, alpha, r):
        cs = phi_series(catalog.alpha_exponential(alpha), order=30)
        value = sum(c * r**n for n, c in enumerate(cs))
        assert abs(value - (alpha + (1 - alpha) * math.exp(r))) <= 1e-14
