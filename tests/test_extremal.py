"""Tests for the extremal functions and their defining-equation residuals."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toeplitz_bounds import catalog, cli, extremal, series
from toeplitz_bounds.bounds import ClassKind, t22_bound, t31_bound
from toeplitz_bounds.extremal import ExtremalFunction, _phi_coeffs, h_phi, k_phi, residual

from test_series import scatter_mul

ST, CV = ClassKind.STARLIKE, ClassKind.CONVEX

CATALOG = list(catalog.TABLE.items())

# one spec of every catalog kind
ONE_PER_KIND = [
    catalog.janowski(0.5, -0.3), catalog.order_alpha(0.3),
    catalog.alpha_exponential(0.2), catalog.TABLE["cardioid"], catalog.TABLE["sine"],
    catalog.TABLE["lune"], catalog.TABLE["parabolic"], catalog.TABLE["limacon"],
    catalog.TABLE["nephroid"], catalog.custom(1.0, -0.9, 0.3),
]


def reference_psi(spec, order):
    """Coefficients of phi(i z) in complex arithmetic: the k-th coefficient
    of phi times i^k."""
    phi = map(complex, catalog.phi_series(spec, order))
    return tuple(c * (1, 1j, -1, -1j)[k % 4] for k, c in enumerate(phi))


def reference_k_phi(spec, order):
    """The complex recursion a_n = (1/(n-1)) * sum_{k=1}^{n-1} a_k psi_{n-k}."""
    psi = reference_psi(spec, order)
    a = [0j] * (order + 1)
    a[1] = 1 + 0j
    for n in range(2, order + 1):
        acc = 0j
        for k in range(1, n):
            acc += a[k] * psi[n - k]
        a[n] = acc / (n - 1)
    return ExtremalFunction(ST, tuple(a))


def reference_residual(ef, spec):
    """The defining-equation defect in K space, in complex arithmetic."""
    order = ef.order
    psi = reference_psi(spec, order)
    if ef.kind is ST:
        zfp = tuple(n * c for n, c in enumerate(ef.coeffs))
        return series.max_abs_diff(zfp, scatter_mul(ef.coeffs, psi))
    g = [0j] * (order + 1)
    for m in range(order):
        g[m] = (m + 1) * ef.coeffs[m + 1]
    zgp = tuple(m * c for m, c in enumerate(g))
    rhs = scatter_mul(tuple(g), (0j,) + psi[1:])
    return series.max_abs_diff(zgp[:order], rhs[:order])  # g_order is unknown


def convex_recursion(spec, order):
    """The former convex recursion for g = H': m g_m = sum_{k<m} g_k psi_{m-k}."""
    psi = reference_psi(spec, order)
    g = [0j] * order
    g[0] = 1 + 0j
    for m in range(1, order):
        acc = 0j
        for k in range(m):
            acc += g[k] * psi[m - k]
        g[m] = acc / m
    a = [0j] * (order + 1)
    for m in range(order):
        a[m + 1] = g[m] / (m + 1)
    return tuple(a)


class TestInitialCoefficients:
    @pytest.mark.parametrize("label,spec", CATALOG)
    def test_k_phi(self, label, spec):
        b1, b2 = catalog.b_coeffs(spec)
        ef = k_phi(spec)
        assert ef.a2 == pytest.approx(1j * b1, abs=1e-12)
        assert ef.a3 == pytest.approx(-(b1 * b1 + b2) / 2, abs=1e-12)

    @pytest.mark.parametrize("label,spec", CATALOG)
    def test_h_phi(self, label, spec):
        b1, b2 = catalog.b_coeffs(spec)
        ef = h_phi(spec)
        assert ef.a2 == pytest.approx(1j * b1 / 2, abs=1e-12)
        assert ef.a3 == pytest.approx(-(b1 * b1 + b2) / 6, abs=1e-12)

    @pytest.mark.parametrize("label,spec", CATALOG)
    def test_rotation_structure(self, label, spec):
        # real (B1, B2) force a purely imaginary a2 and a real a3
        for ef in (k_phi(spec), h_phi(spec)):
            assert abs(ef.a2.real) <= 1e-12
            assert abs(ef.a3.imag) <= 1e-12

    def test_normalization(self):
        ef = k_phi(catalog.TABLE["sine"])
        assert ef.coeffs[0] == 0
        assert ef.coeffs[1] == 1

    @pytest.mark.parametrize("spec", ONE_PER_KIND, ids=lambda spec: spec.kind)
    def test_coefficients_are_complex(self, spec):
        # a1 too: 1 + 0j, not the int 1 (starlike) or the float 1.0 (convex)
        for ef in (k_phi(spec, 12), h_phi(spec, 12)):
            assert all(type(c) is complex for c in ef.coeffs)
        c = _phi_coeffs(spec, 12)
        assert type(c) is tuple and all(type(x) is float for x in c)


class TestSharpness:
    def test_classical_t22(self):
        assert abs(k_phi(catalog.janowski(1, -1)).t22_value) == pytest.approx(13.0)

    def test_sine_t31(self):
        assert abs(k_phi(catalog.TABLE["sine"]).t31_value) == pytest.approx(15 / 4)

    def test_convex_exponential_t22(self):
        assert abs(h_phi(catalog.alpha_exponential(0)).t22_value) == pytest.approx(5 / 16)

    def test_convex_cardioid_t31(self):
        assert abs(h_phi(catalog.TABLE["cardioid"]).t31_value) == pytest.approx(1520 / 729)

    @pytest.mark.parametrize("label,spec", CATALOG)
    def test_extremal_attains_bounds(self, label, spec):
        b1, b2 = catalog.b_coeffs(spec)
        for kind, build in ((ST, k_phi), (CV, h_phi)):
            ef = build(spec)
            t22 = t22_bound(kind, b1, b2)
            t31 = t31_bound(kind, b1, b2)
            if t22.hypothesis_ok:
                assert abs(abs(ef.t22_value) - t22.value) <= 1e-9
            if t31.hypothesis_ok:
                assert abs(abs(ef.t31_value) - t31.value) <= 1e-9


class TestResidual:
    @pytest.mark.parametrize("label,spec", CATALOG)
    def test_defining_equation(self, label, spec):
        assert residual(k_phi(spec, order=10), spec) <= 1e-12
        assert residual(h_phi(spec, order=10), spec) <= 1e-12

    def test_sensitivity(self):
        spec = catalog.janowski(1, -1)
        ef = k_phi(spec, order=10)
        coeffs = list(ef.coeffs)
        coeffs[3] += 1e-3
        bad = ExtremalFunction(ef.kind, tuple(coeffs))
        assert residual(bad, spec) >= 1e-4

    def test_overflow_is_nan_not_zero(self):
        # a_4 overflows to nan-infj; max() alone would drop the nan defects
        spec = catalog.custom(1e150)
        assert math.isnan(residual(k_phi(spec, 10), spec))
        assert math.isnan(residual(h_phi(spec, 10), spec))

    def test_convex_sensitivity(self):
        spec = catalog.TABLE["sine"]
        ef = h_phi(spec, order=10)
        coeffs = list(ef.coeffs)
        coeffs[3] += 1e-3
        bad = ExtremalFunction(ef.kind, tuple(coeffs))
        assert residual(bad, spec) >= 1e-4


class TestRotation:
    @pytest.mark.parametrize("spec", ONE_PER_KIND, ids=lambda spec: spec.kind)
    def test_psi_equals_compose(self, spec):
        rot = series.from_coeffs((0, 1j), 50)
        want = series.compose(catalog.phi_series(spec, 50), rot)
        assert reference_psi(spec, 50) == want
        c = _phi_coeffs(spec, 50)
        assert tuple(x * (1, 1j, -1, -1j)[k % 4] for k, x in enumerate(c)) == want


class TestOnePsiPerOp:
    """k_phi/h_phi and then residual on one spec object share one expansion
    of phi; _phi_coeffs keeps only the last one, keyed by the spec's identity."""

    @pytest.fixture(autouse=True)
    def empty_slot(self, monkeypatch):
        monkeypatch.setattr(extremal, "_last_phi", (None, 0, ()))

    @pytest.fixture
    def expansions(self, monkeypatch):
        orders = []
        expand = extremal.phi_series

        def counted(spec, order=10):
            orders.append(order)
            return expand(spec, order)

        monkeypatch.setattr(extremal, "phi_series", counted)
        return orders

    @pytest.mark.parametrize("kind", ["starlike", "convex"])
    def test_cli_extremal_expands_phi_once(self, capsys, expansions, kind):
        argv = ["extremal", "--class", "parabolic", "--kind", kind, "--order", "100"]
        assert cli.main(argv) == 0
        assert expansions == [100]
        assert "residual" in capsys.readouterr().out

    def test_reused_only_for_the_same_object_and_order(self, expansions):
        spec = catalog.custom(1.0, -0.9, 0.3)
        assert _phi_coeffs(spec, 10) is _phi_coeffs(spec, 10)
        assert expansions == [10]
        _phi_coeffs(spec, 11)
        _phi_coeffs(catalog.PhiSpec(*spec), 11)  # equal to spec, but another object
        assert expansions == [10, 11, 11]

    def test_equal_spec_with_other_zeros_keeps_its_repr(self):
        neg, pos = catalog.custom(1, -0.0), catalog.custom(1, 0.0)
        assert neg == pos and hash(neg) == hash(pos)
        assert repr(_phi_coeffs(neg, 4)) == "(1.0, 1.0, -0.0, 0.0, 0.0)"
        assert repr(_phi_coeffs(pos, 4)) == "(1.0, 1.0, 0.0, 0.0, 0.0)"
        assert repr(_phi_coeffs(neg, 4)) == "(1.0, 1.0, -0.0, 0.0, 0.0)"

    def test_a_freed_spec_cannot_lend_its_id(self):
        # without the slot's reference the first spec is freed after the
        # call, and the second one is likely built at the same address
        assert repr(_phi_coeffs(catalog.custom(1, -0.0), 4)) == "(1.0, 1.0, -0.0, 0.0, 0.0)"
        assert repr(_phi_coeffs(catalog.custom(1, 0.0), 4)) == "(1.0, 1.0, 0.0, 0.0, 0.0)"

    @pytest.mark.parametrize("make", [k_phi, h_phi])
    def test_residual_still_checks_the_coefficients(self, make):
        ef = make(catalog.TABLE["parabolic"], 30)
        coeffs = list(ef.coeffs)
        coeffs[-2] += 1e-6
        assert residual(ef, catalog.TABLE["parabolic"]) <= 1e-12
        bent = ExtremalFunction(ef.kind, tuple(coeffs))
        assert residual(bent, catalog.TABLE["parabolic"]) >= 1e-7


REAL = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3, 3))


@st.composite
def real_specs(draw):
    """A spec of any catalog kind; custom ones with real, often signed-zero, coefficients."""
    kind = draw(st.sampled_from(tuple(catalog.PARAMS)))
    if kind == "janowski":
        b = draw(st.floats(-1, 1, exclude_max=True))
        return catalog.janowski(draw(st.floats(b, 1, exclude_min=True)), b)
    if kind in ("order-alpha", "exp"):
        alpha = draw(st.floats(0, 1, exclude_max=True))
        return (catalog.order_alpha if kind == "order-alpha" else catalog.alpha_exponential)(alpha)
    if kind == "custom":
        return catalog.custom(draw(st.floats(0.01, 3)), *draw(st.lists(REAL, max_size=4)))
    return catalog.PhiSpec(kind)


def spec_id(spec):
    """The kind, and a custom spec's coefficients with their signed zeros."""
    return spec.kind + (repr(spec.custom) if spec.custom else "")


SIGNED_ZEROS = [catalog.custom(1, -1), catalog.custom(1, -0.0), catalog.custom(1, 0.0),
                catalog.custom(1, 0.0, -0.0, 0.0), catalog.custom(0.5, -0.25, -0.0)]


class TestRealArithmetic:
    """k_phi and residual run on phi's real coefficients; the complex
    recursion and K-space residual above are the reference they must match."""

    @staticmethod
    def check(spec, order):
        built = (k_phi(spec, order), h_phi(spec, order))
        refs = (reference_k_phi(spec, order), ExtremalFunction(CV, convex_recursion(spec, order)))
        for ef, ref in zip(built, refs):
            # repr tells apart the signed zeros that == would merge: every
            # a_n, zero parts included, is the complex recursion's
            assert list(map(repr, ef.coeffs)) == list(map(repr, ref.coeffs))
            assert repr(residual(ef, spec)) == repr(reference_residual(ref, spec))
            assert repr(residual(ref, spec)) == repr(reference_residual(ref, spec))

    @settings(deadline=None, max_examples=60)
    @given(real_specs(), st.integers(3, 120))
    @example(catalog.custom(1, -1), 3)
    @example(catalog.custom(1, -0.0), 120)
    def test_matches_the_complex_recursion(self, spec, order):
        self.check(spec, order)

    @pytest.mark.parametrize("order", [3, 4, 10, 120])
    @pytest.mark.parametrize("spec", ONE_PER_KIND + SIGNED_ZEROS, ids=spec_id)
    def test_examples(self, spec, order):
        self.check(spec, order)

    @pytest.mark.parametrize("spec", SIGNED_ZEROS[1:3], ids=spec_id)
    def test_an_underflowed_coefficient_keeps_its_signed_zero(self, spec):
        # K = z exp(iz): the sum for a_179 = i^178/178! is a negative
        # subnormal, which the division rounds to -0.0, not to +0.0
        got = k_phi(spec, 200).coeffs
        assert repr(got[179]) == "(-0+0j)"
        assert list(map(repr, got)) == list(map(repr, reference_k_phi(spec, 200).coeffs))

    def test_a3_of_a_cancelling_sum_is_a_positive_zero(self):
        spec = catalog.custom(1, -1)
        assert repr(k_phi(spec, 3).a3) == repr(reference_k_phi(spec, 3).a3) == "0j"

    @pytest.mark.parametrize("turn", [0, 1], ids=["along", "across"])
    @pytest.mark.parametrize("make", [k_phi, h_phi])
    def test_residual_flags_a_perturbation_off_the_witness(self, make, turn):
        # a_n lies on the axis i^(n-1); a kick along it changes p, across it q
        spec = catalog.TABLE["lune"]
        ef = make(spec, 20)
        for n in (2, 7, 12):
            coeffs = list(ef.coeffs)
            coeffs[n] += 1e-6 * (1, 1j, -1, -1j)[(n - 1 + turn) % 4]
            bad = ExtremalFunction(ef.kind, tuple(coeffs))
            assert residual(bad, spec) == reference_residual(bad, spec) >= 1e-7


class TestAlexanderRelation:
    @pytest.mark.parametrize("order", [3, 10, 200])
    @pytest.mark.parametrize("spec", ONE_PER_KIND, ids=lambda spec: spec.kind)
    def test_h_phi_equals_convex_recursion_bitwise(self, spec, order):
        ef = h_phi(spec, order)
        assert ef.kind is CV
        # repr tells apart types and signed zeros that == would merge
        assert list(map(repr, ef.coeffs)) == list(map(repr, convex_recursion(spec, order)))


class TestDeepOrder:
    @pytest.mark.parametrize("make", [k_phi, h_phi])
    def test_sine_order_200(self, make):
        # past order 170 the sine coefficients need 171! and beyond
        ef = make(catalog.TABLE["sine"], order=200)
        assert residual(ef, catalog.TABLE["sine"]) <= 1e-10
        b1, b2 = catalog.b_coeffs(catalog.TABLE["sine"])
        assert abs(ef.t22_value - t22_bound(ef.kind, b1, b2).value) <= 1e-9
        assert abs(ef.t31_value - t31_bound(ef.kind, b1, b2).value) <= 1e-9


class TestValidation:
    def test_inadmissible_spec(self):
        with pytest.raises(ValueError, match="inadmissible"):
            k_phi(catalog.custom(0.0))

    def test_default_order(self):
        assert k_phi(catalog.TABLE["sine"]).order == h_phi(catalog.TABLE["sine"]).order == 10

    def test_order_too_small(self):
        with pytest.raises(ValueError, match="order"):
            h_phi(catalog.TABLE["sine"], order=2)
