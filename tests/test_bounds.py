"""Tests for the closed-form bounds and their hypothesis predicates."""

import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from toeplitz_bounds import catalog, oracle
from toeplitz_bounds.bounds import (
    HYP_SLACK,
    ClassKind,
    a2_bound,
    fekete_szego,
    full_report,
    t22_bound,
    t31_bound,
)

ST, CV = ClassKind.STARLIKE, ClassKind.CONVEX

b1s = st.floats(0.05, 3.0)
b2s = st.floats(-3.0, 3.0)


class TestFeketeSzego:
    def test_starlike_middle_branch(self):
        assert fekete_szego(ST, 2, 2, mu=1) == pytest.approx(1.0)

    def test_starlike_first_branch(self):
        assert fekete_szego(ST, 2, 2, mu=0) == pytest.approx(3.0)

    def test_convex_first_branch(self):
        assert fekete_szego(CV, 2, 2, mu=0) == pytest.approx(1.0)

    def test_requires_positive_b1(self):
        with pytest.raises(ValueError):
            fekete_szego(ST, 0.0, 1.0, mu=0)

    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), -float("inf")])
    def test_requires_finite_mu(self, mu):
        with pytest.raises(ValueError, match="finite"):
            fekete_szego(CV, 1.0, 0.0, mu)

    @given(b1s, b2s, st.floats(-4, 4))
    def test_nonnegative(self, b1, b2, mu):
        assert fekete_szego(ST, b1, b2, mu) >= 0
        assert fekete_szego(CV, b1, b2, mu) >= 0

    @given(b1s, b2s)
    def test_branch_continuity(self, b1, b2):
        # The outer branch formulas evaluated exactly at their thresholds
        # equal the middle value B1/2 (resp. B1/6).
        lo = (b2 + b1 * b1 - b1) / (2 * b1 * b1)
        hi = (b2 + b1 * b1 + b1) / (2 * b1 * b1)
        assert abs((b2 + b1 * b1 - 2 * lo * b1 * b1) / 2 - b1 / 2) <= 1e-10
        assert abs((-b2 - b1 * b1 + 2 * hi * b1 * b1) / 2 - b1 / 2) <= 1e-10
        assert abs(fekete_szego(ST, b1, b2, lo) - b1 / 2) <= 1e-10
        assert abs(fekete_szego(ST, b1, b2, hi) - b1 / 2) <= 1e-10

        lo = 2 * (b2 + b1 * b1 - b1) / (3 * b1 * b1)
        hi = 2 * (b2 + b1 * b1 + b1) / (3 * b1 * b1)
        assert abs((b2 + b1 * b1 - 1.5 * lo * b1 * b1) / 6 - b1 / 6) <= 1e-10
        assert abs((-b2 - b1 * b1 + 1.5 * hi * b1 * b1) / 6 - b1 / 6) <= 1e-10
        assert abs(fekete_szego(CV, b1, b2, lo) - b1 / 6) <= 1e-10
        assert abs(fekete_szego(CV, b1, b2, hi) - b1 / 6) <= 1e-10

    # Cells where |B2 + B1^2 - m*mu*B1^2| ties with B1 up to rounding.  The
    # former three-branch form chose its branch with m*B1^2*mu but computed
    # m*mu*B1^2, and returned the smaller candidate here: 0.19999999999999996
    # and 0.04499999999999993.
    @pytest.mark.parametrize("kind,b1,b2,mu,value", [
        (ST, 0.4, 2.0, 5.5, 0.2),
        (CV, 0.27, -2.25, -22.37860082304526, 0.045000000000000005),
    ])
    def test_tie_takes_the_larger_candidate(self, kind, b1, b2, mu, value):
        assert repr(fekete_szego(kind, b1, b2, mu)) == repr(value)
        assert value == b1 / kind.scale[1]

    @given(b1s, b2s, st.floats(-4, 4))
    @example(0.4, 2.0, 5.5)
    @example(0.27, -2.25, -22.37860082304526)
    def test_never_below_either_candidate(self, b1, b2, mu):
        for kind in (ST, CV):
            c2, c3 = kind.scale
            value = fekete_szego(kind, b1, b2, mu)
            assert value >= b1 / c3
            assert value >= abs(b2 + (1 - c3 / (c2 * c2) * mu) * b1 * b1) / c3

    def test_terms_cancel_exactly_at_m_mu_one(self):
        # B2 + B1^2 - m*mu*B1^2 rounded B1^2 twice: 131072.5540485382 here
        b1 = 131072.55404851015
        assert fekete_szego(ST, b1, 2 * b1, 0.5) == b1

    @given(b1s, b2s)
    def test_m_mu_one_leaves_b2(self, b1, b2):
        assert fekete_szego(ST, b1, b2, 0.5) == max(abs(b2), b1) / 2
        assert fekete_szego(CV, b1, b2, 2 / 3) == max(abs(b2), b1) / 6


class TestCoefficientBounds:
    def test_a2(self):
        assert a2_bound(ST, 2) == 2
        assert a2_bound(CV, 2) == 1
        assert a2_bound(ST, 1) == 1

    def test_a3_is_fs_at_zero(self):
        for kind in (ST, CV):
            rep = full_report(catalog.custom(1.2, -0.4), kind)
            assert rep.a3_bound == fekete_szego(kind, 1.2, -0.4, 0.0)


NAN, INF = float("nan"), float("inf")
# each formula as a function of (kind, B1, B2)
FORMULAS = {
    "fekete_szego": lambda kind, b1, b2: fekete_szego(kind, b1, b2, 0.5),
    "a2_bound": lambda kind, b1, b2: a2_bound(kind, b1),
    "a3_bound": lambda kind, b1, b2: fekete_szego(kind, b1, b2, 0.0),
    "t22_bound": t22_bound,
    "t31_bound": t31_bound,
}


class TestDomainCheck:
    """One check guards every formula: B1 > 0, then B1 and B2 finite."""

    @pytest.mark.parametrize("name", FORMULAS)
    @pytest.mark.parametrize("kind", [ST, CV])
    @pytest.mark.parametrize("b1,message", [
        (0.0, "B1 must be positive"), (-0.0, "B1 must be positive"),
        (-1.0, "B1 must be positive"), (NAN, "B1 must be positive"),
        (-INF, "B1 must be positive"), (INF, "B1 and B2 must be finite"),
    ])
    def test_bad_b1(self, name, kind, b1, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FORMULAS[name](kind, b1, 0.5)

    @pytest.mark.parametrize("name", sorted(set(FORMULAS) - {"a2_bound"}))
    @pytest.mark.parametrize("kind", [ST, CV])
    @pytest.mark.parametrize("b2", [NAN, INF, -INF])
    def test_non_finite_b2(self, name, kind, b2):
        # unchecked, t31_bound(ST, 1, inf) is BoundFragment(-inf, True), a "sharp"
        # -inf, t22_bound(ST, 1, inf) is (inf, True), and fekete_szego(ST, 1, nan,
        # 0.5) reads the nan as "the Fekete-Szego bound overflows a float"
        with pytest.raises(ValueError, match="^B1 and B2 must be finite$"):
            FORMULAS[name](kind, 1.0, b2)

    @pytest.mark.parametrize("name", FORMULAS)
    def test_smallest_and_largest_finite_inputs_pass(self, name):
        # (B2 + B1^2)^2 overflows in T2(2) and T3(1): past the domain check,
        # those two raise the overflow error instead of returning a value
        for b1, b2 in ((5e-324, -1.7e308), (1e-3, 1.7e308)):
            if name in ("t22_bound", "t31_bound"):
                with pytest.raises(ValueError, match="^the bounds overflow a float "):
                    FORMULAS[name](ST, b1, b2)
            else:
                FORMULAS[name](ST, b1, b2)

    @pytest.mark.parametrize("kind", [ST, CV])
    @pytest.mark.parametrize("formula,b2", [(t22_bound, 0.0), (t31_bound, 1e300)])
    def test_overflow_is_an_error_not_a_sharp_inf(self, kind, formula, b2):
        # unchecked, both returned BoundFragment(inf, True) for starlike
        message = f"the bounds overflow a float at B1 = 1e+155, B2 = {b2:g}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            formula(kind, 1e155, b2)


class TestT22:
    def test_classical(self):
        frag = t22_bound(ST, 2, 2)
        assert frag.value == pytest.approx(13.0)
        assert frag.hypothesis_ok

    def test_convex_exponential(self):
        frag = t22_bound(CV, 1, 0.5)
        assert frag.value == pytest.approx(5 / 16)
        assert frag.hypothesis_ok

    def test_open_case_flagged(self):
        frag = t22_bound(ST, 1, -0.9)
        assert not frag.hypothesis_ok
        assert frag.value == pytest.approx(1.0025)

    def test_boundary_equality_accepted(self):
        # sine family: B1 = |B2 + B1^2| = 1 exactly
        assert t22_bound(ST, 1.0, 0.0).hypothesis_ok

    @given(b1s, b2s)
    def test_assembled_from_coefficient_bounds(self, b1, b2):
        frag = t22_bound(ST, b1, b2)
        if frag.hypothesis_ok:
            expected = fekete_szego(ST, b1, b2, 0.0) ** 2 + a2_bound(ST, b1) ** 2
            assert frag.value == pytest.approx(expected, rel=1e-10)
        frag = t22_bound(CV, b1, b2)
        if frag.hypothesis_ok:
            expected = fekete_szego(CV, b1, b2, 0.0) ** 2 + a2_bound(CV, b1) ** 2
            assert frag.value == pytest.approx(expected, rel=1e-10)


class TestT31:
    def test_classical(self):
        frag = t31_bound(ST, 2, 2)
        assert frag.value == pytest.approx(24.0)
        assert frag.hypothesis_ok

    def test_convex_cardioid(self):
        frag = t31_bound(CV, 4 / 3, 2 / 3)
        assert frag.value == pytest.approx(1520 / 729)
        assert frag.hypothesis_ok

    def test_convex_parabolic_hypothesis_fails(self):
        b1, b2 = catalog.b_coeffs(catalog.TABLE["parabolic"])
        assert not t31_bound(CV, b1, b2).hypothesis_ok

    @given(b1s, b2s)
    def test_assembled_from_coefficient_bounds(self, b1, b2):
        # 1 + 2|a2|^2 + |a3| * fs(mu=2) when the hypothesis holds.
        for kind in (ST, CV):
            frag = t31_bound(kind, b1, b2)
            if not frag.hypothesis_ok:
                continue
            expected = (
                1
                + 2 * a2_bound(kind, b1) ** 2
                + fekete_szego(kind, b1, b2, 0.0) * fekete_szego(kind, b1, b2, mu=2.0)
            )
            assert frag.value == pytest.approx(expected, rel=1e-10)


class TestHypothesisTranslations:
    def test_janowski_t22_condition(self):
        # starlike T2(2) hypothesis is equivalent to |A - 2B| >= 1
        for ai in range(-9, 11):
            for bi in range(-10, ai):
                A, B = ai / 10, bi / 10
                if not (-1 <= B < A <= 1):
                    continue
                b1, b2 = A - B, -B * (A - B)
                expected = abs(A - 2 * B) >= 1 - 1e-12
                assert t22_bound(ST, b1, b2).hypothesis_ok == expected, (A, B)

    def test_order_alpha_t31_ranges(self):
        # starlike holds iff alpha <= 2/3, convex iff alpha <= 1/2
        for i in range(100):
            alpha = i / 100
            b1, b2 = catalog.b_coeffs(catalog.order_alpha(alpha))
            assert t31_bound(ST, b1, b2).hypothesis_ok == (alpha <= 2 / 3)
            assert t31_bound(CV, b1, b2).hypothesis_ok == (alpha <= 1 / 2)

    def test_order_alpha_monotone(self):
        grid = [i / 100 for i in range(67)]
        prev_t22 = prev_t31 = float("inf")
        for alpha in grid:
            b1, b2 = catalog.b_coeffs(catalog.order_alpha(alpha))
            t22 = t22_bound(ST, b1, b2).value
            t31 = t31_bound(ST, b1, b2).value
            assert t22 <= prev_t22 + 1e-12
            assert t31 <= prev_t31 + 1e-12
            prev_t22, prev_t31 = t22, t31


class TestFullReport:
    def test_sine_starlike(self):
        rep = full_report(catalog.TABLE["sine"], ST)
        assert rep.a2_bound == pytest.approx(1.0)
        assert rep.a3_bound == pytest.approx(0.5)
        assert rep.t22.value == pytest.approx(5 / 4)
        assert rep.t31.value == pytest.approx(15 / 4)
        assert rep.notes == ()

    def test_limacon_starlike(self):
        rep = full_report(catalog.TABLE["limacon"], ST)
        assert rep.t22.value == pytest.approx(57 / 16)
        assert rep.t31.value == pytest.approx(135 / 16)

    def test_nephroid_convex(self):
        rep = full_report(catalog.TABLE["nephroid"], CV)
        assert rep.t22.value == pytest.approx(5 / 18)
        assert rep.t31.value == pytest.approx(14 / 9)

    def test_inadmissible_spec_rejected(self):
        with pytest.raises(ValueError, match="inadmissible"):
            full_report(catalog.janowski(0.2, 0.8), ST)

    def test_failed_hypotheses_are_noted(self):
        rep = full_report(catalog.custom(1.0, -0.9), ST)
        assert not rep.t22.hypothesis_ok
        assert len(rep.notes) == 2

    @pytest.mark.parametrize("kind", [ST, CV])
    def test_t22_open_note_states_b2_plus_b1_squared(self, kind):
        # at B1 = 1 the note cannot tell B1^2 from B1/B1; at B1 = 0.5 it can
        rep = full_report(catalog.custom(0.5, -0.2), kind)
        assert rep.notes[0] == ("t22: |B2 + B1^2| = 0.05 < B1 = 0.5; "
                                "open case, value is the formula only")


class TestKindAttributes:
    """(c2, c3) is an attribute of the ClassKind member."""

    def test_values(self):
        assert (ST.scale, CV.scale) == ((1, 2), (2, 6))
        assert ClassKind("convex") is CV and CV.value == "convex"
        assert {k: k.scale for k in ClassKind} == {ST: (1, 2), CV: (2, 6)}

    def test_no_kind_is_hashed(self, monkeypatch):
        calls = []
        enum_hash = ClassKind.__hash__

        def counted(self):
            calls.append(self)
            return enum_hash(self)

        monkeypatch.setattr(ClassKind, "__hash__", counted)
        assert {ST: 0}[ST] == 0 and calls == [ST, ST]  # the counter sees dict lookups
        calls.clear()
        cfg = oracle.OracleConfig(samples=64, seed=1, polish_steps=2)
        for spec in (catalog.TABLE["cardioid"], catalog.custom(1.0, -0.9)):
            for kind in ClassKind:
                rep = full_report(spec, kind)
                fekete_szego(kind, rep.b1, rep.b2, 0.7)
                oracle.maximize(kind, rep.b1, rep.b2, ("t22", "t31"), cfg)
        assert calls == []


big_b1 = st.floats(10, 1e4)
K = {ST: 3, CV: 2}  # T3(1) is proven sharp for B1 - B1^2 <= B2 <= K*B1^2 - B1


class TestRelativeSlack:
    """At large B1 float rounding alone must not move a boundary cell out."""

    @given(big_b1)
    def test_boundary_cells_accepted(self, b1):
        for kind in (ST, CV):
            assert t31_bound(kind, b1, b1 * (1 - b1)).hypothesis_ok
            assert t31_bound(kind, b1, b1 * (K[kind] * b1 - 1)).hypothesis_ok
            assert t22_bound(kind, b1, b1 * (1 - b1)).hypothesis_ok  # B2 + B1^2 = B1
            assert t22_bound(kind, b1, -b1 * (1 + b1)).hypothesis_ok  # = -B1

    @given(big_b1)
    def test_cells_just_outside_rejected(self, b1):
        gap = 1e-9 * b1 * b1
        for kind in (ST, CV):
            assert not t31_bound(kind, b1, b1 * (1 - b1) - gap).hypothesis_ok
            assert not t31_bound(kind, b1, b1 * (K[kind] * b1 - 1) + gap).hypothesis_ok
            assert not t22_bound(kind, b1, b1 * (1 - b1) - gap).hypothesis_ok
            assert not t22_bound(kind, b1, -b1 * (1 + b1) + gap).hypothesis_ok

    @pytest.mark.parametrize("kind", [ST, CV])
    def test_b1_squared_sets_the_slack_where_it_is_largest(self, kind):
        # B1^2 = 100 > |B2| = 90: B2 falls below B1 - B1^2, where both
        # hypotheses end, by 9.5e-11, inside 1e-12 * B1^2 = 1e-10 but
        # outside 1e-12 * |B2| = 9e-11
        assert t22_bound(kind, 10.0, -90.000000000095).hypothesis_ok
        assert t31_bound(kind, 10.0, -90.000000000095).hypothesis_ok

    @pytest.mark.parametrize("kind", [ST, CV])
    def test_slack_floor_is_one(self, kind):
        # B1^2 and |B2| are 0.25: a shortfall of 1.5e-12 below B1 - B1^2 is
        # outside 1e-12 * 1
        assert not t22_bound(kind, 0.5, 0.2499999999985).hypothesis_ok
        assert not t31_bound(kind, 0.5, 0.2499999999985).hypothesis_ok

    @pytest.mark.parametrize("kind,hi_tie", [(ST, 2.000000000002), (CV, 1.000000000001)])
    def test_slack_edge_itself_is_accepted(self, kind, hi_tie):
        # at B1 = 1 each B2 sits exactly on its slackened edge, in floats:
        # |B2 + B1^2| + slack = B1, lo - slack = B2 and hi + slack = B2
        assert abs(-1e-12 + 1.0) + HYP_SLACK == 1.0
        assert t22_bound(kind, 1.0, -1e-12).hypothesis_ok
        assert t31_bound(kind, 1.0, -1e-12).hypothesis_ok
        assert (2.0 if kind is ST else 1.0) + HYP_SLACK * hi_tie == hi_tie
        assert t31_bound(kind, 1.0, hi_tie).hypothesis_ok

    def test_empty_interval_note_at_its_lower_end(self):
        # convex at B1 = 0.5: hi = 0 < lo = 0.25, so B2 = lo fails T3(1) above hi
        rep = full_report(catalog.custom(0.5, 0.25), CV)
        assert rep.notes == ("t31: B2 = 0.25 > 2*B1^2 - B1 = 0",)


class TestOneExpansion:
    """full_report expands phi once, in b_coeffs, and keeps every check."""

    @pytest.mark.parametrize("spec", [
        catalog.TABLE["cardioid"], catalog.janowski(0.5, -0.3), catalog.alpha_exponential(0.2),
        catalog.custom(1.0, -0.9),
    ])
    @pytest.mark.parametrize("kind", [ST, CV])
    def test_phi_series_called_once(self, monkeypatch, spec, kind):
        calls = []
        expand = catalog.phi_series

        def counted(*args, **kwargs):
            calls.append(args)
            return expand(*args, **kwargs)

        monkeypatch.setattr(catalog, "phi_series", counted)
        rep = full_report(spec, kind)
        assert len(calls) == 1
        assert (rep.b1, rep.b2) == catalog.b_coeffs(spec)
        assert len(calls) == 2  # a bare b_coeffs still expands on its own


# The per-kind formulas as they were written before the kinds shared one
# definition; the shared code must reproduce them bit for bit.

def ref_fekete_szego(kind, b1, b2, mu):
    # max(|B2 + (1 - m mu) B1^2|, B1)/c3 per kind, m = 2 (starlike) or 1.5
    if kind is ST:
        return max(abs(b2 + (1 - 2 * mu) * b1 * b1), b1) / 2
    return max(abs(b2 + (1 - 1.5 * mu) * b1 * b1), b1) / 6


def branch_fekete_szego(kind, b1, b2, mu):
    """The three branches in mu of the Fekete-Szego theorem, as first written,
    with the modulus branches in the one-B1^2 form of ref_fekete_szego."""
    if kind is ST:
        t = 2 * b1 * b1 * mu
        if t <= b2 + b1 * b1 - b1:
            return (b2 + (1 - 2 * mu) * b1 * b1) / 2
        if t <= b2 + b1 * b1 + b1:
            return b1 / 2
        return -(b2 + (1 - 2 * mu) * b1 * b1) / 2
    t = 3 * b1 * b1 * mu
    if t <= 2 * (b2 + b1 * b1 - b1):
        return (b2 + (1 - 1.5 * mu) * b1 * b1) / 6
    if t <= 2 * (b2 + b1 * b1 + b1):
        return b1 / 6
    return -(b2 + (1 - 1.5 * mu) * b1 * b1) / 6


def ref_slack(b1, b2):
    return HYP_SLACK * max(1, b1 * b1, abs(b2))


def ref_t22(kind, b1, b2):
    hyp = b1 <= abs(b2 + b1 * b1) + ref_slack(b1, b2)
    s = b2 + b1 * b1
    if kind is ST:
        return s * s / 4 + b1 * b1, hyp
    return s * s / 36 + b1 * b1 / 4, hyp


def ref_t31(kind, b1, b2):
    lo = b1 - b1 * b1
    if kind is ST:
        hi = 3 * b1 * b1 - b1
        value = 1 + 2 * b1 * b1 + (b2 + b1 * b1) * (3 * b1 * b1 - b2) / 4
    else:
        hi = 2 * b1 * b1 - b1
        value = 1 + b1 * b1 / 2 + (b2 + b1 * b1) * (2 * b1 * b1 - b2) / 36
    slack = ref_slack(b1, b2)
    return value, (lo - slack <= b2) and (b2 <= hi + slack)


def ref_notes(kind, b1, b2):
    notes = []
    if not ref_t22(kind, b1, b2)[1]:
        notes.append(
            f"t22: |B2 + B1^2| = {abs(b2 + b1 * b1):.6g} < B1 = {b1:.6g}; "
            "open case, value is the formula only"
        )
    if not ref_t31(kind, b1, b2)[1]:
        lo = b1 - b1 * b1
        hi = (3 if kind is ST else 2) * b1 * b1 - b1
        if b2 < lo:
            notes.append(f"t31: B2 = {b2:.6g} < B1 - B1^2 = {lo:.6g}")
        else:
            notes.append(
                f"t31: B2 = {b2:.6g} > "
                f"{'3' if kind is ST else '2'}*B1^2 - B1 = {hi:.6g}"
            )
    return tuple(notes)


def same(x, y):
    """Bitwise float equality: == that also tells apart 0.0 and -0.0."""
    return x == y and math.copysign(1, x) == math.copysign(1, y)


wide_b1 = st.floats(0, 1e6, exclude_min=True)
wide = st.floats(-1e6, 1e6)


def on_large_b1_boundaries(test):
    """Independent draws never land on a boundary; these cells do, at large B1.

    The B1 values are ones where an absolute slack of HYP_SLACK flips the
    verdict on at least one cell: B2 + B1^2 = +-B1, B2 = B1 - B1^2 and
    B2 = k*B1^2 - B1 for k = 3 and 2.
    """
    for b1 in (1352.2987986828882, 8475.863032002955, 9453.254248583684):
        for b2 in (b1 * (1 - b1), -b1 * (1 + b1), b1 * (3 * b1 - 1), b1 * (2 * b1 - 1)):
            test = example(b1, b2, 0.5)(test)
    return test


class TestOneDefinitionPerFormula:
    @given(wide_b1, wide, wide)
    @on_large_b1_boundaries
    def test_bitwise_equal_to_per_kind_formulas(self, b1, b2, mu):
        for kind in (ST, CV):
            fs = fekete_szego(kind, b1, b2, mu)
            assert same(fs, ref_fekete_szego(kind, b1, b2, mu))
            # the branch form states the same theorem: it differs only by
            # rounding, at a tie, where it may pick the smaller candidate
            branch = branch_fekete_szego(kind, b1, b2, mu)
            assert branch <= fs <= branch + 1e-15 * (b1 * b1 * (1 + abs(mu)) + abs(b2) + b1)
            assert same(a2_bound(kind, b1), b1 if kind is ST else b1 / 2)
            t22, t31 = t22_bound(kind, b1, b2), t31_bound(kind, b1, b2)
            want22, want31 = ref_t22(kind, b1, b2), ref_t31(kind, b1, b2)
            assert same(t22.value, want22[0]) and t22.hypothesis_ok == want22[1]
            assert same(t31.value, want31[0]) and t31.hypothesis_ok == want31[1]
            rep = full_report(catalog.custom(b1, b2), kind)
            assert rep.notes == ref_notes(kind, b1, b2)

    @pytest.mark.parametrize("label,spec", list(catalog.TABLE.items()))
    def test_catalog_notes(self, label, spec):
        b1, b2 = catalog.b_coeffs(spec)
        for kind in (ST, CV):
            assert full_report(spec, kind).notes == ref_notes(kind, b1, b2)
