"""Unit and property tests for the truncated power series kernel."""

import ast
import inspect
import math
import operator
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplitz_bounds import series
from toeplitz_bounds.series import Series, from_coeffs

from test_perfbench_bindings import layers


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
        assert s + from_coeffs((), 2) == s

    def test_add_coefficientwise(self):
        a = from_coeffs((1, 2, 2), 2)
        b = from_coeffs((0, 0, 1), 2)
        assert (a + b).coeffs == (1, 2, 3)

    def test_sub_coefficientwise(self):
        a = from_coeffs((1, 2, 2j), 2)
        b = from_coeffs((0, 3, 1), 2)
        assert (a - b).coeffs == (1, -1, -1 + 2j)
        assert (a - a).coeffs == (0, 0, 0)

    def test_order_mismatch(self):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match="order mismatch"):
                op(series.one(2), series.one(3))

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
        assert from_coeffs((), 2).coeffs == (0j, 0j, 0j)
        assert from_coeffs((1, 2)).order == 1
        with pytest.raises(ValueError, match="order must be >= 0"):
            from_coeffs((1, 2), -2)


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


class TestSqrt1p:
    def test_lune_expansion(self):
        # z + sqrt(1+z^2) = 1 + z + z^2/2 + 0 z^3 - z^4/8
        s = series.sqrt1p(from_coeffs((1, 0, 1), 4)) + series.z(4)
        assert approx_equal(s, from_coeffs((1, 1, 0.5, 0, -0.125), 4), 1e-15)

    def test_sqrt_of_one(self):
        assert series.sqrt1p(series.one(4)) == series.one(4)

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
        with pytest.raises(ValueError, match="constant term exactly 1"):
            series.sqrt1p(series.z(2))
        with pytest.raises(ValueError, match="constant term exactly 1"):
            series.sqrt1p(from_coeffs((1 + 1e-15, 1), 2))


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

    @given(random_series(min_order=2, max_order=6))
    def test_sqrt_roundtrip(self, s):
        # Magnitude-10 inputs let sqrt coefficients blow up; keep the
        # roundtrip well-conditioned.
        s = unit_constant(s.scale(0.2))
        r = series.sqrt1p(s)
        assert approx_equal(series.mul(r, r), s, 1e-10)


def names_taken_from_series() -> set[str]:
    """What the other src/ modules use of series: series.<name>, from .series import <name>."""
    used = set()
    for path in Path(series.__file__).parent.glob("*.py"):
        if path.name == "series.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "series"):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "series":
                used.update(alias.name for alias in node.names)
    return used


def test_every_public_function_has_a_caller():
    """Series algebra that nothing runs is deleted, not kept for the tests.

    A public function counts as used when another src/ module calls it or
    the benchmark's tracer binds it (perfbench/tracing.py's LAYERS).
    """
    public = {name for name, obj in vars(series).items()
              if inspect.isfunction(obj) and obj.__module__ == series.__name__
              and not name.startswith("_")}
    bound = {attr for mod, attr in layers() if mod == "series"}
    assert public - names_taken_from_series() - bound == set()


def test_caller_scan_sees_the_known_callers():
    """The guard above is only as good as its scan: it must see the calls
    catalog and extremal make, and the tracer's bindings."""
    assert {"Series", "from_coeffs", "mul", "sqrt1p"} <= names_taken_from_series()
    assert ("series", "compose") in set(layers())
