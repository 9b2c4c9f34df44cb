"""Catalog of target functions phi for the starlike/convex families.

Each catalog entry is a function phi with phi(0)=1 and phi'(0)>0 whose
first two Taylor coefficients (B1, B2) drive every bound in this package.
The catalog covers the classical half-plane map (1+Az)/(1+Bz) and its
order-alpha specialization, the alpha-exponential map, and the cardioid,
sine, lune, parabolic, limacon and nephroid regions, plus fully custom
coefficient lists.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import series

REAL_TOL = 1e-12

# kind -> the PhiSpec fields it requires, in catalog order
PARAMS: dict[str, tuple[str, ...]] = {
    "janowski": ("A", "B"), "order-alpha": ("alpha",), "exp": ("alpha",),
    **dict.fromkeys(("cardioid", "sine", "lune", "parabolic", "limacon", "nephroid"), ()),
    "custom": ("custom",),
}


class _PhiFields(NamedTuple):
    kind: str
    A: float | None = None
    B: float | None = None
    alpha: float | None = None
    custom: tuple[float, ...] = ()


class PhiSpec(_PhiFields):
    """A target function selection with its parameters.

    kind:   a key of PARAMS.
    A, B:   janowski parameters (-1 <= B < A <= 1).
    alpha:  parameter of order-alpha / exp kinds, in [0, 1).
    custom: leading coefficients (B1, B2, ...) for kind "custom", real floats.
    """

    __slots__ = ()

    def __new__(cls, kind: str, *args, **kwargs):
        if kind not in PARAMS:
            raise ValueError(f"unknown phi kind {kind!r}")
        spec = super().__new__(cls, kind, *args, **kwargs)
        cs = tuple(map(complex, spec.custom))
        if not all(abs(c.imag) <= REAL_TOL for c in cs):
            raise ValueError("custom coefficients must be real")
        return super().__new__(cls, *spec[:4], tuple(c.real for c in cs)) if cs else spec

    @classmethod
    def _make(cls, iterable):  # and so _replace: through the checks of __new__
        return cls(*iterable)

    def describe_params(self) -> dict:
        if self.kind == "custom":
            return {f"b{i}": c for i, c in enumerate(self.custom, start=1)}
        return {name: getattr(self, name) for name in PARAMS[self.kind]}


def janowski(A: float, B: float) -> PhiSpec:
    return PhiSpec("janowski", A=float(A), B=float(B))


def order_alpha(alpha: float) -> PhiSpec:
    return PhiSpec("order-alpha", alpha=float(alpha))


def alpha_exponential(alpha: float) -> PhiSpec:
    return PhiSpec("exp", alpha=float(alpha))


def custom(*coeffs: float) -> PhiSpec:
    return PhiSpec("custom", custom=coeffs)


# The golden-table rows, label -> spec: the half-plane map (1+z)/(1-z),
# the exponential map at alpha = 0 and every kind without parameters.
TABLE: dict[str, PhiSpec] = {
    "classical": janowski(1.0, -1.0),
    "exp": alpha_exponential(0.0),
    **{kind: PhiSpec(kind) for kind, needs in PARAMS.items() if not needs},
}


def _missing(spec: PhiSpec) -> str:
    """The error for a spec that lacks a parameter PARAMS requires, else ""."""
    needs = PARAMS[spec.kind]
    for name in needs:
        if getattr(spec, name) is None:
            return f"{spec.kind} requires parameter{'s' * (len(needs) > 1)} {' and '.join(needs)}"
    return ""


def validate(spec: PhiSpec) -> None:
    """Check the parameters, expanding no phi; an inadmissible spec raises
    ValueError("inadmissible spec: <its violation>").

    phi(0) = 1 holds by construction, and janowski, order-alpha and exp
    have B1 > 0 on their parameter ranges, so only custom's b1 is checked
    for it.
    """
    bad = _missing(spec)
    if not bad and spec.kind == "janowski" and not (-1.0 <= spec.B < spec.A <= 1.0):
        bad = "janowski requires -1 <= B < A <= 1"
    elif not bad and spec.kind in ("order-alpha", "exp") and not (0.0 <= spec.alpha < 1.0):
        bad = f"{spec.kind} requires 0 <= alpha < 1"
    elif spec.kind == "custom":
        if not spec.custom:
            bad = "custom requires at least the coefficient b1"
        elif not all(map(math.isfinite, spec.custom)):
            bad = "custom coefficients must be finite"
        elif spec.custom[0] <= 0:
            bad = "B1 > 0 violated"
    if bad:
        raise ValueError("inadmissible spec: " + bad)


def _janowski_series(A: float, B: float, order: int) -> tuple[float, ...]:
    # (1+Az)/(1+Bz) = 1 + sum_{n>=1} (A-B)(-B)^(n-1) z^n, one factor -B per
    # step; 0.0 - B*c (not c*-B) and A - B + 0.0 give +0.0 where division did
    cs = [1.0, A - B + 0.0]
    while len(cs) <= order:
        cs.append(0.0 - B * cs[-1])
    return series.from_coeffs(cs)


def _exp_series(alpha: float, order: int) -> tuple[float, ...]:
    # alpha + (1-alpha) e^z, with 1/n! as e_n = e_(n-1)/n
    e = [1.0]
    for n in range(1, order + 1):
        e.append(e[-1] / n)
    return series.from_coeffs((alpha + (1.0 - alpha),) + tuple((1 - alpha) * c for c in e[1:]))


def _lune_series(order: int) -> tuple[float, ...]:
    # z + sqrt(1 + z^2), on floats
    root = series.sqrt1p((1.0, 0.0, 1.0) + (0.0,) * (order - 2))
    return series.from_coeffs(x + y for x, y in zip((0.0, 1.0) + (0.0,) * (order - 1), root))


def _parabolic_series(order: int) -> tuple[float, ...]:
    # 1 + (2/pi^2) (log((1+t)/(1-t)))^2 with t = sqrt(z).  The log equals
    # 2t*g(t^2) with g(z) = sum z^k/(2k+1), so this is 1 + (8/pi^2) z g(z)^2,
    # on floats; the factor z is a shift, so g^2 is needed only to order-1.
    g = tuple(1.0 / (2 * k + 1) for k in range(order))
    return series.from_coeffs((1.0,) + tuple(8 / math.pi**2 * y for y in series.mul(g, g)))


def phi_series(spec: PhiSpec, order: int = 10) -> tuple[float, ...]:
    """Taylor expansion of phi to the requested order."""
    if order < 2:
        raise ValueError("order must be at least 2")
    if bad := _missing(spec):
        raise ValueError(bad)
    if spec.kind == "janowski":
        return _janowski_series(spec.A, spec.B, order)
    if spec.kind == "order-alpha":
        return _janowski_series(1 - 2 * spec.alpha, -1.0, order)
    if spec.kind == "exp":
        return _exp_series(spec.alpha, order)
    if spec.kind == "cardioid":
        return series.from_coeffs((1.0, 4 / 3, 2 / 3), order)
    if spec.kind == "sine":
        cs = [0.0] * (order + 1)
        cs[0] = 1.0
        for k in range(1, order + 1, 2):
            sign = (-1) ** ((k - 1) // 2)
            # float(k!) overflows past k = 170; there the exact integer
            # quotient is used instead, and it underflows cleanly to zero
            cs[k] = (float(sign) if k <= 170 else sign) / math.factorial(k)
        return series.from_coeffs(cs)
    if spec.kind == "lune":
        return _lune_series(order)
    if spec.kind == "parabolic":
        return _parabolic_series(order)
    if spec.kind == "limacon":
        return series.from_coeffs((1.0, math.sqrt(2), 0.5), order)
    if spec.kind == "nephroid":
        return series.from_coeffs((1.0, 1.0, 0.0, -1 / 3), order)
    # custom
    return series.from_coeffs((1.0,) + spec.custom, order)


def b_coeffs(spec: PhiSpec) -> tuple[float, float]:
    """(B1, B2) read off phi's one order-3 expansion."""
    return phi_series(spec, order=3)[1:3]
