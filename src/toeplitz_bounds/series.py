"""Truncated formal power series over complex coefficients.

A series of order N stores exactly the coefficients of z^0 .. z^N; every
operation truncates its result at the common order.  All values are
immutable and all operations are pure, so series can be shared freely.

Only what the package runs lives here: +, -, the Cauchy product,
composition and the square root of a series with constant term 1.  Maps
whose Taylor coefficients have a closed form (janowski, exp) are built
from it in ``catalog``.
"""

from __future__ import annotations

import math
from typing import Iterable

COMPOSE_TOL = 1e-12


class Series:
    """Coefficients (c0, c1, ..., cN) of a power series truncated at z^N."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[complex, ...]):
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in coeffs))

    def __setattr__(self, name, *value):  # frozen, like the other records
        raise AttributeError(f"cannot assign to field {name!r}")
    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"Series(coeffs={self.coeffs!r})"

    def __eq__(self, other):
        return self.coeffs == other.coeffs if type(other) is Series else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __reduce__(self):
        return Series, (self.coeffs,)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> complex:
        return self.coeffs[n]

    def __add__(self, other: "Series") -> "Series":
        _common_order(self, other)
        return Series(tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Series") -> "Series":
        _common_order(self, other)
        return Series(tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "Series") -> "Series":
        return mul(self, other)

    def scale(self, factor: complex) -> "Series":
        return Series(tuple(factor * c for c in self.coeffs))


def from_coeffs(coeffs: Iterable[complex], order: int | None = None) -> Series:
    """Build a series from leading coefficients, cut or zero-padded to `order`."""
    if order is not None and order < 0:
        raise ValueError("order must be >= 0")
    cs = tuple(coeffs)
    n = len(cs) if order is None else order + 1
    return Series(cs[:n] + (0j,) * (n - len(cs)))


def one(order: int) -> Series:
    return from_coeffs((1,), order)


def z(order: int) -> Series:
    return from_coeffs((0, 1), order)


def _common_order(a: Series, b: Series) -> int:
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")
    return a.order


def mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated at the common order."""
    n = _common_order(a, b)
    out = [0j] * (n + 1)
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ai * b.coeffs[j]
    return Series(tuple(out))


def compose(outer: Series, inner: Series) -> Series:
    """Formal composition outer(inner(z)); inner must have zero constant term."""
    n = _common_order(outer, inner)
    if abs(inner.coeffs[0]) > COMPOSE_TOL:
        raise ValueError("compose requires inner series with zero constant term")
    # Horner accumulation: r = outer[N]; r = r*inner + outer[k] downwards.
    r = from_coeffs((outer.coeffs[n],), n)
    for k in range(n - 1, -1, -1):
        r = mul(r, inner)
        r = Series((r.coeffs[0] + outer.coeffs[k],) + r.coeffs[1:])
    return r


def sqrt1p(a: Series) -> Series:
    """Square root of a series with constant term 1, branch with s(0)=1."""
    n = a.order
    if a.coeffs[0] != 1:
        raise ValueError("sqrt1p requires constant term exactly 1")
    s = [0j] * (n + 1)
    s[0] = 1
    for m in range(1, n + 1):
        acc = a.coeffs[m]
        for k in range(1, m):
            acc -= s[k] * s[m - k]
        s[m] = acc / 2
    return Series(tuple(s))


def max_abs_diff(a: Series, b: Series, upto: int | None = None) -> float:
    """Largest coefficient magnitude of a-b up to the given index; nan if any is."""
    n = _common_order(a, b)
    if upto is None:
        upto = n
    diffs = [abs(a.coeffs[k] - b.coeffs[k]) for k in range(upto + 1)]
    return math.nan if any(map(math.isnan, diffs)) else max(diffs)
