"""Truncated formal power series.

A series of order N is a plain tuple of the coefficients of z^0 .. z^N,
complex or real floats; every operation truncates its result at the
common order and keeps the coefficient type it is given.  A Ma-Minda phi
is symmetric about the real axis, so its coefficients are real and
``phi_series`` returns floats; the extremal coefficients are complex.  On
floats the O(N^2) loops cost half as much, and the products keep their
bits, as the real part of (x+0j)*(y+0j) is exactly x*y.  Sums are
explicit loops: from Python 3.12 the builtin ``sum`` adds floats with
compensation, which would move the last bits.  Tuples are immutable and
all operations are pure, so series can be shared freely.

Only the Cauchy product, composition and the square root of a series with
constant term 1 live here; sums, scalings and closed forms are at callers.
"""

from __future__ import annotations

import math
from typing import Iterable

COMPOSE_TOL = 1e-12


def from_coeffs(coeffs: Iterable, order: int | None = None) -> tuple:
    """Build a series from leading coefficients, cut or 0.0-padded to `order`."""
    if order is not None and order < 0:
        raise ValueError("order must be >= 0")
    cs = tuple(coeffs)
    n = len(cs) if order is None else order + 1
    if n == 0:
        raise ValueError("a series needs at least the constant coefficient")
    return cs[:n] + (0.0,) * (n - len(cs))


def _common_order(a: tuple[complex, ...], b: tuple[complex, ...]) -> int:
    if len(a) != len(b):
        raise ValueError(f"order mismatch: {len(a) - 1} != {len(b) - 1}")
    return len(a) - 1


def mul(a: tuple, b: tuple) -> tuple:
    """Cauchy product truncated at the common order: out_m is the dot
    product a_0 b_m + ... + a_m b_0, in that order, from a zero of a's type."""
    n = _common_order(a, b)
    zero = type(a[0])()
    rb = b[::-1]  # rb[n - j] = b[j]
    out = []
    for m in range(n + 1):
        acc = zero
        for x, y in zip(a, rb[n - m:]):
            acc += x * y
        out.append(acc)
    return tuple(out)


def compose(outer: tuple[complex, ...], inner: tuple[complex, ...]) -> tuple[complex, ...]:
    """Formal composition outer(inner(z)); inner must have zero constant term."""
    n = _common_order(outer, inner)
    if abs(inner[0]) > COMPOSE_TOL:
        raise ValueError("compose requires inner series with zero constant term")
    # Horner accumulation: r = outer[N]; r = r*inner + outer[k] downwards.
    r = from_coeffs((outer[n],), n)
    for k in range(n - 1, -1, -1):
        r = mul(r, inner)
        r = (r[0] + outer[k],) + r[1:]
    return r


def sqrt1p(a: tuple) -> tuple:
    """Square root of a series with constant term 1, branch with s(0)=1;
    each s_m overwrites a copy of a_m, so s keeps a's coefficient type."""
    if a[0] != 1:
        raise ValueError("sqrt1p requires constant term exactly 1")
    s = list(a)
    for m in range(1, len(a)):
        acc = a[m]
        for k in range(1, m):
            acc -= s[k] * s[m - k]
        s[m] = acc / 2
    return tuple(s)


def max_abs_diff(a: tuple, b: tuple) -> float:
    """Largest coefficient magnitude of a-b; nan if any is."""
    _common_order(a, b)
    diffs = [abs(x - y) for x, y in zip(a, b)]
    return math.nan if any(map(math.isnan, diffs)) else max(diffs)
