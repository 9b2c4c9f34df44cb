"""Truncated formal power series over complex coefficients.

A series of order N is a plain tuple of the complex coefficients of
z^0 .. z^N; every operation truncates its result at the common order.
Tuples are immutable and all operations are pure, so series can be shared
freely.

Only what the package runs lives here: the Cauchy product, composition
and the square root of a series with constant term 1.  Sums and scalings
are element-wise ``zip`` expressions at their callers.  Maps whose Taylor
coefficients have a closed form (janowski, exp) are built from it in
``catalog``.
"""

from __future__ import annotations

import math
from typing import Iterable

COMPOSE_TOL = 1e-12


def from_coeffs(coeffs: Iterable[complex], order: int | None = None) -> tuple[complex, ...]:
    """Build a series from leading coefficients, cut or zero-padded to `order`."""
    if order is not None and order < 0:
        raise ValueError("order must be >= 0")
    cs = tuple(coeffs)
    n = len(cs) if order is None else order + 1
    if n == 0:
        raise ValueError("a series needs at least the constant coefficient")
    return tuple(complex(c) for c in cs[:n] + (0j,) * (n - len(cs)))


def one(order: int) -> tuple[complex, ...]:
    return from_coeffs((1,), order)


def z(order: int) -> tuple[complex, ...]:
    return from_coeffs((0, 1), order)


def _common_order(a: tuple[complex, ...], b: tuple[complex, ...]) -> int:
    if len(a) != len(b):
        raise ValueError(f"order mismatch: {len(a) - 1} != {len(b) - 1}")
    return len(a) - 1


def mul(a: tuple[complex, ...], b: tuple[complex, ...]) -> tuple[complex, ...]:
    """Cauchy product truncated at the common order."""
    n = _common_order(a, b)
    out = [0j] * (n + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ai * b[j]
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


def sqrt1p(a: tuple[complex, ...]) -> tuple[complex, ...]:
    """Square root of a series with constant term 1, branch with s(0)=1."""
    n = len(a) - 1
    if a[0] != 1:
        raise ValueError("sqrt1p requires constant term exactly 1")
    s = [1 + 0j] + [0j] * n
    for m in range(1, n + 1):
        acc = a[m]
        for k in range(1, m):
            acc -= s[k] * s[m - k]
        s[m] = acc / 2
    return tuple(s)


def max_abs_diff(a: tuple[complex, ...], b: tuple[complex, ...],
                 upto: int | None = None) -> float:
    """Largest coefficient magnitude of a-b up to the given index; nan if any is."""
    n = _common_order(a, b)
    if upto is None:
        upto = n
    diffs = [abs(a[k] - b[k]) for k in range(upto + 1)]
    return math.nan if any(map(math.isnan, diffs)) else max(diffs)
