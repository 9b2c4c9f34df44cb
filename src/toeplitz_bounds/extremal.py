"""Extremal functions attaining the Toeplitz determinant bounds.

The starlike witness K solves z K'(z) = K(z) * phi(i z) with K(0) = 0,
K'(0) = 1, by a recursion in the coefficients psi_n of phi(i z).  The
convex witness H solves z H''(z) = H'(z) * (phi(i z) - 1).  By Alexander's
relation f is convex exactly when z f' is starlike, so H' = K/z and
a_n(H) = a_n(K)/n: a2 = i*B1, a3 = -(B1^2 + B2)/2 for K and a2 = i*B1/2,
a3 = -(B1^2 + B2)/6 for H.  When the theorem hypotheses hold, |T2(2)| and
|T3(1)| at these coefficients equal the closed-form bounds exactly.  The
residual checks each defining equation directly, independent of the
relation.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _kernels, series
from .bounds import ClassKind
from .catalog import PhiSpec, phi_series, validate


class ExtremalFunction(NamedTuple):
    kind: ClassKind
    coeffs: tuple[complex, ...]  # (a0, a1, a2, ...) with a0 = 0, a1 = 1

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def a2(self) -> complex:
        return self.coeffs[2]

    @property
    def a3(self) -> complex:
        return self.coeffs[3]

    @property
    def t22_value(self) -> float:
        """|T2(2)| at this function's (a2, a3)."""
        return _kernels.functional(_kernels.T22, 0.0, self.a2, self.a3)

    @property
    def t31_value(self) -> float:
        """|T3(1)| at this function's (a2, a3)."""
        return _kernels.functional(_kernels.T31, 0.0, self.a2, self.a3)


_last_psi: tuple = (None, 0, ())  # (spec, order, psi); holding spec keeps its id unique


def _psi(spec: PhiSpec, order: int) -> tuple[complex, ...]:
    """Coefficients of phi(i z): the k-th coefficient of phi times i^k.

    The last result is reused for the same spec object and order.  Not for
    an == spec: custom(1, -0.0) == custom(1, 0.0), but their zeros differ."""
    global _last_psi
    last_spec, last_order, psi = _last_psi  # one read, so a racing call cannot mix slots
    if last_spec is spec and last_order == order:
        return psi
    psi = tuple(c * (1, 1j, -1, -1j)[k % 4] for k, c in enumerate(phi_series(spec, order)))
    _last_psi = (spec, order, psi)
    return psi


def k_phi(spec: PhiSpec, order: int = 10) -> ExtremalFunction:
    """Starlike extremal: a_n = (1/(n-1)) * sum_{k=1}^{n-1} a_k psi_{n-k}."""
    if order < 3:
        raise ValueError("order must be at least 3")
    verdict = validate(spec)
    if not verdict.ok:
        raise ValueError("inadmissible spec: " + "; ".join(verdict.violations))
    psi = _psi(spec, order)
    a = [0j] * (order + 1)
    a[1] = 1 + 0j
    for n in range(2, order + 1):
        acc = 0j
        for k in range(1, n):
            acc += a[k] * psi[n - k]
        a[n] = acc / (n - 1)
    return ExtremalFunction(ClassKind.STARLIKE, tuple(a))


def h_phi(spec: PhiSpec, order: int = 10) -> ExtremalFunction:
    """Convex extremal by Alexander's relation H' = K/z: a_n(H) = a_n(K)/n."""
    ef = k_phi(spec, order)
    a = (ef.coeffs[0],) + tuple(c / n for n, c in enumerate(ef.coeffs[1:], 1))
    return ExtremalFunction(ClassKind.CONVEX, a)


def residual(ef: ExtremalFunction, spec: PhiSpec) -> float:
    """Max coefficient magnitude of the defining-equation defect.

    Starlike: z K' - K * phi(iz), checked at every index up to the order.
    Convex: z H'' - H' * (phi(iz) - 1), checked up to order-1 because the
    last coefficient of H' is not determined at this truncation.
    """
    order = ef.order
    psi = _psi(spec, order)
    if ef.kind is ClassKind.STARLIKE:
        zfp = tuple(n * c for n, c in enumerate(ef.coeffs))
        return series.max_abs_diff(zfp, series.mul(ef.coeffs, psi))
    g = [0j] * (order + 1)
    for m in range(order):
        g[m] = (m + 1) * ef.coeffs[m + 1]
    zgp = tuple(m * c for m, c in enumerate(g))
    rhs = series.mul(tuple(g), tuple(x - y for x, y in zip(psi, series.one(order))))
    return series.max_abs_diff(zgp, rhs, upto=order - 1)
