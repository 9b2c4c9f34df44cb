"""Extremal functions attaining the Toeplitz determinant bounds.

The starlike witness K solves z K'(z) = K(z) * phi(i z) with K(0) = 0,
K'(0) = 1.  The convex witness H solves z H''(z) = H'(z) * (phi(i z) - 1).
By Alexander's relation f is convex exactly when z f' is starlike, so
H' = K/z and a_n(H) = a_n(K)/n: a2 = i*B1, a3 = -(B1^2 + B2)/2 for K and
a2 = i*B1/2, a3 = -(B1^2 + B2)/6 for H.  Under the theorem hypotheses,
|T2(2)| and |T3(1)| there equal the closed-form bounds exactly.

phi's coefficients c_k are floats (see ``series``), so a_n(K) = i^(n-1) alpha_n
with real alpha_n: the recursion and the residual run on floats, a_n alone is complex.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _kernels, series
from .bounds import ClassKind
from .catalog import PhiSpec, phi_series, validate


class ExtremalFunction(NamedTuple):
    kind: ClassKind
    coeffs: tuple[complex, ...]  # (a0, a1, a2, ...) with a0 = 0, a1 = 1
    phi: tuple[float, ...]  # phi's c_0 .. c_order: the equation the coeffs solve

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
        return _kernels.functional("t22", self.a2, self.a3)

    @property
    def t31_value(self) -> float:
        """|T3(1)| at this function's (a2, a3)."""
        return _kernels.functional("t31", self.a2, self.a3)


def k_phi(spec: PhiSpec, order: int = 10) -> ExtremalFunction:
    """Starlike extremal: a_n = i^(n-1) alpha_n with
    alpha_n = (1/(n-1)) * sum_{k=1}^{n-1} alpha_k c_{n-k}."""
    if order < 3:
        raise ValueError("order must be at least 3")
    validate(spec)
    c = phi_series(spec, order)
    rc = c[::-1]  # rc[order - j] = c_j
    alpha, a = [1.0], [0j, 1 + 0j]  # alpha_1, alpha_2, ...
    for n in range(2, order + 1):
        acc = 0.0
        for x, y in zip(alpha, rc[order + 1 - n:order]):
            acc += x * y
        alpha.append(acc / (n - 1))
        # i^(n-1) alpha_n as the complex recursion rounded it: -acc, but +0.0 at 0.0
        x = (acc if (n - 1) % 4 < 2 else 0.0 - acc) / (n - 1)
        a.append(complex(0.0, x) if n % 2 == 0 else complex(x, 0.0))
    return ExtremalFunction(ClassKind.STARLIKE, tuple(a), c)


def h_phi(spec: PhiSpec, order: int = 10) -> ExtremalFunction:
    """Convex extremal by Alexander's relation H' = K/z: a_n(H) = a_n(K)/n."""
    ef = k_phi(spec, order)
    a = (ef.coeffs[0],) + tuple(c / n for n, c in enumerate(ef.coeffs[1:], 1))
    return ExtremalFunction(ClassKind.CONVEX, a, ef.phi)


def residual(ef: ExtremalFunction) -> float:
    """Max coefficient magnitude of the defining-equation defect for ``ef.phi``.

    Starlike: z K' - K * phi(iz), checked at every index up to the order.
    Convex: z H'' - H' * (phi(iz) - 1), checked up to order-1 because the
    last coefficient of H' is not determined at this truncation.  Each a_n/i^(n-1)
    splits exactly into parts p and q; q is 0 unless a_n left the axis i^(n-1).
    """
    order, c = ef.order, ef.phi
    parts = [(a.real, a.imag, -a.real, -a.imag) for a in ef.coeffs]
    p = [x[(n - 1) % 4] for n, x in enumerate(parts)]
    q = [x[n % 4] for n, x in enumerate(parts)]
    if ef.kind is ClassKind.STARLIKE:
        kernel = c
    else:  # g = H' has g_m = (m+1) a_(m+1), m < order, and turns like a_(m+1)
        p, q = ([(m + 1) * v for m, v in enumerate(x[1:])] for x in (p, q))
        kernel = (c[0] - 1,) + c[1:order]
    lhs, rhs = tuple(m * v for m, v in enumerate(p)), series.mul(p, kernel)
    if any(q):
        lhs = tuple(map(complex, lhs, (m * v for m, v in enumerate(q))))
        rhs = tuple(map(complex, rhs, series.mul(q, kernel)))
    return series.max_abs_diff(lhs, rhs)
