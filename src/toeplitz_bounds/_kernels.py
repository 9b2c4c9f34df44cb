"""Numeric kernels: the coefficient map and the three functionals.

``a2a3`` and ``functional`` are the one definition of the map
(w1, w2) -> (a2, a3) and of |T2(2)|, |T3(1)| and |a3 - mu*a2^2|.  The
same expressions work on Python scalars and on numpy arrays, so
``eval_batch`` (arrays of Schwarz points) and ``polish`` (one point at a
time) compute bit-identical values.

Encoding shared with :mod:`toeplitz_bounds.oracle`: kind_id 0=starlike
1=convex, func_id 0=t22 1=t31 2=fs(mu).
"""

from __future__ import annotations

import math

T22, T31, FS = 0, 1, 2


def a2a3(kind_id, b1, b2, w1, w2):
    """(a2, a3) of the family member realizing the Schwarz point (w1, w2)."""
    if kind_id == 0:
        a2 = b1 * w1
        a3 = 0.5 * ((b1 * b1 + b2) * w1 * w1 + b1 * w2)
    else:
        a2 = 0.5 * b1 * w1
        a3 = ((b1 * b1 + b2) * w1 * w1 + b1 * w2) / 6.0
    return a2, a3


def functional(func_id, mu, a2, a3):
    """|T2(2)|, |T3(1)| or |a3 - mu*a2^2| at the coefficients (a2, a3)."""
    if func_id == T22:
        return abs(a3 * a3 - a2 * a2)
    if func_id == T31:
        return abs(1.0 - 2.0 * a2 * a2 - a3 * (a3 - 2.0 * a2 * a2))
    return abs(a3 - mu * a2 * a2)


def eval_batch(kind_id, b1, b2, func_id, mu, w1, w2):
    """Functional values at arrays of Schwarz points."""
    return functional(func_id, mu, *a2a3(kind_id, b1, b2, w1, w2))


def _project(x1, y1, x2, y2):
    """Clamp 4 real coordinates back into |w1| <= 1, |w2| <= 1 - |w1|^2."""
    r2 = x1 * x1 + y1 * y1
    if r2 > 1.0:
        r = math.sqrt(r2)
        x1 /= r
        y1 /= r
        r2 = 1.0
    cap = 1.0 - r2
    m = math.sqrt(x2 * x2 + y2 * y2)
    if m > cap:
        if cap <= 0.0:
            x2 = 0.0
            y2 = 0.0
        else:
            s = cap / m
            x2 *= s
            y2 *= s
    return x1, y1, x2, y2


def polish(kind_id, b1, b2, func_id, mu, w1, w2, halvings):
    """Projected coordinate ascent with step halved after each sweep set."""
    x1, y1, x2, y2 = _project(w1.real, w1.imag, w2.real, w2.imag)
    best = functional(func_id, mu, *a2a3(kind_id, b1, b2, x1 + 1j * y1, x2 + 1j * y2))
    step = 0.25
    for _ in range(halvings):
        for _sweep in range(8):
            improved = False
            for coord in range(4):
                for sign in (1.0, -1.0):
                    cx1, cy1, cx2, cy2 = x1, y1, x2, y2
                    if coord == 0:
                        cx1 += sign * step
                    elif coord == 1:
                        cy1 += sign * step
                    elif coord == 2:
                        cx2 += sign * step
                    else:
                        cy2 += sign * step
                    cx1, cy1, cx2, cy2 = _project(cx1, cy1, cx2, cy2)
                    a2, a3 = a2a3(kind_id, b1, b2, cx1 + 1j * cy1, cx2 + 1j * cy2)
                    val = functional(func_id, mu, a2, a3)
                    if val > best:
                        best = val
                        x1, y1, x2, y2 = cx1, cy1, cx2, cy2
                        improved = True
            if not improved:
                break
        step *= 0.5
    return best, x1 + 1j * y1, x2 + 1j * y2
