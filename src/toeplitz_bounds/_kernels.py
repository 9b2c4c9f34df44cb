"""Numeric kernels: the coefficient map and the three functionals.

``a2a3`` and ``functional`` are the one definition of the map
(w1, w2) -> (a2, a3) and of |T2(2)|, |T3(1)| and |a3 - mu*a2^2|.  The
same expressions work on Python scalars and on numpy arrays; ``eval_batch``
and ``polish`` evaluate arrays with them.  numpy's complex loops round by
array length and layout: check any reshaping bytewise (test_polish_reference).

Encoding: kind_id is ``ClassKind.id`` (0=starlike 1=convex), func_id
0=t22 1=t31 and any other id fs(mu), as in :mod:`toeplitz_bounds.oracle`.
"""

from __future__ import annotations

T22, T31 = 0, 1


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
        t = 2.0 * a2 * a2
        return abs(1.0 - t - a3 * (a3 - t))
    return abs(a3 - mu * a2 * a2)


def eval_batch(func_id, mu, a2, a3):
    """Functional values at arrays of (a2, a3), which the oracle computes once per shard."""
    return functional(func_id, mu, a2, a3)


def _project(p):
    """Clamp points p[..., :] = (x1, y1, x2, y2) in place into the region."""
    import numpy as np

    sq = p * p
    r2 = sq[..., 0] + sq[..., 1]
    p[..., :2] /= np.sqrt(np.maximum(r2, 1.0))[..., None]
    cap = 1.0 - np.minimum(r2, 1.0)
    m = np.sqrt(sq[..., 2] + sq[..., 3])
    s = np.divide(cap, m, out=np.ones_like(m), where=m > cap)
    p[..., 2:] *= s[..., None]
    p[~(cap > 0.0), 2:] = 0.0  # +0.0, not the -0.0 that scaling by 0 can give
    return p


def polish(kind_id, b1, b2, func_id, mu, w1, w2, halvings):
    """Projected pattern search from each candidate; the best one found.

    Each sweep evaluates the 8 axis moves of every candidate at once and
    moves each candidate to its best move if that improves it.  The step
    starts at 0.25 and halves after a sweep that improves no candidate, or
    after 8 sweeps.  A candidate that did not improve keeps its point, so
    it cannot improve later at the same step: the shared step does not
    couple the candidates.
    """
    import numpy as np

    def value(p):
        z = p.view(np.complex128)
        return functional(func_id, mu, *a2a3(kind_id, b1, b2, z[..., 0], z[..., 1]))

    w = np.asarray([w1, w2], dtype=np.complex128).reshape(2, -1)
    pts = _project(np.ascontiguousarray(w.T).view(np.float64))  # rows (x1, y1, x2, y2)
    best = value(pts)
    moves = np.empty((len(pts), 8, 4))
    step = 0.25
    for _ in range(halvings):
        delta = step * np.concatenate([np.eye(4), -np.eye(4)])
        for _sweep in range(8):
            _project(np.add(pts[:, None, :], delta, out=moves))
            vals = value(moves)
            pick = vals.argmax(axis=1)
            top = vals.max(axis=1)
            up = top > best
            if not up.any():
                break
            np.copyto(best, top, where=up)
            pts[up] = moves[up, pick[up]]
        step *= 0.5
    i = int(best.argmax())
    x1, y1, x2, y2 = pts[i]
    return float(best[i]), complex(x1 + 1j * y1), complex(x2 + 1j * y2)
