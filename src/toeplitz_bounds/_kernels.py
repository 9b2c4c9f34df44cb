"""Numeric kernels: the coefficient map and the three functionals.

``a2a3`` and ``functional`` are the one definition of the map
(w1, w2) -> (a2, a3) and of |T2(2)|, |T3(1)| and |a3 - mu*a2^2|.  The
same expressions work on Python scalars and on numpy arrays; ``eval_batch``
and ``polish`` evaluate arrays with them.  numpy's complex loops round by
array length and layout: check any reshaping bytewise (test_polish_reference).
A kind is a ``ClassKind`` and a functional one of the names in ``FUNCTIONALS``.
"""

from __future__ import annotations

from .bounds import ClassKind

FUNCTIONALS = ("t22", "t31", "fs")  # the one list of names; any other raises ValueError


def a2a3(kind, b1, b2, w1, w2):
    """(a2, a3) of the family member realizing the Schwarz point (w1, w2)."""
    if kind is ClassKind.STARLIKE:
        a2 = b1 * w1
        a3 = 0.5 * ((b1 * b1 + b2) * w1 * w1 + b1 * w2)
    else:
        a2 = 0.5 * b1 * w1
        a3 = ((b1 * b1 + b2) * w1 * w1 + b1 * w2) / 6.0
    return a2, a3


def functional(name, a2, a3, mu=0.0):
    """|T2(2)| ("t22"), |T3(1)| ("t31") or |a3 - mu*a2^2| ("fs") at (a2, a3)."""
    if name == "t22":
        return abs(a3 * a3 - a2 * a2)
    if name == "t31":
        t = 2.0 * a2 * a2
        return abs(1.0 - t - a3 * (a3 - t))
    if name == "fs":
        return abs(a3 - mu * a2 * a2)
    raise ValueError(f"unknown functional {name!r}")


def eval_batch(name, mu, a2, a3):
    """Functional values at arrays of (a2, a3), which the oracle computes once per shard."""
    return functional(name, a2, a3, mu)


def _project(p):
    """Clamp points, the real planes p = (x1, y1, x2, y2), in place into the region."""
    import numpy as np

    sq = p * p
    r2 = sq[0] + sq[1]
    p[:2] /= np.sqrt(np.maximum(r2, 1.0))
    cap = 1.0 - np.minimum(r2, 1.0)
    m = np.sqrt(sq[2] + sq[3])
    s = np.divide(cap, m, out=np.ones_like(m), where=m > cap)
    p[2:] *= s
    np.copyto(p[2:], 0.0, where=~(cap > 0.0))  # +0.0, not the -0.0 of scaling by 0
    return p


def polish(kind, b1, b2, names, mu, w1, w2, halvings):
    """Projected pattern search from the candidates of each functional, all at once.

    Row f of w1, w2 (shape (F, K)) holds the candidates of names[f].  Each
    sweep projects the 8 axis moves of every candidate, computes (a2, a3) once
    and evaluates each row with its own functional; a candidate moves to its
    best move if that improves it.  The step starts at 0.25 and halves after a
    sweep that improves no candidate, or after 8 sweeps.  A candidate that did
    not improve keeps its point, so it cannot improve later at the same step:
    the shared step couples neither candidates nor rows, and each row takes the
    path of a search of its own, bit for bit.  The first sweeps of the levels
    ahead start from the same points, so they run as one batch, and the first
    level in it that improves a candidate goes on from there.  A batch tries 1
    level after an improvement and 8 times more after none, capped so that no
    temporary reaches 256 KiB, where numpy computes in place and swaps the
    operands of a complex product.  Returns (best, rows): rows[f] is (value,
    w1, w2) at row f's first argmax; best, the largest, is what the tracer reads.
    """
    import numpy as np

    def values(p):
        z = np.empty((2, *p.shape[1:]), dtype=np.complex128)
        z.real, z.imag = p[0::2], p[1::2]  # (w1, w2), each (levels, F, ...)
        a2, a3 = a2a3(kind, b1, b2, *z)
        vals = np.empty(a2.shape)
        for i, f in enumerate(names):
            vals[:, i] = functional(f, a2[:, i], a3[:, i], mu)
        return vals

    w = np.asarray([w1, w2], dtype=np.complex128)
    pts = _project(np.stack([w.real, w.imag], axis=1).reshape(4, *w.shape[1:]))
    best = values(pts[:, None])[0]  # (F, K)
    f, k = np.ogrid[:len(best), :best.shape[1]]
    unit = np.concatenate([np.eye(4), -np.eye(4)]).T[:, None, None, :, None]  # (4, 1, 1, 8, 1)
    cap = max(1, 2047 // best.size)  # levels a batch: 128 * levels * F * K bytes < 256 KiB
    level, sweeps, size = 0, 0, 1  # sweeps made at this level; levels the next batch tries
    while level < halvings:
        if not sweeps:  # a batch of first sweeps
            stop = min(level + size, halvings)
            delta = np.ldexp(unit, -np.arange(level + 2, stop + 2)[:, None, None, None])
        moves = _project(pts[:, None, :, None] + delta)  # (4, levels, F, 8, K)
        vals = values(moves)
        top = vals.max(axis=2)
        up = top > best
        i = int(up.argmax())  # in the first level that improves a candidate
        if not up.flat[i]:
            level, sweeps, size = stop, 0, size if sweeps else min(8 * size, cap)
            continue
        j = i // best.size
        size, level, stop, delta = 1, level + j, level + j + 1, delta[:, j:j + 1]
        np.copyto(best, top[j], where=up[j])
        np.copyto(pts, moves[:, j, f, vals[j].argmax(axis=1), k], where=up[j])
        level, sweeps = (stop, 0) if sweeps == 7 else (level, sweeps + 1)
    at = pts[:, f[:, 0], best.argmax(axis=1)].T  # each row's first argmax
    rows = tuple((float(v), complex(x1 + 1j * y1), complex(x2 + 1j * y2))
                 for v, (x1, y1, x2, y2) in zip(best.max(axis=1), at))
    return float(best.max()), rows
