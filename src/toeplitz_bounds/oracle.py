"""Brute-force verification of the determinant bounds.

The functionals T2(2), T3(1) and |a3 - mu*a2^2| depend on a function in
the family only through (a2, a3), which in turn depend only on the first
two Schwarz coefficients (w1, w2).  The attainable set of those is exactly
the Schur-Pick region |w1| <= 1, |w2| <= 1 - |w1|^2, so maximizing over
that closed region computes the true supremum over the whole family.

The search is deterministic for a fixed seed: boundary-biased samples,
w2 on the shell |w2| = 1 - |w1|^2, are drawn in independent shards (seed
derived from the master seed and the shard index) after the distinguished
points, and the best draws, one per basin, are refined together by a
projected pattern search.  One call may maximize several functionals over
the same draws: each shard's (a2, a3) are computed once and every one is
evaluated on them, which is how ``verify`` checks T2(2) and T3(1).  The
shards share one scratch block; the polish batches its levels' first sweeps.
Results in the open hypothesis region are estimates, never bounds.

numpy is imported inside the sampling functions, so only ``verify`` loads
it; the other subcommands start at interpreter-plus-stdlib cost.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _kernels
from .bounds import ClassKind, check_domain

SHARDS = 8  # independent sample streams per call
TOP_CANDIDATES = 16  # best draws per functional, thinned by _distinct before the polish
BASIN = 2.0 ** -7  # in max(|dw1|, |dw2|): a start this close to a better one is dropped

# Always-evaluated candidates: the theorem witnesses sit at (+-i, 0) and
# (+-1, 0); the pure-w2 points pick up the middle Fekete-Szego branch.
DISTINGUISHED = (
    (1j, 0j), (-1j, 0j), (1 + 0j, 0j), (-1 + 0j, 0j),
    (0j, 1 + 0j), (0j, -1 + 0j), (0j, 1j), (0j, -1j),
)


class SchwarzPoint(NamedTuple):
    """First two Taylor coefficients of a Schwarz function."""

    w1: complex
    w2: complex


class OracleConfig(NamedTuple):
    samples: int = 200_000
    seed: int = 7
    polish_steps: int = 40


class OracleResult(NamedTuple):
    functional: str
    mu: float
    sup_estimate: float
    argmax: SchwarzPoint
    samples: int
    seed: int
    polish_steps: int


def _block(n: int) -> np.ndarray:
    """Scratch rows that hold every array of one shard of up to n draws."""
    import numpy as np

    return np.empty((7, 2 * (len(DISTINGUISHED) + n)))


def _sample_shard(seed: int, shard: int, n: int,
                  block: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Boundary-biased samples of the region, deterministic per (seed, shard).

    Shard 0 starts with ``DISTINGUISHED``.  Half the draws have |w1| = 1 and
    w2 = 0, where the theorem extremals live; the rest |w1| = U^(1/4), U
    uniform, and w2 on the shell |w2| = 1 - |w1|^2, where each functional
    peaks for fixed w1.  Angles are float32, as numpy vectorizes their cos and
    sin; 4e-7 rad only seeds the polish, whose first step is 0.25.  All arrays,
    (w1, w2) too, are views of ``block``: the shards of a call share its pages.
    """
    import numpy as np

    rng = np.random.default_rng([seed, shard])
    head = np.array(DISTINGUISHED if shard == 0 else (), dtype=np.complex128).reshape(-1, 2)
    h, nb = len(head), n // 2
    m, q = 2 * n - nb, n - nb
    block = _block(n) if block is None else block
    (cos, sin, scale), r = block[2:5, :m], block[5, :q]
    t, c32 = block[6].view(np.float32)[:2 * m].reshape(2, m)
    np.multiply(rng.random(m, dtype=np.float32, out=t), np.float32(2.0 * np.pi), out=t)
    np.power(rng.random(q, out=r), 0.25, out=r)
    cos[:] = np.cos(t, out=c32)
    sin[:] = np.sin(t, out=c32)
    np.square(cos, out=scale)  # w1 at [:n], interior w2 at [n:]
    np.sqrt(np.add(scale, np.square(sin, out=block[0, :m]), out=scale), out=scale)
    scale[nb:n] /= r
    scale[n:] /= np.subtract(1.0, np.multiply(r, r, out=block[1, :q]), out=block[1, :q])
    w1, w2 = block[:2].view(np.complex128)[:, :h + n]  # rows 0 and 1 were scratch until now
    w1[:h], w2[:h] = head.T
    w2[h:h + nb] = 0.0
    for w, k in ((w1[h:], slice(None, n)), (w2[h + nb:], slice(n, None))):
        np.divide(cos[k], scale[k], out=w.real)
        np.divide(sin[k], scale[k], out=w.imag)
    return w1, w2


def _distinct(w1, w2):
    """Rows (F, K) of best-first candidates without any within BASIN of a
    better kept one: near-copies of the best gain ulps on every sweep and
    keep polish at 8 sweeps a level.  Rows are padded with their first
    candidate, whose copy ties it, so polish's first argmax is unchanged."""
    import numpy as np

    near = np.maximum(abs(w1[:, :, None] - w1[:, None]), abs(w2[:, :, None] - w2[:, None])) <= BASIN
    keep = np.ones(w1.shape, dtype=bool)
    for j in range(1, w1.shape[1]):
        keep[:, j] = ~(near[:, j, :j] & keep[:, :j]).any(axis=1)
    count = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")[:, :count.max()]
    order[np.arange(order.shape[1]) >= count[:, None]] = 0
    return [np.take_along_axis(w, order, axis=1) for w in (w1, w2)]


def maximize(kind: ClassKind, b1: float, b2: float, names: tuple[str, ...],
             config: OracleConfig = OracleConfig(),
             mu: float = 0.0) -> tuple[OracleResult, ...]:
    """Deterministic maximum of each named functional over the region.

    Each shard is drawn once and every named functional is evaluated on its
    points, so the results are, in order, those of one call per name, bit for bit.
    """
    import numpy as np

    if not names:
        raise ValueError("no functional to maximize")
    for name in names:
        if name not in _kernels.FUNCTIONALS:
            raise ValueError(f"unknown functional {name!r}")
    check_domain(b1, b2, mu)
    for field, low in (("samples", 1), ("seed", 0), ("polish_steps", 0)):
        n = getattr(config, field)  # a bool is an int, but not a count
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < low:
            raise ValueError(f"OracleConfig.{field} must be an integer >= {low}, got {n!r}")
    config = OracleConfig(*map(int, config))  # a numpy integer would reach the result

    base, extra = divmod(config.samples, SHARDS)
    block = _block(base + 1)  # one for every shard: its pages fault in once a call

    tops = []  # per shard: (values, w1, w2) of each functional's best draws, a row each
    for shard in range(min(SHARDS, config.samples)):
        w1, w2 = _sample_shard(config.seed, shard, base + (shard < extra), block)
        a2, a3 = _kernels.a2a3(kind, b1, b2, w1, w2)
        vals = [_kernels.eval_batch(name, mu, a2, a3) for name in names]
        keep = min(TOP_CANDIDATES, len(w1))
        top = np.array([np.argpartition(v, -keep)[-keep:] for v in vals])
        tops.append((np.array([v[k] for v, k in zip(vals, top)]), w1[top], w2[top]))
    vals, w1, w2 = (np.concatenate(part, axis=1) for part in zip(*tops))
    best = np.argsort(-vals, axis=1, kind="stable")[:, :TOP_CANDIDATES]
    w1, w2 = _distinct(*(np.take_along_axis(w, best, axis=1) for w in (w1, w2)))
    _, rows = _kernels.polish(kind, b1, b2, names, mu, w1, w2, config.polish_steps)
    return tuple(OracleResult(
        functional=name, mu=mu, sup_estimate=sup, argmax=SchwarzPoint(p1, p2),
        samples=config.samples + len(DISTINGUISHED), seed=config.seed,
        polish_steps=config.polish_steps) for name, (sup, p1, p2) in zip(names, rows))
