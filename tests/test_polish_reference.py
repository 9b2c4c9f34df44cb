"""``_kernels.polish`` byte for byte against a frozen copy of itself.

The copy below is ``polish`` and ``_project`` (with the ``a2a3`` and
``functional`` they evaluate) as they stood when ``polish`` searched one
functional per call, kept here as the reference.  ``polish`` now searches
a row of candidates per functional in one loop, and evaluates the first
sweeps of several halving levels in one batch; each row must come out as
this copy searching that row alone, one level after another.
The oracle's pinned results and the CLI transcript print the argmax, so a
change in the sign of a zero that polish returns changes their bytes; the
other tests compare values with ``==``, which does not see it.  A change
to polish that is meant to move its results must say so and update this
copy with it.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toeplitz_bounds import _kernels
from toeplitz_bounds.bounds import ClassKind

# the frozen copy's kind_id and func_id, as the kernels' ClassKind and name
KINDS, NAMES = (ClassKind.STARLIKE, ClassKind.CONVEX), ("t22", "t31", "fs")


def ref_a2a3(kind_id, b1, b2, w1, w2):
    if kind_id == 0:
        a2 = b1 * w1
        a3 = 0.5 * ((b1 * b1 + b2) * w1 * w1 + b1 * w2)
    else:
        a2 = 0.5 * b1 * w1
        a3 = ((b1 * b1 + b2) * w1 * w1 + b1 * w2) / 6.0
    return a2, a3


def ref_functional(func_id, mu, a2, a3):
    if func_id == 0:
        return abs(a3 * a3 - a2 * a2)
    if func_id == 1:
        return abs(1.0 - 2.0 * a2 * a2 - a3 * (a3 - 2.0 * a2 * a2))
    return abs(a3 - mu * a2 * a2)


def ref_project(p):
    x1, y1, x2, y2 = (p[..., i] for i in range(4))
    r2 = x1 * x1 + y1 * y1
    r = np.sqrt(np.maximum(r2, 1.0))
    cap = 1.0 - np.minimum(r2, 1.0)
    m = np.sqrt(x2 * x2 + y2 * y2)
    s = np.divide(cap, m, out=np.ones_like(m), where=m > cap)
    x2 = np.where(cap > 0.0, x2 * s, 0.0)
    y2 = np.where(cap > 0.0, y2 * s, 0.0)
    return np.stack([x1 / r, y1 / r, x2, y2], axis=-1)


def ref_polish(kind_id, b1, b2, func_id, mu, w1, w2, halvings):
    def value(p):
        z1, z2 = p[..., 0] + 1j * p[..., 1], p[..., 2] + 1j * p[..., 3]
        return ref_functional(func_id, mu, *ref_a2a3(kind_id, b1, b2, z1, z2))

    w1 = np.asarray(w1, dtype=np.complex128).reshape(-1)
    w2 = np.asarray(w2, dtype=np.complex128).reshape(-1)
    pts = ref_project(np.stack([w1.real, w1.imag, w2.real, w2.imag], axis=-1))
    best = value(pts)
    step = 0.25
    for _ in range(halvings):
        delta = step * np.concatenate([np.eye(4), -np.eye(4)])
        for _sweep in range(8):
            moves = ref_project(pts[:, None, :] + delta)
            vals = value(moves)
            pick = vals.argmax(axis=1)
            top = vals.max(axis=1)
            up = top > best
            if not up.any():
                break
            best = np.where(up, top, best)
            pts[up] = moves[up, pick[up]]
        step *= 0.5
    i = int(best.argmax())
    x1, y1, x2, y2 = pts[i]
    return float(best[i]), complex(x1 + 1j * y1), complex(x2 + 1j * y2)


def fingerprint(result):
    """Every float polish returns, as hex and as the sign of its bit pattern."""
    value, w1, w2 = result
    parts = (value, w1.real, w1.imag, w2.real, w2.imag)
    return [(float(x).hex(), math.copysign(1.0, x)) for x in parts]


# A zero of either sign, or any value: w2 = +-0.0 at |w1| = 1 is where the
# projection decides the sign of a zero.
PART = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))
ON_CIRCLE = st.one_of(
    st.sampled_from([1 + 0j, -1 + 0j, 1j, -1j, complex(-0.0, 1.0), complex(1.0, -0.0)]),
    st.floats(-math.pi, math.pi).map(lambda t: cmath.rect(1.0, t)),
)


@st.composite
def candidate_sets(draw, n):
    # points on |w1| = 1, or anywhere in the square: polish projects them first
    w1 = [draw(st.one_of(ON_CIRCLE, st.builds(complex, PART, PART))) for _ in range(n)]
    w2 = [draw(st.builds(complex, PART, PART)) for _ in range(n)]
    return np.array(w1, dtype=np.complex128), np.array(w2, dtype=np.complex128)


@st.composite
def stacked_sets(draw):
    """1 to 6 functional ids, repeats allowed, each with a row of 1 to 16
    candidates: up to 96 candidates, so that polish's batch of halving levels
    meets its size cap (2047 // candidates levels) within 200 halvings."""
    func_ids = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=6))
    n = draw(st.integers(1, 16))
    rows = [draw(candidate_sets(n)) for _ in func_ids]
    w1, w2 = zip(*rows)
    return tuple(func_ids), np.array(w1), np.array(w2)


SPREAD = np.arange(16) / 16  # 16 angles a turn


@settings(max_examples=60, deadline=None)
@given(stacked_sets(), st.sampled_from([0, 1]),
       st.floats(0.05, 3.0), st.floats(-3.0, 3.0), st.floats(-2.0, 2.0),
       st.integers(0, 200))
# the winner sits on the circle with w2 = -0 - 0j: the projection must
# return +0.0 for both parts of w2, not the -0.0 that scaling by 0 gives
@example(((0,), np.array([[1j]]), np.array([[complex(-0.0, -0.0)]])), 0, 1.0, 0.0, 0.0, 0)
@example(((1,), np.array([[-1 + 0j, 0.5j]]), np.array([[complex(-0.5, -0.25), 0.2]])),
         1, 1.3, -0.4, 0.7, 3)
# both rows sit on the witness (i, 0), where no move improves at any of the
# 40 levels: every level is tried in batches and none is taken
@example(((0, 1), np.array([[1j], [1j]]), np.array([[0j], [0j]])), 0, 1.0, 1.0, 0.0, 40)
# fs at starlike B1 = 1.567, B2 = -1.807 is flat on the circle w1 = 0,
# |w2| = 1.  A start 1e-3 from it reaches it and creeps along it, by ulps
# from level 13 on, at levels that batches of idle levels find; a start
# 0.05 from it keeps its w1 and improves w2 on 305 sweeps, 8 at each of the
# first 38 levels
@example(((2,), np.array([[1e-3j]]), np.array([[0.8 + 0.6j]])), 0, 1.567, -1.807, 0.0, 40)
@example(((2,), np.array([[-0.04 + 0.03j]]), np.array([[0.8 + 0.6j]])), 0, 1.567, -1.807,
         0.0, 40)
# levels 1 to 4 improve nothing, level 5 improves on 4 sweeps and level 6 on
# all 8: a batch finds level 5, whose later sweeps try level 5 alone, and the
# search goes on at level 6
@example(((0,), np.array([[0.007 - 0.033j]]), np.array([[0.946 + 0.325j]])), 0, 2.22, -2.35,
         0.0, 40)
# 16 candidates, so 127 levels a batch: at 128 its complex temporaries would
# reach numpy's 256 KiB elision threshold, and the elided product swaps its
# operands, which moves this search's result
@example(((1,), 0.5 * np.exp(2j * np.pi * SPREAD + 0.1j)[None],
          0.75 * np.exp(-0.7j * 16 * SPREAD)[None]), 0, 0.5, -1.0, 0.0, 200)
def test_polish_matches_frozen_copy_bytewise(stacked, kind_id, b1, b2, mu, halvings):
    func_ids, w1, w2 = stacked
    best, rows = _kernels.polish(KINDS[kind_id], b1, b2, tuple(NAMES[f] for f in func_ids),
                                 mu, w1.copy(), w2.copy(), halvings)
    assert len(rows) == len(func_ids)
    for func_id, got, row1, row2 in zip(func_ids, rows, w1, w2):
        want = ref_polish(kind_id, b1, b2, func_id, mu, row1.copy(), row2.copy(),
                          halvings)
        assert fingerprint(got) == fingerprint(want)
    assert best.hex() == max(value for value, _, _ in rows).hex()


def batch_shapes(monkeypatch, b1, b2, names, w1, w2, halvings):
    """The shape (levels, F, 8, K) of each evaluation of a starlike polish
    after the start's, as a2a3 sees its w1."""
    shapes = []
    a2a3 = _kernels.a2a3

    def recorded(kind, b1, b2, w1, w2):
        shapes.append(w1.shape)
        return a2a3(kind, b1, b2, w1, w2)

    with monkeypatch.context() as m:
        m.setattr(_kernels, "a2a3", recorded)
        _kernels.polish(KINDS[0], b1, b2, names, 0.0, np.asarray(w1, dtype=np.complex128),
                        np.asarray(w2, dtype=np.complex128), halvings)
    return shapes[1:]


@pytest.mark.parametrize("rows,cols", [(1, 16), (2, 8), (3, 5), (1, 2047), (2, 1024)])
def test_a_batch_of_levels_stays_under_numpy_elision_threshold(monkeypatch, rows, cols):
    # numpy evaluates a temporary of 256 KiB or more in place, which moves the
    # bits of a complex product; a batch of levels must never reach that size
    # unless a single level does (then it is one level, as the frozen copy has it).
    # The witness (i, 0) of starlike (1, 1), where no move improves:
    shapes = batch_shapes(monkeypatch, 1.0, 1.0, ("t22",) * rows, np.full((rows, cols), 1j),
                          np.zeros((rows, cols)), 300)
    levels = [s[0] for s in shapes]
    assert max(levels) == max(1, 2047 // (rows * cols))
    assert all(n == 1 or 16 * math.prod(s) < 2 ** 18 for n, s in zip(levels, shapes))


def test_a_batch_tries_one_level_after_an_improvement_and_8_times_more_after_none(monkeypatch):
    # any schedule under the cap gives the same bits; this one sets the cost
    stuck = batch_shapes(monkeypatch, 1.0, 1.0, ("t22",), [[1j] * 16], [[0j] * 16], 300)
    assert [s[0] for s in stuck] == [1, 8, 64, 127, 100]  # 2047 // 16 = 127 at most
    # fs beside its flat circle, where each of the first 39 levels improves
    moving = batch_shapes(monkeypatch, 1.567, -1.807, ("fs",), [[-0.04 + 0.03j]],
                          [[0.8 + 0.6j]], 40)
    assert [s[0] for s in moving] == [1] * (38 * 8 + 2 + 1)
