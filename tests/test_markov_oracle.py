"""The top of veech's per-class spectrum against Markov's theorem.

Markov (1879-80): the minimum systoles of closed geodesics on the
modular torus that lie above 2/3 are exactly 2m / sqrt(9 m^2 - 4), m a
Markov number, attained by the classes of trace 3m; every other class
lies at or below 2/3.  The Markov numbers are the entries of the
solutions of a^2 + b^2 + c^2 = 3abc, which all descend from (1, 1, 1)
by the moves (a, b, c) -> (a, b, 3ab - c).  Nothing here shares code
with the class enumeration or the axis sampling; the test reads only
their output.
"""

import math

import numpy as np

from geodlab.config import EXPERIMENTS
from geodlab.words import class_levels, max_trace, min_systole_batch


def _markov_triples(m_max: int) -> set:
    """Every Markov triple, sorted, with entries up to m_max, from the tree.
    Every triple but (1, 1, 1) is one move from a triple with a smaller
    largest entry, so the tree can be cut at the triples past m_max."""
    seen, todo = set(), [(1, 1, 1)]
    while todo:
        t = todo.pop()
        if max(t) > m_max or t in seen:
            continue
        seen.add(t)
        a, b, c = t
        for new in ((a, b, 3 * a * b - c), (a, 3 * a * c - b, c),
                    (3 * b * c - a, b, c)):
            todo.append(tuple(sorted(new)))
    return seen


def _markov_numbers(m_max: int) -> set:
    return {m for t in _markov_triples(m_max) for m in t}


def test_markov_numbers_from_the_tree():
    assert _markov_numbers(1000) == {1, 2, 5, 13, 29, 34, 89, 169, 194,
                                     233, 433, 610, 985}
    assert all(a * a + b * b + c * c == 3 * a * b * c
               for a, b, c in _markov_triples(1000))


def test_veech_classes_above_two_thirds_are_the_markov_classes():
    spec = EXPERIMENTS["veech"]
    length, step = spec["max_length"].default, spec["step"].default
    assert (length, step) == (6.0, 0.02)
    traces, mins = [], []
    for level in class_levels(max_trace(length), True):
        traces.append(level.trace)
        mins.append(min_systole_batch(level, step=step))
    traces, mins = np.concatenate(traces), np.concatenate(mins)
    top = mins > 2.0 / 3.0 + 1e-9

    # the Markov classes of trace 3m <= 2 cosh R: 1 and 2 are their own
    # mirror images under R <-> L, every other m has two classes
    markov = sorted(_markov_numbers(math.floor(2.0 * math.cosh(length) / 3)))
    assert markov == [1, 2, 5, 13, 29, 34, 89]
    want = sorted(3 * m for m in markov for _ in range(1 if m <= 2 else 2))
    assert int(top.sum()) == len(want) == 12
    assert sorted(traces[top].tolist()) == want

    # each sampled minimum is at or above Markov's value, and no sample
    # step away from the true minimum: within a factor cosh(step)
    for t, got in zip(traces[top].tolist(), mins[top].tolist()):
        m = t // 3
        exact = 2.0 * m / math.sqrt(9.0 * m * m - 4.0)
        assert exact <= got <= exact * math.cosh(step), (t, got)
