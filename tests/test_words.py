import functools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodlab import words
from geodlab.halfplane import MappingClass, ModelPoint
from geodlab.words import (MAX_AXIS_STEP, MAX_ENUM_LENGTH, MIN_AXIS_STEP,
                           ClassTable, TraceHistogram, _axis_halves,
                           axis_samples, block_apices, canonical,
                           class_levels, enumerate_classes, is_primitive,
                           max_trace,
                           min_systole_along_axis, min_systole_batch,
                           teich_length_from_trace, word_to_matrix)

from entry_search import classes_by_entry_search


def _necklaces_dfs(trace_cap: float, primitive_only: bool) -> tuple:
    """Reference: the recursive depth-first generator of the same classes.

    Fredricksen-Kessler-Maiorana generation over (a, b) syllable pairs in
    lexicographic order: a prenecklace of t pairs with period p extends
    only by a pair >= its pair t - p, and is a necklace (a least rotation)
    exactly when p divides t, a Lyndon word (primitive) when p == t.
    Appending a pair and raising either exponent both strictly increase
    the trace, so pruning at the cap is exact.  Classes come out in
    pre-order of the lexicographic tree, so their exps strictly increase,
    and a stable sort by trace gives the (trace, exps) order.  Returns
    the classes as (trace, exps, length, entries) rows and the number of
    prenecklaces expanded, the empty word included.
    """
    out = []
    word = []
    calls = [0]
    acosh = math.acosh

    def rec(m00, m01, m10, m11, t, p):
        calls[0] += 1
        if t:
            ra, rb = word[2 * (t - p)], word[2 * (t - p) + 1]
        else:
            ra, rb = 1, 1
        a, b = ra, rb
        while True:
            # m . R^a L^b = m . [[1, b], [a, ab+1]]
            e = a * b + 1
            tr = m00 + m01 * a + m10 * b + m11 * e
            if tr > trace_cap:
                if b == 1:
                    break  # (a, 1) overflows, so does every larger pair
                # (a, b > 1) overflows, but (a + 1, 1) may not
                a, b = a + 1, 1
                continue
            q = p if a == ra and b == rb else t + 1
            word.extend((a, b))
            n00, n01 = m00 + m01 * a, m00 * b + m01 * e
            n10, n11 = m10 + m11 * a, m10 * b + m11 * e
            if q == t + 1 or (not primitive_only and (t + 1) % q == 0):
                out.append((tr, tuple(word), acosh(tr / 2.0),
                            (n00, n01, n10, n11)))
            rec(n00, n01, n10, n11, t + 1, q)
            del word[-2:]
            b += 1

    rec(1, 0, 0, 1, 0, 1)
    assert all(u[1] < v[1] for u, v in zip(out, out[1:]))
    out.sort(key=lambda g: g[0])
    return out, calls[0]


def _rows(table, pick=slice(None)):
    """The (trace, exps, length, entries) rows of a ClassTable, or of the
    rows picked."""
    return zip(table.trace[pick].tolist(),
               map(tuple, table.words[pick].tolist()),
               table.length[pick].tolist(),
               map(tuple, table.entries[pick].tolist()))


def _classes(trace_cap: float, primitive_only: bool = True,
             counters=None) -> list:
    """The classes of class_levels as rows, sorted by trace, then exps."""
    return sorted(row for lv in class_levels(trace_cap, primitive_only,
                                             counters)
                  for row in _rows(lv))


def _class_of(exps) -> tuple:
    """The (trace, exps, length, entries) row of a word's class, by
    canonical and word_to_matrix."""
    c = canonical(exps)
    m = word_to_matrix(c)
    return m.a + m.d, c, teich_length_from_trace(m.a + m.d), m.entries()


def _table(classes) -> ClassTable:
    """The rows as one ClassTable, in the order given, words zero-padded
    to the longest."""
    width = max((len(g[1]) for g in classes), default=0)
    words = np.zeros((len(classes), width), dtype=np.int64)
    for row, g in zip(words, classes):
        row[:len(g[1])] = g[1]
    return ClassTable(np.array([g[0] for g in classes], dtype=np.int64),
                      np.array([g[2] for g in classes], dtype=float),
                      np.array([g[3] for g in classes],
                               dtype=np.int64).reshape(-1, 4),
                      words)


def test_length_from_trace():
    assert teich_length_from_trace(3) == pytest.approx(math.acosh(1.5),
                                                       rel=1e-12)
    with pytest.raises(ValueError):
        teich_length_from_trace(2)


def test_word_to_matrix_simplest():
    m = word_to_matrix((1, 1))
    assert m.entries() == (1, 1, 1, 2)
    assert m.a + m.d == 3
    m2 = word_to_matrix((2, 1))
    assert m2.a + m2.d == 4


def test_canonical_rotation_invariance():
    w = (1, 2, 3, 1)
    assert canonical(w) == canonical((3, 1, 1, 2))
    assert canonical((5, 7)) == canonical((5, 7))
    # canonical form has even length and starts consistently
    assert len(canonical(w)) == 4


def test_primitivity():
    assert is_primitive((1, 1))
    assert is_primitive((1, 2, 3, 4))
    assert not is_primitive((1, 1, 1, 1))
    assert not is_primitive((2, 3, 2, 3))


def test_enumerate_counts_frozen():
    for r, n in ((3.0, 74), (4.0, 408), (5.0, 2451), (6.0, 14904)):
        assert len(enumerate_classes(r)) == n


def test_enumerate_budget_guard():
    with pytest.raises(ValueError):
        enumerate_classes(MAX_ENUM_LENGTH + 0.1)
    assert len(enumerate_classes(0.0)) == 0
    assert len(enumerate_classes(-1.0)) == 0


def test_the_trace_cap_keeps_the_classes_of_length_exactly_r():
    # 2 cosh acosh(t / 2) can round below t (3.9999999999999996 at t = 4),
    # so the cap is searched for, not read off 2 cosh r
    assert math.floor(2.0 * math.cosh(math.acosh(2.0))) == 3
    for t in range(3, 61):
        r = teich_length_from_trace(t)
        assert max_trace(r) == t
        assert max_trace(np.nextafter(r, 0.0)) == t - 1
        counts = enumerate_classes(r).counts
        assert len(counts) == t + 1 and counts[t] > 0
        trace, _, length, _ = _classes(max_trace(r))[-1]
        assert trace == t and length == r
    assert max_trace(0.5) == max_trace(0.0) == max_trace(-1.0) == 2


def test_enumerate_respects_bound_and_canonical():
    classes = _classes(max_trace(3.0))
    assert len(classes) == 74
    for trace, exps, length, entries in classes:
        assert length <= 3.0 + 1e-12
        assert exps == canonical(exps)
        m = word_to_matrix(exps)
        assert trace == m.a + m.d
        # the entries carried over from the enumeration are the word's matrix
        assert MappingClass(*entries) == m
        assert length == pytest.approx(teich_length_from_trace(trace),
                                       rel=1e-12)
        # and the class equals the one built from its word alone
        assert (trace, exps, length, entries) == _class_of(exps)
    assert len({c[1] for c in classes}) == len(classes)


def test_enumerate_includes_imprimitive_when_asked():
    prim = _classes(max_trace(2.0), primitive_only=True)
    full = _classes(max_trace(2.0), primitive_only=False)
    assert len(full) > len(prim)
    squares = {c[1] for c in full} - {c[1] for c in prim}
    assert canonical((1, 1, 1, 1)) in squares


def test_entry_search_agrees_small():
    for primitive_only in (True, False):
        brute = classes_by_entry_search(20, primitive_only=primitive_only)
        neck = {canonical(c[1])
                for c in _classes(20, primitive_only=primitive_only)}
        assert brute == neck


@pytest.mark.parametrize("primitive_only", [True, False])
def test_enumerate_emits_each_class_once(primitive_only):
    classes = _classes(max_trace(5.0), primitive_only=primitive_only)
    words = [c[1] for c in classes]
    assert len(set(words)) == len(words)
    assert all(w == canonical(w) for w in words)
    assert all(is_primitive(w) or not primitive_only for w in words)


@settings(deadline=None, max_examples=40)
@given(st.floats(3.0, 2.0 * math.cosh(4.5)), st.booleans())
def test_table_equals_the_recursive_generator(cap, primitive_only):
    # class by class: trace, exps, entries, and lengths to the bit
    counters = Counter()
    classes = _classes(cap, primitive_only, counters)
    ref, calls = _necklaces_dfs(cap, primitive_only)
    assert classes == ref
    assert (np.array([g[2] for g in classes]).view(np.int64).tolist()
            == np.array([g[2] for g in ref]).view(np.int64).tolist())
    assert counters == {"enum.prenecklaces": calls}
    keys = [g[:2] for g in classes]
    assert all(u < v for u, v in zip(keys, keys[1:]))


@pytest.mark.parametrize("primitive_only", [True, False])
def test_table_equals_the_recursive_generator_at_r6(primitive_only):
    counters = Counter()
    classes = _classes(max_trace(6.0), primitive_only, counters)
    ref, calls = _necklaces_dfs(2.0 * math.cosh(6.0), primitive_only)
    assert len(classes) == len(ref) == (14904 if primitive_only else 14993)
    assert classes == ref
    assert counters == {"enum.prenecklaces": calls} == {"enum.prenecklaces": 15955}


def test_generator_refuses_caps_past_2_31_before_building_anything(monkeypatch):
    # entries up to the cap multiply in int64; from 2^31 on they could
    # leave it, so the cap is refused before numpy is touched
    monkeypatch.setattr(words, "np", None)
    for cap in (2.0 ** 31, 2.0 ** 31 + 0.5, 1e30):
        with pytest.raises(OverflowError):
            next(class_levels(cap, True))
        with pytest.raises(OverflowError):
            TraceHistogram(cap, True)


@pytest.mark.parametrize("primitive_only", [True, False])
@pytest.mark.parametrize("r", [2.3, 3.0, 6.0, 7.5])
def test_trace_histogram_equals_the_table_trace_by_trace(r, primitive_only):
    by_level, by_hist = Counter(), Counter()
    cap = max_trace(r)
    trace = np.concatenate([lv.trace for lv
                            in class_levels(cap, primitive_only, by_level)])
    hist = enumerate_classes(r, primitive_only, counters=by_hist)
    assert hist.counts.tolist() == np.bincount(trace,
                                               minlength=cap + 1).tolist()
    assert len(hist) == len(trace)
    assert by_hist == by_level


@settings(deadline=None, max_examples=25)
@given(st.floats(2.0, 2.0 * math.cosh(4.5)), st.booleans())
def test_trace_histogram_equals_the_recursive_generator(cap, primitive_only):
    counters = Counter()
    hist = TraceHistogram(cap, primitive_only, counters)
    ref, calls = _necklaces_dfs(cap, primitive_only)
    assert hist.counts.tolist() == np.bincount(
        [g[0] for g in ref], minlength=math.floor(cap) + 1).tolist()
    assert counters == {"enum.prenecklaces": calls}


_CLASSES_4 = _classes(max_trace(4.0))


def test_axis_samples_lie_on_axis_and_hit_apex():
    exps = (3, 1)
    m = word_to_matrix(exps)
    sig, x, y = axis_samples(exps, step=0.02)
    # the axis is the semicircle through the two fixed points of m
    c0 = (m.a - m.d) / (2.0 * m.c)
    r0 = math.sqrt(float((m.a + m.d) ** 2 - 4)) / (2.0 * m.c)
    assert np.allclose((x - c0) ** 2 + y ** 2, r0 * r0, rtol=1e-9)
    assert y.max() == pytest.approx(r0, rel=1e-12)  # apex present
    with pytest.raises(ValueError):
        axis_samples(exps, step=0.3)


def test_min_systole_simplest_class():
    # (1;1) axis apex: x = 1/2, y = sqrt(5)/2, systole 2/sqrt(5)
    v = min_systole_along_axis((1, 1))
    assert v == pytest.approx(2.0 / math.sqrt(5.0), rel=1e-4)


def test_min_systole_batch_matches_loop():
    # the batch forms each class's samples with the per-class kernel's
    # operations and takes 1 / max height, so it must agree exactly, with
    # the table's rows in any order
    classes = _CLASSES_4
    loop = np.array([min_systole_along_axis(g[1]) for g in classes])
    counters = Counter()
    assert np.array_equal(min_systole_batch(_table(classes),
                                            counters=counters), loop)
    assert np.array_equal(min_systole_batch(_table(classes[::-1])),
                          loop[::-1])
    # three samples beside each kept apex, and the period's last sample
    # where its first is one of them: 1,410 of the 71,018 grid samples
    assert counters == {"veech.axis_points":
                        sum(axis_samples(g[1])[0].size for g in classes),
                        "veech.reduced_points": 1410}
    assert min_systole_batch(_table([])).size == 0


def test_min_systole_batch_refuses_traces_past_the_block_walk():
    # a trace of 2^25 or more would take the block walk's integers past
    # 2^53: refused, as is a table entry past 2^62, where a - d could
    # leave int64
    for exps in ((2 ** 25, 1), (2 ** 30 + 1, 2 ** 29 + 3),
                 (2 ** 27 + 5, 7, 3, 2 ** 26)):
        with pytest.raises(OverflowError):
            min_systole_batch(_table([_class_of(exps)]))
    past = _class_of((2 ** 31, 2 ** 31))
    with pytest.raises(OverflowError):
        min_systole_batch(_table([past]))


def test_min_systole_batch_refuses_a_step_below_its_resolution():
    classes = _table([_class_of((1, 1))])
    with pytest.raises(ValueError, match="at least"):
        min_systole_batch(classes, step=np.nextafter(MIN_AXIS_STEP, 0.0))
    assert min_systole_batch(classes, step=MIN_AXIS_STEP).size == 1


@settings(deadline=None, max_examples=25)
@given(st.lists(st.integers(0, 407), min_size=1, max_size=60, unique=True))
def test_min_systole_batch_matches_loop_on_shuffled_subsets(picks):
    # any subset in any order gives the per-class minima bit for bit
    classes = [_CLASSES_4[i] for i in picks]
    loop = np.array([min_systole_along_axis(g[1]) for g in classes])
    got = min_systole_batch(_table(classes))
    assert np.array_equal(got.view(np.int64), loop.view(np.int64))


@functools.lru_cache(maxsize=1)
def _levels_at_the_enumeration_limit():
    return list(class_levels(max_trace(MAX_ENUM_LENGTH), True))


def _pick(levels, i) -> tuple:
    """Class i of the levels, counted in level order, as a row."""
    for lv in levels:
        if i < len(lv):
            return next(_rows(lv, [i]))
        i -= len(lv)
    raise IndexError(i)


@settings(deadline=None, max_examples=25)
@given(st.data(), st.floats(0.001, 0.1))
def test_min_systole_batch_matches_loop_at_the_enumeration_limit(data, step):
    # any subset of the R = 7.5 classes, in any order, at any step of the
    # config's range: the few samples beside the highest apexes give the
    # whole grid's minimum bit for bit
    levels = _levels_at_the_enumeration_limit()
    picks = data.draw(st.lists(st.integers(0, sum(map(len, levels)) - 1),
                               min_size=1, max_size=12, unique=True))
    classes = [_pick(levels, i) for i in picks]
    loop = np.array([min_systole_along_axis(g[1], step) for g in classes])
    got = min_systole_batch(_table(classes), step=step)
    assert np.array_equal(got.view(np.int64), loop.view(np.int64))


@settings(deadline=None, max_examples=20)
@given(st.floats(1.32, 6.5), st.floats(MIN_AXIS_STEP, MAX_AXIS_STEP))
def test_word_length_batches_give_the_table_minima(max_length, step):
    # veech calls the kernel once per word length, on unpadded words in
    # generation order: the same (length, minimum) pairs, bit for bit, and
    # the same footers as one call on the sorted, padded table
    by_table, by_level = Counter(), Counter()
    table = _table(_classes(max_trace(max_length), True, by_table))
    mins = min_systole_batch(table, step, by_table)
    levels = list(class_levels(max_trace(max_length), True, by_level))
    assert all(lv.words.all() for lv in levels)
    pairs = [pair for lv in levels for pair in zip(
        lv.length.tolist(), min_systole_batch(lv, step, by_level).tolist())]
    assert sorted(pairs) == sorted(zip(table.length.tolist(), mins.tolist()))
    assert by_level == by_table


def _mul(m, n):
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


def _blocks(exps):
    """The letter blocks R^a1, L^b1, ... as Python integer matrices."""
    return [(1, 0, e, 1) if k % 2 == 0 else (1, e, 0, 1)
            for k, e in enumerate(exps)]


def _rotation_entries(exps):
    """Per block, the b (R block) or c (L block) of the product of the
    blocks rotated to start there."""
    blocks = _blocks(exps)
    out = []
    for k in range(len(blocks)):
        m = (1, 0, 0, 1)
        for blk in blocks[k:] + blocks[:k]:
            m = _mul(m, blk)
        out.append(m[1] if k % 2 == 0 else m[2])
    return out


def _sigma_grid(sigma, words):
    """block_apices' sigma at every live slot of words, zero past the
    end of each word."""
    grid = np.zeros(words.shape)
    live = np.nonzero(words)
    grid[live] = sigma(*live)
    return grid


def _apices(exps):
    """(length, rho, sigma) of the class of a canonical word."""
    _, _, length, entries = _class_of(exps)
    words = np.array([exps])
    rho, sigma, _ = block_apices(np.array([entries]), words)
    return length, rho[0], _sigma_grid(sigma, words)[0]


def test_block_apices_match_the_rotations_and_pull_back_onto_the_axis():
    table = _table(_CLASSES_4)
    rho, sigma, root_ds = block_apices(table.entries, table.words)
    sigma = _sigma_grid(sigma, table.words)
    assert rho.shape == sigma.shape == table.words.shape
    for (trace, exps, _, entries), rho_g, sigma_g, root_d_g in zip(
            _CLASSES_4, rho, sigma, root_ds):
        n = len(exps)
        assert not rho_g[n:].any() and not sigma_g[n:].any()
        root_d = math.sqrt(trace ** 2 - 4)
        assert root_d_g == root_d
        assert rho_g[:n].tolist() == [root_d / (2.0 * e)
                                      for e in _rotation_entries(exps)]
        # g^-1 maps the point of the axis at arc length sigma onto its
        # lift, at height rho: that lift's apex
        a, b, c, d = entries
        c0, r0 = (a - d) / (2.0 * c), root_d / (2.0 * c)
        prefix = (1, 0, 0, 1)
        for k, blk in enumerate(_blocks(exps)):
            p, q, r, s = prefix
            # an R block's lift is P S^-1, an L block's P
            lift = (-q, p, -s, r) if k % 2 == 0 else prefix
            z = ModelPoint(c0 + r0 * math.tanh(sigma_g[k]),
                           r0 / math.cosh(sigma_g[k]))
            w, x, y, v = lift
            back = MappingClass(v, -x, -y, w).apply(z)
            assert back.y == pytest.approx(rho_g[k], rel=1e-9)
            prefix = _mul(prefix, blk)


def test_block_apices_sigma_at_the_kept_slots_is_the_full_grid_formula():
    # the full grid of the (W, N) expression over every block's |f| and
    # lift column, here from the conjugated rotations M_k = P^-1 M P and
    # the prefixes P, against sigma at just the slots min_systole_batch
    # keeps at R = 6, bit for bit
    table = _table(_classes(max_trace(6.0)))
    a, b, c, d = table.entries.T
    t = a + d
    p, q, r, s = (np.full(len(table), v, dtype=np.int64) for v in (1, 0, 0, 1))
    f, x, y = (np.zeros(table.words.T.shape, dtype=np.int64) for _ in range(3))
    for k, e in enumerate(table.words.T):
        # P^-1 = (s, -q, -r, p): the b of M_k for an R block, its c for an L
        mp = (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)
        if k % 2 == 0:
            f[k] = s * mp[1] - q * mp[3]
            x[k], y[k] = q, s
            p, r = p + e * q, r + e * s
        else:
            f[k] = -r * mp[0] + p * mp[2]
            x[k], y[k] = p, r
            q, s = q + e * p, s + e * r
    root_d = np.sqrt((t * t - 4).astype(float))
    big = 2 * c * x + (d - a) * y
    full = np.sign(big) * np.log(
        np.square(np.abs(big) + y * root_d) / (4.0 * c * f))
    rho, sigma, _ = block_apices(table.entries, table.words)
    delta = 2.0 * table.length / _axis_halves(table.length, 0.02)
    floor = rho.max(axis=1) / np.cosh(delta / 2.0)
    row, blk = np.nonzero(rho >= (floor * (1.0 - 1e-9))[:, None])
    assert len(row) == 15294
    assert np.array_equal(sigma(row, blk).view(np.int64),
                          full[blk, row].view(np.int64))
    # in any order and with repeats, too
    pick = np.random.default_rng(7).integers(0, len(row), 5000)
    assert np.array_equal(sigma(row[pick], blk[pick]).view(np.int64),
                          full[blk[pick], row[pick]].view(np.int64))


def test_walk_cases_ties_and_the_period_wrap():
    # (1, 1): two lifts of apex sqrt(5)/2, one pulled back to sigma = l,
    # where the period wraps, the other to 2 l, one period past A0's apex
    length, rho, sigma = _apices((1, 1))
    assert rho.tolist() == [math.sqrt(5.0) / 2.0] * 2
    assert sigma == pytest.approx([length, 2.0 * length], rel=1e-12)
    # a palindrome: its top apex is reached from two blocks, at two places
    length, rho, sigma = _apices((1, 2, 2, 1))
    tops = np.flatnonzero(rho == rho.max())
    assert len(tops) == 2
    gap = abs(sigma[tops[0]] - sigma[tops[1]]) % (2.0 * length)
    assert 0.1 < gap < 2.0 * length - 0.1
    # (3, 1): the only top apex pulls back to sigma = l
    length, rho, sigma = _apices((3, 1))
    assert np.flatnonzero(rho == rho.max()).tolist() == [0]
    assert sigma[0] == pytest.approx(length, rel=1e-12)
    # (2, 3, 4, 4, 3, 3): at step 0.1 the grid's highest sample lies beside
    # the second apex, 0.3% below the top one, and above any the top gives
    exps = (2, 3, 4, 4, 3, 3)
    length, rho, sigma = _apices(exps)
    top, second = np.argsort(rho)[::-1][:2]
    grid = axis_samples(exps, 0.1)[0]
    gap = np.abs((grid - sigma[top] + length) % (2.0 * length) - length)
    from_top = rho[top] / np.cosh(gap).min()
    assert rho[second] > rho[top] / math.cosh(0.1)
    assert 1.0 / min_systole_along_axis(exps, 0.1) > from_top * (1.0 + 1e-9)
    words = [(1, 1), (1, 2, 2, 1), (3, 1), (2, 3, 4, 4, 3, 3)]
    for step in (0.001, 0.0137, 0.02, 0.1):
        loop = np.array([min_systole_along_axis(e, step) for e in words])
        got = min_systole_batch(
            _table([_class_of(e) for e in words]), step=step)
        assert np.array_equal(got.view(np.int64), loop.view(np.int64))
    assert min_systole_along_axis((1, 1), 0.001) == pytest.approx(
        2.0 / math.sqrt(5.0), rel=1e-6)


@pytest.mark.parametrize("step", [0.001, 0.02, 0.1])
def test_sampled_minimum_is_bracketed_by_the_markov_minimum(step):
    # 2 m / sqrt(t^2 - 4), m the least b or c over the block rotations, is
    # the exact minimum over the axis; the grid comes within half a step
    # Delta <= 2 step of the highest apex, so its minimum is at most
    # cosh(step) above it
    classes = _classes(max_trace(5.0))
    mins = min_systole_batch(_table(classes), step=step)
    exact = np.array([2.0 * min(_rotation_entries(exps))
                      / math.sqrt(trace ** 2 - 4)
                      for trace, exps, _, _ in classes])
    assert np.all(mins >= exact * (1.0 - 1e-12))
    assert np.all(mins <= exact * math.cosh(step) * (1.0 + 1e-12))
    assert mins[0] == pytest.approx(2.0 / math.sqrt(5.0), rel=step * step)
