import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodlab import words
from geodlab.halfplane import MappingClass
from geodlab.words import (MAX_ENUM_LENGTH, ClassTable, GeodesicClass,
                           TraceHistogram, _necklace_table,
                           axis_samples, canonical,
                           classes_by_entry_search,
                           enumerate_classes, is_primitive,
                           min_systole_along_axis, min_systole_batch,
                           teich_length_from_trace, word_to_matrix)


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
    the classes and the number of prenecklaces expanded, the empty word
    included.
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
                out.append(GeodesicClass(tuple(word), tr, acosh(tr / 2.0),
                                         (n00, n01, n10, n11)))
            rec(n00, n01, n10, n11, t + 1, q)
            del word[-2:]
            b += 1

    rec(1, 0, 0, 1, 0, 1)
    assert all(u.exps < v.exps for u, v in zip(out, out[1:]))
    out.sort(key=lambda g: g.trace)
    return out, calls[0]


def test_length_from_trace():
    assert teich_length_from_trace(3) == pytest.approx(math.acosh(1.5),
                                                       rel=1e-12)
    with pytest.raises(ValueError):
        teich_length_from_trace(2)


def test_word_to_matrix_simplest():
    m = word_to_matrix((1, 1))
    assert m.entries() == (1, 1, 1, 2)
    assert m.trace == 3
    m2 = word_to_matrix((2, 1))
    assert m2.trace == 4


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


def test_enumerate_respects_bound_and_canonical():
    classes = enumerate_classes(3.0)
    assert len(classes) == 74
    for c in classes:
        assert c.length <= 3.0 + 1e-12
        assert c.exps == canonical(c.exps)
        assert c.trace == word_to_matrix(c.exps).trace
        # the entries carried over from the enumeration are the word's matrix
        assert MappingClass(*c.entries) == word_to_matrix(c.exps)
        assert c.length == pytest.approx(teich_length_from_trace(c.trace),
                                         rel=1e-12)
        # and the class equals the one built from its word alone
        assert c == GeodesicClass.from_exps(c.exps)
    assert len({c.exps for c in classes}) == len(classes)


def test_enumerate_includes_imprimitive_when_asked():
    prim = enumerate_classes(2.0, primitive_only=True)
    full = enumerate_classes(2.0, primitive_only=False)
    assert len(full) > len(prim)
    squares = {c.exps for c in full} - {c.exps for c in prim}
    assert canonical((1, 1, 1, 1)) in squares


def test_entry_search_agrees_small():
    cap = math.acosh(10.0) + 1e-9
    for primitive_only in (True, False):
        brute = classes_by_entry_search(20, primitive_only=primitive_only)
        neck = {canonical(tuple(c.exps))
                for c in enumerate_classes(cap, primitive_only=primitive_only)
                if c.trace <= 20}
        assert brute == neck


@pytest.mark.parametrize("primitive_only", [True, False])
def test_enumerate_emits_each_class_once(primitive_only):
    classes = enumerate_classes(5.0, primitive_only=primitive_only)
    words = [c.exps for c in classes]
    assert len(set(words)) == len(words)
    assert all(w == canonical(w) for w in words)
    assert all(is_primitive(w) or not primitive_only for w in words)


@settings(deadline=None, max_examples=40)
@given(st.floats(3.0, 2.0 * math.cosh(4.5)), st.booleans())
def test_table_equals_the_recursive_generator(cap, primitive_only):
    # class by class: exps, trace, entries, and lengths to the bit
    counters = Counter()
    table = _necklace_table(cap, primitive_only, counters)
    ref, calls = _necklaces_dfs(cap, primitive_only)
    assert list(table) == ref
    assert [g.length for g in table] == [g.length for g in ref]
    assert counters == {"enum.prenecklaces": calls}
    keys = [(g.trace, g.exps) for g in table]
    assert all(u < v for u, v in zip(keys, keys[1:]))


@pytest.mark.parametrize("primitive_only", [True, False])
def test_table_equals_the_recursive_generator_at_r6(primitive_only):
    counters = Counter()
    table = enumerate_classes(6.0, primitive_only, counters=counters)
    ref, calls = _necklaces_dfs(2.0 * math.cosh(6.0), primitive_only)
    assert len(table) == len(ref) == (14904 if primitive_only else 14993)
    assert list(table) == ref
    assert table.length.tolist() == [g.length for g in ref]
    assert table.entries.tolist() == [list(g.entries) for g in ref]
    assert counters == {"enum.prenecklaces": calls} == {"enum.prenecklaces": 15955}


def test_generator_refuses_caps_past_2_31_before_building_anything(monkeypatch):
    # entries up to the cap multiply in int64; from 2^31 on they could
    # leave it, so the cap is refused before numpy is touched
    monkeypatch.setattr(words, "np", None)
    for cap in (2.0 ** 31, 2.0 ** 31 + 0.5, 1e30):
        with pytest.raises(OverflowError):
            _necklace_table(cap, True)
        with pytest.raises(OverflowError):
            TraceHistogram(cap, True)


@pytest.mark.parametrize("primitive_only", [True, False])
@pytest.mark.parametrize("r", [2.3, 3.0, 6.0, 7.5])
def test_trace_histogram_equals_the_table_trace_by_trace(r, primitive_only):
    by_table, by_trace = Counter(), Counter()
    table = enumerate_classes(r, primitive_only, counters=by_table)
    hist = enumerate_classes(r, primitive_only, counters=by_trace,
                             by_trace=True)
    cap = math.floor(2.0 * math.cosh(r))
    assert hist.counts.tolist() == np.bincount(table.trace,
                                               minlength=cap + 1).tolist()
    assert len(hist) == len(table)
    assert by_trace == by_table


@settings(deadline=None, max_examples=25)
@given(st.floats(2.0, 2.0 * math.cosh(4.5)), st.booleans())
def test_trace_histogram_equals_the_recursive_generator(cap, primitive_only):
    counters = Counter()
    hist = TraceHistogram(cap, primitive_only, counters)
    ref, calls = _necklaces_dfs(cap, primitive_only)
    assert hist.counts.tolist() == np.bincount(
        [g.trace for g in ref], minlength=math.floor(cap) + 1).tolist()
    assert counters == {"enum.prenecklaces": calls}


def test_class_table_rows():
    table = enumerate_classes(3.0)
    rows = list(table)
    assert table[0] == rows[0] and table[-1] == rows[-1]
    assert table[np.int64(5)] == rows[5]
    with pytest.raises(IndexError):
        table[len(table)]
    # GeodesicClass rows in any order go into one table, stably by trace
    rng = np.random.default_rng(3)
    shuffled = [rows[i] for i in rng.permutation(len(rows))]
    again, order = ClassTable.sorted_by_trace(shuffled)
    assert list(again) == sorted(shuffled, key=lambda g: g.trace)
    assert [shuffled[i] for i in order] == list(again)


def test_geodesic_class_from_exps():
    g = GeodesicClass.from_exps((2, 1, 1, 3))
    assert g.exps == canonical((2, 1, 1, 3))
    assert MappingClass(*g.entries).trace == g.trace


_CLASSES_4 = enumerate_classes(4.0)


def test_axis_samples_lie_on_axis_and_hit_apex():
    exps = (3, 1)
    m = word_to_matrix(exps)
    sig, x, y = axis_samples(exps, step=0.02)
    # the axis is the semicircle through the two fixed points of m
    c0 = (m.a - m.d) / (2.0 * m.c)
    r0 = math.sqrt(float(m.trace ** 2 - 4)) / (2.0 * m.c)
    assert np.allclose((x - c0) ** 2 + y ** 2, r0 * r0, rtol=1e-9)
    assert y.max() == pytest.approx(r0, rel=1e-12)  # apex present
    with pytest.raises(ValueError):
        axis_samples(exps, step=0.3)


def test_min_systole_simplest_class():
    # (1;1) axis apex: x = 1/2, y = sqrt(5)/2, systole 2/sqrt(5)
    v = min_systole_along_axis((1, 1))
    assert v == pytest.approx(2.0 / math.sqrt(5.0), rel=1e-4)


def test_min_systole_batch_matches_loop():
    # the batch forms each class's samples from a per-trace table with the
    # per-class kernel's operations and takes 1 / max height, so it must
    # agree exactly, whatever the block size
    classes = enumerate_classes(4.0)
    loop = np.array([min_systole_along_axis(g.exps) for g in classes])
    counters = Counter()
    assert np.array_equal(min_systole_batch(classes, counters=counters), loop)
    assert np.array_equal(min_systole_batch(classes, chunk_points=100), loop)
    assert counters == {"veech.axis_points":
                        sum(axis_samples(g.exps)[0].size for g in classes),
                        "veech.trace_tables": len({g.trace for g in classes})}
    assert min_systole_batch([]).size == 0


def test_min_systole_batch_entry_table_is_exact_to_2_62():
    # a - d comes out of int64 exactly and rounds to float once, as the
    # per-class kernel's Python integers do, also past 2^53
    classes = [GeodesicClass.from_exps(e)
               for e in ((2 ** 30 + 1, 2 ** 29 + 3), (2 ** 27 + 5, 7, 3, 2 ** 26))]
    assert max(max(g.entries) for g in classes) > 2 ** 53
    loop = np.array([min_systole_along_axis(g.exps) for g in classes])
    got = min_systole_batch(classes)
    assert np.array_equal(got.view(np.int64), loop.view(np.int64))
    # an entry of 2^62 + 1 could make a - d leave int64: refused
    with pytest.raises(OverflowError):
        min_systole_batch([GeodesicClass.from_exps((2 ** 31, 2 ** 31))])


@settings(deadline=None, max_examples=25)
@given(st.lists(st.integers(0, 407), min_size=1, max_size=60, unique=True),
       st.integers(1, 5000))
def test_min_systole_batch_matches_loop_on_shuffled_subsets(picks, chunk):
    # any subset in any order, and any block size, gives the per-class
    # minima bit for bit
    classes = [_CLASSES_4[i] for i in picks]
    loop = np.array([min_systole_along_axis(g.exps) for g in classes])
    got = min_systole_batch(classes, chunk_points=chunk)
    assert np.array_equal(got.view(np.int64), loop.view(np.int64))
