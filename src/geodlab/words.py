"""Conjugacy classes of hyperbolic mapping classes as positive twist words.

Every hyperbolic mapping class of the once-punctured torus is conjugate to
a positive word R^{a1} L^{b1} ... R^{ak} L^{bk} in the elementary twists
R = [[1,0],[1,1]] and L = [[1,1],[0,1]], all exponents at least 1, unique
up to rotation by whole (R, L) syllable pairs.  The exponent tuple in its
lexicographically least pair rotation is the canonical label used
throughout the package.  These least rotations (necklaces over the pair
alphabet) are generated directly, one per class, one word length at a
time in numpy, up to the trace cap max_trace gives a length.
class_levels yields each word length's classes, unsorted, as a
ClassTable of their own: columns of traces, lengths, matrix entries and
words, all one width.  Counting needs only the traces, so
enumerate_classes returns a TraceHistogram, built from the same word
lengths with no table.

Translation length in the Teichmueller metric is arccosh(trace / 2), half
the hyperbolic translation length.  Closed-geodesic counts grow like
e^{2R} / (2R), which the counting tests exercise.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .halfplane import MappingClass, reduce_in_place
from .torus import systole_values

# Enumeration beyond this radius needs hundreds of thousands of classes
# and is out of desk-scale budget.
MAX_ENUM_LENGTH = 7.5
# The shortest length with two class lengths (traces 3 and 4), the fewest
# a slope fit over the classes takes: teich_length_from_trace(4).
MIN_FIT_LENGTH = math.acosh(2.0)
_EXACT_INT64 = 2 ** 62  # |a|, |d| below this keep a - d exact in int64
_MAX_TRACE_CAP = 2 ** 31  # entries below this keep products of two in int64
MAX_AXIS_STEP = 0.1  # the coarsest axis sample step
# The finest step min_systole_batch takes.  Its sample selection needs a
# grid step to lower a height by far more than the reduction's float
# error: the factor is about 1 + 2e-6 here, against errors near 1e-12.
MIN_AXIS_STEP = 0.001
# The block walk's integers reach 3 t^2 < 2^53, exact in int64 and
# float64, for traces below this; the enumeration's stay below
# 2 cosh 7.5 < 1809.
_WALK_TRACE_CAP = 2 ** 25


def teich_length_from_trace(trace) -> float:
    """Translation length arccosh(t/2); exact in log form for huge traces."""
    t = abs(trace)
    if t <= 2:
        raise ValueError(f"trace {trace} is not hyperbolic")
    if t < 1e300:
        return math.acosh(t / 2.0)
    return math.log(t)  # relative error below 1 ulp once 4/t^2 underflows


def canonical(exps: Sequence[int]) -> tuple:
    """Lexicographically least rotation by (R, L) syllable pairs."""
    exps = tuple(int(e) for e in exps)
    if len(exps) < 2 or len(exps) % 2 != 0:
        raise ValueError("a word is a flat tuple of (R, L) exponent pairs")
    if any(e < 1 for e in exps):
        raise ValueError("exponents must be positive integers")
    pairs = [(exps[i], exps[i + 1]) for i in range(0, len(exps), 2)]
    k = len(pairs)
    return min(
        tuple(v for p in pairs[i:] + pairs[:i] for v in p) for i in range(k)
    )


def is_primitive(exps: Sequence[int]) -> bool:
    """False iff the syllable-pair sequence is a proper power."""
    exps = tuple(exps)
    pairs = [(exps[i], exps[i + 1]) for i in range(0, len(exps), 2)]
    k = len(pairs)
    for d in range(1, k):
        if k % d == 0 and pairs[:d] * (k // d) == pairs:
            return False
    return True


def _append_pair(m: tuple, a: int, b: int) -> tuple:
    # m . R^a L^b with R^a L^b = [[1, b], [a, ab+1]]
    m00, m01, m10, m11 = m
    e = a * b + 1
    return (m00 + m01 * a, m00 * b + m01 * e, m10 + m11 * a, m10 * b + m11 * e)


def word_to_matrix(exps: Sequence[int]) -> MappingClass:
    exps = tuple(int(e) for e in exps)
    if len(exps) < 2 or len(exps) % 2 != 0 or any(e < 1 for e in exps):
        raise ValueError("a word is a flat tuple of positive (R, L) exponent pairs")
    m = (1, 0, 0, 1)
    for i in range(0, len(exps), 2):
        m = _append_pair(m, exps[i], exps[i + 1])
    return MappingClass(*m)


class ClassTable:
    """Conjugacy classes as columns, one row per class; class_levels
    yields one per word length.

    - trace: int64 (N,)
    - length: float64 (N,), the Teichmueller length arccosh(trace / 2)
    - entries: int64 (N, 4), the matrix (a, b, c, d) of the canonical word
    - words: int64 (N, W), the canonical exps, zero-padded to the longest
      where the table holds words of several lengths

    Entries must lie inside +-2^62, where a - d stays exact in int64.
    """

    __slots__ = ("trace", "length", "entries", "words")

    def __init__(self, trace, length, entries, words):
        if entries.size and not (-_EXACT_INT64 < entries.min()
                                 and entries.max() < _EXACT_INT64):
            raise OverflowError("matrix entries beyond 2^62 would make a - d inexact")
        self.trace, self.length = trace, length
        self.entries, self.words = entries, words

    def __len__(self) -> int:
        return len(self.trace)


def _necklace_levels(trace_cap: float, primitive_only: bool, counters=None):
    """Yields (words, (m00, m01, m10, m11), emit) per word length with any
    class: the prenecklaces of trace <= trace_cap as rows of exps, their
    matrix entries, and the mask of the necklaces (or Lyndon words, if
    primitive_only) among them.

    Fredricksen-Kessler-Maiorana generation over (a, b) syllable pairs in
    lexicographic order, one word length at a time.  A prenecklace of t
    pairs with period p extends only by a pair >= its reference pair
    t - p, and the child is a necklace (a least rotation) exactly when its
    period divides t + 1, a Lyndon word (primitive) when it is t + 1.
    The child's period stays p if it appended the reference pair and
    becomes t + 1 otherwise.  With C = floor(trace_cap), the child by
    (a, b) of the matrix m has trace
    m00 + m11 + m01 a + b (m10 + m11 a) <= C, so for each a its b run
    from 1 (or the reference b, at the reference a) up to
    (C - m00 - m11 - m01 a) // (m10 + m11 a), and a runs up to
    (C - m00 - m11 - m10) // (m01 + m11): every child of a level comes
    from two np.repeat expansions.  Every entry is at most C, so products
    of two stay in int64 while C < 2^31.  With a counters mapping, adds
    the frontier rows expanded, the empty word included, to
    'enum.prenecklaces'.
    """
    cap = math.floor(trace_cap)
    if cap >= _MAX_TRACE_CAP:
        raise OverflowError(f"trace cap {trace_cap} would overflow int64 products")
    m00, m01, m10, m11 = (np.array([v], dtype=np.int64) for v in (1, 0, 0, 1))
    period = np.ones(1, dtype=np.int64)
    ref_a, ref_b = period.copy(), period.copy()  # the empty word's: (1, 1)
    words = np.zeros((1, 0), dtype=np.int64)
    expanded = 0
    t = 0
    while len(words):
        expanded += len(words)
        base = cap - m00 - m11
        # a in [ref_a, a_max], one row per (parent, a)
        n_a = np.maximum((base - m10) // (m01 + m11) - ref_a + 1, 0)
        parent = np.repeat(np.arange(len(words)), n_a)
        a = ref_a[parent] + _ramp(n_a)
        # b in [b_lo, b_max], one row per child
        b_lo = np.where(a == ref_a[parent], ref_b[parent], 1)
        b_max = (base[parent] - m01[parent] * a) // (m10[parent] + m11[parent] * a)
        n_b = np.maximum(b_max - b_lo + 1, 0)
        parent, a = np.repeat(parent, n_b), np.repeat(a, n_b)
        b = np.repeat(b_lo, n_b) + _ramp(n_b)
        t += 1
        at_ref = (a == ref_a[parent]) & (b == ref_b[parent])
        period = np.where(at_ref, period[parent], t)
        # m . R^a L^b = m . [[1, b], [a, ab+1]]
        e = a * b + 1
        p00, p01, p10, p11 = m00[parent], m01[parent], m10[parent], m11[parent]
        m00, m01 = p00 + p01 * a, p00 * b + p01 * e
        m10, m11 = p10 + p11 * a, p10 * b + p11 * e
        words = np.concatenate([words[parent], a[:, None], b[:, None]], axis=1)
        emit = period == t if primitive_only else t % period == 0
        if emit.any():
            yield words, (m00, m01, m10, m11), emit
        rows = np.arange(len(words))
        ref_a = words[rows, 2 * (t - period)]
        ref_b = words[rows, 2 * (t - period) + 1]
    if counters is not None:
        counters["enum.prenecklaces"] += expanded


def lengths_by_trace(cap: int) -> np.ndarray:
    """teich_length_from_trace(t) at index t, one call for each integer
    t <= cap; nan below 3, where no trace is hyperbolic."""
    return np.array([math.nan] * 3 + [teich_length_from_trace(t)
                                      for t in range(3, cap + 1)])


def class_levels(trace_cap: float, primitive_only: bool, counters=None):
    """Yields a ClassTable per word length with any class: the classes of
    _necklace_levels of that length, in generation order, none padded
    (the words are all one width), lengths gathered from lengths_by_trace."""
    lengths = None
    for words, m, emit in _necklace_levels(trace_cap, primitive_only,
                                           counters):
        if lengths is None:  # past the generator's check of the cap
            lengths = lengths_by_trace(math.floor(trace_cap))
        words, entries = words[emit], np.stack(m, axis=1)[emit]
        trace = entries[:, 0] + entries[:, 3]
        yield ClassTable(trace, lengths[trace], entries, words)


class TraceHistogram:
    """The classes of class_levels counted per trace, by one np.bincount
    of the levels' traces, with no words kept: counts[t] classes have
    trace t, for t up to floor(trace_cap).  Its length is the number of
    classes."""

    __slots__ = ("counts",)

    def __init__(self, trace_cap: float, primitive_only: bool, counters=None):
        traces = [(m[0] + m[3])[emit] for _, m, emit
                  in _necklace_levels(trace_cap, primitive_only, counters)]
        self.counts = np.bincount(np.concatenate([np.zeros(0, np.int64), *traces]),
                                  minlength=math.floor(trace_cap) + 1)

    def __len__(self) -> int:
        return int(self.counts.sum())


def _ramp(counts):
    """0, 1, .., n - 1 for each n of counts, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def max_trace(max_length: float) -> int:
    """The largest integer trace t with teich_length_from_trace(t) <=
    max_length, or 2, which admits no hyperbolic class.  2 cosh rounds
    either way (2 cosh acosh 2 is 3.9999999999999996), so the search
    starts one above its floor.  Above MAX_ENUM_LENGTH raises ValueError."""
    if max_length > MAX_ENUM_LENGTH:
        raise ValueError(
            f"enumeration above length {MAX_ENUM_LENGTH} is out of budget; narrow the window"
        )
    t = math.floor(2.0 * math.cosh(max_length)) + 1 if max_length > 0 else 2
    while t > 2 and teich_length_from_trace(t) > max_length:
        t -= 1
    return t


def enumerate_classes(max_length: float, primitive_only: bool = True,
                      counters=None) -> TraceHistogram:
    """All conjugacy classes with translation length <= max_length,
    counted per trace.

    Each class is generated once, directly in canonical form, so no
    rotation is ever deduplicated.  With a counters mapping, adds the
    prenecklaces expanded to 'enum.prenecklaces'.
    """
    return TraceHistogram(max_trace(max_length), primitive_only, counters)


# ---------------------------------------------------------------------------
# Shortest curve along the axis.


def _axis_circle(a: int, b: int, c: int, d: int) -> tuple:
    """(center, radius, length) of the axis semicircle of a hyperbolic
    matrix with entries (a, b, c, d)."""
    t = a + d
    disc = math.sqrt(float(t * t - 4))
    return (a - d) / (2.0 * c), disc / (2.0 * c), teich_length_from_trace(t)


def _axis_halves(length, step: float):
    """Per-class sample intervals along one period: even, at least 2."""
    if not (0.0 < step <= MAX_AXIS_STEP):
        raise ValueError(f"step must lie in (0, {MAX_AXIS_STEP}]")
    return 2 * np.maximum(np.ceil(length / (2.0 * step)).astype(np.int64), 1)


def _axis_sigma(length, half, j):
    """Arc-length offset of axis sample j of a class's half + 1, spaced
    2 length / half apart and centred on the apex (j = half // 2)."""
    return (j - half // 2) * (2.0 * length / half)


def axis_samples(exps: Sequence[int], step: float = 0.02):
    """Points along one period of the axis, spaced ~2*step in arc length.

    The sample grid always contains the apex of the axis semicircle, where
    the systole along simple axes is attained.
    """
    c0, r0, length = _axis_circle(*word_to_matrix(exps).entries())
    half = _axis_halves(length, step)
    sigma = _axis_sigma(length, half, np.arange(half + 1))
    return sigma, c0 + r0 * np.tanh(sigma), r0 / np.cosh(sigma)


def min_systole_along_axis(exps: Sequence[int], step: float = 0.02) -> float:
    _, x, y = axis_samples(exps, step)
    return float(systole_values(x, y).min())


def block_apices(entries, words) -> tuple:
    """The apex of the axis lift that each letter block of a class starts:
    (rho, sigma, root_d).  rho is float64 (N, W), the apex height, zero
    past the end of a word; sigma(row, blk) gives, elementwise, the arc
    length of the apices at the slots (row, blk), where they pull back to
    on the axis; root_d is float64 (N,), sqrt(t^2 - 4) per class, rounded
    once from its exact integer.

    entries and words are ClassTable columns, words of several lengths
    zero-padded to the longest; a trace of _WALK_TRACE_CAP or more raises
    OverflowError.  A lift of the axis A0 of
    M = (a, b, c, d) is g^-1 A0, the axis of g^-1 M g, for g in SL(2, Z).
    With (p, r) the first column of g, f(p, r) = c p^2 + (d - a) p r -
    b r^2 is the c entry of g^-1 M g, so the lift's apex height is
    rho = sqrt(t^2 - 4) / (2 |f(p, r)|).  g carries that apex onto A0 at
    arc length sigma from A0's apex, where
    e^sigma = |N + r sqrt(D)| / |N - r sqrt(D)|, N = 2 c p + (d - a) r
    and D = t^2 - 4.  As N^2 - r^2 D = 4 c f(p, r), this is
    sigma = sgn(N) log((|N| + r sqrt(D))^2 / (4 c |f(p, r)|)), which
    cancels nothing.  sigma is formed only at the slots asked for,
    elementwise, so a slot's value does not depend on the others asked.

    The walk runs over the rotations M_k = P^-1 M P that start at each
    block k (P the blocks before it).  An R block's lift is g = P S^-1,
    first column (q, s) of P up to sign, with |f| the b of M_k; an L
    block's is g = P, first column (p, r), with |f| its c.  The other
    entry names a neighbouring block's lift, since R^e keeps P's second
    column and L^e its first.  So block k + 1's column is block k - 1's
    plus e_k times block k's: the columns are continuants,
    z_{k+1} = z_{k-1} + e_k z_k for z = x and y, e_k the block's
    exponent.  As R^-e M_k R^e keeps b and L^-e M_k L^e keeps c, the
    |f| of consecutive blocks alternate between the two: with
    w_k = (-1)^k (d - a) of M_k and v = w_k - e_k f_k,
    f_{k+1} = f_{k-1} + e_k v and w_{k+1} = e_k f_k - v.  Every entry of
    every M_k stays within the trace, and every integer formed, up to
    3 t^2, within 2^53.  A lift with rho > 1 spans two
    vertical lines of the Farey tessellation, so it fans about one
    vertex through a whole block and is that block's (Series 1985,
    Math. Intelligencer 7(3)).
    """
    n, width = words.shape
    a, b, c, d = np.ascontiguousarray(entries.T)
    t = a + d
    if n and t.max() >= _WALK_TRACE_CAP:
        raise OverflowError("block walk integers would pass 2^53")
    root_d = np.sqrt((t * t - 4).astype(float))
    d_a = d - a
    # row k + 1 holds block k's |f| and lift column (x, y).  Row 1 is
    # block 0's: the b of M and the second column (0, 1) of P = I; row 0
    # holds the c of M and the first column (1, 0), so that the
    # recurrences start at k = 0.
    f, x, y = (np.empty((width + 2, n), dtype=np.int64) for _ in range(3))
    f[0], f[1], x[0], x[1], y[0], y[1] = c, b, 1, 0, 0, 1
    w = d_a
    rho = np.zeros((width, n))
    for k, e in enumerate(np.ascontiguousarray(words.T), 1):
        np.divide(root_d, 2.0 * f[k], out=rho[k - 1], where=e > 0)
        ef = e * f[k]
        v = w - ef
        w = ef - v
        for z, by in ((f, v), (x, x[k]), (y, y[k])):
            np.multiply(e, by, out=z[k + 1])
            z[k + 1] += z[k - 1]
    f, x, y = f[1:-1], x[1:-1], y[1:-1]

    def sigma(row, blk):
        fk, xk, yk, ck = f[blk, row], x[blk, row], y[blk, row], c[row]
        big = 2 * ck * xk + d_a[row] * yk
        return np.sign(big) * np.log(
            np.square(np.abs(big) + yk * root_d[row]) / (4.0 * ck * fk))

    return rho.T, sigma, root_d


def min_systole_batch(table: ClassTable, step: float = 0.02,
                      counters=None) -> np.ndarray:
    """Sampled axis-systole minimum per class of the table, in its row
    order, bit for bit what min_systole_along_axis gives for each class on
    its own, from the few samples next to the apexes of the class's
    highest axis lifts.  A step below MIN_AXIS_STEP raises ValueError.

    Why those samples hold the whole grid's minimum, Delta = 2 length /
    half being the grid step on the sampled period A0 of the axis:
    - The reduced height of a sample at arc length sigma is the largest
      value of rho_L / cosh(sigma - s_L) over the lifts L of the axis,
      rho_L the height of L's apex and s_L where it pulls back to on A0
      (block_apices), since F holds the highest point of each orbit.
    - Only lifts with rho > 1 can hold a class maximum, because every
      class maximum is at least sqrt(5)/2 (Hurwitz), above 1.1 even a
      half step Delta / 2 <= 0.1 from the apex; those lifts are the
      blocks' lifts.
    - On a uniform grid, the largest value of rho / cosh(sigma - s)
      falls on one of the two grid points beside s.  A point one step
      farther away is lower by a factor of at least cosh Delta, about
      1 + 2e-6 at step MIN_AXIS_STEP, while the reduction's float error
      is about 1e-13 and its boundary tolerance 1e-12.  So the float
      maximum is always among the samples reduced.
    - The grid maximum is at least rho_top / cosh(Delta / 2), which a
      lift below rho_top / cosh(Delta / 2) (1 - 1e-9) cannot reach, so
      only the lifts above that are kept.  Each gives the samples
      round(u) - 1 .. round(u) + 1, u the grid position of its s_L,
      wrapped around the period; j = 0 and j = half sample one point of
      the geodesic in two floats, and both are kept.
    - Samples are formed as min_systole_along_axis forms them, as
      c0 + r0 tanh and r0 / cosh of _axis_sigma: the same floats through
      the same elementwise operations, with a - d exact in int64 (a
      ClassTable keeps its entries inside +-2^62) and t^2 - 4 exact in
      integers, each rounded to float once.  One reduce_in_place reduces
      them all, elementwise.
    - The systole at a reduced point is 1 / y and correctly rounded
      division is monotone, so the class minimum of 1 / y is exactly
      1 / (the class maximum of y).

    With a counters mapping, adds the grid samples to
    'veech.axis_points' and the samples reduced to 'veech.reduced_points'.
    """
    if step < MIN_AXIS_STEP:
        raise ValueError(f"step must be at least {MIN_AXIS_STEP}")
    ent, length = table.entries, table.length
    half = _axis_halves(length, step)
    delta = 2.0 * length / half
    rho, apex_sigma, root_d = block_apices(ent, table.words)
    two_c = 2.0 * ent[:, 2]
    c0 = (ent[:, 0] - ent[:, 3]) / two_c
    r0 = root_d / two_c
    floor = rho.max(axis=1, initial=0.0) / np.cosh(delta / 2.0)
    cls, blk = np.nonzero(rho >= (floor * (1.0 - 1e-9))[:, None])
    u = apex_sigma(cls, blk) / delta[cls] + half[cls] / 2
    j = (np.rint(u).astype(np.int64)[:, None] + np.arange(-1, 2)) % half[cls, None]
    # the period's last sample, where its first is taken; -1 where not
    last = np.where((j == 0).any(axis=1), half[cls], -1)
    j = np.concatenate([j, last[:, None]], axis=1).reshape(-1)
    taken = j >= 0
    cls, j = np.repeat(cls, 4)[taken], j[taken]
    sigma = _axis_sigma(length[cls], half[cls], j)
    x = c0[cls] + r0[cls] * np.tanh(sigma)
    y = r0[cls] / np.cosh(sigma)
    reduce_in_place(x, y)
    top = np.zeros(len(table))
    np.maximum.at(top, cls, y)
    if counters is not None:
        counters["veech.axis_points"] += int((half + 1).sum())
        counters["veech.reduced_points"] += len(y)
    return 1.0 / top
