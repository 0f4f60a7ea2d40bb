"""Conjugacy classes of hyperbolic mapping classes as positive twist words.

Every hyperbolic mapping class of the once-punctured torus is conjugate to
a positive word R^{a1} L^{b1} ... R^{ak} L^{bk} in the elementary twists
R = [[1,0],[1,1]] and L = [[1,1],[0,1]], all exponents at least 1, unique
up to rotation by whole (R, L) syllable pairs.  The exponent tuple in its
lexicographically least pair rotation is the canonical label used
throughout the package.  enumerate_classes generates these least
rotations (necklaces over the pair alphabet) directly, one per class.

Translation length in the Teichmueller metric is arccosh(trace / 2), half
the hyperbolic translation length.  Closed-geodesic counts grow like
e^{2R} / (2R), which the counting tests exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .halfplane import MappingClass
from .torus import systole_values

# Enumeration beyond this radius needs hundreds of thousands of classes
# and is out of desk-scale budget.
MAX_ENUM_LENGTH = 7.5


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


@dataclass(frozen=True)
class GeodesicClass:
    """A conjugacy class: canonical exponents, trace, Teichmueller length,
    and the entries (a, b, c, d) of the matrix of the canonical word."""

    exps: tuple
    trace: int
    length: float
    entries: tuple

    @staticmethod
    def from_exps(exps: Sequence[int]) -> "GeodesicClass":
        c = canonical(exps)
        m = word_to_matrix(c)
        return GeodesicClass(c, m.trace, teich_length_from_trace(m.trace),
                             m.entries())

    @property
    def matrix(self) -> MappingClass:
        return MappingClass(*self.entries)


def _necklaces(trace_cap: float, primitive_only: bool) -> list:
    """The class of every pair necklace with trace <= trace_cap.

    Fredricksen-Kessler-Maiorana generation over (a, b) syllable pairs in
    lexicographic order: a prenecklace of t pairs with period p extends
    only by a pair >= its pair t - p, and is a necklace (a least rotation)
    exactly when p divides t, a Lyndon word (primitive) when p == t.
    Appending a pair and raising either exponent both strictly increase
    the trace, so pruning at the cap is exact.  Classes come out in
    pre-order of the lexicographic tree, so their exps strictly increase.
    """
    out = []
    word = []
    acosh = math.acosh

    def rec(m00, m01, m10, m11, t, p):
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
                # acosh(tr / 2) is teich_length_from_trace(tr) for tr < 1e300
                out.append(GeodesicClass(tuple(word), tr, acosh(tr / 2.0),
                                         (n00, n01, n10, n11)))
            rec(n00, n01, n10, n11, t + 1, q)
            del word[-2:]
            b += 1

    rec(1, 0, 0, 1, 0, 1)
    return out


def enumerate_classes(max_length: float, primitive_only: bool = True) -> list:
    """All conjugacy classes with translation length <= max_length.

    Each class is generated once, directly in canonical form, so no
    rotation is ever deduplicated; sorted by (trace, exps).  The
    generator emits exps in increasing order, so a stable sort on the
    trace alone gives that order.
    """
    if max_length > MAX_ENUM_LENGTH:
        raise ValueError(
            f"enumeration above length {MAX_ENUM_LENGTH} is out of budget; narrow the window"
        )
    if max_length <= 0:
        return []
    trace_cap = 2.0 * math.cosh(max_length)
    classes = _necklaces(trace_cap, primitive_only)
    classes.sort(key=lambda g: g.trace)
    return classes


# ---------------------------------------------------------------------------
# Independent cross-check: enumerate matrices entry by entry and peel.


def _peel_letters(a: int, b: int, c: int, d: int):
    """Greedy left peel of a nonnegative det-1 matrix into R/L letters."""
    out = []
    for _ in range(100000):
        if (a, b, c, d) == (1, 0, 0, 1):
            return out
        if c >= a and d >= b:
            out.append("R")
            c -= a
            d -= b
        elif a >= c and b >= d:
            out.append("L")
            a -= c
            b -= d
        else:
            return None
    return None


def _letters_to_exps(letters):
    if not letters or "R" not in letters or "L" not in letters:
        return None
    n = len(letters)
    start = None
    for i in range(n):
        if letters[i] == "R" and letters[i - 1] == "L":
            start = i
            break
    rot = letters[start:] + letters[:start]
    exps = []
    run_char, run = rot[0], 0
    for ch in rot:
        if ch == run_char:
            run += 1
        else:
            exps.append(run)
            run_char, run = ch, 1
    exps.append(run)
    return tuple(exps)


def classes_by_entry_search(trace_max: int, primitive_only: bool = True) -> set:
    """Canonical words of every class with 3 <= trace <= trace_max.

    Positive-word matrices have all entries >= 1, and in any such matrix
    each entry is below the trace, so looping the diagonal and factoring
    the off-diagonal product ad - 1 visits every class.  A completely
    different route from the necklace generator, kept as its consistency
    check.
    """
    found = set()
    for t in range(3, trace_max + 1):
        for a in range(1, t):
            d = t - a
            n = a * d - 1
            if n <= 0:
                continue
            for b in range(1, n + 1):
                if n % b:
                    continue
                letters = _peel_letters(a, b, n // b, d)
                if letters is None:
                    continue
                exps = _letters_to_exps(letters)
                if exps is None:
                    continue
                if primitive_only and not is_primitive(exps):
                    continue
                found.add(canonical(exps))
    return found


# ---------------------------------------------------------------------------
# Arbitrary hyperbolic integer matrix -> canonical word, via the exact
# continued fraction of its attracting fixed point.


def _cmp_quad(A: int, B: int, D: int, X: int) -> int:
    """Sign of A + B sqrt(D) - X, exactly (D not a perfect square)."""
    t = A - X
    if B == 0:
        return (t > 0) - (t < 0)
    if B > 0:
        if t >= 0:
            return 1
        return 1 if B * B * D > t * t else -1
    if t <= 0:
        return -1
    return 1 if t * t > B * B * D else -1


def _ge_quad(P: int, Q: int, D: int, n: int) -> bool:
    """(P + sqrt(D)) / Q >= n, exactly."""
    m = n * Q - P
    if Q > 0:
        return m <= 0 or D > m * m
    return m >= 0 and D < m * m


def _floor_quad(P: int, Q: int, D: int) -> int:
    f = int(math.floor((P + math.sqrt(D)) / Q))
    while _ge_quad(P, Q, D, f + 1):
        f += 1
    while not _ge_quad(P, Q, D, f):
        f -= 1
    return f


def _is_attracting(P: int, Q: int, D: int, c: int, d: int) -> bool:
    # derivative at z = (P + sqrt(D))/Q is 1/(cz + d)^2; attracting iff |cz + d| > 1
    A, B = c * P + d * Q, c
    q = abs(Q)
    return _cmp_quad(A, B, D, q) > 0 or _cmp_quad(A, B, D, -q) < 0


def conjugacy_word(m: MappingClass) -> tuple:
    """Canonical word exponents of the conjugacy class of m.

    Expands the attracting fixed point as an exact integer continued
    fraction until the state repeats; the repeating block spells the word,
    with the R/L roles fixed by the parity of the preperiod (each step
    conjugates by a determinant -1 move).  A trace mismatch afterwards
    means m is a proper power of the primitive block.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    t = a + d
    if t < 0:
        a, b, c, d, t = -a, -b, -c, -d, -t
    if t <= 2:
        raise ValueError(f"trace {m.trace} is not hyperbolic")
    if c == 0:
        raise ValueError("hyperbolic integer matrices have a nonzero lower-left entry")
    D = t * t - 4
    P, Q = a - d, 2 * c
    if not _is_attracting(P, Q, D, c, d):
        P, Q = -P, -Q
        if not _is_attracting(P, Q, D, c, d):
            raise ArithmeticError("neither fixed point tested attracting")

    digits, seen = [], {}
    while True:
        key = (P, Q)
        if key in seen:
            j0 = seen[key]
            cycle = digits[j0:]
            break
        seen[key] = len(digits)
        g = _floor_quad(P, Q, D)
        digits.append(g)
        Pp = P - g * Q
        num = D - Pp * Pp
        if num % Q:
            raise ArithmeticError("continued fraction invariant broken")
        P, Q = -Pp, num // Q
        if len(digits) > 100000:
            raise ArithmeticError("continued fraction failed to cycle")

    if len(cycle) % 2:
        cycle = cycle + cycle
    if j0 % 2 == 1:
        exps = tuple(cycle)
    else:
        exps = tuple(cycle[1:] + cycle[:1])
    exps = canonical(exps)

    w = word_to_matrix(exps)
    if w.trace == t:
        return exps
    cur, k = w, 1
    while cur.trace < t and k <= 64:
        cur = cur * w
        k += 1
    if cur.trace != t:
        raise ArithmeticError(f"trace {t} is not a power of the primitive block {exps}")
    return canonical(exps * k)


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
    if not (0.0 < step <= 0.1):
        raise ValueError("step must lie in (0, 0.1]")
    return 2 * np.maximum(np.ceil(length / (2.0 * step)).astype(np.int64), 1)


def _axis_points(c0, r0, length, half):
    """Axis samples of many classes, concatenated class after class.

    c0, r0 and length are per-class float64 arrays and half comes from
    _axis_halves.  Class i gets half[i] + 1 points at arc-length offsets
    sigma spaced 2 length / half apart and centred on the apex.  Every
    operation is elementwise, so a class's samples do not depend on the
    classes batched with it.
    """
    n = half + 1
    k = np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n)
    sigma = (k - np.repeat(half // 2, n)) * np.repeat(2.0 * length / half, n)
    x = np.repeat(c0, n) + np.repeat(r0, n) * np.tanh(sigma)
    y = np.repeat(r0, n) / np.cosh(sigma)
    return sigma, x, y


def axis_samples(exps: Sequence[int], step: float = 0.02):
    """Points along one period of the axis, spaced ~2*step in arc length.

    The sample grid always contains the apex of the axis semicircle, where
    the systole along simple axes is attained.
    """
    c0, r0, length = (np.array([v])
                      for v in _axis_circle(*word_to_matrix(exps).entries()))
    return _axis_points(c0, r0, length, _axis_halves(length, step))


def min_systole_along_axis(exps: Sequence[int], step: float = 0.02) -> float:
    _, x, y = axis_samples(exps, step)
    return float(systole_values(x, y).min())


def min_systole_batch(classes: Sequence[GeodesicClass], step: float = 0.02,
                      chunk_points: int = 500000, counters=None) -> np.ndarray:
    """Sampled axis-systole minimum per class, batching the reduction.

    The classes are cut into runs of whole classes with at most
    chunk_points samples (a longer class gets a run of its own); each run
    is sampled and reduced in one call.  With a counters mapping, adds
    the samples reduced to 'veech.axis_points'.
    """
    circles = np.array([_axis_circle(*g.entries)
                        for g in classes]).reshape(-1, 3)
    c0, r0, length = circles.T
    half = _axis_halves(length, step)
    n = half + 1
    ends = np.cumsum(n)
    mins = np.empty(len(classes))
    i0 = 0
    while i0 < len(classes):
        done = ends[i0 - 1] if i0 else 0
        i1 = max(int(np.searchsorted(ends, done + chunk_points, "right")),
                 i0 + 1)
        part = slice(i0, i1)
        _, x, y = _axis_points(c0[part], r0[part], length[part], half[part])
        mins[part] = np.minimum.reduceat(systole_values(x, y),
                                         ends[part] - n[part] - done)
        i0 = i1
    if counters is not None:
        counters["veech.axis_points"] += int(n.sum())
    return mins
