"""Exact lattice counting: deck-group orbit points in metric balls.

Orbit points of X group into families indexed by the coprime bottom row
(c, d) of the acting matrix: within a family the real part walks an
integer lattice at fixed height Im = Im X / q, q = (c Re X + d)^2 + (c Im X)^2.
A ball around the center therefore meets each family in an explicit
integer window, and the count is the sum of the window lengths.  The
window edges are float64 integers, exact below 2^53; once an edge
reaches 2^53, or is nan because Im X^2 overflowed, the count raises
OverflowError instead of returning an inexact number.  Distinct (c, d)
rows give distinct point sets unless X has a nontrivial stabilizer,
which for a reduced X means X is exactly i or a corner rho of F.  There
two rows give one family exactly when the stabilizer, acting on rows
from the right, maps one onto the other; the rows are tested in exact
integers, each c's window cut to the exact one once per radius, and
each family keeps only the first of its rows; at i the walk builds no
row that the fold drops, nor a word with no kept row below it.  When X
and the center both lie on the imaginary axis, as every centre of the
lattice run and its spread counts does, the reflection z -> -conj(z)
fixes both and maps the family of each row (c, d) onto that of (c, -d)
with as many points in the ball: the walk builds one row of each such
pair and counts it twice.  Rows and their Bezout partners come from the
Stern-Brocot tree, with no gcd and no Euclid, as int64/float64 arrays.
One walk, in one pass, serves all of a centre's radii: each block of rows
in the largest radius's window is cut to every smaller radius's nested
window in turn and summed, and nothing is held past the block.

Everything downstream (cell bounds, growth and spread ratios, the chain
audit over strata) consumes these counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .halfplane import ModelPoint, ball_slice_sq, reduce_to_fundamental
# the config reads MAX_SYSTOLE from here by name, as systole_grid's maximum
from .torus import MAX_SYSTOLE, extremal_length, systole

# systole_grid's minimum: at systole sy the depth point i/sy has window
# edges up to about 2 sinh(tau) / sy, which reach 2^53 near sy = 1.2e-13
# at MAX_ORBIT_RADIUS
MIN_SYSTOLE = 1e-12
MAX_ORBIT_RADIUS = 7.0
MAX_SPREAD_RADIUS = 2.0
# Tree words per block of the walk: bounds the row and family arrays of a
# block, which are cut to every radius, counted and dropped before the
# walk goes on.  Only the d-tables and the walk's stack of words outlive
# a block.
ROW_BLOCK = 8_192
# Integers below 2^53 are exact in float64; window edges at or past it
# are no longer exact integers, and neither is the count.
EXACT_EDGE_LIMIT = 2.0 ** 53
# Reduced points with a nontrivial stabilizer, keyed by exact (Re, Im): i,
# and rho = -1/2 + i sqrt(3)/2 with its translate rho + 1.  Im rho is the
# float nearest sqrt(3)/2.  Each holds the integers (2 Re, 4 Im^2) and the
# images (c, d) -> (al c + be d, ga c + de d) of a bottom row under the
# stabilizer's nontrivial elements, as (al, be, ga, de).
_CONE_POINTS = {(0.0, 1.0): (0, 4, ((0, 1, -1, 0),)),
                (-0.5, math.sqrt(3.0) / 2.0): (-1, 3, ((0, 1, -1, 1),
                                                       (-1, 1, -1, 0))),
                (0.5, math.sqrt(3.0) / 2.0): (1, 3, ((1, 1, -1, 0),
                                                     (0, -1, 1, 1)))}


@dataclass
class OrbitPointSet:
    x: np.ndarray
    y: np.ndarray

    @property
    def count(self) -> int:
        return int(self.x.size)


def _cone_window(cone, q_max: float, lo: np.ndarray, hi: np.ndarray):
    """Cut each widened window lo[c] <= d <= hi[c], c = 0, 1, ..., in place,
    to the d with (c n + 2d)^2 + c^2 m <= 4 q_max, cone = (n, m, images):
    convex in d, they form an interval, or the window ends as lo = hi + 1 if
    none."""
    n, m, _ = cone
    c = np.arange(lo.size, dtype=np.int64)
    for end, step in ((lo, 1), (hi, -1)):
        move = True
        while np.any(move):
            cn = c * n + 2 * end
            move = (cn * cn + c * c * m > 4.0 * q_max) & (lo <= hi)
            end += step * move


def _row_windows(x0: float, y0sq: float, q_maxes: list, cone=None):
    """Tables lo[k], hi[k] of the d-windows lo[k][c] <= d <= hi[k][c] of the
    rows (c, d) with (c x0 + d)^2 + c^2 y0^2 <= q_maxes[k], one per radius.

    Each table runs over c = 0 .. C, C the largest radius's last c; the
    entry c = 0 holds (0, 1) alone, and a window past its own radius's c
    range is empty, lo = hi + 1.  At a cone point, cone = (n, m, images)
    from _CONE_POINTS, each float window is widened by one on each side and
    _cone_window cuts it to the exact window 4q = (c n + 2d)^2 + c^2 m <=
    4 q_max, which at c = 0 keeps (0, 1) when q_max >= 1.  At a cone point
    y0sq <= m / 4, so c_max and the c filter, with rounding monotone, never
    drop a c the exact window holds.  The windows nest, as q_max rises.
    """
    widen = 1 if cone else 0
    lo, hi = [], []
    for q_max in q_maxes[::-1]:
        c_max = int(math.floor(math.sqrt(max(q_max / y0sq, 0.0))))
        dw = q_max - np.arange(1, c_max + 1, dtype=np.int64) ** 2 * y0sq
        w = np.sqrt(dw[dw >= 0.0])  # dw falls with c: c = 1 .. w.size
        cx = -np.arange(1, w.size + 1, dtype=np.int64) * x0
        pad = np.zeros(lo[0].size - w.size - 1 if lo else 0, np.int64)
        lo.insert(0, np.concatenate(
            ([1], np.ceil(cx - w).astype(np.int64) - widen, pad + 1)))
        hi.insert(0, np.concatenate(
            ([1], np.floor(cx + w).astype(np.int64) + widen, pad)))
    for k in range(len(q_maxes) if cone else 0):
        _cone_window(cone, q_maxes[k], lo[k], hi[k])
    return lo, hi


def _bottom_rows(d_lo: np.ndarray, d_hi: np.ndarray, cone=None,
                 mirror=False, counters=None):
    """Coprime bottom rows (c, d, a0, b0), a0 d - b0 c = 1, in the window
    d_lo[c] <= d <= d_hi[c] of _row_windows, in blocks.

    (0, 1) and (1, 0) come first, then the Stern-Brocot tree: each word
    [[a, b], [c, e]] in L = [[1, 1], [0, 1]] and R = [[1, 0], [1, 1]] that
    starts with R is one coprime (c, e >= 1), giving the rows (c, +-e) with
    top rows (+-a, b).  Descendants have larger c and e, so each step
    appends a whole run, L^j after an R and R^j after an L, while e stays
    within dmax[c'] of some c' >= c, dmax the suffix maximum of max(-d_lo,
    d_hi).  The tree is walked depth first in chunks of at most ROW_BLOCK
    words, one block each.  Kept partners move to Euclid's, -(c // 2) <= a0
    < c - c // 2.

    At a cone point, cone = (n, m, images) from _CONE_POINTS, a row is kept
    when it precedes each stabilizer image (up to sign) in (c, d) order:
    its family's first row.  At i that is c < |d| or (1, -1), and R-run
    rows have c >= e, so the walk builds no R-run row and not (1, 0), the
    image of (0, 1), but builds (1, -1), with partner (0, -1), in place
    of (1, 0); it tests no fold there.  Nor does it build an R-run
    word (c, e) with no L-run child, c + e > dmax[c], which has no
    descendant: as dmax[c] - c falls, those end each run.

    With mirror, X and the center both on the imaginary axis, the walk
    builds only the rows (c, e) of its words, each of multiplicity 2: the
    reflection z -> -conj(z) normalizes PSL(2,Z) and fixes both points, so
    it maps the family of (c, e) onto that of (c, -e), and the ball's
    points of one onto the other's.  (c, -e) has the partner (-a0, b0), and
    with x0 = xc = 0 its re0 and window come out as exactly -re0 and
    (-hi, -lo) in float64, as rounding is symmetric, whenever -a0 is
    Euclid's partner too.  That fails only at c = 2, where a0 = -1 and
    Euclid's partner of (2, -e) is one period on: its re0 and window then
    differ by one beyond rounding, and its count can differ only for a
    point within rounding of the ball's boundary, where the count is
    rounding's choice already.  (0, 1) and (1, 0), and at i (1, -1), whose
    mirror (1, 1) lies in its family, are their own mirrors and keep
    multiplicity 1.

    Blocks come as (c, d, a0, b0, mult), mult the multiplicity of its rows.
    counters, if given, keeps in lattice.rows_built the most rows a walk
    built and tested, and in lattice.words_built the most tree words.
    """
    at_i = cone == _CONE_POINTS[0.0, 1.0]
    images = cone[2] if cone and not at_i else ()
    size = d_lo.size
    dmax = np.maximum.accumulate(np.maximum(-d_lo, d_hi)[::-1])[::-1]
    # c_top[e]: the last c whose window, or a later one, reaches e, or at i
    # has the L-run child (c, e + c); no R-run reaches c + e >= size
    c_top = np.searchsorted(at_i * np.arange(1, size) - dmax[1:],
                            -np.arange(size), side="right")
    walk_mult = 2 if mirror else 1

    def block(c, d, a, b):
        keep = (d >= d_lo[c]) & (d <= d_hi[c])
        # c >= 1 here but for (0, 1), so an image with first entry 0 is
        # +-(0, 1), which comes first
        for al, be, ga, de in images:
            e = al * c + be * d
            f = (ga * c + de * d) * np.sign(e)
            e = np.abs(e)
            keep &= (c < e) | ((c == e) & (d < f))
        return c[keep], d[keep], a[keep], b[keep]

    # (0, 1), and (1, 0) or at i (1, -1), with Euclid's partners
    yield (*block(*(np.array(v[:size]) for v in
                    ((0, 1), (1, -1 if at_i else 0), (1, 0), (0, -1)))), 1)
    # Entries: words (a, b, c, e), whether their runs are of R, and their
    # first child not yet taken.  The identity's R-runs are the roots.
    stack = [(*np.eye(2, dtype=np.int64).reshape(4, 1), True, 0)]
    # rows built: (1, 0), or at i (1, -1), then the walk's
    rows, words = int(size > 1), 0
    while stack:
        a, b, c, e, r_run, i0 = stack.pop()
        n = (np.maximum(c_top[np.minimum(e, size - 1)] - c, 0) // e if r_run
             else (dmax[c] - e) // c)
        # the children are numbered flat, run after run
        edges = np.concatenate(([0], np.cumsum(n)))
        i1 = min(i0 + ROW_BLOCK, int(edges[-1]))
        if i1 == i0:
            continue
        words += i1 - i0
        if i1 < edges[-1]:
            stack.append((a, b, c, e, r_run, i1))
        k = np.repeat(np.arange(n.size), np.diff(np.clip(edges, i0, i1)))
        j = np.arange(i0 + 1, i1 + 1) - edges[k]
        a, b, c, e = a[k], b[k], c[k], e[k]
        if r_run:
            a, c = a + j * b, c + j * e
        else:
            b, e = b + j * a, e + j * c
        stack.append((a, b, c, e, not r_run, 0))
        if at_i and r_run:
            continue
        if not mirror:
            a, b, c, e = (np.concatenate((v, s * v)) for v, s in
                          ((a, -1), (b, 1), (c, 1), (e, -1)))
        rows += c.size
        c, e, a, b = block(c, e, a, b)
        k = (a + c // 2) // c
        yield c, e, a - k * c, b - k * e, walk_mult
    if counters is not None:
        for key, n in (("lattice.rows_built", rows),
                       ("lattice.words_built", words)):
            counters[key] = max(counters[key], n)


def _family_windows(X: ModelPoint, center: ModelPoint, taus, counters=None):
    """Families (k, re0, y_pt, lo, hi, mult) of a reduced X, per block of
    rows and radius.

    Family t of a kept row holds the points re0 + t + i y_pt, lo <= t <= hi,
    in the ball of radius taus[k], k indexing the increasing taus; lo and hi
    are float64, hi < lo where none is.  Each block of _bottom_rows, rows
    of the largest radius's window, is cut to each smaller radius's nested
    window in turn, largest first, until one holds no row.  At a cone point
    of _CONE_POINTS, _bottom_rows yields one row per family.  When X and the
    center both lie on the imaginary axis, the families of a block with
    mult = 2 stand for their mirrors (-re0, y_pt, -hi, -lo) too, which hold
    as many points.  Raises OverflowError, with no numpy warning first, once
    a window edge reaches EXACT_EDGE_LIMIT or is nan, as it is once Im X^2
    overflows (Im X above about 1.3e154) or the ball's slice does.
    counters, if given, gains the coprime rows scanned, order times mult
    times the rows in each radius's window, and the families kept, each
    mirror counted.
    """
    x0, y0 = X.x, X.y
    xc, yc = center.x, center.y
    y0sq = y0 * y0
    cone = _CONE_POINTS.get((x0, y0))
    # the stabilizer's order: the rows of a window per row kept
    order = len(cone[2]) + 1 if cone else 1

    q_maxes = [(y0 / yc) * math.exp(2.0 * tau) * (1.0 + 1e-12) for tau in taus]
    d_lo, d_hi = _row_windows(x0, y0sq, q_maxes, cone)

    # At a cone point, with n = 2 Re X and m = 4 Im^2 X, the integers
    # 4q = (c n + 2d)^2 + c^2 m and 4 q re0 are exact, and q <= q_max is
    # the exact window's test.  The int64 arithmetic here and in
    # _bottom_rows does not wrap: the top row of a word that starts with R
    # is bounded by its bottom row, and every integer is a small multiple
    # of q_max, which a reduced center and tau <= MAX_ORBIT_RADIUS keep
    # below 2e6 at a cone point.
    rows = fams = 0
    last = len(taus) - 1
    for c, d, a0, b0, mult in _bottom_rows(
            d_lo[-1], d_hi[-1], cone, x0 == 0.0 and xc == 0.0, counters):
        # overflows reach the edge test (a decorator misses a generator)
        with np.errstate(over="ignore", invalid="ignore"):
            if cone:
                n, m, _ = cone
                cn = c * n + 2 * d
                q4 = cn * cn + c * c * m
                q, re0 = q4 / 4.0, ((a0 * n + 2 * b0) * cn + a0 * c * m) / q4
            else:
                cxd = c * x0 + d
                q = cxd ** 2 + (c * y0) ** 2
                re0 = ((a0 * x0 + b0) * cxd + a0 * c * y0sq) / q
        for k in range(last, -1, -1):
            if k < last:  # the walk's rows all lie in the last window
                inside = (d >= d_lo[k][c]) & (d <= d_hi[k][c])
                c, d, q, re0 = c[inside], d[inside], q[inside], re0[inside]
            if not c.size:
                break
            rows += order * mult * c.size
            with np.errstate(over="ignore", invalid="ignore"):
                y_pt = y0 / q
                s = ball_slice_sq(y_pt, yc, math.cosh(2.0 * taus[k]) - 1.0)
                # rounding can let a float window's q pass q_max; a nan
                # slice is live, and its edges nan
                live = (q <= q_maxes[k]) & ~(s < 0.0)
                re_k, y_pt, w = re0[live], y_pt[live], np.sqrt(s[live])
                lo = np.ceil(xc - w - re_k)
                hi = np.floor(xc + w - re_k)
                edge = np.maximum(np.abs(lo).max(initial=0.0),
                                  np.abs(hi).max(initial=0.0))  # nan if either is
            if not edge < EXACT_EDGE_LIMIT:
                raise OverflowError(
                    f"orbit window edge past 2^53 at X = {X}, radius "
                    f"{taus[k]}: the count would not be exact")
            fams += mult * int(np.count_nonzero(hi >= lo))
            yield k, re_k, y_pt, lo, hi, mult
    if counters is not None:
        counters["lattice.coprime_rows"] += rows
        counters["lattice.families"] += fams


def _reduced_windows(X: ModelPoint, center: ModelPoint, taus,
                     counters=None):
    """Family windows around the reduced center, and the center's deck.

    The count is invariant under reducing the center, and the windows
    stay small around a point of F.
    """
    if not (taus and 0.0 < taus[0] and taus[-1] <= MAX_ORBIT_RADIUS
            and all(a < b for a, b in zip(taus, taus[1:]))):
        raise ValueError(f"orbit radii must rise within (0, {MAX_ORBIT_RADIUS}]")
    x_red, _ = reduce_to_fundamental(X)
    c_red, deck = reduce_to_fundamental(center)
    return _family_windows(x_red, c_red, taus, counters), deck


def orbit_points(X: ModelPoint, center: ModelPoint, tau: float) -> OrbitPointSet:
    """All orbit points of X within ball radius tau around the center.

    The windows are laid out around the reduced center and the points
    are mapped back through its deck afterwards.
    """
    blocks, deck = _reduced_windows(X, center, (tau,))
    fams = [(np.zeros(0),) * 4]  # a ball may hold no family
    for _, re0, y_pt, lo, hi, mult in blocks:
        fams.append((re0, y_pt, lo, hi))
        if mult == 2:  # the mirror family
            fams.append((-re0, y_pt, -hi, -lo))
    re0, y_pt, lo, hi = (np.concatenate(v) for v in zip(*fams))
    n = np.maximum(hi - lo + 1, 0).astype(np.int64)  # 0 for an empty family
    t = np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)
    x = np.repeat(re0, n) + t
    y = np.repeat(y_pt, n)
    inv = deck.inverse()
    if inv != deck.identity():
        z = x + 1j * y
        z = (inv.a * z + inv.b) / (inv.c * z + inv.d)
        x, y = z.real, z.imag
    return OrbitPointSet(x=x, y=y)


def orbit_counts(X: ModelPoint, center: ModelPoint, taus,
                 counters=None) -> list:
    """orbit_points counts at each of the strictly increasing taus, summed
    per block, empty windows too, from one walk; counters gains its footers.
    """
    blocks, _ = _reduced_windows(X, center, tuple(taus), counters)
    counts = [0] * len(taus)
    for k, _, _, lo, hi, mult in blocks:
        n = np.maximum(hi - lo + 1, 0)
        counts[k] += mult * int(n.sum(dtype=np.int64))
    return counts


def orbit_count(X: ModelPoint, center: ModelPoint, tau: float,
                counters=None) -> int:
    """Number of orbit_points(X, center, tau): orbit_counts at one radius."""
    return orbit_counts(X, center, (tau,), counters)[0]


def spread_count(X: ModelPoint, c2: float, counters=None) -> int:
    """Orbit points in the ball of radius c2 around the point itself."""
    if not (0.0 < c2 <= MAX_SPREAD_RADIUS):
        raise ValueError(f"spread radius must lie in (0, {MAX_SPREAD_RADIUS}]")
    return orbit_count(X, X, c2, counters)


# ---------------------------------------------------------------------------
# Strata and the chain audit.

SHORT_THRESHOLD = 1.0


def short_curves(z: ModelPoint) -> list:
    """Curves with extremal length below the threshold (at most one here,
    since extremal length products of crossing curves are at least 1)."""
    c, l = systole(z)
    return [(c, l)] if l < SHORT_THRESHOLD else []


@dataclass(frozen=True)
class ChainAudit:
    counts: tuple
    bounds: tuple

    @property
    def ratios(self) -> tuple:
        return tuple(c / b for c, b in zip(self.counts, self.bounds))

    @property
    def max_ratio(self) -> float:
        return max(self.ratios)


def chain_bound_audit(X: ModelPoint, Y: ModelPoint, tau: float) -> ChainAudit:
    """Cumulative counts along the leave-the-cusp chain against their bounds.

    With k = 0 short curves the chain is the single link |orbit ball| vs
    e^{2 tau} G(X) G(Y).  With k = 1 the first leg lasts d1 = min(-log l1, tau)
    and only counts points still sharing the short curve, at rate 1; the
    remainder runs at the full rate 2.  Counts are cumulative, so each link
    bound multiplies the rates over the elapsed legs.
    """
    gx = systole(X)[1] ** -0.5
    gy = systole(Y)[1] ** -0.5
    sc = short_curves(X)
    if not sc:
        n = orbit_count(X, Y, tau)
        return ChainAudit((n,), (math.exp(2.0 * tau) * gx * gy,))
    curve, l1 = sc[0]
    d1 = min(-math.log(l1), tau)
    d2 = tau - d1
    pts1 = orbit_points(X, Y, d1)
    shared = extremal_length(curve, pts1.x, pts1.y) < SHORT_THRESHOLD
    n1 = int(np.count_nonzero(shared))
    n2 = orbit_count(X, Y, tau)
    b1 = math.exp(d1) * gx * gy  # rate 1, then rate 2
    b2 = math.exp(d1 + 2 * d2) * gx * gy
    return ChainAudit((n1, n2), (b1, b2))
