"""Nets in the model plane and step-bounded trajectory counting.

Two net flavors serve different jobs.  The greedy net (build_net) is a
separated covering point set inside one ball, built from a deterministic
low-discrepancy stream; its size is how ball volume growth is measured.
The row net (build_row_net) is closed form: rows at heights
anchor * e^{2k} with x spacing 2.4 * y_row, so every node is an integer
pair (k, j) and window intersections reduce to integer ranges.  That
makes exact dynamic-programming counts of bounded-step trajectories
possible via prefix sums; counts are exact integers carried in float64,
and count_trajectories raises once a step's total reaches 2^53, where
that exactness would end.

What depends only on the row net is computed once per net and kept on it:
per-row bool masks, where one systole sweep thresholds every node for a
whole list of thin deltas (RowNet.thin_masks) and one distance sweep
flags the nodes near a base point (RowNet.return_mask), and the reach
nets with the DP's span schedule on them (RowNet.reach_schedule).  Float
systoles are never kept, only the masks.  The sweep reduces each |j| of
a row once, since the reduced point at -x is the mirror of the one at x.

The DP runs on the reach of the net: each row clipped to the nodes its
span recurrence (_span_step) can make nonzero at some step, so counts,
snapshots, thin masks and return masks all have the reach's size.  For
a near-tangent row pair, whose x bound is below half the source spacing,
a source span's target range is clipped to the first and last target
whose window holds a source node, found in one pass of the window
arithmetic over the range (_reach): most targets of such a pair
fall between two source nodes, and a range of them would widen the
spans of every later step.  The recurrence runs once, on the whole net,
and every DP on the same (base, tau, n_steps) reuses its spans.  A step
reads only the source spans and evaluates only the target nodes they
can reach, in DP_CHUNK pieces, and with a thin delta only the nodes the
mask keeps.
Every skipped node would add exactly zero, so counts, snapshots and
per-step totals are those of the full-row DP.

Public distances (tau, radii, NET_SEPARATION, NET_COVERING) are in the
model metric, half the hyperbolic one.  Row algebra runs in hyperbolic
units internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ResourceError
from .halfplane import (ModelPoint, ball_points, ball_slice_sq,
                        hyp_dist_arrays, reduce_in_place, sample_ball_arrays)
from .report import ls_slope

XSTEP = 2.4  # row-net x spacing in units of the row height
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
MAX_NET_RADIUS = 8.0
MAX_STREAM = 2_000_000
# The greedy net's points are NET_SEPARATION apart, and every point of
# its ball lies within NET_COVERING of one of them.
NET_SEPARATION = 1.0
NET_COVERING = 2.0
NODE_BUDGET = 10_000_000
# Integers below 2^53 are exact in float64.  Every DP entry and prefix sum
# is at most its step's total, so a total below this keeps them all exact.
EXACT_COUNT_LIMIT = 2.0 ** 53
# count_trajectories evaluates target nodes in chunks this long; its
# temporaries, a few arrays of a chunk each, stay small next to the reach
DP_CHUNK = 16_384


def _is_thin(systoles, delta: float):
    """Bool mask of systoles at most delta, with a relative slack of 1e-12."""
    return systoles <= delta * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Greedy metric net: separated and covering inside one ball.


@dataclass(frozen=True)
class GreedyNet:
    """Separated covering subset of a ball, with coordinate arrays."""

    x: np.ndarray
    y: np.ndarray

    @property
    def size(self) -> int:
        return int(self.x.size)


def _stream_points(center: ModelPoint, radius: float, n: int):
    """Deterministic center-out spiral filling the ball uniformly in area."""
    k = np.arange(n)
    ang = np.mod(k * GOLDEN_ANGLE, 2.0 * math.pi)
    return (*ball_points(center, radius, (k + 0.5) / n, ang), ang)


def _sector_count(k: int) -> int:
    return max(8, math.ceil(math.pi * math.sinh(k + 1)))


def build_net(center: ModelPoint, radius: float, rng) -> GreedyNet:
    """Greedy NET_SEPARATION-separated net covering the radius-r ball to
    scale NET_COVERING.

    The candidate stream is deterministic, so the accepted point set only
    depends on the stream length; rng drives the coverage probes.  If the
    probes find an uncovered spot the stream doubles, up to MAX_STREAM,
    after which a ResourceError reports the net as out of reach.
    """
    if not 0.0 <= radius <= MAX_NET_RADIUS:
        raise ValueError(f"net radius must lie in [0, {MAX_NET_RADIUS}]")
    if radius == 0.0:
        return GreedyNet(np.array([center.x]), np.array([center.y]))
    sep = 2.0 * NET_SEPARATION  # hyp units
    span = math.ceil(sep)
    stream_n = min(int(10.0 * (math.cosh(2.0 * radius) - 1.0)
                       / (math.cosh(NET_SEPARATION) - 1.0)) + 64, MAX_STREAM)
    while True:
        sx, sy, srho, sphi = _stream_points(center, radius, stream_n)
        acc_x: list = []
        acc_y: list = []
        acc_rho: list = []
        acc_phi: list = []
        buckets: dict = {}
        for i in range(stream_n):
            rho, phi = float(srho[i]), float(sphi[i])
            k = int(rho)
            ok = True
            for kp in range(max(0, k - span), k + span + 1):
                nk = _sector_count(kp)
                rmin = min(k, kp)
                if rmin == 0:
                    secs = range(nk)
                else:
                    arg = math.sinh(0.5 * sep) / math.sinh(rmin)
                    if arg >= 1.0:
                        secs = range(nk)
                    else:
                        dphi = 2.0 * math.asin(arg)
                        halfw = int(dphi / (2.0 * math.pi / nk)) + 1
                        s0 = int(phi / (2.0 * math.pi) * nk) % nk
                        secs = [(s0 + d) % nk for d in range(-halfw, halfw + 1)]
                for sec in secs:
                    for j in buckets.get((kp, sec), ()):
                        ch = (math.cosh(rho) * math.cosh(acc_rho[j])
                              - math.sinh(rho) * math.sinh(acc_rho[j])
                              * math.cos(phi - acc_phi[j]))
                        if math.acosh(max(ch, 1.0)) < sep:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                continue
            idx = len(acc_x)
            acc_x.append(float(sx[i]))
            acc_y.append(float(sy[i]))
            acc_rho.append(rho)
            acc_phi.append(phi)
            sec = int(phi / (2.0 * math.pi) * _sector_count(k)) % _sector_count(k)
            buckets.setdefault((k, sec), []).append(idx)
        ax = np.array(acc_x)
        ay = np.array(acc_y)
        px, py = sample_ball_arrays(center, radius, 1000, rng)
        dmin = hyp_dist_arrays(px[:, None], py[:, None],
                               ax[None, :], ay[None, :]).min(axis=1)
        if float(dmin.max()) <= 2.0 * NET_COVERING:
            return GreedyNet(ax, ay)
        if stream_n >= MAX_STREAM:
            raise ResourceError(
                f"coverage not reached with {stream_n} stream points; "
                f"the requested net is beyond the supported size")
        stream_n = min(2 * stream_n, MAX_STREAM)


def net_size_slope(center: ModelPoint, radii, rng):
    """Net sizes over a radius grid and the fitted log-size growth rate."""
    radii = [float(r) for r in radii]
    if len(radii) < 2:
        raise ValueError("need at least two radii to fit a growth rate")
    sizes = [build_net(center, r, rng).size for r in radii]
    slope, _ = ls_slope(radii, np.log(sizes))
    return sizes, slope


# ---------------------------------------------------------------------------
# Row net: closed-form nodes (k, j) at y = anchor e^{2k}, x = j * 2.4 y.


@dataclass(frozen=True)
class NetRow:
    y: float
    s: float
    j_lo: int
    j_hi: int

    @property
    def n(self) -> int:
        return self.j_hi - self.j_lo + 1

    def xs(self) -> np.ndarray:
        return np.arange(self.j_lo, self.j_hi + 1) * self.s


@dataclass(frozen=True)
class RowNet:
    """Rows of the closed-form net meeting one ball.

    The full row family is 1.0-separated and 1.0-covering in the model
    metric: rows sit 1.0 apart vertically and nodes 2 asinh(1.2)/2 apart
    horizontally, so separation is at least 1.0 and every point of the
    plane lies within 1.0 of a node of the unclipped family.

    What depends only on the net is cached on it: masks, one bool array
    per row, thin masks by delta and return masks by (base, tolerance),
    and reach nets with their DP span schedules by (base, tau, n_steps).
    A reach net is a RowNet of its own, with its own cache, holding the
    nodes of this one that count_trajectories can make nonzero.  A cached mask is shared by
    every caller and must not be written to.  With a counters mapping,
    the methods that sweep the net add one to 'walk.systole_sweeps' or
    'walk.return_mask_sweeps' per sweep, and a systole sweep adds the
    points it reduced to 'walk.swept_points'.
    """

    rows: tuple
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def node_count(self) -> int:
        return sum(r.n for r in self.rows)

    def node_systoles(self, counters=None):
        """The systole at each node, as one array per row, row by row.

        The systole is invariant under z -> -conj(z), and a node's x is
        j * s with (-j) * s == -(j * s) in float64; the reduction sees x
        only through x^2 and rounds half to even, so it gives the same
        y at -x as at x.  Each row is reduced once per |j| and gathered
        back: half the points on a row centred at x = 0.  The row's
        coordinate arrays are its own temporaries, so they are reduced in
        place, uncopied, and the systole, 1 / y, overwrites y.
        """
        for r in self.rows:
            lo, hi = r.j_lo, r.j_hi
            a_lo, a_hi = max(lo, -hi, 0), max(-lo, hi)
            # sy[a - a_lo] is the systole at j = a and at j = -a
            sy = np.full(a_hi - a_lo + 1, r.y)
            reduce_in_place(np.arange(a_lo, a_hi + 1) * r.s, sy)
            np.divide(1.0, sy, out=sy)
            if counters is not None:
                counters["walk.swept_points"] += sy.size
            if lo >= 0:
                yield sy
            elif hi <= 0:
                yield sy[::-1]
            else:
                yield np.concatenate((sy[-lo:0:-1], sy[:hi + 1]))

    def thin_masks(self, deltas, counters=None) -> list:
        """Thin masks for each delta, from at most one systole sweep.

        Each row is reduced once and thresholded for every delta not yet
        cached; deltas are all checked before anything is computed.
        """
        deltas = [float(d) for d in deltas]
        if not all(0.0 < d < 1.0 for d in deltas):
            raise ValueError("thin threshold must lie in (0, 1)")
        todo = [d for d in dict.fromkeys(deltas)
                if ("thin", d) not in self._cache]
        if todo:
            new = {d: [] for d in todo}
            for sy in self.node_systoles(counters):
                for d in todo:
                    new[d].append(_is_thin(sy, d))
            for d in todo:
                self._cache[("thin", d)] = new[d]
            if counters is not None:
                counters["walk.systole_sweeps"] += 1
        return [self._cache[("thin", d)] for d in deltas]

    def thin_mask(self, delta: float, counters=None) -> list:
        """Per-row bool arrays flagging nodes with systole <= delta."""
        return self.thin_masks([delta], counters)[0]

    def reach(self, base: ModelPoint, tau: float, n_steps: int) -> "RowNet":
        """The nodes an n_steps DP from the base with step bound tau can
        make nonzero, as a net: each row clipped to the hull, over the
        steps, of its spans in the DP's span recurrence, and empty rows
        dropped.  The recurrence runs on row ends alone."""
        return self.reach_schedule(base, tau, n_steps)[0]

    def reach_schedule(self, base: ModelPoint, tau: float,
                       n_steps: int) -> tuple:
        """(reach, start spans, steps): the reach net and the DP's span
        recurrence on its rows, from one run of the recurrence on this net.

        steps holds _span_step's (moves, new_spans) for each of the
        n_steps - 1 steps, with row numbers and node indices moved from
        this net's rows onto the reach's.  Every span and hit range lies
        inside the reach, since the reach is their hull.
        """
        if n_steps < 1:
            raise ValueError("need at least one step")
        if tau <= 0.0:
            raise ValueError("step bound must be positive")
        key = ("reach", base.x, base.y, tau, n_steps)
        if key not in self._cache:
            ch = math.cosh(2.0 * tau) - 1.0
            start = spans = hull = _start_spans(self.rows, base, ch)
            whole = []  # each step's (moves, new_spans) on this net's rows
            for _ in range(n_steps - 1):
                moves, spans = _span_step(self.rows, spans, ch)
                whole.append((moves, spans))
                hull = [_hull(h, sp) for h, sp in zip(hull, spans)]
            kept = [i for i, (a, b) in enumerate(hull) if a <= b]
            index = {i: n for n, i in enumerate(kept)}
            off = {i: hull[i][0] for i in kept}
            rows = tuple(replace(self.rows[i], j_lo=self.rows[i].j_lo + off[i],
                                 j_hi=self.rows[i].j_lo + hull[i][1])
                         for i in kept)

            def onto_reach(spans):
                return [(spans[i][0] - off[i], spans[i][1] - off[i])
                        if spans[i][0] <= spans[i][1] else (0, -1)
                        for i in kept]

            steps = [([(index[si], rs,
                        [(index[ti], w, t0 - off[ti], t1 - off[ti])
                         for ti, w, t0, t1 in hits])
                       for si, rs, hits in moves], onto_reach(new_spans))
                     for moves, new_spans in whole]
            self._cache[key] = (replace(self, rows=rows), onto_reach(start),
                                steps)
        return self._cache[key]

    def return_mask(self, base: ModelPoint, tol: float,
                    counters=None) -> list:
        """Per-row bool arrays flagging nodes within tol of the base,
        modulo the unit translation identifying x with x + 1."""
        key = ("return", base.x, base.y, tol)
        if key not in self._cache:
            x0, y0 = base.x, base.y
            mask = []
            for r in self.rows:
                xr = r.xs() - x0
                xr = xr - np.round(xr)
                ch_d = 1.0 + (xr * xr + (r.y - y0) ** 2) / (2.0 * r.y * y0)
                mask.append(0.5 * np.arccosh(ch_d) <= tol)
            self._cache[key] = mask
            if counters is not None:
                counters["walk.return_mask_sweeps"] += 1
        return self._cache[key]


def build_row_net(anchor: float, center: ModelPoint, radius: float) -> RowNet:
    """Rows of the net meeting the ball of the given model-metric radius.

    The row widths are summed in Python integers as the rows are found,
    and a net of more than NODE_BUDGET nodes raises ResourceError before
    any array is made, as does a ball too wide for cosh in float64 or a
    row whose window leaves float64.
    """
    if anchor <= 0.0:
        raise ValueError("anchor height must be positive")
    if radius <= 0.0:
        raise ValueError("net radius must be positive")
    over = (f"the row net of radius {radius:g} has more than "
            f"NODE_BUDGET = {NODE_BUDGET} nodes")
    wide = (f"the row net of radius {radius:g} about height {center.y:g} "
            "has row windows beyond the float64 range")
    rad_hyp = 2.0 * radius
    nu_c = math.log(center.y)
    nu_a = math.log(anchor)
    k_lo = math.ceil((nu_c - rad_hyp - nu_a) / 2.0 - 1e-12)
    k_hi = math.floor((nu_c + rad_hyp - nu_a) / 2.0 + 1e-12)
    try:
        ch = math.cosh(rad_hyp) - 1.0
    except OverflowError:
        raise ResourceError(over) from None
    nodes = 0
    rows = []
    for k in range(k_lo, k_hi + 1):
        try:
            y = anchor * math.exp(2.0 * k)
            w2 = ball_slice_sq(y, center.y, ch)
        except OverflowError:
            raise ResourceError(wide) from None
        if w2 <= 0:
            continue
        w = math.sqrt(w2)
        s = XSTEP * y
        lo, hi = (center.x - w) / s, (center.x + w) / s
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ResourceError(wide)
        j_lo, j_hi = math.ceil(lo), math.floor(hi)
        if j_hi < j_lo:
            continue
        nodes += j_hi - j_lo + 1
        if nodes > NODE_BUDGET:
            raise ResourceError(over)
        rows.append(NetRow(y=y, s=s, j_lo=j_lo, j_hi=j_hi))
    return RowNet(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Exact trajectory counts by dynamic programming over row windows.


@dataclass
class TrajectoryFamily:
    """Counts of step-bounded node paths started near one base point.

    A trajectory is a node sequence whose consecutive nodes are at most
    tau apart (repeats and backtracking allowed); the first node must be
    within tau of the base point, which need not be a node itself.  With
    a thin threshold, every node must also have systole <= delta.
    per_step[i] is the number of (i+1)-node trajectories.

    net is the reach net the DP ran on, and the count arrays follow its
    rows.  step_snapshots[i] holds the per-row counts after step i + 1,
    and node_counts is the last of them.  They are the DP's own arrays,
    not copies: no step writes to an array once the step is over, so the
    snapshots stay exact as long as callers do not write to them either.
    """

    net: RowNet
    base: ModelPoint
    n_steps: int
    per_step: tuple
    node_counts: list
    step_snapshots: list | None = None

    def endpoint_counts(self, step: int | None = None) -> list:
        if step is not None and not 1 <= step <= self.n_steps:
            raise ValueError(f"step must lie in 1..{self.n_steps}")
        if step is None or step == self.n_steps:
            return self.node_counts
        if self.step_snapshots is None:
            raise ValueError("per-step snapshots were not kept; pass keep_steps=True")
        return self.step_snapshots[step - 1]

    def almost_closed(self, tol: float, step: int | None = None,
                      counters=None) -> float:
        """Trajectories whose endpoint returns within tol of the base,
        modulo the unit translation identifying x with x + 1."""
        counts = self.endpoint_counts(step)
        mask = self.net.return_mask(self.base, tol, counters)
        total = 0.0
        for c, m in zip(counts, mask):
            total += float(c[m].sum())
        return total


def _exact_total(counts: list, spans: list) -> float:
    # every node outside its row's span is zero, and a sum of
    # nonnegative integers totalling below 2^53 is exact in any order
    total = sum(float(c[a:b + 1].sum()) for c, (a, b) in zip(counts, spans))
    if total >= EXACT_COUNT_LIMIT:
        raise OverflowError(
            f"trajectory count {total:.6g} reached {EXACT_COUNT_LIMIT:.6g}, "
            f"where float64 counts stop being exact")
    return total


def _windows(rs: NetRow, rt: NetRow, w: float, jt):
    """Index windows [lo, hi) into rs of the target nodes jt of rt: the
    source nodes within x distance w of each target, clipped to the row.
    Both ends are nondecreasing in jt, since every step is monotone."""
    xt = jt * rt.s
    lo = np.ceil((xt - w) / rs.s).astype(np.int64)
    hi = np.floor((xt + w) / rs.s).astype(np.int64)
    lo -= rs.j_lo
    hi -= rs.j_lo - 1
    for end in (lo, hi):
        np.maximum(end, 0, out=end)
        np.minimum(end, rs.n, out=end)
    return lo, np.maximum(hi, lo, out=hi)


def _reach(rs: NetRow, rt: NetRow, w: float) -> tuple:
    """Target indices (t0, t1) of rt such that no node outside t0..t1
    has a source node of rs in its window; t0 > t1 means no node has.

    The range is estimated from the x extent with a node of slack, then
    proved with the window arithmetic itself: windows move monotonically,
    so an empty window at node t0 - 1 that ends before rs clears every
    node before it, and one at t1 + 1 that starts past rs every node
    after it.  A side that fails the proof falls back to the row's end.

    When 2 w is below the source spacing, as for near-tangent rows, a
    window holds at most one source node and most targets of the range
    fall between two of them.  The range is then clipped to its first
    and last target with a nonempty window, found by _windows itself in
    one pass over the range, DP_CHUNK targets at a time.
    """
    t0 = max(math.ceil((rs.j_lo * rs.s - w) / rt.s) - 1 - rt.j_lo, 0)
    t1 = min(math.floor((rs.j_hi * rs.s + w) / rt.s) + 1 - rt.j_lo,
             rt.n - 1)
    lo, hi = _windows(rs, rt, w, np.array([t0 - 1, t1 + 1]) + rt.j_lo)
    if t0 > 0 and hi[0] > 0:
        t0 = 0
    if t1 < rt.n - 1 and lo[1] < rs.n:
        t1 = rt.n - 1
    if 2.0 * w < rs.s:
        met = []
        for c0 in range(t0, t1 + 1, DP_CHUNK):
            jt = np.arange(c0, min(c0 + DP_CHUNK, t1 + 1)) + rt.j_lo
            lo, hi = _windows(rs, rt, w, jt)
            nz = np.flatnonzero(hi > lo)
            if nz.size:
                met += [c0 + int(nz[0]), c0 + int(nz[-1])]
        t0, t1 = (met[0], met[-1]) if met else (0, -1)
    return t0, t1


def _hull(p: tuple, q: tuple) -> tuple:
    """The smallest span (a, b) holding the spans p and q; a > b is empty."""
    if p[0] > p[1]:
        return q
    if q[0] > q[1]:
        return p
    return min(p[0], q[0]), max(p[1], q[1])


def _start_spans(rows, base: ModelPoint, ch: float) -> list:
    """Per row, the span (a, b) of node indices within the step bound of
    the base, ch = cosh(2 tau) - 1: the nodes a trajectory can start
    from.  a > b means none."""
    spans = []
    for r in rows:
        w2 = ball_slice_sq(r.y, base.y, ch)
        span = (0, -1)
        if w2 > 0:
            w = math.sqrt(w2)
            lo = max(r.j_lo, math.ceil((base.x - w) / r.s))
            hi = min(r.j_hi, math.floor((base.x + w) / r.s))
            if hi >= lo:
                span = (lo - r.j_lo, hi - r.j_lo)
        spans.append(span)
    return spans


def _span_step(rows, spans, ch: float) -> tuple:
    """One step of the DP's span recurrence, on row ends alone.

    Returns (moves, new_spans).  moves holds (si, rs, hits) for each row
    si with a nonempty span: rs is the row clipped to that span, and
    hits the (ti, w, t0, t1) of each row ti whose nodes t0..t1 it can
    reach (_reach) within x distance w.  A row's new span is the hull of
    the ranges that reach it.
    """
    moves = []
    new_spans = [(0, -1)] * len(rows)
    for si, row in enumerate(rows):
        a, b = spans[si]
        if a > b:
            continue
        rs = replace(row, j_lo=row.j_lo + a, j_hi=row.j_lo + b)
        hits = []
        for ti, rt in enumerate(rows):
            w2 = ball_slice_sq(rs.y, rt.y, ch)
            if w2 <= 0:
                continue
            w = math.sqrt(w2)
            t0, t1 = _reach(rs, rt, w)
            if t0 > t1:
                continue
            hits.append((ti, w, t0, t1))
            new_spans[ti] = _hull(new_spans[ti], (t0, t1))
        moves.append((si, rs, hits))
    return moves, new_spans


def _add_window_sums(out, pref, rs: NetRow, rt: NetRow, w: float,
                     t0: int, t1: int, live):
    """Add to target nodes t0..t1 of rt the source counts within x
    distance w, from the prefix sum pref over the nodes of rs.

    Only the nodes that live keeps are evaluated (all of them when live
    is None), DP_CHUNK at a time, so no temporary is longer than a chunk.
    Returns the number of target nodes evaluated.
    """
    if live is not None:
        live = live[live.searchsorted(t0):live.searchsorted(t1, "right")]
    n = t1 - t0 + 1 if live is None else live.size
    for c0 in range(0, n, DP_CHUNK):
        if live is None:
            part = slice(t0 + c0, t0 + min(c0 + DP_CHUNK, n))
            jt = np.arange(rt.j_lo + part.start, rt.j_lo + part.stop)
        else:
            part = live[c0:c0 + DP_CHUNK]
            jt = part + rt.j_lo
        lo, hi = _windows(rs, rt, w, jt)
        out[part] += pref[hi] - pref[lo]
    return n


def count_trajectories(net: RowNet, base: ModelPoint, tau: float,
                       n_steps: int, thin_delta: float | None = None,
                       keep_steps: bool = False,
                       counters=None) -> TrajectoryFamily:
    """Exact DP counts of trajectories with step bound tau from the base.

    The DP runs on net.reach(base, tau, n_steps), and every array it
    makes has the reach's size.  Its spans and moves are the ones the
    span recurrence computed on the whole net to build the reach
    (RowNet.reach_schedule), so the recurrence runs once per (base, tau,
    n_steps), not once per DP.  Each row carries a span of node indices
    outside which its counts are zero.  A step runs source row by source
    row over the span alone, with one prefix sum at a time, and adds
    window sums only into the target nodes the span can reach (_reach)
    that the thin mask keeps.  The thin mask comes from the reach net's
    cache, so it costs a systole sweep only the first time a delta is
    seen; counters goes to that sweep, and 'walk.window_targets' in it
    gains the target nodes whose window sums the DP evaluated, over all
    steps.  NODE_BUDGET bounds the net the caller passes.

    The counts are those of the DP on the whole net, node for node
    inside the reach and zero outside it:
    - The reach holds every span of the whole-net DP, and a count outside
      its span is zero.  So a node outside the reach is zero at every
      step and never adds to a target as a source; rows the reach drops
      are zero throughout.
    - The start nodes and the thin mask are per-node functions of (k, j),
      and the spans and hit ranges are the whole net's.  A target's
      window (_windows) depends only on its j and on the source span it
      is clipped to.  So, step by step, each window adds the same source
      counts in both nets.
    - Every count and prefix sum is an integer below 2^53, so every sum
      and difference is exact in any order, and the totals agree too.
    """
    nn = net.node_count
    if nn > NODE_BUDGET:
        raise ResourceError(
            f"row net has {nn} nodes, over the {NODE_BUDGET} node budget")
    net, spans, steps = net.reach_schedule(base, tau, n_steps)
    rows = net.rows
    mask = (net.thin_mask(thin_delta, counters) if thin_delta is not None
            else None)
    live = ([None] * len(rows) if mask is None
            else [np.flatnonzero(m) for m in mask])
    counts = [np.zeros(r.n) for r in rows]
    for c, (a, b) in zip(counts, spans):
        c[a:b + 1] = 1.0
    if mask is not None:
        for c, m in zip(counts, mask):
            c *= m
    per_step = [_exact_total(counts, spans)]
    snapshots = [counts] if keep_steps else None
    evaluated = 0
    for moves, new_spans in steps:
        new = [np.zeros(r.n) for r in rows]
        for si, rs, hits in moves:
            a, b = spans[si]
            # the source is the span alone: outside it every count is zero
            pref = np.zeros(rs.n + 1)
            np.cumsum(counts[si][a:b + 1], out=pref[1:])
            for ti, w, t0, t1 in hits:
                evaluated += _add_window_sums(new[ti], pref, rs, rows[ti], w,
                                              t0, t1, live[ti])
            del pref  # before the next source row builds its own
        counts, spans = new, new_spans
        per_step.append(_exact_total(counts, spans))
        if keep_steps:
            snapshots.append(counts)
    if counters is not None:
        counters["walk.window_targets"] += evaluated
    return TrajectoryFamily(net=net, base=base, n_steps=n_steps,
                            per_step=tuple(per_step), node_counts=counts,
                            step_snapshots=snapshots)
