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

What depends only on the row net is computed once per net and kept on it
as per-row bool masks: one systole sweep thresholds every node for a
whole list of thin deltas (RowNet.thin_masks), and one distance sweep
flags the nodes near a base point (RowNet.return_mask).  Float systoles
are never kept, only the masks.

Public distances (tau, c1, c2, radii) are in the model metric, half the
hyperbolic one.  Row algebra runs in hyperbolic units internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .halfplane import (
    ModelPoint,
    hyp_dist_arrays,
    reduce_to_fundamental,
    sample_ball_arrays,
    teich_dist,
)
from .products import bias_eval, bias_terms, contraction_ratio_exact
from .report import ls_slope
from .torus import BiasParams, systole, systole_values
from .words import teich_length_from_trace, word_to_matrix

XSTEP = 2.4  # row-net x spacing in units of the row height
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
GROWTH_RATE = 2.0  # ball area grows like e^{2r}: 2 pi (cosh 2r - 1)
MAX_NET_RADIUS = 8.0
MAX_STREAM = 2_000_000
NODE_BUDGET = 10_000_000
# Integers below 2^53 are exact in float64.  Every DP entry and prefix sum
# is at most its step's total, so a total below this keeps them all exact.
EXACT_COUNT_LIMIT = 2.0 ** 53


def _is_thin(systoles, delta: float):
    """Bool mask of systoles at most delta, with a relative slack of 1e-12."""
    return systoles <= delta * (1.0 + 1e-12)


class ResourceError(RuntimeError):
    """A requested computation exceeds its resource envelope."""


class NetCoverageError(RuntimeError):
    """A net fails to cover a point it was asked to serve."""


# ---------------------------------------------------------------------------
# Greedy metric net: c1-separated, c2-covering inside one ball.


@dataclass(frozen=True)
class GreedyNet:
    """Separated covering subset of a ball, with coordinate arrays."""

    center: ModelPoint
    radius: float
    c1: float
    c2: float
    x: np.ndarray
    y: np.ndarray

    @property
    def size(self) -> int:
        return int(self.x.size)

    def min_separation(self) -> float:
        """Smallest pairwise distance, brute force; for audits on small nets."""
        if self.size < 2:
            return math.inf
        d = hyp_dist_arrays(self.x[:, None], self.y[:, None],
                            self.x[None, :], self.y[None, :])
        d[np.diag_indices(self.size)] = np.inf
        return 0.5 * float(d.min())


def _stream_points(center: ModelPoint, radius: float, n: int):
    """Deterministic center-out spiral filling the ball uniformly in area."""
    k = np.arange(n)
    u = (k + 0.5) / n
    rho = np.arccosh(1.0 + u * (math.cosh(2.0 * radius) - 1.0))
    ang = np.mod(k * GOLDEN_ANGLE, 2.0 * math.pi)
    w = np.tanh(rho / 2.0) * np.exp(1j * ang)
    z = (1j - 1j * w) / (1.0 + w)
    z = center.x + center.y * z
    return z.real, z.imag, rho, ang


def _sector_count(k: int) -> int:
    return max(8, math.ceil(math.pi * math.sinh(k + 1)))


def build_net(center: ModelPoint, radius: float, rng,
              c1: float = 1.0, c2: float = 2.0) -> GreedyNet:
    """Greedy c1-separated net covering the radius-r ball to scale c2.

    The candidate stream is deterministic, so the accepted point set only
    depends on the stream length; rng drives the coverage probes.  If the
    probes find an uncovered spot the stream doubles, up to MAX_STREAM,
    after which a ResourceError reports the net as out of reach.
    """
    if not 0.0 <= radius <= MAX_NET_RADIUS:
        raise ValueError(f"net radius must lie in [0, {MAX_NET_RADIUS}]")
    if not 0.0 < c1 <= c2:
        raise ValueError("need 0 < c1 <= c2")
    if radius == 0.0:
        return GreedyNet(center, 0.0, c1, c2,
                         np.array([center.x]), np.array([center.y]))
    sep = 2.0 * c1  # hyp units
    span = math.ceil(sep)
    stream_n = min(int(10.0 * (math.cosh(2.0 * radius) - 1.0)
                       / (math.cosh(c1) - 1.0)) + 64, MAX_STREAM)
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
        if float(dmin.max()) <= 2.0 * c2:
            return GreedyNet(center, radius, c1, c2, ax, ay)
        if stream_n >= MAX_STREAM:
            raise ResourceError(
                f"coverage not reached with {stream_n} stream points; "
                f"the requested net is beyond the supported size")
        stream_n = min(2 * stream_n, MAX_STREAM)


def net_size_slope(center: ModelPoint, radii, rng,
                   c1: float = 1.0, c2: float = 2.0):
    """Net sizes over a radius grid and the fitted log-size growth rate."""
    radii = [float(r) for r in radii]
    if len(radii) < 2:
        raise ValueError("need at least two radii to fit a growth rate")
    sizes = [build_net(center, r, rng, c1, c2).size for r in radii]
    slope, _ = ls_slope(radii, np.log(sizes))
    return sizes, slope


# ---------------------------------------------------------------------------
# Row net: closed-form nodes (k, j) at y = anchor e^{2k}, x = j * 2.4 y.


@dataclass(frozen=True)
class NetRow:
    k: int
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

    c1/c2 are the certified separation and covering scales of the full
    row family: rows sit 1.0 apart vertically and nodes 2 asinh(1.2)/2
    apart horizontally, so separation is at least 1.0 and every point of
    the plane lies within 1.0 of a node of the unclipped family.

    Masks that depend only on the net are cached on it, one bool array
    per row: thin masks by delta, return masks by (base, tolerance).  A
    cached mask is shared by every caller and must not be written to.
    With a counters mapping, the methods that sweep the net add one to
    'walk.systole_sweeps' or 'walk.return_mask_sweeps' per sweep.
    """

    anchor: float
    center: ModelPoint
    radius: float
    rows: tuple
    c1: float = 1.0
    c2: float = 1.0
    _masks: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def node_count(self) -> int:
        return sum(r.n for r in self.rows)

    def node_systoles(self):
        """The systole at each node, as one array per row, row by row."""
        return (systole_values(r.xs(), np.full(r.n, r.y)) for r in self.rows)

    def thin_masks(self, deltas, counters=None) -> list:
        """Thin masks for each delta, from at most one systole sweep.

        Each row is reduced once and thresholded for every delta not yet
        cached; deltas are all checked before anything is computed.
        """
        deltas = [float(d) for d in deltas]
        if not all(0.0 < d < 1.0 for d in deltas):
            raise ValueError("thin threshold must lie in (0, 1)")
        todo = [d for d in dict.fromkeys(deltas)
                if ("thin", d) not in self._masks]
        if todo:
            new = {d: [] for d in todo}
            for sy in self.node_systoles():
                for d in todo:
                    new[d].append(_is_thin(sy, d))
            for d in todo:
                self._masks[("thin", d)] = new[d]
            if counters is not None:
                counters["walk.systole_sweeps"] += 1
        return [self._masks[("thin", d)] for d in deltas]

    def thin_mask(self, delta: float, counters=None) -> list:
        """Per-row bool arrays flagging nodes with systole <= delta."""
        return self.thin_masks([delta], counters)[0]

    def return_mask(self, base: ModelPoint, tol: float,
                    counters=None) -> list:
        """Per-row bool arrays flagging nodes within tol of the base,
        modulo the unit translation identifying x with x + 1."""
        key = ("return", base.x, base.y, tol)
        if key not in self._masks:
            x0, y0 = base.x, base.y
            mask = []
            for r in self.rows:
                xr = r.xs() - x0
                xr = xr - np.round(xr)
                ch_d = 1.0 + (xr * xr + (r.y - y0) ** 2) / (2.0 * r.y * y0)
                mask.append(0.5 * np.arccosh(ch_d) <= tol)
            self._masks[key] = mask
            if counters is not None:
                counters["walk.return_mask_sweeps"] += 1
        return self._masks[key]

    def nearest_node(self, x: float, y: float):
        """(row_index, j, distance) of the nearest node to the point."""
        best = (-1, 0, math.inf)
        for ri, r in enumerate(self.rows):
            j = min(max(int(round(x / r.s)), r.j_lo), r.j_hi)
            d = teich_dist(ModelPoint(x, y), ModelPoint(j * r.s, r.y))
            if d < best[2]:
                best = (ri, j, d)
        return best


def build_row_net(anchor: float, center: ModelPoint, radius: float,
                  k_min: int | None = None) -> RowNet:
    """Rows of the net meeting the ball of the given model-metric radius."""
    if anchor <= 0.0:
        raise ValueError("anchor height must be positive")
    if radius <= 0.0:
        raise ValueError("net radius must be positive")
    rad_hyp = 2.0 * radius
    nu_c = math.log(center.y)
    nu_a = math.log(anchor)
    k_lo = math.ceil((nu_c - rad_hyp - nu_a) / 2.0 - 1e-12)
    k_hi = math.floor((nu_c + rad_hyp - nu_a) / 2.0 + 1e-12)
    if k_min is not None:
        k_lo = max(k_lo, k_min)
    ch = math.cosh(rad_hyp) - 1.0
    rows = []
    for k in range(k_lo, k_hi + 1):
        y = anchor * math.exp(2.0 * k)
        w2 = 2.0 * y * center.y * ch - (y - center.y) ** 2
        if w2 <= 0:
            continue
        w = math.sqrt(w2)
        s = XSTEP * y
        j_lo = math.ceil((center.x - w) / s)
        j_hi = math.floor((center.x + w) / s)
        if j_hi < j_lo:
            continue
        rows.append(NetRow(k=k, y=y, s=s, j_lo=j_lo, j_hi=j_hi))
    return RowNet(anchor=anchor, center=center, radius=radius, rows=tuple(rows))


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

    step_snapshots[i] holds the per-row counts after step i + 1, and
    node_counts is the last of them.  They are the DP's own arrays, not
    copies: no step writes to an array once the step is over, so the
    snapshots stay exact as long as callers do not write to them either.
    """

    net: RowNet
    base: ModelPoint
    tau: float
    n_steps: int
    thin_delta: float | None
    per_step: tuple
    node_counts: list
    step_snapshots: list | None = None

    @property
    def total(self) -> float:
        return self.per_step[-1]

    def endpoint_counts(self, step: int | None = None) -> list:
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

    def weighted_endpoint_sum(self, values, step: int | None = None) -> float:
        """Sum of a per-node weight over trajectory endpoints with counts."""
        counts = self.endpoint_counts(step)
        return float(sum((c * v).sum() for c, v in zip(counts, values)))


def _exact_total(counts: list) -> float:
    total = sum(float(c.sum()) for c in counts)
    if total >= EXACT_COUNT_LIMIT:
        raise OverflowError(
            f"trajectory count {total:.6g} reached {EXACT_COUNT_LIMIT:.6g}, "
            f"where float64 counts stop being exact")
    return total


def count_trajectories(net: RowNet, base: ModelPoint, tau: float,
                       n_steps: int, thin_delta: float | None = None,
                       keep_steps: bool = False,
                       node_budget: int = NODE_BUDGET,
                       counters=None) -> TrajectoryFamily:
    """Exact DP counts of trajectories with step bound tau from the base.

    The thin mask comes from the net's cache, so it costs a systole sweep
    only the first time a delta is seen; counters goes to that sweep.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    if tau <= 0.0:
        raise ValueError("step bound must be positive")
    nn = net.node_count
    if nn > node_budget:
        raise ResourceError(
            f"row net has {nn} nodes, over the {node_budget} budget; "
            f"use count_trajectories_sampled for nets this wide")
    rho = 2.0 * tau
    mask = (net.thin_mask(thin_delta, counters) if thin_delta is not None
            else None)
    ch = math.cosh(rho) - 1.0
    rows = net.rows
    counts = []
    for r in rows:
        w2 = 2.0 * r.y * base.y * ch - (r.y - base.y) ** 2
        c = np.zeros(r.n)
        if w2 > 0:
            w = math.sqrt(w2)
            lo = max(r.j_lo, math.ceil((base.x - w) / r.s))
            hi = min(r.j_hi, math.floor((base.x + w) / r.s))
            if hi >= lo:
                c[lo - r.j_lo: hi - r.j_lo + 1] = 1.0
        counts.append(c)
    if mask is not None:
        for c, m in zip(counts, mask):
            c *= m
    per_step = [_exact_total(counts)]
    snapshots = [counts] if keep_steps else None
    for _ in range(n_steps - 1):
        new = [np.zeros(r.n) for r in rows]
        for si, rs in enumerate(rows):
            src = counts[si]
            if not src.any():
                continue
            pref = np.concatenate(([0.0], np.cumsum(src)))
            for ti, rt in enumerate(rows):
                w2 = 2.0 * rs.y * rt.y * ch - (rs.y - rt.y) ** 2
                if w2 <= 0:
                    continue
                w = math.sqrt(w2)
                xt = np.arange(rt.j_lo, rt.j_hi + 1) * rt.s
                lo = np.ceil((xt - w) / rs.s).astype(np.int64)
                hi = np.floor((xt + w) / rs.s).astype(np.int64)
                lo = np.clip(lo - rs.j_lo, 0, rs.n)
                hi = np.clip(hi - rs.j_lo + 1, 0, rs.n)
                hi = np.maximum(hi, lo)
                new[ti] += pref[hi] - pref[lo]
        if mask is not None:
            for c, m in zip(new, mask):
                c *= m
        counts = new
        per_step.append(_exact_total(counts))
        if keep_steps:
            snapshots.append(counts)
    return TrajectoryFamily(net=net, base=base, tau=tau, n_steps=n_steps,
                            thin_delta=thin_delta, per_step=tuple(per_step),
                            node_counts=counts, step_snapshots=snapshots)


@dataclass(frozen=True)
class SampledCount:
    n_paths: int
    estimate: float
    std_error: float


def _sample_paths(net: RowNet, base: ModelPoint, tau: float, n_steps: int,
                  n_paths: int, rng, thin_delta: float | None):
    """Sequential importance sampling of step-bounded node paths.

    Each path extends by a uniformly random admissible node and carries
    the product of branch counts so far as its weight.  The admissible
    nodes of a step are every row's window around the current point, in
    row order, thin-tested in one systole call.  Windows are a few nodes
    wide, so nothing is materialized per net; this is what lets sampling
    work on nets far beyond the exact-count budget.  Returns weights and
    endpoint coordinates x, y, each of shape (n_paths, n_steps); from a
    dead end on, a path's weight is 0 and its endpoint stays put.
    """
    ch = math.cosh(2.0 * tau) - 1.0
    row_y = np.array([r.y for r in net.rows])
    row_s = np.array([r.s for r in net.rows])
    j_lo = np.array([r.j_lo for r in net.rows])
    j_hi = np.array([r.j_hi for r in net.rows])
    weights = np.zeros((n_paths, n_steps))
    ends_x = np.zeros((n_paths, n_steps))
    ends_y = np.zeros((n_paths, n_steps))
    for p in range(n_paths):
        x, y = base.x, base.y
        wgt = 1.0
        for step in range(n_steps):
            w2 = 2.0 * row_y * y * ch - (row_y - y) ** 2
            w = np.sqrt(np.maximum(w2, 0.0))
            lo = np.maximum(j_lo, np.ceil((x - w) / row_s)).astype(np.int64)
            hi = np.minimum(j_hi, np.floor((x + w) / row_s)).astype(np.int64)
            n = np.where(w2 > 0, np.maximum(hi - lo + 1, 0), 0)
            row = np.repeat(np.arange(n.size), n)
            js = np.arange(row.size) + np.repeat(lo - (np.cumsum(n) - n), n)
            if thin_delta is not None:
                thin = _is_thin(systole_values(js * row_s[row], row_y[row]),
                                thin_delta)
                js, row = js[thin], row[thin]
            b = js.size
            if b == 0:
                ends_x[p, step:], ends_y[p, step:] = x, y
                break
            wgt *= b
            pick = int(rng.integers(b))
            r = net.rows[row[pick]]
            x, y = float(js[pick]) * r.s, r.y
            weights[p, step] = wgt
            ends_x[p, step], ends_y[p, step] = x, y
    return weights, ends_x, ends_y


def count_trajectories_sampled(net: RowNet, base: ModelPoint, tau: float,
                               n_steps: int, n_paths: int, rng,
                               thin_delta: float | None = None) -> SampledCount:
    """Unbiased trajectory-count estimate by sequential importance sampling.

    A path's weight after its last step estimates the count; a path with
    no admissible continuation contributes zero.
    """
    if n_paths < 2:
        raise ValueError("need at least two sample paths")
    if n_steps < 1:
        raise ValueError("need at least one step")
    weights = _sample_paths(net, base, tau, n_steps, n_paths, rng,
                            thin_delta)[0][:, -1]
    est = float(weights.mean())
    se = float(weights.std(ddof=1) / math.sqrt(n_paths))
    return SampledCount(n_paths=n_paths, estimate=est, std_error=se)


# ---------------------------------------------------------------------------
# Discretizing a closed geodesic into a net trajectory.


@dataclass(frozen=True)
class Trajectory:
    """Net-node itinerary of one closed geodesic.

    tau is the declared step bound: the requested mark spacing plus twice
    the net covering scale, so consecutive points obey d <= tau by
    construction whenever the snap stays within c2.
    """

    exps: tuple
    length: float
    mark_spacing: float
    tau: float
    nodes: tuple
    points: tuple
    snap_gaps: tuple

    @property
    def n_steps(self) -> int:
        return len(self.nodes) - 1

    def max_step(self) -> float:
        return max(teich_dist(a, b) for a, b in zip(self.points, self.points[1:]))

    def node_systoles(self) -> np.ndarray:
        xs = np.array([p.x for p in self.points])
        ys = np.array([p.y for p in self.points])
        return systole_values(xs, ys)


def _axis_point(p: float, q: float, s_hyp: float) -> ModelPoint:
    """Point at arc length s_hyp from the apex of the geodesic (p, q)."""
    v = math.exp(s_hyp)
    den = 1.0 + v * v
    return ModelPoint((p * v * v + q) / den, v * (q - p) / den)


def discretize_geodesic(exps, net: RowNet, tau: float) -> Trajectory:
    """Mark one period at spacing tau, reduce, and snap to nearest nodes.

    Raises NetCoverageError, naming the axis point, if a reduced mark has
    no node within the net covering scale c2.
    """
    exps = tuple(getattr(exps, "exps", exps))
    if tau <= 0.0:
        raise ValueError("mark spacing must be positive")
    mat = word_to_matrix(exps)
    a, b, c, d = mat.a, mat.b, mat.c, mat.d
    if c < 0:
        a, b, c, d = -a, -b, -c, -d
    tr = a + d
    if c == 0 or abs(tr) <= 2:
        raise ValueError("word does not act with an axis in the plane")
    length = teich_length_from_trace(tr)
    disc = math.sqrt(float(tr * tr - 4))
    p = (a - d - disc) / (2.0 * c)
    q = (a - d + disc) / (2.0 * c)
    n_steps = max(1, math.ceil(length / tau - 1e-12))
    period_hyp = 2.0 * length
    nodes = []
    points = []
    gaps = []
    for i in range(n_steps + 1):
        s = math.fmod(2.0 * tau * i, period_hyp)
        mark = _axis_point(p, q, s)
        red, _ = reduce_to_fundamental(mark)
        ri, j, gap = net.nearest_node(red.x, red.y)
        if gap > net.c2 + 1e-12:
            raise NetCoverageError(
                f"net does not cover axis point {red.x:.6f} + {red.y:.6f}i "
                f"(nearest node {gap:.4f} away, covering scale {net.c2})")
        row = net.rows[ri]
        nodes.append((row.k, j))
        points.append(ModelPoint(j * row.s, row.y))
        gaps.append(gap)
    return Trajectory(exps=exps, length=length, mark_spacing=tau,
                      tau=tau + 2.0 * net.c2, nodes=tuple(nodes),
                      points=tuple(points), snap_gaps=tuple(gaps))


# ---------------------------------------------------------------------------
# Recursion audit: growth of the bias-weighted endpoint sum q.


@dataclass(frozen=True)
class QRecursionAudit:
    """Per-step values of q(r) = sum of u over trajectory endpoints.

    q(0) is u at the base point itself.  The certified one-step statement
    is q(r + tau) <= prefactor * e^{(2 + slack/2) tau} * c_base * q(r),
    with c_base the averaging bound for u at the base: the exact ball
    contraction ratio plus 1/(2K) plus the constant-term allowance 1/u.
    """

    base: ModelPoint
    tau: float
    delta: float
    n_steps: int
    eps_slack: float
    q: tuple
    q_se: tuple
    c_base: float
    sampled: bool

    @property
    def ratios(self) -> tuple:
        return tuple(b / a if a > 0 else math.inf
                     for a, b in zip(self.q, self.q[1:]))

    @property
    def max_ratio(self) -> float:
        return max(self.ratios)

    def step_bound(self, prefactor: float = 1.0) -> float:
        return prefactor * math.exp((GROWTH_RATE + 0.5 * self.eps_slack)
                                    * self.tau) * self.c_base

    def certified(self, prefactor: float = 1.0) -> bool:
        return self.max_ratio <= self.step_bound(prefactor)

    @property
    def fitted_prefactor(self) -> float:
        return self.max_ratio / self.step_bound(1.0)

    @property
    def growth_exponent(self) -> float:
        rs = [i * self.tau for i in range(len(self.q))]
        pts = [(r, math.log(v)) for r, v in zip(rs, self.q) if v > 0]
        if len(pts) < 2:
            return math.nan
        return ls_slope([p[0] for p in pts], [p[1] for p in pts])[0]


def _u_values(systoles, params: BiasParams) -> np.ndarray:
    """u = f_0 + f_1 at single-torus points with the given systoles."""
    return bias_terms(systoles[:, None], params)[2][:, 0]


def q_recursion_audit(X: ModelPoint, tau: float, n_steps: int, delta: float,
                      rng=None, params: BiasParams | None = None,
                      anchor: float | None = None,
                      eps_slack: float = 0.2,
                      n_paths: int = 4000) -> QRecursionAudit:
    """Audit the one-step growth of the thin-trajectory bias sum from X.

    X must itself be thin (systole below delta).  Exact DP when the net
    fits the node budget; with an rng the audit falls back to importance
    sampling past the budget, otherwise that raises ResourceError.
    """
    if params is None:
        params = BiasParams.default(m=1)
    if n_steps < 1:
        raise ValueError("need at least one step")
    base, _ = reduce_to_fundamental(X)
    _, sys0 = systole(base)
    if sys0 >= delta:
        raise ValueError(f"base point has systole {sys0:.4f}, not below {delta}")
    if anchor is None:
        anchor = 1.0 / delta
    net = build_row_net(anchor, base, tau * n_steps)
    q0 = bias_eval(base, params).u
    inv2k = 0.5 * math.exp(-params.log_K)
    c_base = contraction_ratio_exact(tau, params.s) + inv2k + 1.0 / q0
    if net.node_count <= NODE_BUDGET:
        u_rows = [_u_values(sy, params) for sy in net.node_systoles()]
        fam = count_trajectories(net, base, tau, n_steps,
                                 thin_delta=delta, keep_steps=True)
        q = [q0] + [fam.weighted_endpoint_sum(u_rows, step=i)
                    for i in range(1, n_steps + 1)]
        se = [0.0] * (n_steps + 1)
        sampled = False
    else:
        if rng is None:
            raise ResourceError(
                f"row net has {net.node_count} nodes, over the {NODE_BUDGET} "
                f"budget; pass an rng to audit by sampling")
        wgt, ex, ey = _sample_paths(net, base, tau, n_steps, n_paths, rng,
                                    delta)
        vals = wgt * _u_values(systole_values(ex.ravel(), ey.ravel()),
                               params).reshape(wgt.shape)
        q = [q0] + [float(vals[:, i].mean()) for i in range(n_steps)]
        se = [0.0] + [float(vals[:, i].std(ddof=1) / math.sqrt(n_paths))
                      for i in range(n_steps)]
        sampled = True
    return QRecursionAudit(base=base, tau=tau, delta=delta, n_steps=n_steps,
                           eps_slack=eps_slack, q=tuple(q), q_se=tuple(se),
                           c_base=c_base, sampled=sampled)
