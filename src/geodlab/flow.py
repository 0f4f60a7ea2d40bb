"""Geodesic flow on the unit-frame space of the model surface.

A frame is a real 2x2 matrix A of determinant 1: the base point is A
applied to i, the direction is encoded in how A rotates the vertical.
Flowing for time t multiplies A on the right by diag(e^t, e^-t), which
moves the base point Teichmueller distance t along its geodesic.  Deck
reduction multiplies on the left by integer matrices and is tracked
exactly in int64 (an entry that would leave int64 raises), so a
flow-and-return event hands back the precise group element that closes
the orbit.  Everything downstream (mixing correlations, the closed-orbit
census, recurrence statistics) is built from these four moves: build
frames, flow, reduce, test a box.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.random  # cli.worker_stream's generators; numpy loads it lazily

from .halfplane import (TOTAL_FRAME_MEASURE, ModelPoint, hyp_ball_area,
                        reduce_points, sample_ball_arrays)
from .report import ls_slope
from .torus import systole_values
from .words import teich_length_from_trace

YMAX = 1e3
# close's census flow times, above the box diameter 2 * BOX_RADIUS that
# closing_constants needs, and the most frames one census draws: a
# 4M-frame census peaks near 320 MB of RSS
MIN_CENSUS_TIME = 0.5
MAX_CENSUS_TIME = 5.0
MAX_CENSUS_FRAMES = 4_000_000
# The longest flow time mixing_correlation takes.  A reduced frame
# g . flow(A, t) comes from products of size e^{2t} that cancel to O(1),
# so its float error grows like e^{2t} 2^-53: its determinant is off by
# about 4e-9 at t = 10 and 1e-3 at 16, from t = 20 the box test reads
# noise (the estimate is 0 at t = 30), and near t = 40 the deck leaves
# int64.
MAX_MIX_TIME = 10.0
MIN_MIXING_SAMPLES = 10_000
# mixing_correlation holds every frame at once: 410 MB of peak RSS at 2M
MAX_MIX_SAMPLES = 2_000_000


# ---------------------------------------------------------------------------
# Frames.

def frames_from_points(x, y, th) -> np.ndarray:
    """Unit frames at base points x + iy pointing in direction th."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    th = np.asarray(th, dtype=float)
    sq = np.sqrt(y)
    phi = (math.pi / 2 - th) / 2.0
    c, s = np.cos(phi), np.sin(phi)
    A = np.empty(x.shape + (2, 2))
    A[..., 0, 0] = sq * c + (x / sq) * s
    A[..., 0, 1] = -sq * s + (x / sq) * c
    A[..., 1, 0] = s / sq
    A[..., 1, 1] = c / sq
    return A


def frame_base(A: np.ndarray):
    """Base point coordinates of each frame."""
    a, b = A[..., 0, 0], A[..., 0, 1]
    c, d = A[..., 1, 0], A[..., 1, 1]
    den = c * c + d * d
    return (a * c + b * d) / den, 1.0 / den


def frame_base_dir(A: np.ndarray):
    """Base point coordinates and direction angle of each frame."""
    c, d = A[..., 1, 0], A[..., 1, 1]
    th = np.mod(math.pi / 2 - 2.0 * np.arctan2(c, d), 2.0 * math.pi)
    return (*frame_base(A), th)


def flow(A: np.ndarray, t: float) -> np.ndarray:
    B = A.copy()
    B[..., :, 0] *= math.exp(t)
    B[..., :, 1] *= math.exp(-t)
    return B


def reduce_frames(A: np.ndarray):
    """Left-multiply each frame into the fundamental domain.

    Returns (deck, reduced) with deck integral and reduced = deck . A.
    """
    x, y = frame_base(A)
    g = reduce_points(x, y, deck=True)[2]
    return g, g @ A


# ---------------------------------------------------------------------------
# Sampling.

def sample_fund(n: int, rng):
    """Uniform hyperbolic-area base points of the fundamental domain,
    cusp truncated at height YMAX."""
    out_x = np.empty(0)
    out_y = np.empty(0)
    ylo = math.sqrt(3.0) / 2.0
    while len(out_x) < n:
        m = int((n - len(out_x)) * 1.6) + 16
        x = rng.random(m) - 0.5
        u = rng.random(m)
        y = 1.0 / (1.0 / ylo - u * (1.0 / ylo - 1.0 / YMAX))
        ok = x * x + y * y >= 1.0
        out_x = np.concatenate([out_x, x[ok]])
        out_y = np.concatenate([out_y, y[ok]])
    return out_x[:n], out_y[:n]


def sample_fund_frames(n: int, rng):
    """Near-uniform frames: area-uniform base point, then uniform angle."""
    x, y = sample_fund(n, rng)
    th = rng.random(n) * 2.0 * math.pi
    return x, y, th


# ---------------------------------------------------------------------------
# Boxes.

@dataclass(frozen=True)
class Box:
    """Product box in frame space: a metric disc of Teichmueller radius
    `radius` around the center, times an angle window of width dtheta."""

    center: ModelPoint
    radius: float
    theta0: float
    dtheta: float

    @property
    def fraction(self) -> float:
        return hyp_ball_area(2.0 * self.radius) * self.dtheta / TOTAL_FRAME_MEASURE


BOX_RADIUS = 0.15
# The largest fraction measure_box holds: every angle over its disc.
MAX_BOX_FRACTION = (hyp_ball_area(2.0 * BOX_RADIUS) * 2.0 * math.pi
                    / TOTAL_FRAME_MEASURE)


def measure_box(fraction: float) -> Box:
    """The box of radius BOX_RADIUS around 1.5i, pointing up, whose angle
    width makes it hold the given fraction of the frame measure: the box
    of mix and close.  A fraction above MAX_BOX_FRACTION needs a width
    past 2 pi and raises ValueError."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("need fraction in (0, 1)")
    area = hyp_ball_area(2.0 * BOX_RADIUS)
    dtheta = fraction * TOTAL_FRAME_MEASURE / area
    if dtheta > 2.0 * math.pi:
        raise ValueError("fraction too large for this radius")
    return Box(ModelPoint(0.0, 1.5), BOX_RADIUS, math.pi / 2, dtheta)


def in_box_coords(box: Box, x, y, th):
    cx, cy = box.center.x, box.center.y
    chd = 1.0 + ((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * y * cy)
    ok_z = chd <= math.cosh(2.0 * box.radius)
    dth = np.abs(np.mod(th - box.theta0 + math.pi, 2.0 * math.pi) - math.pi)
    return ok_z & (dth <= box.dtheta / 2.0)


def in_box(box: Box, frames: np.ndarray):
    x, y, th = frame_base_dir(frames)
    return in_box_coords(box, x, y, th)


def sample_box(box: Box, n: int, rng) -> np.ndarray:
    x, y = sample_ball_arrays(box.center, box.radius, n, rng)
    th = box.theta0 + (rng.random(n) - 0.5) * box.dtheta
    return frames_from_points(x, y, th)


# ---------------------------------------------------------------------------
# Mixing.

@dataclass(frozen=True)
class MixingEstimate:
    estimate: float
    std_error: float
    target: float

    @property
    def diff(self) -> float:
        return self.estimate - self.target

    @property
    def z_score(self) -> float:
        if self.std_error == 0.0:  # every sample hit, or none did
            return 0.0 if self.diff == 0.0 else math.copysign(math.inf, self.diff)
        return self.diff / self.std_error


def mixing_correlation(box: Box, t: float, n: int, rng) -> MixingEstimate:
    """Estimate the normalized correlation m(U, flow t back into U).

    Samples the box uniformly, flows, reduces, and re-tests membership;
    the estimate multiplies the hit rate by the box fraction, so for a
    mixing flow it approaches fraction squared as t grows.  The hits are
    i.i.d. Bernoulli, so the std error is fraction * sqrt(p (1 - p) / n)
    at hit rate p.
    """
    if not MIN_MIXING_SAMPLES <= n <= MAX_MIX_SAMPLES:
        raise ValueError(f"n must be {MIN_MIXING_SAMPLES}..{MAX_MIX_SAMPLES}")
    if not abs(t) <= MAX_MIX_TIME:
        raise ValueError(
            f"flow time must lie in [-{MAX_MIX_TIME}, {MAX_MIX_TIME}]")
    A = sample_box(box, n, rng)
    _, B = reduce_frames(flow(A, t))
    p = float(in_box(box, B).mean())
    mu = box.fraction
    est = mu * p
    se = mu * math.sqrt(p * (1.0 - p) / n)
    return MixingEstimate(estimate=est, std_error=se, target=mu * mu)


# ---------------------------------------------------------------------------
# Closed-orbit census.

def axis_distance(matrix, z: ModelPoint) -> float:
    """Teichmueller distance from z to the axis of a hyperbolic matrix."""
    a, b, c, d = (float(v) for v in matrix)
    tr = a + d
    if abs(tr) <= 2.0:
        raise ValueError("axis is defined for hyperbolic classes only")
    if c == 0.0:
        xf = b / (d - a)
        return 0.5 * math.asinh(abs(z.x - xf) / z.y)
    disc = math.sqrt(tr * tr - 4.0)
    p = (a - d + disc) / (2.0 * c)
    q = (a - d - disc) / (2.0 * c)
    w = complex(z.x - p, z.y) / complex(z.x - q, z.y)
    return 0.5 * math.acosh(max(abs(w) / abs(w.imag), 1.0))


def closing_constants(box: Box, t: float):
    """(c1, eps): orbit-closing length slack and axis capture radius, in
    hyperbolic units, for return events of flow time t through the box."""
    rh = 2.0 * box.radius
    if t <= rh:
        raise ValueError("flow time must exceed the box diameter scale")
    c1 = (rh + box.dtheta / 2.0) / (1.0 - math.exp(-4.0 * (t - rh))) + 1e-3
    eps = rh + math.log(math.cosh(2.0 * c1)) / 2.0
    return c1, eps


@dataclass(frozen=True)
class CensusComponent:
    length: float
    events: int
    axis_dist: float


@dataclass
class FlowCensus:
    box: Box
    time: float
    samples: int
    events: int
    nonhyperbolic_events: int
    components: list

    @property
    def component_count(self) -> int:
        return len(self.components)

    @property
    def count_ratio(self) -> float:
        """Components seen over the fraction * e^{2t} growth prediction."""
        return self.component_count / (self.box.fraction * math.exp(2.0 * self.time))

    @property
    def frac_within_3x(self) -> float:
        """Share of components whose event rate sits within a factor 3
        of the equidistribution prediction fraction * e^{-2t}."""
        target = self.box.fraction * math.exp(-2.0 * self.time)
        ok = sum(1 for c in self.components
                 if target / 3.0 <= c.events / self.samples <= target * 3.0)
        return ok / self.component_count if self.components else float("nan")

    @property
    def worst_length_gap(self) -> float:
        return max((abs(c.length - self.time) for c in self.components), default=0.0)

    @property
    def worst_axis_dist(self) -> float:
        return max((c.axis_dist for c in self.components), default=0.0)


def margulis_count(box: Box, t: float, n: int, rng) -> FlowCensus:
    """Census of flow-and-return events through the box at flow time t.

    Each event yields the integer deck element closing the orbit; events
    are grouped by that element (trace sign normalized), and every group
    is certified: hyperbolic, length near t, axis near the box center.
    An element whose determinant is not 1 raises ArithmeticError.
    """
    if not (0.0 < t <= MAX_CENSUS_TIME):
        raise ValueError(f"census flow time must lie in (0, {MAX_CENSUS_TIME}]")
    x, y, th = sample_fund_frames(n, rng)
    sel = in_box_coords(box, x, y, th)
    A = frames_from_points(x[sel], y[sel], th[sel])
    g, B = reduce_frames(flow(A, t))
    hit = in_box(box, B)
    gh = g[hit]
    traces = gh[:, 0, 0] + gh[:, 1, 1]
    gh = gh * np.where(traces < 0, -1, 1)[:, None, None]

    counts: dict = {}
    for mat in gh:
        key = (int(mat[0, 0]), int(mat[0, 1]), int(mat[1, 0]), int(mat[1, 1]))
        counts[key] = counts.get(key, 0) + 1

    comps = []
    nonhyp = 0
    for key, cnt in counts.items():
        if key[0] * key[3] - key[1] * key[2] != 1:
            raise ArithmeticError(f"deck {key} does not have determinant 1")
        tr = key[0] + key[3]
        if tr <= 2:
            nonhyp += cnt
            continue
        length = teich_length_from_trace(float(tr))
        comps.append(CensusComponent(
            length=length,
            events=cnt,
            axis_dist=axis_distance(key, box.center),
        ))
    if len(comps) < 10:
        warnings.warn("census found fewer than 10 components; "
                      "increase the sample count or the flow time")
    return FlowCensus(box=box, time=t, samples=n, events=int(hit.sum()),
                      nonhyperbolic_events=nonhyp, components=comps)


# ---------------------------------------------------------------------------
# Recurrence into the thin part.

@dataclass(frozen=True)
class RecurrenceResult:
    horizon: int
    fractions: tuple

    @property
    def decay_exponent(self) -> float:
        """Exponential decay rate of the flagged fraction, from the
        log-linear fit over horizons with nonzero fraction."""
        rs = [r + 1 for r in range(self.horizon) if self.fractions[r] > 0.0]
        if len(rs) < 2:
            return float("nan")
        slope, _ = ls_slope([float(r) for r in rs],
                            [math.log(self.fractions[r - 1]) for r in rs])
        return -slope


def recurrence_fraction(n: int, horizon: int, delta: float, theta: float,
                        rng) -> RecurrenceResult:
    """Fraction of unit-speed trajectories spending at least a theta share
    of their first r steps in the delta-thin part, for r = 1..horizon."""
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    if not (0.0 < delta < 1.0 and 0.0 < theta < 1.0):
        raise ValueError("delta and theta must lie in (0, 1)")
    x, y, th = sample_fund_frames(n, rng)
    B = frames_from_points(x, y, th)
    thin_steps = np.zeros(n, dtype=np.int64)
    fracs = []
    for r in range(1, horizon + 1):
        _, B = reduce_frames(flow(B, 1.0))
        thin_steps += systole_values(*frame_base(B)) < delta
        flagged = thin_steps >= theta * r - 1e-12
        fracs.append(float(flagged.mean()))
    return RecurrenceResult(horizon=horizon, fractions=tuple(fracs))
