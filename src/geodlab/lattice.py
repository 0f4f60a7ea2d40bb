"""Exact lattice counting: deck-group orbit points in metric balls.

Orbit points of X group into families indexed by the coprime bottom row
(c, d) of the acting matrix: within a family the real part walks an
integer lattice at fixed height Im = Im X / q, q = (c Re X + d)^2 + (c Im X)^2.
A ball around the center therefore meets each family in an explicit
integer window, and the total count is exact up to float rounding at the
window edges.  Distinct (c, d) rows can produce the identical point set
when the point stabilizer is nontrivial, so families are deduplicated by
(q, fractional part of the real offset), with exact integer keys whenever
the base point has integer Re and integer Im^2.

Everything downstream (cell bounds, growth and spread ratios, the chain
audit over strata) consumes these counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .halfplane import ModelPoint, reduce_points, reduce_to_fundamental
from .report import fit_exponent
from .torus import CurveClass, systole

MAX_ORBIT_RADIUS = 7.0


def ext_gcd(a: int, b: int) -> tuple:
    """(g, u, v) with a u + b v = g = gcd(a, b), g >= 0 for (a, b) != (0, 0)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_u, u = u, old_u - qt * u
        old_v, v = v, old_v - qt * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


@dataclass
class OrbitPointSet:
    center: ModelPoint
    radius: float
    x: np.ndarray
    y: np.ndarray

    @property
    def count(self) -> int:
        return int(self.x.size)

    @cached_property
    def points(self) -> list:
        return [ModelPoint(float(a), float(b)) for a, b in zip(self.x, self.y)]


def _family_windows(X: ModelPoint, center: ModelPoint, tau: float):
    """Deduplicated families as (Re0, y_pt, lo, hi) integer windows."""
    x0, y0 = X.x, X.y
    xc, yc = center.x, center.y
    ch = math.cosh(2.0 * tau) - 1.0

    x0i = round(x0)
    y0sq = y0 * y0
    y0sqi = round(y0sq)
    exact = abs(x0 - x0i) < 1e-9 and abs(y0sq - y0sqi) < 1e-9

    q_max = (y0 / yc) * math.exp(2.0 * tau) * (1.0 + 1e-12)
    c_max = int(math.floor(math.sqrt(max(q_max / y0sq, 0.0))))

    fams = {}

    def consider(c, d, a0, b0):
        if exact:
            qi = (c * x0i + d) ** 2 + c * c * y0sqi
            if qi == 0 or qi > q_max:
                return
            re0q = (a0 * x0i + b0) * (c * x0i + d) + a0 * c * y0sqi
            key = (qi, re0q % qi)
            q = float(qi)
            re0 = re0q / q
        else:
            q = (c * x0 + d) ** 2 + (c * y0) ** 2
            if q == 0.0 or q > q_max:
                return
            re0q = (a0 * x0 + b0) * (c * x0 + d) + a0 * c * y0sq
            key = (round(q, 9), round((re0q / q) % 1.0, 9))
            re0 = re0q / q
        if key in fams:
            return
        y_pt = y0 / q
        s = 2.0 * y_pt * yc * ch - (y_pt - yc) ** 2
        if s < 0.0:
            fams[key] = None
            return
        w = math.sqrt(s)
        lo = math.ceil(xc - w - re0)
        hi = math.floor(xc + w - re0)
        fams[key] = None if hi < lo else (re0, y_pt, lo, hi)

    consider(0, 1, 1, 0)
    for c in range(1, c_max + 1):
        dw = q_max - c * c * y0sq
        if dw < 0.0:
            continue
        w = math.sqrt(dw)
        d_lo = math.ceil(-c * x0 - w)
        d_hi = math.floor(-c * x0 + w)
        for d in range(d_lo, d_hi + 1):
            if math.gcd(c, abs(d)) != 1:
                continue
            g, u, v = ext_gcd(d, -c)
            if g != 1:
                continue
            consider(c, d, u, v)
    return [f for f in fams.values() if f is not None]


def _reduced_windows(X: ModelPoint, center: ModelPoint, tau: float):
    """Family windows around the reduced center, and the center's deck.

    The count is invariant under reducing the center, and the windows
    stay small around a point of F.
    """
    if not (0.0 < tau <= MAX_ORBIT_RADIUS):
        raise ValueError(f"orbit radius must lie in (0, {MAX_ORBIT_RADIUS}]")
    x_red, _ = reduce_to_fundamental(X)
    c_red, deck = reduce_to_fundamental(center)
    return _family_windows(x_red, c_red, tau), deck


def orbit_points(X: ModelPoint, center: ModelPoint, tau: float) -> OrbitPointSet:
    """All orbit points of X within ball radius tau around the center.

    The windows are laid out around the reduced center and the points
    are mapped back through its deck afterwards.
    """
    fams, deck = _reduced_windows(X, center, tau)
    xs, ys = [], []
    for re0, y_pt, lo, hi in fams:
        ts = np.arange(lo, hi + 1, dtype=float)
        xs.append(re0 + ts)
        ys.append(np.full(ts.size, y_pt))
    if xs:
        x = np.concatenate(xs)
        y = np.concatenate(ys)
    else:
        x = np.empty(0)
        y = np.empty(0)
    inv = deck.inverse()
    if inv != deck.identity():
        z = x + 1j * y
        z = (inv.a * z + inv.b) / (inv.c * z + inv.d)
        x, y = z.real, z.imag
    return OrbitPointSet(center=center, radius=tau, x=x, y=y)


def orbit_count(X: ModelPoint, center: ModelPoint, tau: float) -> int:
    """Number of orbit_points(X, center, tau), summed over the windows."""
    fams, _ = _reduced_windows(X, center, tau)
    return sum(hi - lo + 1 for _, _, lo, hi in fams)


def spread_count(X: ModelPoint, c2: float) -> int:
    """Orbit points in the ball of radius c2 around the point itself."""
    if not (0.0 < c2 <= 2.0):
        raise ValueError("spread radius must lie in (0, 2]")
    return orbit_count(X, X, c2)


# ---------------------------------------------------------------------------
# Strata and the chain audit.

SHORT_THRESHOLD = 1.0


def short_curves(z: ModelPoint) -> list:
    """Curves with extremal length below the threshold (at most one here,
    since extremal length products of crossing curves are at least 1)."""
    c, l = systole(z)
    return [(c, l)] if l < SHORT_THRESHOLD else []


def curve_length_arrays(curve: CurveClass, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return ((curve.p + curve.q * x) ** 2 + (curve.q * y) ** 2) / y


@dataclass(frozen=True)
class ChainAudit:
    X: ModelPoint
    Y: ModelPoint
    tau: float
    k: int
    depths: tuple
    rates: tuple
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
    k = len(sc)
    if k == 0:
        n = orbit_count(X, Y, tau)
        return ChainAudit(X, Y, tau, 0, (tau,), (2,), (n,),
                          (math.exp(2.0 * tau) * gx * gy,))
    curve, l1 = sc[0]
    d1 = min(-math.log(l1), tau)
    d2 = tau - d1
    rates = (1, 2)
    pts1 = orbit_points(X, Y, d1)
    shared = curve_length_arrays(curve, pts1.x, pts1.y) < SHORT_THRESHOLD
    n1 = int(np.count_nonzero(shared))
    n2 = orbit_count(X, Y, tau)
    b1 = math.exp(rates[0] * d1) * gx * gy
    b2 = math.exp(rates[0] * d1 + rates[1] * d2) * gx * gy
    return ChainAudit(X, Y, tau, 1, (d1, d2), rates, (n1, n2), (b1, b2))


def stratum_partition_total(pts: OrbitPointSet, curve: CurveClass) -> tuple:
    """(in-stratum, out-of-stratum) counts; they always sum to the total."""
    mask = curve_length_arrays(curve, pts.x, pts.y) < SHORT_THRESHOLD
    n_in = int(np.count_nonzero(mask))
    return n_in, pts.count - n_in


# ---------------------------------------------------------------------------
# How many net cells the ball image occupies after reduction.

_NET_XSTEP = 2.4


def net_cells(x: np.ndarray, y: np.ndarray) -> set:
    """Snap reduced points to the row net: rows at y = e^{2k}, x-step 2.4 y."""
    k = np.round(0.5 * np.log(y)).astype(int)
    yk = np.exp(2.0 * k.astype(float))
    j = np.round(x / (_NET_XSTEP * yk)).astype(int)
    return set(zip(k.tolist(), j.tolist()))


def net_image_counts(center: ModelPoint, taus, n: int, rng) -> list:
    """Distinct net cells hit by a reduced ball sample, per radius."""
    from .halfplane import sample_ball_arrays

    out = []
    for tau in taus:
        xs, ys = sample_ball_arrays(center, float(tau), n, rng)
        xr, yr = reduce_points(xs, ys)
        out.append(len(net_cells(xr, yr)))
    return out


def net_image_exponent(center: ModelPoint, taus, n: int, rng) -> float:
    return fit_exponent(taus, net_image_counts(center, taus, n, rng))
