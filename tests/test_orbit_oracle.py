"""Orbit counts at X = i from sums of two squares, and on the imaginary
axis by brute force.

g = [[a, b], [c, d]] in SL(2,Z) moves i by hyperbolic distance 2 tau
exactly when n = a^2 + b^2 + c^2 + d^2 = 2 cosh 2 tau.  With ad - bc = 1,
u = a + d, v = b - c, s = a - d and t = b + c satisfy u^2 + v^2 = n + 2
and s^2 + t^2 = n - 2, and every such (u, v, s, t) with u = s and v = t
mod 2 is one matrix.  Given the two sums, u = s mod 2 forces v = t mod 2,
so the matrices of norm n are a product of two histograms of sums of two
squares, matched by the parity of u.  The stabilizer of i in SL(2,Z) has
order 4, so a quarter of the matrices within 2 cosh 2 tau are the orbit
points.  At X = iy away from i the matrices are few enough to list, as
_orbit_counts_on_the_axis does.  Nothing here shares code with the lattice
rows, their partners, the stabilizer fold or the mirror.  The counts at
i, rho and 10i are checked against Huber's main term with Selberg's
error bound.
"""

import math

import numpy as np
import pytest

from geodlab.config import EXPERIMENTS
from geodlab.halfplane import ModelPoint
from geodlab.lattice import MAX_ORBIT_RADIUS, orbit_count, orbit_counts


def _orbit_counts_at_i(taus) -> list:
    """Orbit points of i within teich distance tau of i, at each of the
    increasing taus, from one pair of histograms."""
    n_maxes = [math.floor(2.0 * math.cosh(2.0 * tau)) for tau in taus]
    top = n_maxes[-1] + 2
    # hist[p][m]: the (u, v) with u = p mod 2 and u^2 + v^2 = m, a few
    # hundred at most for m below 2^31
    hist = np.zeros((2, top + 1), np.int32)
    r = math.isqrt(top)
    for u in range(-r, r + 1):
        v = np.arange(math.isqrt(top - u * u) + 1)
        hist[u % 2, u * u + v * v] += np.where(v == 0, 1, 2)
    # n = 2 .. n_max: hist[n + 2] against hist[n - 2], class by class,
    # a bounded chunk of norms at a time
    out, mats, n0 = [], 0, 2
    for n_max in n_maxes:
        for lo in range(n0, n_max + 1, 1 << 20):
            hi = min(lo + (1 << 20), n_max + 1)
            mats += int((hist[:, lo + 2:hi + 2].astype(np.int64)
                         * hist[:, lo - 2:hi - 2]).sum())
        n0 = n_max + 1
        assert mats % 4 == 0
        out.append(mats // 4)
    return out


def _orbit_count_at_i(tau: float) -> int:
    """Orbit points of i within teich distance tau of i."""
    return _orbit_counts_at_i((tau,))[0]


@pytest.mark.parametrize("tau, want", [(1.0, 13), (2.0, 81), (3.0, 621),
                                       (4.0, 4_437), (5.0, 32_901),
                                       (6.0, 244_057)])
def test_orbit_count_at_i_is_a_sum_of_two_squares_convolution(tau, want):
    assert _orbit_count_at_i(tau) == want
    assert orbit_count(ModelPoint(0.0, 1.0), ModelPoint(0.0, 1.0), tau) == want


def test_orbit_count_at_i_at_the_largest_radius():
    # the deepest Stern-Brocot walk the radius guard allows
    tau = MAX_ORBIT_RADIUS
    assert tau == 7.0
    want = _orbit_count_at_i(tau)
    assert want == 1_804_185
    assert orbit_count(ModelPoint(0.0, 1.0), ModelPoint(0.0, 1.0), tau) == want


def test_orbit_counts_at_i_over_the_default_grid_in_one_walk():
    # the lattice run's radii, all from the walk at the largest
    taus = EXPERIMENTS["lattice"]["tau_grid"].default
    i = ModelPoint(0.0, 1.0)
    assert orbit_counts(i, i, taus) == [_orbit_count_at_i(t) for t in taus]


# Huber's lattice-point theorem for PSL(2,Z), whose quotient has area
# pi/3: the orbit points of X within teich distance tau of X number
# M = 6 (cosh 2 tau - 1) / |Stab X| to leading order, and Selberg's bound
# is |N - M| = O(e^{4 tau / 3}).  HUBER_K was fixed from i at
# tau = 2 .. 6 in steps of 1/4, where |N - M| / e^{4 tau / 3} is at most
# 0.431 (tau = 3.75), and only then checked at larger tau.  Below tau = 2
# a few families decide N: at tau = 0.5, N = 5 against M = 1.6.
HUBER_K = 0.5


def _huber_main_term(tau: float, stabilizer_order: int) -> float:
    return 6.0 * (math.cosh(2.0 * tau) - 1.0) / stabilizer_order


def _huber_slack(tau: float) -> float:
    return HUBER_K * math.exp(4.0 * tau / 3.0)


def test_huber_bound_at_i_up_to_tau_8():
    # tau = 6.25 .. 8 is held out from HUBER_K; the oracle reaches past
    # MAX_ORBIT_RADIUS (13,329,121 points at tau = 8)
    taus = [q / 4.0 for q in range(8, 33)]
    counts = _orbit_counts_at_i(taus)
    assert counts[-1] == 13_329_121
    for tau, n in zip(taus, counts):
        assert abs(n - _huber_main_term(tau, 2)) <= _huber_slack(tau), tau


def test_huber_bound_at_rho_over_the_default_grid():
    taus = EXPERIMENTS["lattice"]["tau_grid"].default
    rho = ModelPoint(-0.5, math.sqrt(3.0) / 2.0)
    for tau, n in zip(taus, orbit_counts(rho, rho, taus)):
        assert abs(n - _huber_main_term(tau, 3)) <= _huber_slack(tau), tau


def test_huber_bound_at_10i_after_the_cusp_transient():
    # An orbit point off the translates of X = y0 i has Im gX =
    # y0 / (c^2 y0^2 + d^2) <= 1 / y0, and the ball reaches down to
    # y0 e^{-2 tau}: below tau = log y0 it holds only the translates
    # y0 i + t, |t| <= 2 y0 sinh tau, which grow like e^tau, not like M.
    # After it the slack scales with the height: the error's constant
    # comes through |E(X, 1/2 + it)|^2, and high in the cusp
    # E(X, s) ~ y0^s + phi(s) y0^{1 - s} with |phi| = 1 there, so at most
    # about 4 y0.
    y0 = 10.0
    X = ModelPoint(0.0, y0)
    taus = EXPERIMENTS["lattice"]["tau_grid"].default
    assert taus[0] < math.log(y0) < taus[1]
    for tau, n in zip(taus, orbit_counts(X, X, taus)):
        if tau < math.log(y0):
            assert n == 2 * math.floor(2.0 * y0 * math.sinh(tau)) + 1
        else:
            assert abs(n - _huber_main_term(tau, 1)) <= y0 * _huber_slack(tau)


def _orbit_counts_on_the_axis(y: float, taus) -> list:
    """Orbit points of X = iy within teich distance tau of X itself, y > 1,
    at each of the increasing taus, by brute force over SL(2,Z).

    Conjugating by diag(sqrt y, 1 / sqrt y), which maps i to iy, g moves iy
    by hyperbolic distance 2 tau exactly when a^2 + d^2 + c^2 y^2 + b^2 / y^2
    = 2 cosh 2 tau.  So |a|, |d| <= sqrt(n_max) and |c| <= sqrt(n_max) / y;
    b follows from ad - bc = 1 when c != 0, and c = 0 leaves a = d = +-1
    with b free.  Off i the stabilizer of iy in SL(2,Z) is +-1, so half the
    matrices within 2 cosh 2 tau are the orbit points.
    """
    n_maxes = [2.0 * math.cosh(2.0 * tau) for tau in taus]
    r = math.isqrt(math.floor(n_maxes[-1]))
    c_max = math.floor(math.sqrt(n_maxes[-1]) / y)
    norms = []
    for c in range(-c_max, c_max + 1):
        if c == 0:
            b_max = math.floor(y * math.sqrt(n_maxes[-1]))
            b = np.arange(-b_max, b_max + 1, dtype=float)
            norms += [2.0 + b * b / (y * y)] * 2  # a = d = 1 and -1
            continue
        a, d = (v.ravel() for v in np.meshgrid(np.arange(-r, r + 1),
                                               np.arange(-r, r + 1)))
        ok = (a * d - 1) % c == 0
        a, d = a[ok], d[ok]
        b = (a * d - 1) // c
        norms.append(a * a + d * d + c * c * y * y + b * b / (y * y))
    norms = np.concatenate(norms)
    return [int((norms <= n_max).sum()) // 2 for n_max in n_maxes]


# the lattice run's two centres off i, and two heights drawn log-uniform
# from (1, 50)
AXIS_HEIGHTS = (10.0, 100.0, *np.exp(np.random.default_rng(7).uniform(
    0.0, math.log(50.0), 2)).tolist())


@pytest.mark.parametrize("y", AXIS_HEIGHTS)
def test_orbit_counts_on_the_imaginary_axis_by_brute_force(y):
    taus = [0.5, 1.0, 2.0, 3.0, 4.0]
    X = ModelPoint(0.0, y)
    assert orbit_counts(X, X, taus) == _orbit_counts_on_the_axis(y, taus)
