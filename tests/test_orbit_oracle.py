"""Orbit counts at X = i from sums of two squares.

g = [[a, b], [c, d]] in SL(2,Z) moves i by hyperbolic distance 2 tau
exactly when n = a^2 + b^2 + c^2 + d^2 = 2 cosh 2 tau.  With ad - bc = 1,
u = a + d, v = b - c, s = a - d and t = b + c satisfy u^2 + v^2 = n + 2
and s^2 + t^2 = n - 2, and every such (u, v, s, t) with u = s and v = t
mod 2 is one matrix.  Given the two sums, u = s mod 2 forces v = t mod 2,
so the matrices of norm n are a product of two histograms of sums of two
squares, matched by the parity of u.  The stabilizer of i in SL(2,Z) has
order 4, so a quarter of the matrices within 2 cosh 2 tau are the orbit
points.  Nothing here shares code with the lattice rows, their partners
or the stabilizer fold.
"""

import math

import numpy as np
import pytest

from geodlab.config import EXPERIMENTS
from geodlab.halfplane import ModelPoint
from geodlab.lattice import MAX_ORBIT_RADIUS, orbit_count, orbit_counts


def _orbit_count_at_i(tau: float) -> int:
    """Orbit points of i within teich distance tau of i."""
    n_max = math.floor(2.0 * math.cosh(2.0 * tau))
    top = n_max + 2
    # hist[p][m]: the (u, v) with u = p mod 2 and u^2 + v^2 = m
    hist = np.zeros((2, top + 1), np.int64)
    r = math.isqrt(top)
    for u in range(-r, r + 1):
        v = np.arange(math.isqrt(top - u * u) + 1)
        hist[u % 2, u * u + v * v] += np.where(v == 0, 1, 2)
    # n = 2 .. n_max: hist[n + 2] against hist[n - 2], class by class
    mats = int((hist[:, 4:] * hist[:, :top - 3]).sum())
    assert mats % 4 == 0
    return mats // 4


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
