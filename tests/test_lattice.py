import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodlab.halfplane import (MappingClass, ModelPoint, hyp_dist,
                               teich_dist)
from geodlab.lattice import (MAX_ORBIT_RADIUS, chain_bound_audit, net_cells,
                             net_image_counts, net_image_exponent,
                             orbit_count, orbit_points, spread_count,
                             stratum_partition_total)
from geodlab.torus import CurveClass


def _orbit_by_bfs(X: ModelPoint, center: ModelPoint, tau: float,
                  depth: int) -> set:
    """Group-ball BFS oracle: distinct orbit points within teich tau."""
    gens = [MappingClass(1, 1, 0, 1), MappingClass(1, -1, 0, 1),
            MappingClass(0, -1, 1, 0)]
    frontier = {MappingClass.identity()}
    seen = set(frontier)
    found = {}
    for _ in range(depth):
        nxt = set()
        for g in frontier:
            for s in gens:
                h = g * s
                # matrices act projectively; identify h with -h
                key = h.entries() if (h.a, h.b) >= (-h.a, -h.b) \
                    else (-h.a, -h.b, -h.c, -h.d)
                if key in seen:
                    continue
                seen.add(key)
                nxt.add(h)
        frontier = nxt
    for g in seen:
        m = g if isinstance(g, MappingClass) else MappingClass(*g)
        w = m.apply(X)
        if teich_dist(w, center) <= tau + 1e-9:
            found[(round(w.x, 7), round(w.y, 7))] = True
    return set(found)


@pytest.mark.parametrize("tau", [0.8, 1.3])
def test_orbit_count_matches_group_bfs(tau):
    X = ModelPoint(0.0, 1.0)
    center = ModelPoint(0.1, 1.4)
    pts = orbit_points(X, center, tau)
    brute = _orbit_by_bfs(X, center, tau, depth=9)
    got = {(round(float(a), 7), round(float(b), 7))
           for a, b in zip(pts.x, pts.y)}
    assert got == brute
    assert pts.count == len(brute)
    assert orbit_count(X, center, tau) == len(brute)


POINT = st.builds(ModelPoint, st.floats(-3.0, 3.0), st.floats(0.2, 30.0))


@settings(deadline=None)
@given(POINT, POINT, st.floats(0.05, 3.0))
@example(ModelPoint(0.0, 1.0), ModelPoint(0.1, 1.4), 3.0)  # exact keys
@example(ModelPoint(0.3, 1.1), ModelPoint(-0.2, 0.9), 3.0)  # float keys
def test_orbit_count_matches_orbit_points(X, center, tau):
    assert orbit_count(X, center, tau) == orbit_points(X, center, tau).count


def test_orbit_points_all_within_radius_and_on_orbit():
    X = ModelPoint(0.3, 0.8)
    center = ModelPoint(-0.2, 1.1)
    pts = orbit_points(X, center, 2.0)
    assert pts.count > 0
    from geodlab.torus import systole_values
    sx, _ = None, None
    base = systole_values(np.array([X.x]), np.array([X.y]))[0]
    vals = systole_values(pts.x, pts.y)
    # orbit points carry the same marking-invariant systole
    assert np.allclose(vals, base, rtol=1e-8)
    for a, b in zip(pts.x[:50], pts.y[:50]):
        assert teich_dist(ModelPoint(float(a), float(b)), center) <= 2.0 + 1e-9


def test_orbit_count_deck_invariance():
    X = ModelPoint(0.0, 1.0)
    c1 = ModelPoint(0.2, 1.3)
    c2 = ModelPoint(0.2 + 3.0, 1.3)  # same point, translated marking
    assert orbit_count(X, c1, 1.7) == orbit_count(X, c2, 1.7)


def test_orbit_radius_guard():
    X = ModelPoint(0.0, 1.0)
    with pytest.raises(ValueError):
        orbit_count(X, X, 0.0)
    with pytest.raises(ValueError):
        orbit_count(X, X, MAX_ORBIT_RADIUS + 0.1)


def test_spread_count_center_included():
    X = ModelPoint(0.0, 37.0)
    n = spread_count(X, 0.5)
    assert n >= 1
    with pytest.raises(ValueError):
        spread_count(X, 0.0)
    with pytest.raises(ValueError):
        spread_count(X, 2.5)


def test_spread_count_grows_into_cusp():
    thin = spread_count(ModelPoint(0.0, 100.0), 0.5)
    thick = spread_count(ModelPoint(0.0, 1.0), 0.5)
    assert thin > thick


def test_stratum_partition_sums():
    X = ModelPoint(0.0, 25.0)
    pts = orbit_points(X, X, 1.5)
    n_in, n_out = stratum_partition_total(pts, CurveClass(1, 0))
    assert n_in + n_out == pts.count
    assert n_in >= 1  # the center itself has its short curve short


def test_chain_audit_frozen_grid():
    worst = 0.0
    for xy in (1.0, 10.0, 30.0):
        for yy in (1.0, 10.0):
            for tau in (1.0, 2.0, 3.0, 4.0, 5.0):
                a = chain_bound_audit(ModelPoint(0.0, xy),
                                      ModelPoint(0.0, yy), tau)
                assert len(a.counts) == len(a.bounds)
                assert all(b > 0 for b in a.bounds)
                worst = max(worst,
                            max(n / b for n, b in zip(a.counts, a.bounds)))
    assert worst == pytest.approx(16.4595, abs=5e-4)
    assert worst <= 17.0


def test_chain_audit_thick_single_link():
    a = chain_bound_audit(ModelPoint(0.0, 1.0), ModelPoint(0.0, 1.0), 2.0)
    assert len(a.counts) == 1
    assert a.counts[0] == orbit_count(ModelPoint(0.0, 1.0),
                                      ModelPoint(0.0, 1.0), 2.0)


def test_chain_audit_cusp_two_links():
    a = chain_bound_audit(ModelPoint(0.0, 30.0), ModelPoint(0.0, 1.0), 4.0)
    assert len(a.counts) == 2
    assert a.counts[0] <= a.counts[1]  # cumulative


def test_net_cells_distinct_rows():
    cells = net_cells(np.array([0.0, 0.0, 5.0]), np.array([1.0, 7.5, 1.0]))
    assert len(cells) == 3


def test_net_image_counts_collapse_under_reduction():
    # the reduced ball image climbs the cusp one row per radius unit, so
    # cells grow linearly while the ball itself grows like e^{2 tau}
    rng = np.random.default_rng(17)
    counts = net_image_counts(ModelPoint(0.0, 1.0), (1.0, 2.0, 3.0, 4.0),
                              4000, rng)
    assert counts == [2, 3, 4, 5]
    expo = net_image_exponent(ModelPoint(0.0, 1.0), (1.0, 2.0, 3.0, 4.0),
                              4000, np.random.default_rng(17))
    assert expo < 1.0
