import collections
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodlab.halfplane import (MappingClass, ModelPoint, hyp_dist_arrays,
                               reduce_to_fundamental, teich_dist)
from geodlab import lattice
from geodlab.lattice import (_CONE_POINTS, MAX_ORBIT_RADIUS, _bottom_rows,
                             _cone_window, _family_windows, _row_windows,
                             chain_bound_audit, orbit_count, orbit_counts,
                             orbit_points, spread_count)


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
# reduced points i y, y log-uniform: X and a center both drawn here take
# the walk's mirror path
AXIS = st.floats(-math.log(30.0), math.log(30.0)).map(
    lambda t: reduce_to_fundamental(ModelPoint(0.0, math.exp(t)))[0])


@pytest.mark.parametrize("X, center", [
    (ModelPoint(0.0, 1.0), ModelPoint(0.0, 1.4)),
    (ModelPoint(0.0, 1.3), ModelPoint(0.0, 0.8)),
], ids=["at_i", "off_i"])
def test_orbit_points_on_the_imaginary_axis_match_group_bfs(X, center):
    # both points on the axis: half the families come as the mirrors of
    # the others, and the second center is reduced through a deck
    pts = orbit_points(X, center, 1.3)
    brute = _orbit_by_bfs(X, center, 1.3, depth=9)
    got = {(round(float(a), 7), round(float(b), 7))
           for a, b in zip(pts.x, pts.y)}
    assert got == brute
    assert pts.count == len(brute)


@settings(deadline=None)
@given(st.one_of(POINT, AXIS), st.one_of(POINT, AXIS), st.floats(0.05, 3.0))
@example(ModelPoint(0.0, 1.0), ModelPoint(0.1, 1.4), 3.0)  # exact keys
@example(ModelPoint(0.3, 1.1), ModelPoint(-0.2, 0.9), 3.0)  # float keys
@example(ModelPoint(0.0, 3.0), ModelPoint(0.0, 0.4), 3.0)  # mirrors
def test_orbit_count_matches_orbit_points(X, center, tau):
    assert orbit_count(X, center, tau) == orbit_points(X, center, tau).count


def _stabilizer_order(X: ModelPoint) -> int:
    """Order of the stabilizer of X in PSL(2,Z): 2 when X reduces exactly
    onto i, 3 onto rho or rho + 1 (Im the float nearest sqrt(3)/2), else 1."""
    z, _ = reduce_to_fundamental(X)
    if (z.x, z.y) == (0.0, 1.0):
        return 2
    if abs(z.x) == 0.5 and z.y == math.sqrt(3.0) / 2.0:
        return 3
    return 1


def _orbit_by_matrices(X: ModelPoint, center: ModelPoint, tau: float,
                       slack: float = 1e-9, merge: bool = True) -> tuple:
    """Matrix-loop oracle: distinct points gX, g in SL(2,Z), in the ball.

    The entry bounds follow from the radius.  A point of the ball has
    Im >= yc e^{-2 tau}, so |cX + d|^2 <= q = (y0 / yc) e^{2 tau}, which
    bounds |c| and |d|.  It also has |Re - xc| <= yc sinh 2 tau and
    Im <= yc e^{2 tau}, so |gX| <= m, and aX + b = gX (cX + d) bounds a
    and b.  Returns the counts within tau - slack and tau + slack.  With
    merge=False it counts the matrices up to sign instead of the points.
    Two matrices give one point exactly when they differ by a stabilizer
    element, so the points are the matrices up to sign divided by the
    stabilizer's order; no coordinates are compared, so points of an X
    just off a cone point stay apart however close they are.
    """
    x0, y0, xc, yc = X.x, X.y, center.x, center.y
    q = y0 * math.exp(2.0 * tau) / yc
    m = math.hypot(abs(xc) + yc * math.sinh(2.0 * tau),
                   yc * math.exp(2.0 * tau))
    c_max = math.floor(math.sqrt(q) / y0)
    a_max = math.floor(m * math.sqrt(q) / y0)
    b_max = math.floor(m * math.sqrt(q) + a_max * abs(x0))
    mats = [np.empty((0, 4), dtype=int)]
    for c in range(-c_max, c_max + 1):
        d_max = math.floor(abs(c * x0) + math.sqrt(q))
        for d in range(-d_max, d_max + 1):
            if c == 0:
                if abs(d) == 1:
                    b = np.arange(-b_max, b_max + 1)
                    mats.append(np.stack([np.full(b.size, d), b,
                                          np.zeros(b.size, dtype=int),
                                          np.full(b.size, d)], 1))
                continue
            a = np.arange(-a_max, a_max + 1)
            a = a[(a * d - 1) % c == 0]
            b = (a * d - 1) // c
            keep = np.abs(b) <= b_max
            mats.append(np.stack([a[keep], b[keep], np.full(keep.sum(), c),
                                  np.full(keep.sum(), d)], 1))
    g = np.concatenate(mats)
    z0 = complex(x0, y0)
    z = (g[:, 0] * z0 + g[:, 1]) / (g[:, 2] * z0 + g[:, 3])
    dist = 0.5 * hyp_dist_arrays(z.real, z.imag, xc, yc)

    order = _stabilizer_order(X) if merge else 1

    def distinct_within(r, rounding):
        pairs = int((dist <= r).sum()) // 2  # g and -g are both in the loop
        return rounding(pairs / order)

    return (distinct_within(tau - slack, math.floor),
            distinct_within(tau + slack, math.ceil))


RHO = ModelPoint(-0.5, math.sqrt(3.0) / 2.0)


@settings(deadline=None)
@given(POINT, POINT, st.floats(0.05, 1.5))
# entries <= 10 would find 19 of these 21 points
@example(ModelPoint(-1.7461576914190826, 2.6056447187412366),
         ModelPoint(1.959224059686325, 0.5389988513962666), 1.080654853383252)
# nontrivial stabilizers: distinct bottom rows give the same family
@example(ModelPoint(0.0, 1.0), ModelPoint(0.1, 1.4), 1.5)
@example(ModelPoint(0.0, 1.0), ModelPoint(0.0, 1.0), 1.5)
@example(RHO, ModelPoint(0.2, 0.9), 1.5)
@example(RHO, RHO, 1.5)
# near i and rho but not at them: distinct families with keys ~1e-6 apart
@example(ModelPoint(0.0, 1.000001), ModelPoint(0.17, 0.6), 1.5)
@example(ModelPoint(-0.5, 0.866026), ModelPoint(0.17, 0.6), 1.5)
# 1.8e-83 off i: 26 distinct points, which agree with 13 others to 9 digits
@example(ModelPoint(1.830447100410434e-83, 1.0), ModelPoint(0.0, 1.0), 1.0)
def test_orbit_count_matches_matrix_loop(X, center, tau):
    lo, hi = _orbit_by_matrices(X, center, tau)
    assert lo <= orbit_count(X, center, tau) <= hi


# At i and rho, and 1e-10 away from them.  The reference is a count over
# coprime rows and translates without merging: the matrix loop counting
# each +-g once.  It gives 56 and 57 distinct points near i and rho; at
# them the stabilizer, of order 2 and 3, folds those onto 28 and 19.
@pytest.mark.parametrize("X, order, want", [
    (ModelPoint(0.0, 1.0 + 1e-10), 1, 56),
    (ModelPoint(-0.5 + 1e-10, math.sqrt(3.0) / 2.0), 1, 57),
    (ModelPoint(0.0, 1.0), 2, 28),
    (RHO, 3, 19),
], ids=["near_i", "near_rho", "at_i", "at_rho"])
def test_orbit_count_at_and_near_cone_points(X, order, want):
    center = ModelPoint(0.17, 0.6)
    lo, hi = _orbit_by_matrices(X, center, 1.5, merge=False)
    assert lo == hi == order * want
    assert orbit_count(X, center, 1.5) == want


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
    # one walk serves strictly increasing radii only
    for taus in ((), (3.0, 2.0), (2.0, 2.0), (2.0, MAX_ORBIT_RADIUS + 0.1)):
        with pytest.raises(ValueError):
            orbit_counts(X, X, taus)


def test_spread_count_center_included():
    X = ModelPoint(0.0, 37.0)
    n = spread_count(X, 0.5)
    assert n >= 1
    with pytest.raises(ValueError):
        spread_count(X, 0.0)
    with pytest.raises(ValueError):
        spread_count(X, 2.5)


def test_deep_cusp_counts_without_int64_overflow():
    # no c >= 1 family, and round(Im^2) is far past int64
    for y, n_orbit, n_spread in ((1e10, 21932644930929, 20843812219),
                                 (1e12, 2193264493092987, 2084381221975)):
        X = ModelPoint(0.0, y)
        assert orbit_count(X, X, 7.0) == n_orbit
        assert spread_count(X, 0.5) == n_spread


def test_window_edge_past_2_53_raises():
    # above Im X of about 1.3e154, Im X^2 is inf and the (0, 1) family's
    # window edges are nan: refused as an inexact count, not counted as 0,
    # and with no numpy warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in (1e14, 1e16, 1e155, 1e200, 1e300):
            with pytest.raises(OverflowError):
                orbit_count(ModelPoint(0.0, y), ModelPoint(0.0, y), 7.0)
        for y in (1e16, 1e155, 1e200, 1e300):
            with pytest.raises(OverflowError):
                spread_count(ModelPoint(0.0, y), 0.5)
        # the ball about 1e155 i reaches height 1e160 at radius 7, where
        # its slice is inf - inf: a nan slice refuses the count too
        with pytest.raises(OverflowError):
            orbit_count(ModelPoint(0.0, 1e160), ModelPoint(0.0, 1e155), 7.0)
        # the ball about i does not reach it, whose slice is -inf
        assert orbit_count(ModelPoint(0.0, 1e160), ModelPoint(0.0, 1.0),
                           1.0) == 0


def _ext_gcd(a: int, b: int) -> tuple:
    """Scalar extended Euclid with floor division: (g, u, v), a u + b v = g."""
    old_r, r, old_u, u, old_v, v = a, b, 1, 0, 0, 1
    while r != 0:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_u, u = u, old_u - qt * u
        old_v, v = v, old_v - qt * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def test_spread_count_grows_into_cusp():
    thin = spread_count(ModelPoint(0.0, 100.0), 0.5)
    thick = spread_count(ModelPoint(0.0, 1.0), 0.5)
    assert thin > thick


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


CONES = [ModelPoint(x, y) for x, y in _CONE_POINTS]


def _euclid(d: np.ndarray, c: np.ndarray):
    """(u, v) with d u - c v = 1 for coprime rows (c >= 1), vectorised.

    The steps of _ext_gcd(d, -c), run in place on the rows not yet at
    remainder 0, then the sign that makes the gcd 1; v follows from u.
    """
    old_r, r = d.copy(), -c
    old_u, u = np.ones(d.size, np.int64), np.zeros(d.size, np.int64)
    run = np.arange(d.size)
    while run.size:
        a, b = old_r[run], r[run]
        qt = a // b
        nr = a - qt * b
        old_r[run], r[run] = b, nr
        uu = u[run]
        old_u[run], u[run] = uu, old_u[run] - qt * uu
        run = run[nr != 0]
    u = np.where(old_r < 0, -old_u, old_u)
    return u, (d * u - 1) // c


def _family_windows_by_keys(X: ModelPoint, center: ModelPoint, tau: float,
                            block: int = 4096) -> tuple:
    """Key-dedupe oracle for _family_windows at a cone point X.

    Every coprime row of the float window, in (c, d) order and in blocks of
    `block` rows, is cut to the exact window and keyed by the exact family
    key (4q, 4 q re0 mod 4q); a row is kept when no earlier row had its
    key, through np.unique in its block and a sorted array of the keys of
    all earlier blocks.  The windows of the kept rows follow as in
    _family_windows.
    """
    x0, y0, xc, yc = X.x, X.y, center.x, center.y
    n, m = round(2.0 * x0), round(4.0 * y0 * y0)
    ch = math.cosh(2.0 * tau) - 1.0
    y0sq = y0 * y0
    q_max = (y0 / yc) * math.exp(2.0 * tau) * (1.0 + 1e-12)
    c_max = int(math.floor(math.sqrt(max(q_max / y0sq, 0.0))))
    cs, ds = [], []
    for c in range(1, c_max + 1):
        dw = q_max - c * c * y0sq
        if dw < 0.0:
            continue
        w = math.sqrt(dw)
        d = np.arange(math.ceil(-c * x0 - w), math.floor(-c * x0 + w) + 1)
        cs.append(np.full(d.size, c))
        ds.append(d)
    c = np.concatenate([np.zeros(0, np.int64)] + cs)
    d = np.concatenate([np.zeros(0, np.int64)] + ds)
    c, d = c[np.gcd(c, d) == 1], d[np.gcd(c, d) == 1]
    a0, b0 = _euclid(d, c)
    c, d = np.concatenate([[0], c]), np.concatenate([[1], d])
    a0, b0 = np.concatenate([[1], a0]), np.concatenate([[0], b0])
    seen = np.empty(0, complex)
    out = []
    for i in range(0, c.size, block):
        bc, bd, ba, bb = (v[i:i + block] for v in (c, d, a0, b0))
        cn = bc * n + 2 * bd
        q4 = cn * cn + bc * bc * m
        ok = q4 <= 4.0 * q_max
        q4, r4 = q4[ok], ((ba * n + 2 * bb) * cn + ba * bc * m)[ok]
        q, re0 = q4 / 4.0, r4 / q4
        uniq, first = np.unique(q4 + 1j * (r4 % q4), return_index=True)
        pos = np.searchsorted(seen, uniq)
        fresh = np.ones(uniq.size, bool)
        hit = pos < seen.size
        fresh[hit] = seen[pos[hit]] != uniq[hit]
        seen = np.insert(seen, pos[fresh], uniq[fresh])
        new = np.sort(first[fresh])
        q, re0 = q[new], re0[new]
        y_pt = y0 / q
        s = 2.0 * y_pt * yc * ch - (y_pt - yc) ** 2
        live = s >= 0.0
        re0, y_pt, w = re0[live], y_pt[live], np.sqrt(s[live])
        lo = np.ceil(xc - w - re0)
        hi = np.floor(xc + w - re0)
        keep = hi >= lo
        out.append((re0[keep], y_pt[keep], lo[keep].astype(np.int64),
                    hi[keep].astype(np.int64)))
    return tuple(np.concatenate(parts) for parts in zip(*out))


def _unfold_mirror(blocks):
    """A _bottom_rows stream with each row (c, d) of a block of
    multiplicity 2 joined by its mirror (c, -d), which takes its own
    partner from _euclid; every block then has multiplicity 1."""
    for c, d, a0, b0, mult in blocks:
        if mult == 2:
            a1, b1 = _euclid(-d, c)
            c, d, a0, b0 = (np.concatenate(v) for v in
                            ((c, c), (d, -d), (a0, a1), (b0, b1)))
        yield c, d, a0, b0, 1


def _families(X: ModelPoint, center: ModelPoint, tau: float) -> tuple:
    """_family_windows at one radius, with the mirror unfolded: its blocks'
    (re0, y_pt, lo, hi), concatenated, cut to the families with a point
    and with int64 edges, as _family_windows_by_keys lists them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_bottom_rows",
                   lambda *args: _unfold_mirror(_bottom_rows(*args)))
        blocks = [(np.zeros(0),) * 4]  # a ball may hold no family
        blocks += [b[1:5] for b in _family_windows(X, center, (tau,))]
    re0, y_pt, lo, hi = (np.concatenate(v) for v in zip(*blocks))
    keep = hi >= lo
    return (re0[keep], y_pt[keep], lo[keep].astype(np.int64),
            hi[keep].astype(np.int64))


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(CONES), st.one_of(POINT, AXIS), st.floats(0.05, 6.0))
# the radii of the default lattice run, about the cone point itself
@example(CONES[0], CONES[0], 6.0)
@example(CONES[0], CONES[0], 4.0)
@example(CONES[0], CONES[0], 2.0)
@example(CONES[0], CONES[0], 0.5)
@example(CONES[1], CONES[1], 6.0)
@example(CONES[2], CONES[2], 5.0)
# centers near the cone points, and the center of the near-cone tests
@example(CONES[0], ModelPoint(0.0, 1.000001), 3.0)
@example(CONES[1], ModelPoint(-0.5, 0.866026), 3.0)
@example(CONES[2], ModelPoint(0.5 - 1e-10, 0.866026), 3.0)
@example(CONES[1], ModelPoint(0.17, 0.6), 1.5)
# a center too high for the row (0, 1): no family at all
@example(CONES[0], ModelPoint(0.0, 100.0), 1.0)
def test_stabilizer_fold_matches_key_dedupe(X, center, tau):
    # the same families, as a set: keeping another row of a family would
    # shift its re0, lo and hi by an integer
    center, _ = reduce_to_fundamental(center)
    got = _families(X, center, tau)
    want = _family_windows_by_keys(X, center, tau)
    assert [a.dtype for a in got] == [a.dtype for a in want]
    got, want = ([a[np.lexsort(fams[::-1])] for a in fams]
                 for fams in (got, want))
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    # and the count, with each mirror pair of families counted once
    assert orbit_count(X, center, tau) == int((want[3] - want[2] + 1).sum())


def _family_key(row: tuple, n: int, m: int) -> tuple:
    """Exact family key (4q, 4 q re0 mod 4q) of a row, in Python ints."""
    c, d = row
    _, a0, b0 = _ext_gcd(d, -c)  # a0 d - b0 c = 1
    cn = c * n + 2 * d
    q4 = cn * cn + c * c * m
    return q4, ((a0 * n + 2 * b0) * cn + a0 * c * m) % q4


@settings(deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
@example(1, 0)
@example(1, 1)
@example(1, -1)
@example(2, 1)
@example(2, -1)
def test_stabilizer_images_share_the_family_key(c, d):
    g = math.gcd(c, d)
    c, d = c // g, d // g
    for n, m, images in _CONE_POINTS.values():
        key = _family_key((c, d), n, m)
        for al, be, ga, de in images:
            e, f = al * c + be * d, ga * c + de * d
            image = (e, f) if (e, f) > (0, 0) else (-e, -f)
            assert image != (c, d)
            assert _family_key(image, n, m) == key


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(CONES), st.floats(0.0, 14.0).map(math.exp))
@example(CONES[0], 1.0)
@example(CONES[0], math.exp(12.0) * (1.0 + 1e-12))  # i at tau = 6
@example(CONES[1], math.exp(14.0))
# at rho and rho + 1, c = 3 has a float window but no d: (2d - 3)^2 and
# (2d + 3)^2 are at least 1 > 4 q_max - 27
@example(CONES[1], 6.8)
@example(CONES[2], 6.8)
def test_cone_window_is_the_exact_test_within_the_widened_window(X, q_max):
    # the widened float window of each c, as _row_windows builds it, with
    # (0, 1) alone at c = 0, and the d in it that pass the exact test,
    # found one by one in Python ints
    n, m, _ = cone = _CONE_POINTS[X.x, X.y]
    y0sq = X.y * X.y
    wide = [(1, 1)]
    for c in range(1, math.floor(math.sqrt(q_max / y0sq)) + 1):
        dw = q_max - c * c * y0sq
        if dw < 0.0:
            break
        w = math.sqrt(dw)
        wide.append((math.ceil(-c * X.x - w) - 1,
                     math.floor(-c * X.x + w) + 1))
    lo, hi = (np.array([v[i] for v in wide], np.int64) for i in (0, 1))
    _cone_window(cone, q_max, lo, hi)
    for c, (a, b), e, f in zip(range(len(wide)), wide, lo.tolist(),
                               hi.tolist()):
        passed = [d for d in range(a, b + 1)
                  if (c * n + 2 * d) ** 2 + c * c * m <= 4.0 * q_max]
        if passed:
            assert (e, f) == (passed[0], passed[-1])
        else:
            assert (e, f) == (b + 1, b)


@pytest.mark.parametrize("X, order", [(CONES[0], 2), (CONES[1], 3),
                                      (CONES[2], 3)])
def test_coprime_rows_are_order_times_rows_kept(monkeypatch, X, order):
    # The stabilizer acts freely on primitive rows up to sign and keeps the
    # exact window, and the fold keeps one row of each orbit, (0, 1) too.
    # Each row of a block of multiplicity 2, as at i, stands for its mirror.
    sizes = []

    def bottom_rows(*args):
        for block in _bottom_rows(*args):
            sizes.append(block[-1] * block[0].size)
            yield block

    monkeypatch.setattr(lattice, "_bottom_rows", bottom_rows)
    counters = collections.Counter()
    orbit_count(X, X, 6.0, counters)
    assert len(sizes) > 3
    assert counters["lattice.coprime_rows"] == order * sum(sizes)


def _window_args(X: ModelPoint, center: ModelPoint, taus) -> tuple:
    """The arguments _family_windows passes to _row_windows, and whether
    it passes mirror to _bottom_rows."""
    y0sq = X.y * X.y
    q_maxes = [(X.y / center.y) * math.exp(2.0 * tau) * (1.0 + 1e-12)
               for tau in taus]
    return (X.x, y0sq, q_maxes, _CONE_POINTS.get((X.x, X.y)),
            X.x == 0.0 and center.x == 0.0)


def _bottom_rows_by_scan(x0, y0sq, q_max, c_max, cone) -> tuple:
    """Brute-force oracle for _bottom_rows: sorted (c, d, a0, b0), scanned.

    Every row (c, d) of the float window of each c, widened by one at a
    cone point, that np.gcd finds coprime is scanned; at a cone point only
    those within the exact window.  There a row is kept when it is the
    least in (c, d) order of the rows its stabilizer images are, up to
    sign.  Each kept row takes the partner of the scalar _ext_gcd(d, -c).
    """
    widen = 1 if cone else 0
    rows = [(0, 1)] if cone is None or q_max >= 1.0 else []
    for c in range(1, c_max + 1):
        dw = q_max - c * c * y0sq
        if dw < 0.0:
            break
        w = math.sqrt(dw)
        d = np.arange(math.ceil(-c * x0 - w) - widen,
                      math.floor(-c * x0 + w) + widen + 1)
        d = d[np.gcd(c, d) == 1]
        if cone:
            n, m, _ = cone
            d = d[(c * n + 2 * d) ** 2 + c * c * m <= 4.0 * q_max]
        rows += [(c, int(dd)) for dd in d]
    if cone:
        def least(c, d):
            images = [(al * c + be * d, ga * c + de * d)
                      for al, be, ga, de in cone[2]]
            return (c, d) < min(max(g, (-g[0], -g[1])) for g in images)
        kept = [r for r in rows if least(*r)]
    else:
        kept = rows
    return sorted((c, d) + _ext_gcd(d, -c)[1:] for c, d in kept), len(rows)


REDUCED = POINT.map(lambda z: reduce_to_fundamental(z)[0])
# the largest radius drawn with each ROW_BLOCK: with blocks of one word,
# a ball of radius 6 takes some 75,000 blocks and 10 s
BLOCK_TAU = {1: 3.5, 7: 4.5, 100: 6.0, 65_536: 6.0}
# a ROW_BLOCK and one to four strictly increasing radii within its bound
BLOCK_TAUS = st.sampled_from(sorted(BLOCK_TAU)).flatmap(
    lambda block: st.tuples(st.just(block), st.lists(
        st.floats(0.05, BLOCK_TAU[block]), min_size=1, max_size=4,
        unique=True).map(sorted)))
DEFAULT_TAUS = [2.0, 3.0, 4.0, 5.0, 6.0]


# two to four strictly increasing radii within MAX_ORBIT_RADIUS
RADII = st.lists(st.floats(0.05, MAX_ORBIT_RADIUS), min_size=2, max_size=4,
                 unique=True).map(sorted)


@settings(deadline=None)
@given(st.one_of(st.sampled_from(CONES), AXIS, REDUCED),
       st.one_of(POINT, AXIS), RADII)
@example(CONES[0], CONES[0], [2.0, 3.0, 4.0, 5.0, 6.0])
@example(CONES[1], ModelPoint(0.0, 100.0), [0.5, 1.0, 3.0])  # (0, 1) cut
@example(ModelPoint(0.0, 10.0), ModelPoint(0.0, 10.0), [0.05, 7.0])
def test_row_windows_nest(X, center, taus):
    # _family_windows stops cutting a block at the first radius whose
    # window holds none of its rows: for every c, c = 0 too, each radius's
    # window lies within each larger one's, or is empty
    center, _ = reduce_to_fundamental(center)
    lo, hi = _row_windows(*_window_args(X, center, taus)[:4])
    assert len({v.size for v in lo + hi}) == 1
    for k in range(len(taus)):
        for j in range(k + 1, len(taus)):
            empty = lo[k] > hi[k]
            assert np.all(empty | ((lo[j] <= lo[k]) & (hi[k] <= hi[j])))


@settings(deadline=None, max_examples=40)
@given(st.one_of(REDUCED, AXIS), st.one_of(REDUCED, AXIS), BLOCK_TAUS)
@example(CONES[0], CONES[0], (65_536, [6.0]))
@example(CONES[1], CONES[1], (100, [6.0]))
@example(CONES[2], ModelPoint(0.17, 1.1), (7, [4.0]))
@example(CONES[0], ModelPoint(0.0, 100.0), (1, [1.0]))  # no row at all
@example(ModelPoint(0.3, 1.2), ModelPoint(0.1, 1.0), (100, [6.0]))
# the default lattice grid, about each cone point and off them
@example(CONES[0], CONES[0], (65_536, DEFAULT_TAUS))
@example(CONES[1], CONES[1], (100, DEFAULT_TAUS))
@example(CONES[2], CONES[2], (7, [1.0, 2.0, 3.0, 4.0]))
@example(ModelPoint(0.0, 10.0), ModelPoint(0.0, 10.0), (100, DEFAULT_TAUS))
@example(ModelPoint(0.3, 1.2), ModelPoint(0.1, 1.0), (100, [0.5, 6.0]))
# only the last radius holds a row
@example(CONES[0], ModelPoint(0.0, 100.0), (1, [0.5, 1.0, 3.0]))
# the R-runs at i cut to the words with an L-run child, in blocks of one
# word and of seven
@example(CONES[0], CONES[0], (1, [1.0, 2.0, 3.0, 3.5]))
@example(CONES[0], CONES[0], (7, [2.0, 4.5]))
def test_bottom_rows_match_the_window_scan(X, center, block_taus):
    # the walk yields the rows of the largest radius's window; the smaller
    # radii's cuts are checked by test_orbit_counts_equal_the_one_radius_calls
    block, taus = block_taus
    x0, y0sq, q_maxes, cone, mirror = _window_args(X, center, taus)
    lo, hi = _row_windows(x0, y0sq, q_maxes, cone)
    got = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "ROW_BLOCK", block)
        for c, d, a0, b0, _ in _unfold_mirror(
                _bottom_rows(lo[-1], hi[-1], cone, mirror)):
            # every block is bounded: a walk block holds (c, +-e) rows, or
            # rows (c, e) that stand for their mirrors too
            assert c.size <= 2 * block
            got += zip(c.tolist(), d.tolist(), a0.tolist(), b0.tolist())
    c_max = int(math.floor(math.sqrt(max(q_maxes[-1] / y0sq, 0.0))))
    want, rows = _bottom_rows_by_scan(x0, y0sq, q_maxes[-1], c_max, cone)
    assert sorted(got) == want
    # the coprime rows counted: the stabilizer's order per row kept
    assert (len(cone[2]) + 1 if cone else 1) * len(got) == rows


@settings(deadline=None, max_examples=40)
@given(POINT, POINT, BLOCK_TAUS)
@example(CONES[0], CONES[0], (65_536, DEFAULT_TAUS))
@example(CONES[1], CONES[1], (1, [1.0, 2.0, 3.0, 3.5]))
@example(CONES[2], ModelPoint(0.17, 1.1), (7, [0.5, 4.0]))
@example(ModelPoint(0.3, 1.2), ModelPoint(0.1, 1.0), (100, [4.0, 5.0, 6.0]))
@example(ModelPoint(0.0, 10.0), ModelPoint(0.0, 10.0), (100, DEFAULT_TAUS))
# the R-runs at i cut to the words with an L-run child, in blocks of one
# word and of seven, each block cut to every smaller radius
@example(CONES[0], CONES[0], (1, [1.0, 2.0, 3.0, 3.5]))
@example(CONES[0], CONES[0], (7, [2.0, 4.5]))
def test_orbit_counts_equal_the_one_radius_calls(X, center, block_taus):
    # one walk for all the radii gives each radius's count, and the sums
    # of its rows scanned and families kept, as its own walk does
    block, taus = block_taus
    got, want = collections.Counter(), collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "ROW_BLOCK", block)
        counts = orbit_counts(X, center, taus, got)
        assert counts == [orbit_count(X, center, t, want) for t in taus]
    assert got == want


def test_orbit_counts_near_the_largest_radius_hold_no_families():
    # each block of the walk is cut to both radii and counted before the
    # walk goes on, so no row outlives its block, and the walk builds one
    # row of each mirror pair: about 3 MB are traced.  Gathering the rows
    # of tau = 6.5 for a second pass over them traces about 10 MB
    i = ModelPoint(0.0, 1.0)
    tracemalloc.start()
    try:
        assert orbit_counts(i, i, (6.5, 7.0)) == [664_261, 1_804_185]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6
