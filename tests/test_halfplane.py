import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodlab import halfplane
from geodlab.halfplane import (BOUNDARY_TOL, FUND_AREA, TOTAL_FRAME_MEASURE,
                               MappingClass, ModelPoint,
                               ReductionError, ball_slice_sq, hyp_ball_area,
                               hyp_dist,
                               hyp_dist_arrays, reduce_in_place,
                               reduce_points, reduce_to_fundamental,
                               sample_ball_arrays, teich_dist)

# Points anywhere in a wide strip, down to deep cusp heights.
POINTS = st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(1e-6, 1e3)),
                  min_size=1, max_size=20)


def test_model_point_guards():
    with pytest.raises(ValueError):
        ModelPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        ModelPoint(0.0, -1.0)
    with pytest.raises(ValueError):
        ModelPoint(math.inf, 1.0)
    p = ModelPoint(0.25, 2.0)
    assert p.z == complex(0.25, 2.0)


def test_vertical_distance():
    a = ModelPoint(0.0, 1.0)
    b = ModelPoint(0.0, math.e)
    assert hyp_dist(a, b) == pytest.approx(1.0, abs=1e-12)
    assert teich_dist(a, b) == pytest.approx(0.5, abs=1e-12)


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(3)
    pts = [ModelPoint(float(x), float(y))
           for x, y in zip(rng.uniform(-2, 2, 12), rng.uniform(0.1, 5, 12))]
    for a in pts[:4]:
        for b in pts[4:8]:
            assert hyp_dist(a, b) == pytest.approx(hyp_dist(b, a), rel=1e-12)
            assert hyp_dist(a, b) >= 0.0
            for c in pts[8:]:
                assert hyp_dist(a, c) <= hyp_dist(a, b) + hyp_dist(b, c) + 1e-12


def test_dist_arrays_match_scalar():
    rng = np.random.default_rng(4)
    x1, y1 = rng.uniform(-1, 1, 20), rng.uniform(0.2, 4, 20)
    x2, y2 = rng.uniform(-1, 1, 20), rng.uniform(0.2, 4, 20)
    arr = hyp_dist_arrays(x1, y1, x2, y2)
    for i in range(20):
        d = hyp_dist(ModelPoint(x1[i], y1[i]), ModelPoint(x2[i], y2[i]))
        assert arr[i] == pytest.approx(d, rel=1e-12)


def test_ball_areas():
    assert hyp_ball_area(1.0) == pytest.approx(
        2.0 * math.pi * (math.cosh(1.0) - 1.0), rel=1e-12)
    assert hyp_ball_area(0.0) == 0.0


def test_frame_measure_constant():
    assert FUND_AREA == pytest.approx(math.pi / 3.0, rel=1e-15)
    assert TOTAL_FRAME_MEASURE == pytest.approx(2.0 * math.pi ** 2 / 3.0,
                                                rel=1e-15)


def test_isometry_preserves_distance():
    g = MappingClass(3, 2, 4, 3)
    a = ModelPoint(0.4, 1.7)
    b = ModelPoint(-1.1, 0.2)
    assert hyp_dist(g.apply(a), g.apply(b)) == \
        pytest.approx(hyp_dist(a, b), rel=1e-9)


def test_mapping_class_algebra():
    with pytest.raises(ValueError):
        MappingClass(1, 1, 1, 1)
    m = MappingClass(2, 1, 1, 1)
    assert m.a + m.d == 3
    assert (m * m.inverse()) == MappingClass.identity()
    assert hash(m) == hash(MappingClass(2, 1, 1, 1))


def test_reduce_to_fundamental_deck_and_domain():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = ModelPoint(float(rng.uniform(-8, 8)), float(rng.uniform(0.02, 9)))
        w, deck = reduce_to_fundamental(z)
        assert abs(w.x) <= 0.5 + 1e-9
        assert w.x * w.x + w.y * w.y >= 1.0 - 1e-9
        back = deck.apply(z)
        assert back.x == pytest.approx(w.x, abs=1e-7)
        assert back.y == pytest.approx(w.y, rel=1e-7)


def test_reduce_is_idempotent():
    z = ModelPoint(0.37, 0.11)
    w, _ = reduce_to_fundamental(z)
    w2, deck2 = reduce_to_fundamental(w)
    assert deck2 == MappingClass.identity()
    assert w2 == w


def test_reduce_points_matches_scalar():
    rng = np.random.default_rng(8)
    xs = rng.uniform(-5, 5, 40)
    ys = rng.uniform(0.05, 6, 40)
    rx, ry = reduce_points(xs, ys)
    for i in range(40):
        w, _ = reduce_to_fundamental(ModelPoint(xs[i], ys[i]))
        # x is only defined up to the boundary identification of F
        assert ry[i] == pytest.approx(w.y, rel=1e-9)
        assert abs(abs(rx[i]) - abs(w.x)) < 1e-7 or \
            abs(rx[i] - w.x) < 1e-7


@settings(deadline=None)
@given(POINTS)
def test_reduce_points_lands_in_fund(pts):
    x, y = (np.array(c) for c in zip(*pts))
    rx, ry = reduce_points(x, y)
    assert np.all(np.abs(rx) <= 0.5)
    assert np.all(rx * rx + ry * ry >= 1.0 - BOUNDARY_TOL)


@settings(deadline=None)
@given(POINTS)
def test_reduce_points_deck_matches_scalar(pts):
    x, y = (np.array(c) for c in zip(*pts))
    rx, ry, g = reduce_points(x, y, deck=True)
    assert g.dtype == np.int64
    for i, (xi, yi) in enumerate(pts):
        z = ModelPoint(xi, yi)
        w, deck = reduce_to_fundamental(z)
        assert (rx[i], ry[i]) == (w.x, w.y)
        assert tuple(int(v) for v in g[i].ravel()) == deck.entries()
        # float Mobius steps lose digits near the real axis; the hyperbolic
        # distance is the scale-free measure of the residual
        assert hyp_dist(deck.apply(z), w) < 1e-6


@settings(deadline=None)
@given(st.floats(0.01, 0.5), st.booleans())
def test_reduce_points_raises_at_cap(x, negate):
    # one inversion lifts 1e-14 to at most 1e-10: far short of F
    with pytest.MonkeyPatch.context() as mp, pytest.raises(ReductionError):
        mp.setattr(halfplane, "MAX_INVERSIONS", 1)
        reduce_points([-x if negate else x], [1e-14])


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@settings(deadline=None)
@given(POINTS, st.booleans())
def test_reduce_points_copies_then_runs_the_in_place_core(pts, deck):
    x, y = (np.array(c) for c in zip(*pts))
    x0, y0 = x.copy(), y.copy()
    out = reduce_points(x, y, deck=deck)
    assert np.array_equal(_bits(x), _bits(x0))
    assert np.array_equal(_bits(y), _bits(y0))
    g = np.tile(np.eye(2, dtype=np.int64), (x.size, 1, 1)) if deck else None
    reduce_in_place(x, y, g)  # the inputs themselves, now overwritten
    assert np.array_equal(_bits(out[0]), _bits(x))
    assert np.array_equal(_bits(out[1]), _bits(y))
    if deck:
        assert np.array_equal(out[2], g)


def test_reduce_in_place_raises_at_cap_and_on_deck_overflow(monkeypatch):
    with monkeypatch.context() as mp, pytest.raises(ReductionError):
        mp.setattr(halfplane, "MAX_INVERSIONS", 1)
        reduce_in_place(np.array([0.3]), np.array([1e-14]))
    # the translation 3e19 does not fit in an int64 deck entry
    g = np.eye(2, dtype=np.int64)[None]
    with pytest.raises(ReductionError):
        reduce_in_place(np.array([3e19]), np.array([1.0]), g)


def test_reduce_points_deep_cusp_batch(monkeypatch):
    rng = np.random.default_rng(12)
    x = rng.uniform(-0.5, 0.5, 1000)
    y = np.full(1000, 1e-14)
    with monkeypatch.context() as mp, pytest.raises(ReductionError):
        mp.setattr(halfplane, "MAX_INVERSIONS", 5)
        reduce_points(x, y)
    rx, ry = reduce_points(x, y)
    assert np.all(rx * rx + ry * ry >= 1.0 - BOUNDARY_TOL)


def test_reduce_points_shapes_and_chunks():
    rng = np.random.default_rng(13)
    x = rng.uniform(-3, 3, (3, 50_000))
    y = rng.uniform(0.01, 3, (3, 50_000))
    x0 = x.copy()
    rx, ry, g = reduce_points(x, y, deck=True)
    assert np.array_equal(x, x0)  # inputs are copied, not reduced in place
    assert rx.shape == ry.shape == x.shape and g.shape == x.shape + (2, 2)
    fx, fy = reduce_points(x.ravel(), y.ravel())  # spans several chunks
    assert np.array_equal(fx, rx.ravel()) and np.array_equal(fy, ry.ravel())
    sx, sy = reduce_points(0.3, 0.2)
    assert np.ndim(sx) == 0 and sx * sx + sy * sy >= 1.0 - BOUNDARY_TOL


def test_sample_ball_stays_in_ball():
    rng = np.random.default_rng(9)
    center = ModelPoint(0.3, 2.0)
    xs, ys = sample_ball_arrays(center, 1.5, 4000, rng)
    d = hyp_dist_arrays(xs, ys, np.full(4000, center.x), np.full(4000, center.y))
    assert float(d.max()) <= 3.0 + 1e-9  # hyp radius is twice teich radius
    # area-uniform: P(d <= rho) = (cosh rho - 1)/(cosh 2r - 1)
    med = (math.cosh(3.0) - 1.0) / 2.0
    rho_med = math.acosh(1.0 + med)
    frac = float((d <= rho_med).mean())
    assert abs(frac - 0.5) < 0.03


def test_sample_ball_zero_radius_and_scalar():
    rng = np.random.default_rng(10)
    center = ModelPoint(-0.2, 0.7)
    xs, ys = sample_ball_arrays(center, 0.0, 5, rng)
    assert np.all(xs == center.x) and np.all(ys == center.y)
    x, y = sample_ball_arrays(center, 0.8, 1, rng)
    p = ModelPoint(float(x[0]), float(y[0]))
    assert teich_dist(p, center) <= 0.8 + 1e-9
    with pytest.raises(ValueError):
        sample_ball_arrays(center, -0.1, 3, rng)


def test_sample_ball_deterministic():
    center = ModelPoint(0.0, 1.0)
    a = sample_ball_arrays(center, 2.0, 10, np.random.default_rng(11))
    b = sample_ball_arrays(center, 2.0, 10, np.random.default_rng(11))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_sample_ball_draws_radii_then_angles_through_the_disk():
    # bit for bit the inverse CDF in rho, then the disk -> H map and the
    # affine move, with the radii drawn before the angles
    center = ModelPoint(0.3, 2.0)
    xs, ys = sample_ball_arrays(center, 1.5, 500, np.random.default_rng(12))
    rng = np.random.default_rng(12)
    u = rng.random(500)
    rho = np.arccosh(1.0 + u * (math.cosh(3.0) - 1.0))
    w = np.tanh(rho / 2.0) * np.exp(1j * (rng.random(500) * 2.0 * math.pi))
    z = center.x + center.y * ((1j - 1j * w) / (1.0 + w))
    assert np.array_equal(xs, z.real) and np.array_equal(ys, z.imag)


def test_ball_slice_ends_lie_on_the_sphere():
    center, r = ModelPoint(0.3, 2.0), 1.2
    ch = math.cosh(2.0 * r) - 1.0
    for y in (0.3, 1.0, 2.0, 9.0):
        half = math.sqrt(ball_slice_sq(y, center.y, ch))
        for x in (center.x - half, center.x + half):
            assert teich_dist(ModelPoint(x, y), center) == pytest.approx(r)
    # heights past the ball's top and bottom miss it
    top, bottom = center.y * math.exp(2.0 * r), center.y * math.exp(-2.0 * r)
    assert ball_slice_sq(top * 1.01, center.y, ch) < 0.0
    assert ball_slice_sq(bottom * 0.99, center.y, ch) < 0.0
