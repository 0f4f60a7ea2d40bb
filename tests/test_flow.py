import math

import numpy as np
import pytest

from geodlab import flow as flow_module
from geodlab.halfplane import ModelPoint, ReductionError
from geodlab.flow import (MAX_BOX_FRACTION, MAX_MIX_SAMPLES, MAX_MIX_TIME,
                          MIN_MIXING_SAMPLES, axis_distance,
                          closing_constants, flow,
                          frame_base_dir, frames_from_points, in_box,
                          margulis_count, measure_box, mixing_correlation,
                          recurrence_fraction, reduce_frames, sample_box,
                          sample_fund, sample_fund_frames)
from geodlab.words import word_to_matrix


def test_frame_roundtrip():
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, 30)
    y = rng.uniform(0.2, 4, 30)
    th = rng.uniform(0, 2 * math.pi, 30)
    A = frames_from_points(x, y, th)
    assert np.allclose(np.linalg.det(A), 1.0, atol=1e-9)
    bx, by, bth = frame_base_dir(A)
    assert np.allclose(bx, x, atol=1e-9)
    assert np.allclose(by, y, rtol=1e-9)
    assert np.allclose(np.mod(bth - th, 2 * math.pi) % (2 * math.pi), 0.0,
                       atol=1e-9) or np.allclose(
        np.minimum(np.mod(bth - th, 2 * math.pi),
                   2 * math.pi - np.mod(bth - th, 2 * math.pi)), 0.0,
        atol=1e-9)


def test_flow_moves_upward_frame():
    A = frames_from_points(np.array([0.0]), np.array([1.0]),
                           np.array([math.pi / 2]))
    B = flow(A, 1.0)
    bx, by, _ = frame_base_dir(B)
    assert bx[0] == pytest.approx(0.0, abs=1e-12)
    # unit of flow time is half the hyperbolic displacement
    assert by[0] == pytest.approx(math.exp(2.0), rel=1e-12)


def test_flow_additivity():
    rng = np.random.default_rng(3)
    A = frames_from_points(rng.uniform(-1, 1, 5), rng.uniform(0.5, 2, 5),
                           rng.uniform(0, 2 * math.pi, 5))
    assert np.allclose(flow(flow(A, 0.7), 0.5), flow(A, 1.2), rtol=1e-12)


def test_reduce_frames_lands_in_fund():
    rng = np.random.default_rng(4)
    A = frames_from_points(rng.uniform(-4, 4, 50), rng.uniform(0.05, 6, 50),
                           rng.uniform(0, 2 * math.pi, 50))
    g, B = reduce_frames(A)
    x, y, _ = frame_base_dir(B)
    assert np.all(np.abs(x) <= 0.5 + 1e-9)
    assert np.all(x * x + y * y >= 1.0 - 1e-9)
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    assert np.all(det == 1)
    assert np.array_equal(B, g @ A)


def test_reduce_frames_refuses_int64_overflow():
    # the translation 3e19 does not fit in an int64 deck entry
    with pytest.raises(ReductionError):
        reduce_frames(frames_from_points([3e19], [1.0], [0.3]))


def test_sample_fund_in_domain():
    x, y = sample_fund(2000, np.random.default_rng(5))
    assert np.all(np.abs(x) <= 0.5)
    assert np.all(x * x + y * y >= 1.0 - 1e-12)
    x2, y2, th = sample_fund_frames(50, np.random.default_rng(6))
    assert np.all((0 <= th) & (th < 2 * math.pi))


def test_box_measure_fraction():
    box = measure_box(0.02)
    assert box.fraction == pytest.approx(0.02, rel=1e-12)
    assert box.dtheta == pytest.approx(0.461946127, abs=1e-8)
    with pytest.raises(ValueError):
        measure_box(0.5)  # angle > 2pi
    with pytest.raises(ValueError):
        measure_box(0.0)
    # the largest fraction takes every angle, and the next float up
    # would need more
    assert measure_box(MAX_BOX_FRACTION).dtheta == 2.0 * math.pi
    with pytest.raises(ValueError, match="fraction too large"):
        measure_box(np.nextafter(MAX_BOX_FRACTION, 1.0))


def test_sample_box_membership():
    box = measure_box(0.02)
    A = sample_box(box, 500, np.random.default_rng(7))
    assert bool(np.all(in_box(box, A)))
    # points outside: flow far and most leave
    B = flow(A, 3.0)
    assert float(in_box(box, B).mean()) < 0.05


def test_mixing_guards():
    box = measure_box(0.02)
    with pytest.raises(ValueError):
        mixing_correlation(box, 3.0, 100, np.random.default_rng(8))


def test_mixing_estimate_short_time_self_correlation():
    # at t = 0 the correlation is the full fraction, far above fraction^2
    box = measure_box(0.02)
    est = mixing_correlation(box, 0.0, 20000, np.random.default_rng(9))
    assert est.estimate == pytest.approx(box.fraction, rel=1e-9)
    assert est.z_score > 10.0


def test_mixing_estimate_converges():
    box = measure_box(0.02)
    est = mixing_correlation(box, 6.0, 200000, np.random.default_rng(10))
    assert abs(est.diff) <= 4.0 * est.std_error
    assert est.target == pytest.approx(0.0004, rel=1e-12)


def test_closing_constants_frozen():
    box = measure_box(0.02)
    c1, eps = closing_constants(box, 3.0)
    assert c1 == pytest.approx(0.531983896, abs=1e-8)
    assert eps == pytest.approx(0.54166505, abs=1e-8)
    with pytest.raises(ValueError):
        closing_constants(box, 0.2)


def test_census_ladder_frozen():
    box = measure_box(0.02)
    expected = ((3.0, 32000, 11, 15, 1.85906413),
                (4.0, 236449, 12, 59, 0.989614752),
                (5.0, 1747292, 13, 480, 1.089597764))
    for t, n, seed, comps, ratio in expected:
        census = margulis_count(box, t, n, np.random.default_rng(seed))
        assert census.component_count == comps
        assert census.count_ratio == pytest.approx(ratio, rel=1e-6)
        assert census.nonhyperbolic_events == 0
        c1, eps = closing_constants(box, t)
        assert census.worst_length_gap <= 2.0 * c1
        assert 2.0 * census.worst_axis_dist <= eps
        assert census.frac_within_3x >= 0.8


def test_census_refuses_a_deck_without_determinant_1(monkeypatch):
    def doubled_decks(A):
        g, B = reduce_frames(A)
        return 2 * g, B  # determinant 4, trace still above 2

    monkeypatch.setattr(flow_module, "reduce_frames", doubled_decks)
    with pytest.raises(ArithmeticError, match="determinant 1"):
        margulis_count(measure_box(0.02), 3.0, 32000, np.random.default_rng(11))


def test_axis_distance_on_and_off_axis():
    m = word_to_matrix((1, 1))
    tr = m.a + m.d
    disc = math.sqrt(tr * tr - 4.0)
    c0 = (m.a - m.d) / (2.0 * m.c)
    r0 = disc / (2.0 * m.c)
    key = (m.a, m.b, m.c, m.d)
    assert axis_distance(key, ModelPoint(c0, r0)) <= 1e-9
    assert axis_distance(key, ModelPoint(c0, 3.0 * r0)) > 0.3
    with pytest.raises(ValueError):
        axis_distance((1, 1, 0, 1), ModelPoint(0.0, 1.0))


def test_recurrence_fraction_seeded():
    res = recurrence_fraction(4000, 4, 0.25, 0.5, np.random.default_rng(12))
    assert len(res.fractions) == 4
    assert all(0.0 <= f <= 1.0 for f in res.fractions)
    res2 = recurrence_fraction(4000, 4, 0.25, 0.5, np.random.default_rng(12))
    assert res.fractions == res2.fractions
    assert math.isfinite(res.decay_exponent)


def test_recurrence_guards():
    rng = np.random.default_rng(13)
    with pytest.raises(ValueError):
        recurrence_fraction(100, 1, 0.25, 0.5, rng)
    with pytest.raises(ValueError):
        recurrence_fraction(100, 4, 1.5, 0.5, rng)
    with pytest.raises(ValueError):
        recurrence_fraction(100, 4, 0.25, 0.0, rng)


def test_mixing_refuses_flow_times_past_its_maximum():
    box = measure_box(0.02)
    est = mixing_correlation(box, MAX_MIX_TIME, 20000,
                             np.random.default_rng(13))
    assert abs(est.diff) <= 4.0 * est.std_error
    for t in (np.nextafter(MAX_MIX_TIME, math.inf), 40.0,
              -MAX_MIX_TIME * 1.01):
        with pytest.raises(ValueError, match="flow time must lie in"):
            mixing_correlation(box, t, 20000, np.random.default_rng(13))


def test_mixing_refuses_sample_counts_past_its_bounds():
    # refused before any frame is drawn
    box = measure_box(0.02)
    for n in (MIN_MIXING_SAMPLES - 1, MAX_MIX_SAMPLES + 1):
        with pytest.raises(ValueError, match="n must be"):
            mixing_correlation(box, 1.0, n, np.random.default_rng(13))
