import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodlab.halfplane import ModelPoint
from geodlab.torus import (MAX_SYSTOLE, BiasParams, CurveClass,
                           extremal_length, systole, systole_values)


def test_curve_class_normalization():
    with pytest.raises(ValueError):
        CurveClass(2, 4)
    with pytest.raises(ValueError):
        CurveClass(1, -1)
    assert CurveClass.normalized(-3, -6) == CurveClass(1, 2)
    assert CurveClass.normalized(-2, 0) == CurveClass(1, 0)
    with pytest.raises(ValueError):
        CurveClass.normalized(0, 0)


def test_extremal_length_formula():
    z = ModelPoint(0.3, 1.7)
    c = CurveClass(2, 3)
    expect = ((2 + 3 * 0.3) ** 2 + (3 * 1.7) ** 2) / 1.7
    assert extremal_length(c, z.x, z.y) == pytest.approx(expect, rel=1e-15)
    # scaling: Ext((1,0), x+iy) = 1/y
    assert extremal_length(CurveClass(1, 0), 0.0, 4.0) == \
        pytest.approx(0.25, rel=1e-15)


def test_systole_deep_cusp():
    c, v = systole(ModelPoint(0.0, 10.0))
    assert c == CurveClass(1, 0)
    assert v == pytest.approx(0.1, rel=1e-12)


def test_systole_far_up_the_cusp_does_not_overflow():
    # (q y)^2 leaves float range above y ~ 1.3e154; above y = 1 in F the
    # class (1, 0) is strictly shortest and the only one evaluated
    assert systole(ModelPoint(0.0, 1e160)) == (CurveClass(1, 0), 1e-160)


@settings(deadline=None)
@given(st.floats(-20.0, 20.0), st.floats(1e150, 1e300))
def test_systole_deep_in_the_cusp_is_one_over_y(x, y):
    assert systole(ModelPoint(x, y)) == (CurveClass(1, 0), 1.0 / y)


def test_systole_after_deck_translation():
    # same point marked through z -> z + 5: shortest class pulls back
    c, v = systole(ModelPoint(5.0, 10.0))
    assert v == pytest.approx(0.1, rel=1e-12)
    assert extremal_length(c, 5.0, 10.0) == pytest.approx(v, rel=1e-9)


def test_systole_after_inversion():
    # z = -1/w for w = 10i gives y = 0.1; the short curve there is (0,1)
    c, v = systole(ModelPoint(0.0, 0.1))
    assert v == pytest.approx(0.1, rel=1e-12)
    assert extremal_length(c, 0.0, 0.1) == pytest.approx(v, rel=1e-9)


def test_max_systole_at_hexagonal_point():
    corner = ModelPoint(0.5, math.sqrt(3.0) / 2.0)
    _, v = systole(corner)
    assert v == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)
    assert v == pytest.approx(MAX_SYSTOLE, rel=1e-12)
    # nothing beats it on a random sweep
    rng = np.random.default_rng(2)
    vals = systole_values(rng.uniform(-3, 3, 2000), rng.uniform(0.05, 5, 2000))
    assert float(vals.max()) <= MAX_SYSTOLE + 1e-9


def test_systole_is_min_over_curves():
    rng = np.random.default_rng(5)
    curves = [CurveClass.normalized(p, q)
              for p in range(-6, 7) for q in range(0, 7)
              if (p, q) != (0, 0) and math.gcd(p, q) == 1]
    for _ in range(25):
        z = ModelPoint(float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 3)))
        c, v = systole(z)
        brute = min(extremal_length(k, z.x, z.y) for k in curves)
        assert v == pytest.approx(brute, rel=1e-9)
        assert extremal_length(c, z.x, z.y) == pytest.approx(v, rel=1e-9)


def test_systole_values_matches_scalar():
    rng = np.random.default_rng(6)
    xs = rng.uniform(-4, 4, 60)
    ys = rng.uniform(0.02, 6, 60)
    vals = systole_values(xs, ys)
    for i in range(60):
        _, v = systole(ModelPoint(xs[i], ys[i]))
        assert vals[i] == pytest.approx(v, rel=1e-9)


POINT_X = st.floats(-20.0, 20.0)
POINT_Y = st.floats(1e-3, 1e3)


@settings(deadline=None)
@given(POINT_X, POINT_Y)
def test_systole_values_invariant_under_t_and_s(x, y):
    r2 = x * x + y * y
    v = systole_values(np.array([x, x + 1.0, -x / r2]),
                       np.array([y, y, y / r2]))
    assert v[1] == pytest.approx(v[0], rel=1e-9)
    assert v[2] == pytest.approx(v[0], rel=1e-9)


@settings(deadline=None)
@given(POINT_X, POINT_Y)
def test_systole_values_equals_scalar_systole(x, y):
    _, v = systole(ModelPoint(x, y))
    assert float(systole_values(np.array([x]), np.array([y]))[0]) == \
        pytest.approx(v, rel=1e-9)


def test_bias_params_default_ladder():
    p = BiasParams.default(m=1, tau=3.0)
    assert p.log_K == pytest.approx(6.0 + math.log1p(1e-3), rel=1e-12)
    assert p.log_eps == pytest.approx(-3.0 * p.log_K - math.log(2.0),
                                      rel=1e-12)
    assert p.log_eps_prime == pytest.approx(
        p.log_eps - 2.0 * p.log_K, rel=1e-12)


def test_bias_params_validation_errors():
    good = BiasParams.default(m=1, tau=3.0)
    with pytest.raises(ValueError, match="top eps"):  # eps too big
        BiasParams(1, 3.0, 6.001, math.log(0.5),
                   good.log_eps_prime).validate()
    with pytest.raises(ValueError, match="K must exceed"):  # K too small
        BiasParams(1, 3.0, 0.0, math.log(1e-9),
                   good.log_eps_prime).validate()
