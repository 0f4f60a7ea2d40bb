import math
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from geodlab.halfplane import ModelPoint
from geodlab.products import (MAX_CONTRACTION_RADIUS, ContractionCheck,
                              _quad, _ring_average,
                              classify_region, contraction_ratio_exact,
                              verify_contraction, verify_system)
from geodlab.torus import BIAS_EXPONENT, BiasParams


def _mc_contraction(tau, s, n, seed):
    # independent route: disk-model sampling instead of the polar quadrature
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    rho = np.arccosh(1.0 + u * (math.cosh(2.0 * tau) - 1.0))
    ang = rng.random(n) * 2.0 * math.pi
    w = np.tanh(rho / 2.0) * np.exp(1j * ang)
    z = (1j - 1j * w) / (1.0 + w)
    return float((z.imag ** s).mean())


def test_contraction_ratio_frozen_values():
    assert contraction_ratio_exact(3.0) == pytest.approx(0.343141689, abs=2e-9)
    assert contraction_ratio_exact(7.0) == pytest.approx(0.0155421038,
                                                         abs=2e-9)


@pytest.mark.parametrize("tau, s", [(3.0, 0.5), (7.0, 0.5)])
def test_contraction_ratio_is_bit_identical_to_the_plain_nested_quad(tau, s):
    # the integrand with cosh and sinh evaluated at every call: any
    # drift, even below the 9 printed digits, fails.
    # At tau = 7 most quadratures stop unconverged, so their subdivision
    # must match too; quad warns there, which is expected here.
    def ring(rho):
        return quad(lambda t: (math.cosh(rho) - math.sinh(rho) * math.cos(t))
                    ** (-s), 0.0, 2.0 * math.pi, limit=200)[0]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val = quad(lambda p: ring(p) * math.sinh(p), 0.0, 2.0 * tau,
                   limit=400)[0]
    area = 2.0 * math.pi * (math.cosh(2.0 * tau) - 1.0)
    assert s == BIAS_EXPONENT
    assert contraction_ratio_exact(tau) == val / area


@pytest.mark.parametrize("tau, unconverged", [(3.0, 0), (7.0, 128)])
def test_direct_qagse_matches_quad(tau, unconverged):
    # the outer quadrature and every inner one it asks for, through _quad
    # and through quad: the same value bits, evaluation counts and
    # unconverged flags.  At tau = 7, 127 inner results and the outer
    # one miss their tolerance.
    rhos = []

    def outer(p):
        rhos.append(p)
        return _ring_average(p) * math.sinh(p)

    def both(f, b, limit):
        counters = Counter()
        got = _quad(f, 0.0, b, limit, counters)
        ref = quad(f, 0.0, b, limit=limit, full_output=1)
        assert got == (ref[0], ref[2]["neval"])
        assert counters["bias.quad_unconverged"] == int(len(ref) > 3)
        return counters["bias.quad_unconverged"]

    missed = both(outer, 2.0 * tau, 400)
    for rho in sorted(set(rhos)):
        ch, sh = math.cosh(rho), math.sinh(rho)
        missed += both(lambda t: (ch - sh * math.cos(t)) ** -0.5,
                       2.0 * math.pi, 200)
    assert missed == unconverged


def test_direct_qagse_raises_on_invalid_input_as_quad_does():
    with pytest.raises(ValueError):
        quad(math.cos, 0.0, 1.0, limit=0)
    with pytest.raises(ValueError, match="ier = 6"):
        _quad(math.cos, 0.0, 1.0, 0, Counter())


def test_contraction_ratio_matches_sampling():
    for tau in (1.0, 3.0):
        exact = contraction_ratio_exact(tau)
        mc = _mc_contraction(tau, 0.5, 400000, seed=21)
        assert abs(mc - exact) / exact < 0.02


def test_contraction_ratio_guards():
    with pytest.raises(ValueError):
        contraction_ratio_exact(0.0)


def test_contraction_ratio_monotone_decreasing():
    vals = [contraction_ratio_exact(t) for t in (2.0, 3.0, 4.0, 5.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_verify_contraction_seeded():
    chk = verify_contraction(1, 3.0, 30000, np.random.default_rng(31))
    assert isinstance(chk, ContractionCheck)
    assert chk.exact == pytest.approx(contraction_ratio_exact(3.0), rel=1e-12)
    assert abs(chk.estimate - chk.exact) <= 3.0 * chk.sigma + 1e-12
    assert chk.sigma > 0


def test_verify_contraction_product_rule():
    # two factors average to the square of one factor
    chk = verify_contraction(2, 3.0, 60000, np.random.default_rng(32))
    assert chk.exact == pytest.approx(contraction_ratio_exact(3.0) ** 2,
                                      rel=1e-12)
    assert abs(chk.estimate - chk.exact) <= 3.0 * chk.sigma + 1e-12


def test_classify_region_threshold():
    params = BiasParams.default(m=1, tau=3.0)
    y_edge = math.exp(-params.log_eps_prime)
    assert classify_region(ModelPoint(0.0, y_edge * 1.01), params) == 1
    assert classify_region(ModelPoint(0.0, y_edge * 0.99), params) == 0
    # systole 1 is far above eps'_1; systole e^-40 far below it
    assert classify_region(ModelPoint(0.0, 1.0), params) == 0
    assert classify_region(ModelPoint(0.0, math.exp(40.0)), params) == 1


def test_verify_system_thin_and_thick():
    params = BiasParams.default(m=1, tau=3.0)
    c = contraction_ratio_exact(3.0)
    rng = np.random.default_rng(41)
    thin = [ModelPoint(0.0, math.exp(38.0)), ModelPoint(0.25, math.exp(41.0))]
    thick = [ModelPoint(0.0, 1.2)]
    rep = verify_system(params, thin, c, 3.0, 4000, rng)
    assert len(rep.checks) == 4  # two readings per thin point
    for k in rep.checks:
        assert k.reading in ("u_tail", "u")
        assert k.sigma > 0
    assert max(k.excess / k.sigma for k in rep.checks) < 5.0
    assert rep.passed
    # deep in the cusp the systole is 1/y, so f_1 = (eps_1 y)^(1/2), u = 1 + f_1
    inv2K = 0.5 * math.exp(-params.log_K)
    for z, tail, full in zip(thin, rep.checks[::2], rep.checks[1::2]):
        f1 = math.sqrt(math.exp(params.log_eps) * z.y)
        assert (tail.reading, full.reading) == ("u_tail", "u")
        assert tail.bound == pytest.approx(c + ((1.0 + f1) / f1) * inv2K,
                                           rel=1e-12)
        assert full.bound == pytest.approx(c + inv2K + 1.0 / (1.0 + f1),
                                           rel=1e-12)
    # a thick centre, where u's constant term leaves nothing to check,
    # is refused wherever it stands in the list
    for centers in (thick, thin + thick, thick + thin):
        with pytest.raises(ValueError, match="outside the cusp region"):
            verify_system(params, centers, c, 3.0, 4000, rng)


def test_verify_system_guards():
    params = BiasParams.default(m=1, tau=3.0)
    c = contraction_ratio_exact(3.0)
    rng = np.random.default_rng(42)
    deep = [ModelPoint(0.0, math.exp(40.0))]
    with pytest.raises(ValueError):
        verify_system(params, deep, c, 3.0, 100, rng)
    with pytest.raises(ValueError, match="outside the cusp region"):
        verify_system(params, [ModelPoint(0.0, 1.2)], c, 3.0, 4000, rng)
    with pytest.raises(ValueError):
        verify_system(BiasParams.default(m=2, tau=2.0), deep, c, 3.0, 4000,
                      rng)


def test_contraction_ratio_refuses_radii_past_its_maximum():
    assert contraction_ratio_exact(MAX_CONTRACTION_RADIUS) > 0.0
    for tau in (np.nextafter(MAX_CONTRACTION_RADIUS, math.inf), 10.0, 50.0):
        with pytest.raises(ValueError, match="radius must lie in"):
            contraction_ratio_exact(tau)
