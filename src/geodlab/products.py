"""Ball averaging of the cusp weights and the averaged inequality system.

A product of m once-punctured tori carries the sup metric, and deep in
a cusp each factor's systole is exactly 1/Im, so the average of the
contraction ratio (l(X)/l(z))^s, s = BIAS_EXPONENT = 1/2, over a ball is
an explicit two-dimensional integral, raised to the m-th power for m
factors; the Monte Carlo checks are compared against that quadrature.
The ladder inequalities are verified pointwise for one factor (m = 1)
at centres deep in the cusp, where the bias functions are
f_1 = (eps_1 / l)^s and u = 1 + f_1, with normalized statistics whose
ratios never leave float range.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
import numpy.random  # cli.worker_stream's generators; numpy loads it lazily

from .halfplane import ModelPoint, sample_ball_arrays
from .torus import BIAS_EXPONENT, BiasParams, systole, systole_values

# The largest radius contraction_ratio_exact integrates over.  Its
# integrand (cosh rho - sinh rho cos t)^-s peaks where the base is
# cosh rho - sinh rho = e^-rho, which float64 forms with a relative error
# of about e^{2 rho} 2^-53: 1.6e-4 at the rim, rho = 2 tau, of tau = 7.
# Past 7 that error grows e^4-fold per unit of tau, the quadrature
# subdivides ever more (8 times the time at tau = 8 as at 7, over 100
# times at 9), and near tau = 9.2 the base rounds to 0, where the
# negative power divides by zero.
MAX_CONTRACTION_RADIUS = 7.0

# ---------------------------------------------------------------------------
# Exact ball average of the single-factor contraction ratio, deep in a cusp.


@functools.cache
def _qagse():
    """QUADPACK's qagse, the routine scipy.integrate.quad runs on a finite
    interval, loaded on first use from scipy's _quadpack extension file.

    The file is loaded on its own, so scipy/integrate/__init__.py and what
    it imports (scipy.special among them), about 0.6 s, never run.  The
    extension's first call imports scipy._lib._ccallback for its callback
    wrapper, and with it scipy/__init__.py: about 15 ms, paid by the
    first quadrature.  The extension registers itself in sys.modules
    under its own name, where a later `import scipy.integrate` finds and
    shares it.
    """
    scipy = importlib.util.find_spec("scipy")
    spec = None if scipy is None else FileFinder(
        os.path.join(scipy.submodule_search_locations[0], "integrate"),
        (ExtensionFileLoader, EXTENSION_SUFFIXES),
    ).find_spec("scipy.integrate._quadpack")
    if spec is None:
        raise ModuleNotFoundError("the ball-average quadrature needs scipy's "
                                  "QUADPACK extension, scipy/integrate/_quadpack")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._qagse


def _quad(f, a: float, b: float, limit: int, counters) -> tuple:
    """quad(f, a, b, limit=limit)'s value and its number of integrand
    evaluations, from the same qagse call with quad's default tolerances.

    QUADPACK's ier decides the rest, as quad decides it:
    - 0: converged.
    - 1-5 and 7: a result that misses its tolerance (subdivision limit,
      roundoff, bad integrand, divergence, extrapolation).  Its value is
      still returned; with a counters mapping, 'bias.quad_unconverged'
      counts it.
    - 6 (invalid input, such as limit < 1), 80 (scipy's code for a failed
      integrand call) and any other: ValueError.  An exception the
      integrand raises propagates as it is.
    """
    # (value, error, info, ier), or (value, error, ier) on invalid input
    out = _qagse()(f, a, b, (), 1, 1.49e-8, 1.49e-8, limit)
    ier = out[-1]
    if ier not in (0, 1, 2, 3, 4, 5, 7):
        raise ValueError(f"QUADPACK qagse stopped with ier = {ier}")
    if counters is not None:
        counters["bias.quad_unconverged"] += int(ier != 0)
    return out[0], out[2]["neval"]


def _ring_average(rho: float, counters=None) -> float:
    # cosh, sinh and the exponent are fixed for one ring; hoisting them
    # leaves every integrand value, and so quad's subdivision, unchanged
    ch, sh, e, cos = math.cosh(rho), math.sinh(rho), -BIAS_EXPONENT, math.cos
    val, neval = _quad(lambda t: (ch - sh * cos(t)) ** e,
                       0.0, 2.0 * math.pi, 200, counters)
    if counters is not None:
        counters["bias.inner_quads"] += 1
        counters["bias.integrand_evals"] += neval
    return val


def contraction_ratio_exact(tau: float, counters=None) -> float:
    """Ball average of (l(X)/l(z))^s, s = BIAS_EXPONENT, over the
    radius-tau ball, deep in a cusp.

    Depth makes the systole exactly 1/Im, so the ratio depends only on the
    hyperbolic polar coordinates and the average is a plain double integral
    over the radius-2*tau hyperbolic ball.  With a counters mapping, adds
    the inner quadratures, their integrand evaluations and the quadratures
    that did not converge under 'bias.*'.
    """
    if not 0.0 < tau <= MAX_CONTRACTION_RADIUS:
        raise ValueError(f"radius must lie in (0, {MAX_CONTRACTION_RADIUS}]")
    area = 2.0 * math.pi * (math.cosh(2.0 * tau) - 1.0)
    val, _ = _quad(lambda p: _ring_average(p, counters) * math.sinh(p),
                   0.0, 2.0 * tau, 400, counters)
    return val / area


@dataclass(frozen=True)
class ContractionCheck:
    samples: int
    exact: float
    estimate: float
    sigma: float


def verify_contraction(j: int, tau: float, n: int, rng,
                       counters=None) -> ContractionCheck:
    """Monte Carlo ball average of the j-factor ratio against the quadrature.

    All j factors sit at the same representable depth; the ratio statistic
    is a product of per-factor (Im z / Im X)^s terms, s = BIAS_EXPONENT,
    each bounded by e^(2 s tau), so no bias thresholds enter the estimate
    at all.
    """
    if n < 1000:
        raise ValueError("fewer than 1000 samples is rejected as meaningless")
    if j < 1:
        raise ValueError("need at least one factor")
    params = BiasParams.default(m=j, tau=tau)
    depth_log = -params.log_eps_prime + 2.0 * tau + 2.0
    depth_log = min(depth_log, 225.0)  # keep Im and its ball within float range
    y0 = math.exp(depth_log)
    stat = np.ones(n)
    center = ModelPoint(0.0, y0)
    for _ in range(j):
        _, y = sample_ball_arrays(center, tau, n, rng)
        stat *= (y / y0) ** BIAS_EXPONENT
    exact = contraction_ratio_exact(tau, counters) ** j
    est = float(stat.mean())
    sigma = float(stat.std(ddof=1) / math.sqrt(n))
    return ContractionCheck(samples=n, exact=exact, estimate=est,
                            sigma=sigma)


# ---------------------------------------------------------------------------
# Pointwise verification of the averaging inequalities for u and its tails.


@dataclass(frozen=True)
class PointCheck:
    reading: str
    estimate: float
    bound: float
    sigma: float

    @property
    def excess(self) -> float:
        return self.estimate - self.bound

    @property
    def ok(self) -> bool:
        return self.excess <= 3.0 * self.sigma


@dataclass
class InequalityReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def classify_region(z: ModelPoint, params: BiasParams) -> int:
    """1 when the systole is at most the threshold eps'_1, else 0.

    The comparison is made in log space, so it stays meaningful when the
    threshold underflows floats.
    """
    if params.m != 1:
        raise ValueError("pointwise verification is built for the m = 1 pack")
    return 0 if math.log(systole(z)[1]) > params.log_eps_prime else 1


def verify_system(params: BiasParams, centers, contraction_bound: float,
                  tau: float, n: int, rng) -> InequalityReport:
    """Check E[u_j(z)] <= c u_j(X) + u_{j-1}(X)/(2K) over balls around centers.

    Every center must lie in the cusp region (classify_region 1), else
    ValueError: outside it u's non-contracting constant term dominates
    and the inequality has nothing to check.  Statistics are normalized
    by their center value so every sampled ratio is bounded by
    e^(2 s tau).  Each center gets the tail reading (u_j) and the full
    reading (u).
    """
    if n < 1000:
        raise ValueError("fewer than 1000 samples is rejected as meaningless")
    if params.m != 1:
        raise ValueError("pointwise verification is built for the m = 1 pack")
    c = contraction_bound
    inv2K = 0.5 * math.exp(-params.log_K)
    checks = []
    for X in centers:
        if classify_region(X, params) != 1:
            raise ValueError(f"point {X.z} lies outside the cusp region")
        lX = systole(X)[1]
        f1 = float(np.exp(BIAS_EXPONENT * (params.log_eps - np.log(lX))))
        u = f1 + 1.0
        xs, ys = sample_ball_arrays(X, tau, n, rng)
        lz = systole_values(xs, ys)
        # ratio f1(z)/f1(X) without leaving float range
        r1 = np.exp(BIAS_EXPONENT * (math.log(lX) - np.log(lz)))
        ru = (1.0 + f1 * r1) / u
        estu = float(ru.mean())
        sigu = float(ru.std(ddof=1) / math.sqrt(n))
        est = float(r1.mean())
        sig = float(r1.std(ddof=1) / math.sqrt(n))
        checks.append(PointCheck("u_tail", est, c + (u / f1) * inv2K, sig))
        checks.append(PointCheck("u", estu, c + inv2K + 1.0 / u, sigu))
    return InequalityReport(checks=checks)
