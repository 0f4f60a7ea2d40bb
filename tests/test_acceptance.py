"""Acceptance gate: twelve numbered checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines; each test
fails if its stated tolerance is missed.  Monte-Carlo checks fix the
master seed, so every number here is reproducible bit for bit.
"""

import functools
import math
import time

import numpy as np
import pytest

from geodlab.cli import run, worker_stream
from geodlab.config import DEFAULT_SEED, build_config
from geodlab.halfplane import ModelPoint
from geodlab.lattice import chain_bound_audit
from geodlab.products import contraction_ratio_exact, verify_system
from geodlab.torus import BiasParams
from geodlab.walk import net_size_slope
from geodlab.words import canonical, class_levels

from entry_search import classes_by_entry_search


def _line(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@functools.lru_cache(maxsize=None)
def _census():
    return run(build_config("close"))


def test_criterion_01_class_counts():
    t0 = time.monotonic()
    report = run(build_config("count"))
    elapsed = time.monotonic() - t0
    ratios = [row[2] for row in report.rows]
    gaps = [abs(r - 1.0) for r in ratios]
    in_band = 0.55 <= ratios[-1] <= 1.45
    # the asymptotic is approached with fluctuating lower-order terms, so
    # the trend check compares the ends of the grid, not every step
    trend = gaps[-1] <= gaps[0]
    ok = in_band and trend and elapsed <= 120.0
    assert _line(1, ok,
                 f"ratio(6)={ratios[-1]:.6f} in [0.55,1.45]; "
                 f"|ratio-1| {gaps[0]:.4f}->{gaps[-1]:.4f}; {elapsed:.1f}s")
    assert [row[1] for row in report.rows] == [74, 408, 2451, 14904]


def test_criterion_02_enumeration_oracle():
    t0 = time.monotonic()
    necklace = {canonical(w) for lv in class_levels(50, True)
                for w in lv.words.tolist()}
    brute = classes_by_entry_search(50)
    elapsed = time.monotonic() - t0
    ok = necklace == brute and elapsed <= 60.0
    assert _line(2, ok, f"{len(necklace)} classes by both routes; "
                        f"{elapsed:.2f}s")
    assert len(necklace) == 363


def test_criterion_03_thin_count_exponents():
    t0 = time.monotonic()
    report = run(build_config("thin"))
    elapsed = time.monotonic() - t0
    slopes = [float(report.derived[k]) for k in
              ("slope_delta_0.2", "slope_delta_0.1", "slope_delta_0.05")]
    band = 0.7 <= slopes[-1] <= 1.6
    mono = all(a >= b - 1e-12 for a, b in zip(slopes, slopes[1:]))
    ok = band and mono and elapsed <= 300.0
    assert _line(3, ok,
                 f"exponents delta 0.2/0.1/0.05 = "
                 f"{slopes[0]:.4f}/{slopes[1]:.4f}/{slopes[2]:.4f}; "
                 f"smallest-delta band [0.7,1.6]; {elapsed:.1f}s")


def test_criterion_04_contraction_slopes():
    details = []
    ok = True
    for j in (1, 2, 3):
        t0 = time.monotonic()
        report = run(build_config("bias-verify", overrides={"factors": j}))
        elapsed = time.monotonic() - t0
        slope = float(report.derived["detrended_slope"])
        ok = ok and abs(slope + j) <= 0.35 and elapsed <= 180.0
        details.append(f"j={j}: {slope:.4f} (target {-j}, {elapsed:.1f}s)")
    assert _line(4, ok, "; ".join(details))


def test_criterion_05_inequality_system():
    params = BiasParams.default(m=1, tau=3.0)
    rng = worker_stream(DEFAULT_SEED, 0)
    xs = rng.uniform(-0.5, 0.5, 100)
    lys = rng.uniform(36.0, 44.0, 100)
    centers = [ModelPoint(float(x), float(math.exp(ly)))
               for x, ly in zip(xs, lys)]
    c = contraction_ratio_exact(3.0)
    report = verify_system(params, centers, c, 3.0, 200_000, rng)
    inv2k = 0.5 * math.exp(-params.log_K)
    # the homogeneous bound: averaged u against (c + 1/(2K)) u, with no
    # additive allowance, valid because every center is deep in the cusp
    scores = [(ch.estimate - (c + inv2k)) / ch.sigma
              for ch in report.checks if ch.reading == "u"]
    worst = max(scores)
    ok = len(scores) == 100 and worst <= 3.0 and report.passed
    assert _line(5, ok,
                 f"100 cusp points, homogeneous-bound score worst "
                 f"{worst:.3f} <= 3, mean {np.mean(scores):.3f}")


def test_criterion_06_ball_net_growth():
    sizes, slope = net_size_slope(ModelPoint(0.0, 1.0), [2.0, 3.0, 4.0, 5.0],
                                  worker_stream(DEFAULT_SEED, 0))
    ok = 1.75 <= slope <= 2.25
    assert _line(6, ok, f"net sizes {sizes}, growth exponent {slope:.4f} "
                        f"in [1.75,2.25]")
    assert sizes == [35, 284, 1983, 14612]


def test_criterion_07_trajectory_growth():
    report = run(build_config("walk"))
    exp_all = float(report.derived["exponent_all"])
    exp_thin = float(report.derived["exponent_thin"])
    ok = exp_all <= 2.3 and exp_thin <= 1.5
    assert _line(7, ok, f"exhaustive exponents: all {exp_all:.4f} <= 2.3, "
                        f"thin {exp_thin:.4f} <= 1.5")


def test_criterion_08_mixing():
    t0 = time.monotonic()
    report = run(build_config("mix"))
    elapsed = time.monotonic() - t0
    row = report.rows[0]
    z = float(report.derived["z_score"])
    ok = row[-1] == "yes" and abs(z) <= 3.0 and elapsed <= 120.0
    assert _line(8, ok,
                 f"estimate {row[1]:.6g} vs target {row[2]:.6g}, "
                 f"z={z:.3f} within 3; {elapsed:.1f}s")


def test_criterion_09_closing_bounds():
    report = _census()
    worst = []
    ok = True
    for row in report.rows:
        r, events = row[0], row[1]
        len_gap, len_bound, axis, axis_bound = row[4], row[5], row[6], row[7]
        ok = ok and events > 0 and len_gap <= len_bound and axis <= axis_bound
        worst.append(f"R={r}: len {len_gap:.3f}<={len_bound:.3f}, "
                     f"axis {axis:.3f}<={axis_bound:.3f}")
    assert _line(9, ok, "100% of events closed; worst " + "; ".join(worst))


def test_criterion_10_census_ratios():
    report = _census()
    ratios = [row[3] for row in report.rows]
    in_band = all(0.5 <= r <= 2.0 for r in ratios)
    trend = abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0)
    frac3 = float(report.derived["min_measure_within_3x"])
    ok = in_band and trend and frac3 >= 0.8
    assert _line(10, ok,
                 f"count ratios {[round(r, 3) for r in ratios]} in [0.5,2] "
                 f"trending 1; within-3x fraction {frac3:.3f} >= 0.8")


def test_criterion_11_orbit_point_bounds():
    report = run(build_config("lattice"))
    ok = all(row[-1] == "yes" for row in report.rows)
    cells = [row[3] for row in report.rows if row[0] == "orbit_cell_ratio"]
    growth = [row[3] for row in report.rows
              if row[0] == "thick_to_thin_growth"][0]
    spreads = [row[3] for row in report.rows if row[0] == "spread_ratio"]
    worst_chain = 0.0
    for ly in (0.0, math.log(10.0), math.log(30.0)):
        for lyy in (0.0, math.log(10.0)):
            for tau in (1.0, 2.0, 3.0, 4.0, 5.0):
                audit = chain_bound_audit(ModelPoint(0.0, math.exp(ly)),
                                          ModelPoint(0.0, math.exp(lyy)), tau)
                worst_chain = max(worst_chain, audit.max_ratio)
    ok = ok and worst_chain <= 17.0
    assert _line(11, ok,
                 f"cell ratio max {max(cells):.4f} under one constant; "
                 f"thin growth {growth:.2f} >= 5; spread min "
                 f"{min(spreads):.3f} >= 0.25; chain worst "
                 f"{worst_chain:.2f} <= 17")


def test_criterion_12_systole_floor():
    report = run(build_config("veech"))
    slope = float(report.derived["slope"])
    violations = int(report.derived["floor_violations"])
    classes = int(report.derived["classes"])
    ok = slope >= -2.3 and violations == 0
    assert _line(12, ok,
                 f"{classes} classes; min-systole slope {slope:.4f} >= -2.3; "
                 f"floor violations {violations}")
    assert classes == 14904
