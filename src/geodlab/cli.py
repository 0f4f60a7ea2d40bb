"""Command-line driver for the counting experiments.

Each subcommand validates its configuration, runs the owning module, and
prints (or writes) one CountReport: a parameter echo, a semicolon table
whose rows carry their own tolerance and pass/fail, and derived scalars.
Bodies are byte-identical across runs with the same config and seed;
only '#' footer lines vary.  Exit codes: 0 ok, 2 usage or config error
or a run past its resource budget, 3 a tolerance failed when --check was
given.

Randomness is philox-4x64 keyed by the master seed; work item i draws
from the stream jumped(i), so results do not depend on how items would
be scheduled.  Every experiment runs its items in order in one process,
and the report echoes that as workers = 1.

This module loads no layer itself.  build_config imports the module that
owns the experiment, so a run loads only its own layer, and each runner
imports the functions it calls when it is called, so it calls whatever
the module holds under those names then, a tracer's wrappers included.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import time
from collections import Counter

import numpy as np

from .config import (EXPERIMENTS, ConfigError, ExperimentConfig,
                     ResourceError, build_config)
from .report import CountReport, fmt_value, ls_slope

RNG_NAME = "philox-4x64 jumped per work item"
GROWTH = 2.0  # e^{2R} class growth in the model


def worker_stream(seed: int, item: int):
    """Independent generator for one work item under the master seed."""
    # numpy loads numpy.random lazily; flow and products, whose runners
    # call this, import it, so it is loaded before a run starts
    return np.random.Generator(np.random.Philox(key=seed).jumped(item))


def _ok(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# Experiment runners.  Each returns (title, rows, derived, counters), and
# run builds the CountReport from them; the table has the columns
# declared here, which --help prints too.

COLUMNS = {
    "count": ("radius", "classes", "ratio", "bound", "ok"),
    "thin": ("delta", "radius", "almost_closed", "bound", "ok"),
    "bias-verify": ("tau", "estimate", "exact", "stderr", "z", "bound", "ok"),
    "walk": ("radius", "trajectories", "thin_trajectories", "bound", "ok"),
    "mix": ("time", "estimate", "target", "stderr", "bound", "ok"),
    "close": ("time", "events", "components", "count_ratio",
              "worst_length_gap", "length_bound",
              "worst_axis_distance", "axis_bound", "ok"),
    "lattice": ("quantity", "systole", "tau", "value", "bound", "ok"),
    "veech": ("length_bin_end", "classes", "min_axis_systole", "bound", "ok"),
    "recurrence": ("horizon", "flagged_fraction", "bound", "ok"),
    "assemble": ("band_lo", "band_hi", "classes", "bound", "ok"),
}


def _echo(config: ExperimentConfig) -> dict:
    out = {"experiment": config.experiment, "seed": config.seed,
           "workers": 1, "rng": RNG_NAME}
    for k, v in config.params.items():
        out[k] = ", ".join(fmt_value(x) for x in v) if isinstance(v, tuple) \
            else v
    return out


def run_count(config: ExperimentConfig) -> tuple:
    from .words import enumerate_classes, max_trace
    grid = config.params["r_grid"]
    counters = Counter()
    # one enumeration at the largest radius; radius r keeps the traces up
    # to max_trace(r), the cap enumerate_classes(r) prunes at
    below = np.cumsum(enumerate_classes(max(grid), counters=counters).counts)
    rows = []
    ratios = []
    for r in grid:
        n = int(below[max_trace(r)])
        ratio = n * GROWTH * r / math.exp(GROWTH * r)
        ratios.append(ratio)
        rows.append((r, n, ratio, "0.55..1.45", _ok(0.55 <= ratio <= 1.45)))
    derived = {
        "gap_first": abs(ratios[0] - 1.0),
        "gap_last": abs(ratios[-1] - 1.0),
        "trend_ok": _ok(abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0)),
    }
    return "closed-class counts against e^{2R}/(2R)", rows, derived, counters


def run_thin(config: ExperimentConfig) -> tuple:
    from .halfplane import ModelPoint
    from .walk import build_row_net, count_trajectories
    p = config.params
    tau, steps, y0 = p["tau"], p["steps"], p["base_height"]
    base = ModelPoint(0.0, y0)
    net = build_row_net(y0, base, tau * steps)
    reach = net.reach(base, tau, steps)
    counters = Counter({"walk.row_net_nodes": net.node_count,
                        "walk.reach_nodes": reach.node_count})
    deltas = sorted(p["delta_grid"], reverse=True)
    reach.thin_masks(deltas, counters)
    rows = []
    slopes = []
    fit_lo, fit_hi = 3.0 - 1e-9, 6.0 + 1e-9  # exponent fit window
    for delta in deltas:
        fam = count_trajectories(net, base, tau, steps, thin_delta=delta,
                                 keep_steps=True, counters=counters)
        counts = [fam.almost_closed(p["tolerance"], step=k,
                                    counters=counters)
                  for k in range(2, steps + 1)]
        del fam  # free this delta's snapshots before the next DP runs
        radii = [tau * k for k in range(2, steps + 1)]
        for r, c in zip(radii, counts):
            rows.append((delta, r, c, "none", "yes"))
        fit = [(r, c) for r, c in zip(radii, counts) if fit_lo <= r <= fit_hi]
        if len(fit) < 2:
            fit = list(zip(radii, counts))
        if all(c > 0 for _, c in fit):
            slope = ls_slope([r for r, _ in fit],
                             np.log([c for _, c in fit]))[0]
        else:
            slope = math.nan
        slopes.append(slope)
    derived = {}
    for d, s in zip(deltas, slopes):
        derived[f"slope_delta_{fmt_value(d)}"] = s
    mono = all(a >= b - 1e-12 for a, b in zip(slopes, slopes[1:]))
    derived["slopes_nonincreasing_listed_order"] = _ok(mono)
    derived["smallest_delta_slope_in_0.7..1.6"] = _ok(0.7 <= slopes[-1] <= 1.6)
    return "thin almost-closed trajectory counts", rows, derived, counters


def run_bias_verify(config: ExperimentConfig) -> tuple:
    from .products import verify_contraction
    p = config.params
    j, taus, n = p["factors"], p["tau_grid"], p["samples"]
    rows = []
    ests = []
    counters = Counter()
    for i, tau in enumerate(taus):
        chk = verify_contraction(j, tau, n, worker_stream(config.seed, i),
                                 counters=counters)
        ests.append(chk.estimate)
        z = (chk.estimate - chk.exact) / chk.sigma if chk.sigma > 0 else 0.0
        # the statistic is heavy-tailed at large tau, so per-row stderr
        # understates the error; rows are informational, the slope is checked
        rows.append((tau, chk.estimate, chk.exact, chk.sigma, z,
                     "none", "yes"))
    detrended = np.log(ests) - j * np.log(taus)
    slope = ls_slope(taus, detrended)[0]
    derived = {
        "detrended_slope": slope,
        "target": -float(j),
        "slope_ok": _ok(abs(slope + j) <= 0.35),
    }
    return f"ball-average contraction, {j} factor(s)", rows, derived, counters


def run_walk(config: ExperimentConfig) -> tuple:
    from .halfplane import ModelPoint
    from .walk import build_row_net, count_trajectories
    p = config.params
    tau, steps, delta = p["tau"], p["steps"], p["delta"]
    base = ModelPoint(0.0, 1.0)
    net = build_row_net(1.0 / delta, base, tau * steps)
    counters = Counter({"walk.row_net_nodes": net.node_count,
                        "walk.reach_nodes":
                            net.reach(base, tau, steps).node_count})
    # only the per-step totals are kept, so each DP's arrays go with it
    per_all = count_trajectories(net, base, tau, steps,
                                 counters=counters).per_step
    per_thin = count_trajectories(net, base, tau, steps, thin_delta=delta,
                                  counters=counters).per_step
    radii = [tau * (k + 1) for k in range(steps)]
    rows = [(r, a, t, "none", "yes")
            for r, a, t in zip(radii, per_all, per_thin)]
    exp_all = ls_slope(radii, np.log(per_all))[0]
    derived = {
        "exponent_all": exp_all,
        "exponent_all_ok": _ok(exp_all <= GROWTH + 0.3),
    }
    if all(c > 0 for c in per_thin):
        exp_thin = ls_slope(radii, np.log(per_thin))[0]
        derived["exponent_thin"] = exp_thin
        derived["exponent_thin_ok"] = _ok(exp_thin <= GROWTH - 1.0 + 0.5)
    return "step-bounded trajectory growth", rows, derived, counters


def run_mix(config: ExperimentConfig) -> tuple:
    from .flow import measure_box, mixing_correlation
    p = config.params
    box = measure_box(p["fraction"])
    est = mixing_correlation(box, p["time"], p["samples"],
                             worker_stream(config.seed, 0))
    rows = [(p["time"], est.estimate, est.target, est.std_error,
             "|estimate-target| <= 3 stderr",
             _ok(abs(est.diff) <= 3.0 * est.std_error))]
    derived = {"z_score": est.z_score}
    return ("flow correlation against the product of measures", rows,
            derived, {})


def run_close(config: ExperimentConfig) -> tuple:
    from .flow import (MAX_CENSUS_FRAMES, closing_constants, margulis_count,
                       measure_box)
    p = config.params
    box = measure_box(p["fraction"])
    grid = p["r_grid"]
    # every frame count is known before the first census; the grid
    # increases, so its last radius draws the most frames
    frames = [int(round(p["samples"] * math.exp(GROWTH * (r - grid[0]))))
              for r in grid]
    if frames[-1] > MAX_CENSUS_FRAMES:
        raise ResourceError(
            f"the census at r = {grid[-1]:g} draws {frames[-1]} frames, "
            f"more than MAX_CENSUS_FRAMES = {MAX_CENSUS_FRAMES}")
    rows = []
    ratios = []
    frac3s = []
    for i, (r, n) in enumerate(zip(grid, frames)):
        census = margulis_count(box, r, n, worker_stream(config.seed, i))
        c1, eps = closing_constants(box, r)
        len_ok = census.worst_length_gap <= 2.0 * c1
        axis_ok = 2.0 * census.worst_axis_dist <= eps
        ratio = census.count_ratio
        ratios.append(ratio)
        frac3s.append(census.frac_within_3x)
        rows.append((r, census.events, census.component_count, ratio,
                     census.worst_length_gap, 2.0 * c1,
                     census.worst_axis_dist, 0.5 * eps,
                     _ok(len_ok and axis_ok and 0.5 <= ratio <= 2.0
                         and census.nonhyperbolic_events == 0)))
    derived = {
        "ratio_trend_ok": _ok(abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0)),
        "min_measure_within_3x": min(frac3s),
        "measure_within_3x_ok": _ok(min(frac3s) >= 0.8),
    }
    return "closed-orbit census from flow recurrence", rows, derived, {}


def run_lattice(config: ExperimentConfig) -> tuple:
    from .halfplane import ModelPoint
    from .lattice import orbit_counts, spread_count
    p = config.params
    CELL_BOUND = 1.7702
    rows, first, counters = [], {}, Counter()
    for sy in p["systole_grid"]:
        depth = ModelPoint(0.0, 1.0 / sy)
        gsq = 1.0 / sy  # G(Y)^2 for systole sy
        counts = orbit_counts(depth, depth, p["tau_grid"], counters)
        first[sy] = counts[0]
        for tau, cnt in zip(p["tau_grid"], counts):
            cell = cnt / (math.exp(GROWTH * tau) * gsq)
            rows.append(("orbit_cell_ratio", sy, tau, cell,
                         f"<= {CELL_BOUND}", _ok(cell <= CELL_BOUND)))
    t0 = p["tau_grid"][0]
    thin_sy, thick_sy = p["systole_grid"][0], p["systole_grid"][-1]
    growth = first[thin_sy] / first[thick_sy]
    rows.append(("thick_to_thin_growth", thin_sy, t0, growth, ">= 5",
                 _ok(growth >= 5.0)))
    for sy in p["systole_grid"]:
        depth = ModelPoint(0.0, 1.0 / sy)
        sc = spread_count(depth, p["spread_radius"], counters)
        ratio = sc * sy  # count / G^2
        rows.append(("spread_ratio", sy, p["spread_radius"], ratio,
                     ">= 0.25", _ok(ratio >= 0.25)))
    return "orbit points in balls around thin centers", rows, {}, counters


def run_veech(config: ExperimentConfig) -> tuple:
    from .words import class_levels, max_trace, min_systole_batch
    p = config.params
    counters = Counter()
    # one word length at a time, unpadded and unsorted: a class's minimum
    # is its own, and the class order moves only the slope fit's
    # summation order (its last bits at default config, not its digits)
    lengths, mins = [], []
    for level in class_levels(max_trace(p["max_length"]), True, counters):
        lengths.append(level.length)
        mins.append(min_systole_batch(level, step=p["step"],
                                      counters=counters))
    lengths, mins = np.concatenate(lengths), np.concatenate(mins)
    slope = ls_slope(lengths, np.log(mins))[0]
    eps0 = float(np.min(mins * np.exp(GROWTH * lengths)))
    floor = eps0 * np.exp(-GROWTH * lengths) * (1.0 - 1e-9)
    violations = int(np.sum(mins < floor))
    rows = []
    for bin_end in range(1, math.ceil(p["max_length"]) + 1):
        sel = (lengths > bin_end - 1) & (lengths <= bin_end)
        if not sel.any():
            continue
        rows.append((bin_end, int(sel.sum()), float(mins[sel].min()),
                     "none", "yes"))
    derived = {
        "classes": len(lengths),
        "slope": slope,
        "slope_ok": _ok(slope >= -(GROWTH + 0.3)),
        "fitted_floor_constant": eps0,
        "floor_violations": violations,
        "floor_ok": _ok(violations == 0),
    }
    return ("smallest axis systole against class length", rows,
            derived, counters)


def run_recurrence(config: ExperimentConfig) -> tuple:
    from .flow import recurrence_fraction
    p = config.params
    res = recurrence_fraction(p["samples"], p["horizon"], p["delta"],
                              p["theta"], worker_stream(config.seed, 0))
    rows = [(r + 1, f, "none", "yes") for r, f in enumerate(res.fractions)]
    expo = res.decay_exponent
    derived = {
        "decay_exponent": expo,
        "below_growth_rate_ok": _ok(not math.isnan(expo) and expo < GROWTH),
    }
    return ("fraction of flow segments mostly in the thin part", rows,
            derived, {})


def run_assemble(config: ExperimentConfig) -> tuple:
    from .words import enumerate_classes, lengths_by_trace
    p = config.params
    r, nb = p["r"], p["bands"]
    counters = Counter()
    # one length per distinct trace, weighted by its number of classes
    hist = enumerate_classes(r, counters=counters)
    traces = np.flatnonzero(hist.counts)
    lengths = lengths_by_trace(len(hist.counts) - 1)[traces]
    weights = hist.counts[traces]
    edges = [r * k / nb for k in range(nb + 1)]
    counts = []
    rows = []
    for lo, hi in zip(edges, edges[1:]):
        cnt = int(weights[(lengths > lo) & (lengths <= hi)].sum())
        counts.append(cnt)
        rows.append((lo, hi, cnt, "none", "yes"))
    total = float(sum(counts))
    ratio = total / (math.exp(GROWTH * edges[-1]) / (GROWTH * edges[-1]))
    direct = len(hist)
    derived = {
        "assembled_total": total,
        "direct_total": direct,
        "exact_match_ok": _ok(total == direct),
        "ratio": ratio,
        "ratio_ok": _ok(0.55 <= ratio <= 1.45),
    }
    return ("band counts reassembled into the full total", rows,
            derived, counters)


RUNNERS = {
    "count": run_count,
    "thin": run_thin,
    "bias-verify": run_bias_verify,
    "walk": run_walk,
    "mix": run_mix,
    "close": run_close,
    "lattice": run_lattice,
    "veech": run_veech,
    "recurrence": run_recurrence,
    "assemble": run_assemble,
}

def run(config: ExperimentConfig) -> CountReport:
    """Run a validated config's experiment and build its report."""
    t0 = time.time()
    title, rows, derived, counters = RUNNERS[config.experiment](config)
    return CountReport(title=title, params=_echo(config),
                       columns=COLUMNS[config.experiment], rows=rows,
                       derived=derived, counters=dict(counters),
                       wall_time=time.time() - t0)


def main(argv=None) -> int:
    import argparse  # here, so importing the package does not load it

    parser = argparse.ArgumentParser(
        prog="geodlab",
        description="Counting experiments on the model surface. All floats "
                    "print with 9 significant digits; rows end with their "
                    "tolerance and a yes/no verdict ('none' marks rows that "
                    "are informational).")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in sorted(EXPERIMENTS):
        keys = ", ".join(sorted(EXPERIMENTS[name]))
        sp = sub.add_parser(
            name, help=f"run the {name} experiment",
            description=f"Columns: {';'.join(COLUMNS[name])}\n"
                        f"Config keys: {keys}",
            formatter_class=argparse.RawDescriptionHelpFormatter)
        sp.add_argument("--config", help="key = value parameter file")
        sp.add_argument("--seed", type=int, help="master 64-bit seed")
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument("--check", action="store_true",
                        help="exit 3 if any row or derived verdict is 'no'")
        sp.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="override one config key (repeatable)")
    args = parser.parse_args(argv)
    try:
        text = None
        if args.config:
            with open(args.config) as fh:
                text = fh.read()
        overrides = {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set needs K=V, got {item!r}")
            k, v = item.split("=", 1)
            overrides[k.strip()] = v.strip()
        if args.seed is not None:
            overrides["seed"] = args.seed
        config = build_config(args.experiment, text, overrides)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # open --out before the run, so a bad path fails without running it,
    # and empty it only once the report is in hand, so a run that raises
    # leaves an existing file as it was (and removes one it created)
    created = bool(args.out) and not os.path.exists(args.out)
    try:
        out = (open(args.out, "a") if args.out
               else contextlib.nullcontext(sys.stdout))
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    with out as fh:
        try:
            report = run(config)
        except BaseException as exc:
            if created:
                os.remove(args.out)
            if isinstance(exc, ResourceError):
                print(f"resource error: {exc}", file=sys.stderr)
                return 2
            raise
        if args.out and fh.seekable():  # not a pipe or terminal
            fh.truncate(0)
        fh.write(report.to_text())
    if args.check:
        failed = any(row[-1] == "no" for row in report.rows)
        failed = failed or any(v == "no" for v in report.derived.values())
        if failed:
            return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
