"""geodlab benchmark: real experiments, one fresh interpreter each.

    python3 perfbench/run.py --workload exact-counts --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client.  A pass runs the
workload's experiments one after another, each in its own ``python3``
process at default config with the workload seed as its ``seed``; the
next process starts only after the previous one has exited.  Passes
repeat until ``--seconds`` have elapsed.  BLAS and OpenMP are pinned to
one thread.

``--trace 0`` reports the end-to-end metrics, measured untraced:

* ``pass_s``: median over passes of the summed time from calling
  ``geodlab.cli.run`` on a validated config to holding ``to_text()``.
* ``setup_s``: median over experiment processes of the time from spawning
  the interpreter to ``geodlab.cli`` imported and the config built.
* ``peak_rss_mb``: median over passes of the largest peak RSS among the
  pass's experiment processes.

Both times are quoted at reference speed.  The speed of a shared machine
drifts by tens of percent over minutes, so the benchmark times a fixed
reference kernel just before it spawns each child and just after the
child exits, and scales that child's times by ``REFERENCE_S`` over the
mean of the two kernel times.  The unscaled wall times are printed and
kept in the details as ``pass_wall_s`` and ``setup_wall_s``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced passes (see NOTES.md) plus
``tracing_overhead``.  Traced children run under ``-X importtime``.

Every experiment run is checked: it fails if it raises, if a row or
derived verdict is ``no``, or if its deterministic body (``seed =`` line
removed) differs from the reference: the digest pinned in golden.json,
or, for a seeded experiment at a seed other than the pinned one, its
body in the run's first pass.  ``count`` rows must be the frozen class
counts.  Failures are counted, never abort the run, and make
``correct`` false.  The last line of stdout is the JSON result; details
and spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import TARGETS, merge_summaries

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Why each workload exists is in NOTES.md.
WORKLOADS = {
    "exact-counts": ("count", "assemble", "lattice"),
    "frame-flow": ("recurrence", "bias-verify"),
    "systole-nets": ("walk", "thin", "veech"),
}
ALL_EXPERIMENTS = sorted(e for exps in WORKLOADS.values() for e in exps)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
FROZEN_COUNTS = [74, 408, 2451, 14904]
CHILD_TIMEOUT_S = 150
# Times are quoted at the speed at which reference_s() takes this long: the
# median of the runs' ref_s over a two-set steadiness.py record on the
# machine the bounds were set on.  The value only fixes the unit; it is the
# same on both sides of any comparison.
REFERENCE_S = 0.0677

CALLS = ("words.enumerate_classes", "words.canonical", "words.axis_samples",
         "lattice.orbit_points", "flow.reduce_frames",
         "walk.RowNet.thin_mask", "walk.count_trajectories",
         "halfplane.reduce_points", "halfplane.reduce_to_fundamental")
ITEMS = (("words.enumerate_classes", "classes"), ("lattice.orbit_points", "points"),
         ("flow.reduce_frames", "frames"),
         ("walk.RowNet.thin_mask", "nodes"), ("walk.count_trajectories", "node_steps"),
         ("halfplane.reduce_points", "points"),
         ("halfplane.sample_ball_arrays", "points"), ("torus.systole_values", "points"),
         ("products.verify_contraction", "samples"),
         ("report.CountReport.to_text", "bytes"))
IMPORTS = {"import.numpy.s": ("numpy",),
           "import.scipy.integrate.s": ("scipy.integrate",),
           "import.geodlab.s": ("geodlab", "geodlab.cli")}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict, node_budget: int) -> dict:
    """Per-layer metrics of one traced pass from its merged span summary.

    A function the pass never called reads 0, as does a ratio whose base
    is 0.
    """
    empty = {"calls": 0, "s": 0.0, "incl_s": 0.0, "sum": {}, "max": {}}

    def get(name):
        return spans.get(name, empty)

    m = {f"{layer}.{path}.s": get(f"{layer}.{path}")["s"]
         for layer, path, _ in TARGETS}
    m.update({f"{name}.calls": get(name)["calls"] for name in CALLS})
    m.update({f"{name}.{key}": get(name)["sum"].get(key, 0) for name, key in ITEMS})
    m["words.canonical.calls_per_class"] = _ratio(
        m["words.canonical.calls"], m["words.enumerate_classes.classes"])
    nets = get("walk.build_row_net")
    m["walk.row_net.nodes"] = nets["max"].get("nodes", 0)
    m["walk.row_net.budget_frac"] = m["walk.row_net.nodes"] / node_budget
    m["walk.thin_mask.calls_per_net"] = _ratio(
        m["walk.RowNet.thin_mask.calls"], nets["calls"])
    for exp in ALL_EXPERIMENTS:
        m[f"cli.run.{exp}.s"] = get(f"cli.run.{exp}")["incl_s"]
    m["cli.self_s"] = sum(get(f"cli.run.{exp}")["s"] for exp in ALL_EXPERIMENTS)
    return m


def import_times(stderr: str) -> dict:
    """Seconds per IMPORTS metric from ``-X importtime`` output (cumulative)."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1e6
    return {metric: sum(cumulative.get(n, 0.0) for n in names)
            for metric, names in IMPORTS.items()}


def reference_s() -> float:
    """Seconds this process takes for a fixed mix of interpreter and array work.

    The kernel is benchmark code, so no change to geodlab changes it; its
    time tracks only the speed of the machine at the moment.  The arrays
    are reused in place so this process stays far smaller than any child:
    a child's ``ru_maxrss`` starts from its parent's peak.
    """
    import gc

    import numpy as np

    gc.disable()
    try:
        t0 = time.perf_counter()
        seen = {}
        for i in range(100_000):
            key = (i % 97, i % 89, i % 83)
            seen[key] = seen.get(key, 0) + 1
        a = np.arange(1_000_000, dtype=float)
        b = np.empty_like(a)
        for _ in range(8):
            np.multiply(a, a, out=b)
            b += 1.0
            np.sqrt(b, out=a)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Checker:
    """Decides whether one experiment run's output is correct.

    At a seed other than the pinned one, a seeded experiment's first body
    becomes its reference for the rest of the run.
    """

    def __init__(self, seed: int):
        with open(os.path.join(HERE, "golden.json")) as fh:
            golden = json.load(fh)
        self.reference = dict(golden["seed_independent"])
        if seed == golden["pinned_seed"]:
            self.reference.update(golden["seeded"])

    def failure(self, res: dict) -> str | None:
        if not res["verdicts_ok"]:
            return "a row or derived verdict is 'no'"
        if res["experiment"] == "count" and res["classes"] != FROZEN_COUNTS:
            return f"class counts {res['classes']} != {FROZEN_COUNTS}"
        want = self.reference.setdefault(res["experiment"], res["digest"])
        if res["digest"] != want:
            return f"body digest {res['digest'][:16]} != reference {want[:16]}"
        return None


def run_child(args: list, env: dict, importtime: bool = False):
    """One fresh interpreter; returns (parsed JSON line or None, stderr, spawn time)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + [CHILD] + args, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s", t_spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr[-2000:], t_spawn
    return json.loads(lines[-1]), proc.stderr, t_spawn


def run_pass(experiments, seed, env, checker, failures, spans_path=None,
             pass_id=0) -> dict:
    """Run each experiment once, in order; returns the pass record.

    The pass is complete when every experiment produced its timings, even
    if an output was wrong: wrong outputs count in ``failures``.
    """
    rec = {"pass": pass_id, "traced": spans_path is not None, "runs": []}
    ref_before = reference_s()
    for exp in experiments:
        args = [exp, str(seed)]
        if spans_path is not None:
            args += ["--spans", spans_path, str(pass_id)]
        res, stderr, t_spawn = run_child(args, env, importtime=spans_path is not None)
        ref_after = reference_s()
        ref_s, ref_before = (ref_before + ref_after) / 2, ref_after
        reason = "raised or exited non-zero: " + stderr if res is None \
            else checker.failure(res)
        if reason is not None:
            failures.append({"pass": pass_id, "experiment": exp, "reason": reason})
            print(f"FAILED {exp} (pass {pass_id}): {reason}", file=sys.stderr)
        if res is not None:
            res["setup_wall_s"] = res.pop("t_ready") - t_spawn
            res["ref_s"] = ref_s
            speed = REFERENCE_S / ref_s
            res["setup_s"] = res["setup_wall_s"] * speed
            res["run_ref_s"] = res["run_s"] * speed
            if spans_path is not None:
                res["imports"] = import_times(stderr)
            rec["runs"].append(res)
    rec["complete"] = len(rec["runs"]) == len(experiments)
    rec["pass_s"] = sum(r["run_ref_s"] for r in rec["runs"])
    rec["pass_wall_s"] = sum(r["run_s"] for r in rec["runs"])
    rec["peak_rss_mb"] = max((r["maxrss_mb"] for r in rec["runs"]), default=0.0)
    return rec


def timing_summary(values) -> dict:
    """Median, quartiles, sample count, and the highest of p99/p95/p90
    that has at least ten samples beyond it, if any has."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for p in (99, 95, 90):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def declared_units(trace: int) -> dict:
    """Unit of every metric BENCHMARK.json declares for this trace mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        ap.error("--seed must be a 64-bit nonnegative integer")
    if not os.path.isfile(os.path.join(ROOT, "src", "geodlab", "cli.py")):
        print(f"no geodlab sources under {ROOT}/src", file=sys.stderr)
        return 2

    units = declared_units(args.trace)
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    versions, stderr, _ = run_child(["--probe"], env)
    if versions is None:
        print(f"geodlab does not import:\n{stderr}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(OUT_DIR, f"spans-{tag}.tsv.gz")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    experiments = WORKLOADS[args.workload]
    checker = Checker(args.seed)
    failures: list = []
    passes: list = []
    start = time.monotonic()
    # A pass is not started if it would likely end more than half a pass
    # past the deadline, so a run lasts about --seconds.
    while (len(passes) < 1 + args.trace or time.monotonic() - start
           < args.seconds * len(passes) / (len(passes) + 0.5)):
        traced = args.trace == 1 and len(passes) % 2 == 1
        passes.append(run_pass(experiments, args.seed, env, checker, failures,
                               spans_path if traced else None, len(passes)))

    plain = [p for p in passes if p["complete"] and not p["traced"]]
    traced = [p for p in passes if p["complete"] and p["traced"]]
    if not plain or (args.trace and not traced):
        print("no pass completed; see the failures above", file=sys.stderr)
        return 1
    attempted = len(experiments) * len(passes)
    pass_s = timing_summary([p["pass_s"] for p in plain])
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "experiments": experiments,
              "versions": versions, "nproc": os.cpu_count(),
              "threads": {v: env[v] for v in THREAD_VARS},
              "reference_s": REFERENCE_S,
              "attempted": attempted, "failed": len(failures),
              "failed_frac": len(failures) / attempted, "failures": failures,
              "pass_s": pass_s,
              "pass_wall_s": timing_summary([p["pass_wall_s"] for p in plain]),
              "setup_wall_s": timing_summary(
                  [r["setup_wall_s"] for p in passes for r in p["runs"]]),
              "ref_s": timing_summary([r["ref_s"] for p in passes for r in p["runs"]]),
              "passes": passes}
    if args.trace == 0:
        setup = [r["setup_s"] for p in passes for r in p["runs"]]
        detail["setup_s"] = timing_summary(setup)
        values = {"pass_s": pass_s["median"], "setup_s": detail["setup_s"]["median"],
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain)}
    else:
        per_pass = [layer_metrics(merge_summaries(r["spans"] for r in p["runs"]),
                                  p["runs"][0]["node_budget"]) for p in traced]
        values = {name: statistics.median(lm[name] for lm in per_pass)
                  for name in per_pass[0]}
        for name in IMPORTS:
            values[name] = statistics.median(
                r["imports"][name] for p in traced for r in p["runs"])
        traced_s = statistics.median(p["pass_s"] for p in traced)
        values["tracing_overhead"] = traced_s - pass_s["median"]
        for p in passes:
            for r in p["runs"]:
                r.pop("spans", None)
        detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} are not both measured "
              "and declared in BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    detail["metrics"] = metrics
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{attempted} experiment runs, {len(failures)} failed "
          f"(failed_frac {len(failures) / attempted:.3g})")
    for name in ("pass_s", "pass_wall_s", "setup_wall_s", "ref_s"):
        print(f"{name} context: " + ", ".join(
            f"{k} {v:.4g}" for k, v in detail[name].items()))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
