"""Repeat the benchmark over seeds and record how much its metrics spread.

    python3 perfbench/steadiness.py

Runs ``run.py --trace 0`` once per set (two), seed (1-10) and workload,
seed-major so that a change in machine load lands on every workload
alike, with ``run_seconds`` from BENCHMARK.json, and writes the record to
``perfbench/steadiness.json``.  For each set, workload and
end-to-end metric it records the median and the spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as
a share of the median, printed next to the metric's bound; and how far each
later set's median is from the first's.  The record also holds the
environment the figures were taken on.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

from run import HERE, REFERENCE_S, ROOT, THREAD_VARS, WORKLOADS, run_child

SEEDS = range(1, 11)
SETS = 2
# Unscaled wall times and the reference kernel's time, recorded next to the
# gated metrics to show how much of their spread the reference-speed
# scaling removes.
CONTEXT = ("pass_wall_s", "setup_wall_s", "ref_s")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bounds.update({name: None for name in CONTEXT})

    runs = []
    for set_id in range(SETS):
        for seed in SEEDS:
            for w in WORKLOADS:
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                       "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                with open(os.path.join(ROOT, ".bench_out",
                                       f"{w}-seed{seed}-trace0.json")) as fh:
                    detail = json.load(fh)
                for name in CONTEXT:
                    res["metrics"][name] = {"value": detail[name]["median"],
                                            "unit": "s"}
                runs.append({"set": set_id, "workload": w, "seed": seed, **res})
                print(f"set {set_id} {w} seed {seed}: correct {res['correct']} "
                      + ", ".join(f"{k} {m['value']:.4g}"
                                  for k, m in res["metrics"].items()), flush=True)

    spread: dict = {}
    for w in WORKLOADS:
        for name, bound in bounds.items():
            sets = []
            for set_id in range(SETS):
                vals = [r["metrics"][name]["value"] for r in runs
                        if r["set"] == set_id and r["workload"] == w]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                sets.append({"median": med, "spread": (q3 - q1) / med,
                             "values": vals})
            entry = {"sets": sets}
            # how much later sets' medians are worse than the first's
            entry["median_shift"] = [s["median"] / sets[0]["median"] - 1.0
                                     for s in sets[1:]]
            spread.setdefault(w, {})[name] = entry
            print(f"{w} {name} (bound {bound}): " + "; ".join(
                f"median {s['median']:.4g} spread {s['spread']:.3f}" for s in sets)
                + "".join(f"; shift {x:+.3f}" for x in entry["median_shift"]))
    versions = run_child(["--probe"], dict(os.environ))[0]
    record = {"git_commit": _git_commit(), "cpu_model": _cpu_model(),
              "nproc": os.cpu_count(), "versions": versions,
              "threads": {v: "1" for v in THREAD_VARS},
              "run_seconds": bench["run_seconds"], "reference_s": REFERENCE_S,
              "seeds": [SEEDS[0], SEEDS[-1]], "spread": spread, "runs": runs}
    with open(os.path.join(HERE, "steadiness.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0

if __name__ == "__main__":
    sys.exit(main())
