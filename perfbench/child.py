"""Run one geodlab experiment in a fresh interpreter, the way a user does.

    python3 perfbench/child.py EXPERIMENT SEED [--spans PATH PASS_ID]
    python3 perfbench/child.py --probe

The package is imported from ``src/`` of the checkout this file sits in.
The child builds the default config with the given seed, times
``geodlab.cli.run`` up to holding ``report.to_text()``, and prints one
JSON line: the monotonic clock reading once set-up was done (the parent
subtracts its spawn time), the run time, the peak RSS, the sha256 of the
deterministic body without its ``seed =`` line, and whether every row and
derived verdict is ``yes``.  With ``--spans`` the geodlab layers are
traced; the spans are appended to PATH after the timed region and a
per-name summary joins the JSON line.  ``--probe`` only imports the
package and reports versions.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)


def _import_cli():
    import geodlab.cli

    if not os.path.abspath(geodlab.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"geodlab imported from {geodlab.cli.__file__}, "
                         f"not from {SRC}")
    return geodlab.cli


def probe():
    _import_cli()
    import numpy
    import scipy

    print(json.dumps({"python": sys.version.split()[0],
                      "numpy": numpy.__version__, "scipy": scipy.__version__}))


def main(argv):
    experiment, seed = argv[0], int(argv[1])
    spans_path = argv[3] if len(argv) > 3 and argv[2] == "--spans" else None
    cli = _import_cli()
    import geodlab.config

    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(experiment)
    config = geodlab.config.build_config(experiment, None, {"seed": seed})
    t_ready = time.monotonic()

    t0 = time.perf_counter()
    report = cli.run(config)
    report.to_text()
    run_s = time.perf_counter() - t0

    import hashlib
    import resource

    out = {"experiment": experiment, "t_ready": t_ready, "run_s": run_s,
           "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           * 1024 / 1e6}
    if tracer is not None:
        tracer.uninstall()
        from tracer import summarize, write_spans

        import geodlab.walk

        out["spans"] = summarize(tracer.spans)
        out["node_budget"] = geodlab.walk.NODE_BUDGET
        write_spans(tracer.spans, spans_path, int(argv[4]), experiment)
    body = "".join(line for line in
                   report.to_text(deterministic_only=True).splitlines(True)
                   if not line.startswith("seed = "))
    out["digest"] = hashlib.sha256(body.encode()).hexdigest()
    out["verdicts_ok"] = (all(row[-1] != "no" for row in report.rows)
                          and all(v != "no" for v in report.derived.values()))
    if experiment == "count":
        out["classes"] = [int(row[1]) for row in report.rows]
    print(json.dumps(out))


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        probe()
    else:
        main(sys.argv[1:])
