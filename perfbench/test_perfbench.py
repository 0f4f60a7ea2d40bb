"""Tests of the benchmark's own machinery; run with

    python3 -m pytest perfbench
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import geodlab.cli  # noqa: E402
import geodlab.words  # noqa: E402
from geodlab.config import build_config  # noqa: E402

from run import IMPORTS, declared_units, import_times, layer_metrics  # noqa: E402
from tracer import Tracer, self_times, summarize  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_subtracts_direct_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("a.1", 1.5, 2.5, 1),   # grandchild: only a's self time drops
        _span("b", 4.0, 8.0, 0),
        _span("other", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == [4.0, 1.0, 1.0, 4.0, 1.0]
    summary = summarize(spans)
    assert summary["root"]["s"] == 4.0 and summary["root"]["incl_s"] == 10.0


def test_wrapper_nests_spans_on_a_stack():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x),
                        counters=lambda a, k, r: {"out": r})
    assert outer(2) == 9
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
    assert tracer.spans[0][4] == {"out": 9}


def test_rebound_functions_are_seen_through_cli_run():
    original = geodlab.words.enumerate_classes
    tracer = Tracer()
    tracer.install("count")
    try:
        # cli holds its own reference, imported by name
        assert geodlab.cli.enumerate_classes is geodlab.words.enumerate_classes
        assert geodlab.cli.enumerate_classes is not original
        report = geodlab.cli.run(build_config("count", None, {"r_grid": "3"}))
    finally:
        tracer.uninstall()
    assert geodlab.words.enumerate_classes is original
    assert geodlab.cli.enumerate_classes is original
    assert [row[1] for row in report.rows] == [74]
    summary = summarize(tracer.spans)
    assert summary["cli.run.count"]["calls"] == 1
    # count_classes reaches enumerate_classes through a module global
    enum = [s for s in tracer.spans if s[0] == "words.enumerate_classes"]
    assert len(enum) == 1 and tracer.spans[enum[0][3]][0] == "cli.run.count"
    assert enum[0][4] == {"classes": 74}
    assert summary["words.canonical"]["calls"] >= 74

    m = layer_metrics(summary, node_budget=10)
    assert m["words.enumerate_classes.classes"] == 74
    assert m["words.canonical.calls_per_class"] == summary["words.canonical"]["calls"] / 74
    assert m["flow.reduce_frames.calls"] == 0 and m["walk.thin_mask.calls_per_net"] == 0.0
    assert m["cli.run.count.s"] >= m["cli.self_s"] > 0.0


def test_import_times_reads_cumulative_microseconds():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       249 |        249 |   geodlab",
        "import time:      1712 |     129227 |   numpy",
        "import time:       890 |     595766 |       scipy.integrate",
        "import time:     10104 |     814202 | geodlab.cli",
        "some warning line",
    ])
    assert import_times(stderr) == {"import.numpy.s": 0.129227,
                                    "import.scipy.integrate.s": 0.595766,
                                    "import.geodlab.s": (249 + 814202) / 1e6}


def test_traced_metrics_are_the_declared_per_layer_metrics():
    measured = set(layer_metrics({}, node_budget=1)) | set(IMPORTS) | {"tracing_overhead"}
    assert measured == set(declared_units(trace=1))
    assert set(declared_units(trace=0)) == {"pass_s", "setup_s", "peak_rss_mb"}
