import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodlab import cli, flow, lattice, words
from geodlab.cli import COLUMNS, RUNNERS, main, run, worker_stream
from geodlab.config import EXPERIMENTS, OWNERS, build_config
from geodlab.report import CountReport, fmt_value, ls_slope
from geodlab.words import class_levels, enumerate_classes, max_trace


def _body(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))


def test_registry_complete():
    assert set(RUNNERS) == set(EXPERIMENTS) == set(COLUMNS) == set(OWNERS)


def test_worker_stream_reproducible_and_disjoint():
    a = worker_stream(5, 0).random(4)
    b = worker_stream(5, 0).random(4)
    c = worker_stream(5, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_main_count_stdout(capsys):
    rc = main(["count", "--set", "r_grid=2,3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2;10;0.732625556;0.55..1.45;yes" in out
    assert "3;74;1.10056597;0.55..1.45;yes" in out
    assert "trend_ok = yes" in out


# radii acosh(t/2) whose 2 cosh r rounds below t (t = 4, 9) or above it
# (t = 6, 12, 403): each keeps its trace-t classes, whose length is r
_TRACE_EDGE_RADII = tuple(math.acosh(t / 2.0) for t in (4, 6, 9, 12, 403))


def _counts(grid):
    report = run(build_config("count", overrides={"r_grid": tuple(grid)}))
    return [row[1] for row in report.rows]


def test_count_rows_equal_one_enumeration_per_radius():
    for grid in (EXPERIMENTS["count"]["r_grid"].default, _TRACE_EDGE_RADII):
        assert _counts(grid) == [len(enumerate_classes(r)) for r in grid]
    # traces 3 and 4: (1, 1), then (1, 2) and (2, 1)
    assert _counts(_TRACE_EDGE_RADII[:1]) == [3]


@settings(deadline=None, max_examples=12)
@given(st.lists(st.floats(1.0, 6.0), min_size=1, max_size=3, unique=True))
def test_count_rows_equal_enumeration_off_grid(radii):
    grid = sorted(radii)
    assert _counts(grid) == [len(enumerate_classes(r)) for r in grid]


@settings(deadline=None, max_examples=15)
@given(st.floats(1.0, 6.5), st.integers(1, 16))
def test_assemble_rows_equal_the_table_band_counts(r, bands):
    report = run(build_config("assemble", overrides={"r": r, "bands": bands}))
    lengths = np.concatenate([lv.length for lv
                              in class_levels(max_trace(r), True)])
    edges = [r * k / bands for k in range(bands + 1)]
    counts = [int(np.count_nonzero((lengths > lo) & (lengths <= hi)))
              for lo, hi in zip(edges, edges[1:])]
    assert report.rows == [(lo, hi, n, "none", "yes")
                           for lo, hi, n in zip(edges, edges[1:], counts)]
    ratio = sum(counts) / (math.exp(2.0 * edges[-1]) / (2.0 * edges[-1]))
    assert report.derived == {
        "assembled_total": float(sum(counts)),
        "direct_total": len(lengths),
        "exact_match_ok": "yes" if sum(counts) == len(lengths) else "no",
        "ratio": ratio,
        "ratio_ok": "yes" if 0.55 <= ratio <= 1.45 else "no"}


def test_count_and_assemble_build_no_class_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("a ClassTable was built")

    monkeypatch.setattr(words, "ClassTable", refuse)
    with pytest.raises(AssertionError):
        next(class_levels(max_trace(3.0), True))  # which reaches the patch
    for experiment in ("count", "assemble"):
        assert run(build_config(experiment)).counters == {
            "enum.prenecklaces": 15955}


def test_main_check_failure_exit_code(capsys):
    # too short a flow time for any return: estimate 0, verdict no
    rc = main(["mix", "--set", "time=1.0", "--set", "samples=20000",
               "--check"])
    out = capsys.readouterr().out
    assert rc == 3
    assert ";no" in out
    rc_ok = main(["count", "--set", "r_grid=2,3", "--check"])
    capsys.readouterr()
    assert rc_ok == 0


def test_main_config_errors(capsys):
    rc = main(["count", "--set", "bogus=1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:")
    assert "bogus" in err
    rc = main(["count", "--set", "novalue"])
    assert rc == 2
    assert "K=V" in capsys.readouterr().err
    rc = main(["count", "--config", "/does/not/exist.cfg"])
    assert rc == 2
    capsys.readouterr()


def test_main_rejects_workers(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--workers", "2"])
    assert exc.value.code == 2
    cfg = tmp_path / "count.cfg"
    cfg.write_text("workers = 2\n")
    assert main(["count", "--config", str(cfg)]) == 2
    assert "unknown key 'workers'" in capsys.readouterr().err


def test_main_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_main_out_and_config_files(tmp_path, capsys):
    cfg = tmp_path / "count.cfg"
    cfg.write_text("r_grid = 2, 3\n")
    out = tmp_path / "report.txt"
    rc = main(["count", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert "2;10;0.732625556" in text
    assert text.rstrip().splitlines()[-1].startswith("# wall_time")


def test_main_out_to_unwritable_path_is_a_usage_error(tmp_path, capsys,
                                                      monkeypatch):
    def no_run(config):
        raise AssertionError("the run started before --out was opened")

    monkeypatch.setattr(cli, "run", no_run)
    rc = main(["count", "--set", "r_grid=2", "--out",
               str(tmp_path / "missing" / "r.txt")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("output error: ")
    assert "No such file or directory" in captured.err


def test_main_out_keeps_an_existing_report_when_the_run_raises(
        tmp_path, monkeypatch):
    def failing(config):
        raise RuntimeError("the run failed")

    kept = tmp_path / "kept.txt"
    kept.write_text("an earlier report\n")
    fresh = tmp_path / "fresh.txt"
    monkeypatch.setattr(cli, "run", failing)
    for path in (kept, fresh):
        with pytest.raises(RuntimeError, match="the run failed"):
            main(["count", "--set", "r_grid=2", "--out", str(path)])
    assert kept.read_text() == "an earlier report\n"
    assert not fresh.exists()
    monkeypatch.undo()
    # a run that finishes replaces the whole file, even a longer one
    kept.write_text("@" * 10_000)
    assert main(["count", "--set", "r_grid=2", "--out", str(kept)]) == 0
    assert kept.read_text().startswith("closed-class counts")
    assert "@" not in kept.read_text()


@pytest.mark.parametrize("argv, key", [
    (["veech", "--set", "step=0.5"], "veech.step"),
    (["veech", "--set", "max_length=8"], "veech.max_length"),
    (["count", "--set", "r_grid=3,8"], "count.r_grid"),
    (["assemble", "--set", "r=8"], "assemble.r"),
    (["lattice", "--set", "tau_grid=2,8"], "lattice.tau_grid"),
    (["lattice", "--set", "spread_radius=3"], "lattice.spread_radius"),
    (["close", "--set", "r_grid=3,6"], "close.r_grid"),
    (["lattice", "--set", "tau_grid=-1,2"], "lattice.tau_grid"),
    (["thin", "--set", "delta_grid=0.5,1"], "thin.delta_grid"),
    (["bias-verify", "--set", "tau_grid=3,50"], "bias-verify.tau_grid"),
    (["mix", "--set", "time=500"], "mix.time"),
    (["veech", "--set", "step=0.0005"], "veech.step"),
    # one class, or one radius, leaves the slope fit a single point
    (["veech", "--set", "max_length=1.3"], "veech.max_length"),
    (["bias-verify", "--set", "tau_grid=3"], "bias-verify.tau_grid"),
    # one systole leaves no thin-to-thick ratio; none is above MAX_SYSTOLE
    (["lattice", "--set", "systole_grid=0.1"], "lattice.systole_grid"),
    (["lattice", "--set", "systole_grid=0.1,1e300"], "lattice.systole_grid"),
    # a lattice window edge past 2^53 at tau = 6, and a census time
    # below the box diameter 0.3 that closing_constants needs t above
    (["lattice", "--set", "systole_grid=1e-14,0.1"], "lattice.systole_grid"),
    (["close", "--set", "r_grid=0.2,1"], "close.r_grid"),
    # a box of radius 0.15 holds at most MAX_BOX_FRACTION of the frames
    (["mix", "--set",
      f"fraction={float(np.nextafter(flow.MAX_BOX_FRACTION, 1.0))!r}"],
     "mix.fraction"),
    (["close", "--set", "fraction=0.3"], "close.fraction"),
    # mix holds every sampled frame at once
    (["mix", "--set", f"samples={flow.MAX_MIX_SAMPLES + 1}"], "mix.samples"),
])
def test_main_rejects_what_a_runner_would_refuse(argv, key, tmp_path, capsys,
                                                 monkeypatch):
    def no_run(config):
        raise AssertionError("the run started on an out-of-range config")

    monkeypatch.setattr(cli, "run", no_run)
    out = tmp_path / "r.txt"
    out.write_text("an earlier report\n")
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert out.read_text() == "an earlier report\n"


def test_veech_fits_its_slope_at_the_shortest_length_admitted(capsys):
    # the classes of traces 3 and 4, the latter of length exactly r
    assert main(["veech", "--set",
                 f"max_length={words.MIN_FIT_LENGTH!r}"]) == 0
    assert "\nclasses = 3\n" in capsys.readouterr().out


@pytest.mark.parametrize("experiment", ["walk", "thin"])
def test_main_refuses_a_row_net_past_its_node_budget(experiment, tmp_path,
                                                     capsys):
    # at tau = 20 the row net's radius is 80 (walk) or 100 (thin), whose
    # node count alone would overflow int64 indices; build_row_net counts
    # the rows' widths in Python integers and refuses it first
    out = tmp_path / "r.txt"
    out.write_text("an earlier report\n")
    fresh = tmp_path / "fresh.txt"
    for path in (out, fresh):
        assert main([experiment, "--set", "tau=20", "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("resource error: ") and "NODE_BUDGET" in err
        assert "Traceback" not in err
    assert out.read_text() == "an earlier report\n"
    assert not fresh.exists()


def test_main_refuses_a_census_past_its_frame_budget(tmp_path, capsys,
                                                     monkeypatch):
    # r = 5 over r_grid[0] = 0.5 asks for 32,000 e^9 = 259,298,686 frames
    def no_sampling(n, rng):
        raise AssertionError("a census started")

    monkeypatch.setattr(flow, "sample_fund", no_sampling)
    out = tmp_path / "r.txt"
    out.write_text("an earlier report\n")
    assert main(["close", "--set", "r_grid=0.5,5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource error: ") and "MAX_CENSUS_FRAMES" in err
    assert "259298686" in err and "Traceback" not in err
    assert out.read_text() == "an earlier report\n"


def test_lattice_runs_at_its_smallest_systole(capsys):
    grid = f"systole_grid={lattice.MIN_SYSTOLE!r},0.1"
    assert main(["lattice", "--set", grid, "--set", "tau_grid=2,7"]) == 0
    assert "orbit_cell_ratio;1e-12;7;" in capsys.readouterr().out


def test_main_seed_controls_body(tmp_path):
    paths = [tmp_path / f"r{i}.txt" for i in range(3)]
    main(["mix", "--set", "time=3.0", "--set", "samples=20000",
          "--seed", "1", "--out", str(paths[0])])
    main(["mix", "--set", "time=3.0", "--set", "samples=20000",
          "--seed", "1", "--out", str(paths[1])])
    main(["mix", "--set", "time=3.0", "--set", "samples=20000",
          "--seed", "2", "--out", str(paths[2])])
    b0, b1, b2 = (_body(p.read_text()) for p in paths)
    assert b0 == b1  # identical seeds give identical bodies
    assert b0 != b2
    assert "seed = 1" in b0


def test_run_sets_wall_time():
    report = run(build_config("count", overrides={"r_grid": "2"}))
    assert report.wall_time is not None and report.wall_time >= 0.0
    assert "#" not in report.to_text(deterministic_only=True)


def test_close_body_is_pinned():
    # perfbench/golden.json does not pin close; this digest does, at the
    # default seed.  A change to the census's random stream re-pins it.
    body = run(build_config("close")).to_text(deterministic_only=True)
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "d2298612a225d9069e1affeed304c4fca28c2f55af753e466a2f788e1221c3ab")


def test_lattice_footer_counts_rows_and_families():
    report = run(build_config("lattice", overrides={"tau_grid": "2, 3"}))
    # rows_built and words_built are the largest walk's: the one about i
    # at tau = 3, which builds an R-run word only with an L-run child (193
    # words without that cut)
    assert report.counters == {"lattice.coprime_rows": 487,
                               "lattice.families": 253,
                               "lattice.rows_built": 97,
                               "lattice.words_built": 135}
    footer = [ln for ln in report.to_text().splitlines() if ln.startswith("#")]
    assert footer[1:5] == ["# count.lattice.coprime_rows = 487",
                           "# count.lattice.families = 253",
                           "# count.lattice.rows_built = 97",
                           "# count.lattice.words_built = 135"]
    assert footer[-1].startswith("# wall_time")
    assert "#" not in report.to_text(deterministic_only=True)


def test_lattice_default_footer_is_pinned():
    # one walk per centre serves the whole tau grid; the rows scanned and
    # the families kept are summed over the radii as one walk each gave.
    # The walk about i at tau = 6 builds the most rows: (1, -1) and its
    # L-run rows (c, e), each standing for its mirror (c, -e) too; with the
    # mirrors it would build 77,713, and with its R-run rows and (1, 0)
    # as well 155,427.  It builds 54,770 tree words, of which 15,914 end in
    # an R-run; with the R-run words that have no L-run child, 77,713.  The
    # walk's extent is taken over the exact windows
    report = run(build_config("lattice"))
    footer = [ln for ln in report.to_text().splitlines() if ln.startswith("#")]
    assert footer[1:5] == ["# count.lattice.coprime_rows = 199492",
                           "# count.lattice.families = 102964",
                           "# count.lattice.rows_built = 38857",
                           "# count.lattice.words_built = 54770"]


def test_thin_footer_counts_one_sweep_per_net():
    # three deltas and twelve almost-closed counts, from one systole sweep
    # and one return-mask sweep over the reach the three DPs share
    report = run(build_config("thin"))
    # the reach is symmetric about x = 0, so the sweep reduces half of it
    assert report.counters == {"walk.row_net_nodes": 2259155,
                               "walk.reach_nodes": 47037,
                               "walk.swept_points": 23524,
                               "walk.window_targets": 24345,
                               "walk.systole_sweeps": 1,
                               "walk.return_mask_sweeps": 1}
    footer = [ln for ln in report.to_text().splitlines() if ln.startswith("#")]
    assert "# count.walk.row_net_nodes = 2259155" in footer
    assert "# count.walk.reach_nodes = 47037" in footer
    assert "# count.walk.swept_points = 23524" in footer
    assert "# count.walk.window_targets = 24345" in footer
    assert "# count.walk.systole_sweeps = 1" in footer
    assert "# count.walk.return_mask_sweeps = 1" in footer
    assert "#" not in report.to_text(deterministic_only=True)


def test_walk_and_veech_footers():
    # at default config the DP reaches 17,392 of the net's nodes, and the
    # reach is symmetric about x = 0, so the sweep reduces half of them;
    # the two DPs evaluate the window sums of 24,656 target nodes in all
    default = run(build_config("walk"))
    assert default.counters == {"walk.row_net_nodes": 6149498,
                                "walk.reach_nodes": 17392,
                                "walk.swept_points": 8702,
                                "walk.window_targets": 24656,
                                "walk.systole_sweeps": 1}
    assert "# count.walk.window_targets = 24656" in default.to_text()
    walk = run(build_config("walk", overrides={"tau": "1.5", "steps": "3"}))
    assert walk.counters == {"walk.row_net_nodes": 3755,
                             "walk.reach_nodes": 627,
                             "walk.swept_points": 317,
                             "walk.window_targets": 927,
                             "walk.systole_sweeps": 1}
    assert "# count.walk.reach_nodes = 627" in walk.to_text()
    assert "# count.walk.swept_points = 317" in walk.to_text()
    assert "#" not in default.to_text(deterministic_only=True)
    veech = run(build_config("veech", overrides={"max_length": "3"}))
    # one sample grid per class of the 74, which the enumeration reaches
    # through 79 prenecklaces; of the grids' 9,440 samples, the 271 beside
    # the highest apexes are reduced
    assert veech.counters == {"enum.prenecklaces": 79,
                              "veech.axis_points": 9440,
                              "veech.reduced_points": 271}
    assert "# count.veech.axis_points = 9440" in veech.to_text()
    assert "# count.veech.reduced_points = 271" in veech.to_text()


def test_enumerating_runs_count_the_prenecklaces_expanded():
    # at R = 6 the generator expands 15,955 frontier rows, the empty word
    # included, to emit the 14,904 primitive classes
    for experiment in ("count", "assemble", "veech"):
        report = run(build_config(experiment))
        assert report.counters["enum.prenecklaces"] == 15955
        assert "# count.enum.prenecklaces = 15955" in report.to_text()
        assert "#" not in report.to_text(deterministic_only=True)


def test_bias_verify_footers_count_the_quadrature_work():
    # tau = 3 converges in 21 inner quadratures; tau = 7 takes 525, and 127
    # of them plus the outer quadrature come back unconverged
    report = run(build_config("bias-verify", overrides={
        "tau_grid": "3, 7", "samples": "1000"}))
    assert report.counters == {"bias.inner_quads": 546,
                               "bias.integrand_evals": 917700,
                               "bias.quad_unconverged": 128}
    footer = [ln for ln in report.to_text().splitlines() if ln.startswith("#")]
    assert "# count.bias.inner_quads = 546" in footer
    assert "# count.bias.integrand_evals = 917700" in footer
    assert "# count.bias.quad_unconverged = 128" in footer
    assert "#" not in report.to_text(deterministic_only=True)


def test_report_helpers():
    assert fmt_value(0.1 + 0.2) == "0.3"
    assert fmt_value(1.10056597) == "1.10056597"
    assert fmt_value(np.float64(2.5)) == "2.5"
    assert fmt_value(np.int64(7)) == "7"
    assert fmt_value("yes") == "yes"
    s, b = ls_slope([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
    assert s == pytest.approx(2.0, rel=1e-12)
    assert b == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        ls_slope([1.0], [2.0])
    with pytest.raises(ValueError):
        ls_slope([1.0, 1.0], [2.0, 3.0])


def test_report_layout_sorted_and_stable():
    rep = CountReport(title="t", params={"b": 2, "a": 1.5},
                      columns=("x", "ok"), rows=[(1.0, "yes")],
                      derived={"z": 0.25, "a": "yes"})
    text = rep.to_text(deterministic_only=True)
    assert text.splitlines() == [
        "t", "a = 1.5", "b = 2", "", "x;ok", "1;yes", "",
        "a = yes", "z = 0.25"]


@pytest.mark.parametrize("height", ["1e150", "1e300"])
def test_main_refuses_a_row_net_past_float64(height, tmp_path, capsys):
    out = tmp_path / "r.txt"
    assert main(["thin", "--set", f"base_height={height}", "--out",
                 str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource error: ") and "float64 range" in err
    assert "Traceback" not in err and not out.exists()
