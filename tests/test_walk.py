import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodlab import walk
from geodlab.halfplane import ModelPoint, hyp_dist_arrays, sample_ball_arrays
from geodlab.torus import systole_values
from geodlab.walk import (NET_COVERING, NET_SEPARATION, NetRow, ResourceError,
                          _is_thin, _reach, _windows, build_net, build_row_net,
                          count_trajectories, net_size_slope)


def test_greedy_net_sizes_frozen():
    sizes, slope = net_size_slope(ModelPoint(0, 1), [1.5, 2.0, 2.5, 3.0, 3.5],
                                  np.random.default_rng(0))
    assert sizes == [13, 35, 96, 284, 735]
    assert slope == pytest.approx(2.032694, abs=1e-5)


def test_greedy_net_separation_and_coverage():
    net = build_net(ModelPoint(0, 1), 2.0, np.random.default_rng(1))
    assert net.size == 35
    # brute-force pairwise separation, in the model metric
    d = 0.5 * hyp_dist_arrays(net.x[:, None], net.y[:, None],
                              net.x[None, :], net.y[None, :])
    sep = d[~np.eye(net.size, dtype=bool)].min()
    assert sep >= NET_SEPARATION
    assert sep == pytest.approx(1.004436, abs=1e-5)
    px, py = sample_ball_arrays(ModelPoint(0, 1), 2.0, 2000,
                                np.random.default_rng(2))
    gap = 0.5 * hyp_dist_arrays(px[:, None], py[:, None],
                                net.x[None, :], net.y[None, :]).min(axis=1).max()
    assert gap <= NET_COVERING
    assert gap == pytest.approx(1.061005, abs=1e-5)


def test_greedy_net_stream_deterministic():
    a = build_net(ModelPoint(0, 1), 2.0, np.random.default_rng(1))
    b = build_net(ModelPoint(0, 1), 2.0, np.random.default_rng(99))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_greedy_net_guards():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        build_net(ModelPoint(0, 1), 9.0, rng)
    net0 = build_net(ModelPoint(0.3, 1.7), 0.0, rng)
    assert net0.size == 1 and net0.x[0] == 0.3 and net0.y[0] == 1.7
    with pytest.raises(ValueError):
        net_size_slope(ModelPoint(0, 1), [2.0], rng)


def test_row_net_structure():
    net = build_row_net(5.0, ModelPoint(0.0, 5.0), 3.0)
    assert len(net.rows) == 5
    assert net.node_count == 187
    # rows at 5 e^{2k} for consecutive k
    k = [math.log(r.y / 5.0) / 2.0 for r in net.rows]
    assert k == pytest.approx(list(range(round(k[0]), round(k[0]) + 5)),
                              abs=1e-12)
    for r in net.rows:
        assert r.s == pytest.approx(2.4 * r.y, rel=1e-12)
        assert r.n == r.j_hi - r.j_lo + 1


def test_row_net_guards_and_kmin():
    with pytest.raises(ValueError):
        build_row_net(0.0, ModelPoint(0, 1), 2.0)
    with pytest.raises(ValueError):
        build_row_net(1.0, ModelPoint(0, 1), 0.0)


def test_thin_mask_semantics():
    net = build_row_net(5.0, ModelPoint(0.0, 5.0), 3.0)
    with pytest.raises(ValueError):
        net.thin_mask(0.0)
    with pytest.raises(ValueError):
        net.thin_mask(1.0)
    mask = net.thin_mask(0.2)
    for r, m in zip(net.rows, mask):
        if r.y >= 5.0:  # systole 1/y <= 0.2 on high rows
            assert m.min() == 1.0
        sy = systole_values(r.xs(), np.full(r.n, r.y))
        assert np.array_equal(m, (sy <= 0.2 * (1.0 + 1e-12)).astype(float))


DELTA = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
BAD_DELTA = st.sampled_from([0.0, 1.0, -0.1, 1.5, math.nan])


@settings(deadline=None, max_examples=25)
@given(st.lists(DELTA, min_size=1, max_size=4), BAD_DELTA)
def test_thin_masks_one_sweep_matches_fresh(deltas, bad):
    net = build_row_net(5.0, ModelPoint(0.0, 5.0), 3.0)
    with pytest.raises(ValueError):
        net.thin_masks(deltas + [bad])
    counters = Counter()
    masks = net.thin_masks(deltas, counters)
    # the failed call cached nothing, so this call had to sweep; the
    # symmetric rows of 115, 45, 17, 7 and 3 nodes reduce 58 + 23 + 9 + 4 + 2
    assert counters == {"walk.systole_sweeps": 1, "walk.swept_points": 96}
    assert len(masks) == len(deltas)
    for d, mask in zip(deltas, masks):
        fresh = [_is_thin(systole_values(r.xs(), np.full(r.n, r.y)), d)
                 for r in net.rows]
        assert len(mask) == len(fresh)
        assert all(m.dtype == bool and np.array_equal(m, f)
                   for m, f in zip(mask, fresh))
        assert net.thin_mask(d, counters) is mask
    assert counters == {"walk.systole_sweeps": 1, "walk.swept_points": 96}


def _on_net(net, reach, counts):
    """Per-row counts on the reach net, laid out on the rows of net with
    zeros outside the reach."""
    inside = {r.y: (r, c) for r, c in zip(reach.rows, counts)}
    out = []
    for r in net.rows:
        full = np.zeros(r.n)
        if r.y in inside:
            rr, c = inside[r.y]
            full[rr.j_lo - r.j_lo: rr.j_hi - r.j_lo + 1] = c
        out.append(full)
    return out


def test_dp_counts_frozen_and_brute():
    net = build_row_net(5.0, ModelPoint(0.0, 5.0), 3.0)
    base = ModelPoint(0.0, 5.0)
    fam = count_trajectories(net, base, 1.5, 2, keep_steps=True)
    assert fam.per_step == (13.0, 161.0)
    famt = count_trajectories(net, base, 1.5, 2, thin_delta=0.2)
    assert famt.per_step == (4.0, 25.0)
    # brute force over explicit node coordinates
    nx = np.concatenate([r.xs() for r in net.rows])
    ny = np.concatenate([np.full(r.n, r.y) for r in net.rows])
    d0 = 0.5 * hyp_dist_arrays(np.array([base.x])[:, None],
                               np.array([base.y])[:, None],
                               nx[None, :], ny[None, :])[0]
    start = d0 <= 1.5
    assert int(start.sum()) == 13
    dm = 0.5 * hyp_dist_arrays(nx[:, None], ny[:, None],
                               nx[None, :], ny[None, :])
    assert int(((dm[start, :] <= 1.5)).sum()) == 161


def test_dp_snapshots_and_weights():
    net = build_row_net(5.0, ModelPoint(0.0, 5.0), 3.0)
    base = ModelPoint(0.0, 5.0)
    fam = count_trajectories(net, base, 1.5, 2, keep_steps=True)
    assert fam.per_step[-1] == 161.0
    first = fam.endpoint_counts(step=1)
    assert sum(float(c.sum()) for c in first) == 13.0
    last = fam.endpoint_counts()
    assert sum(float(c.sum()) for c in last) == 161.0
    bare = count_trajectories(net, base, 1.5, 2)
    with pytest.raises(ValueError):
        bare.endpoint_counts(step=1)


def _almost_closed_loop(net, base, counts, tol):
    """Endpoint counts within tol of the base, node by node."""
    total = 0.0
    for r, c in zip(net.rows, counts):
        for j, cnt in zip(range(r.j_lo, r.j_hi + 1), c):
            x = j * r.s - base.x
            x -= round(x)  # unit translation identification
            d = 0.5 * math.acosh(1.0 + (x * x + (r.y - base.y) ** 2)
                                 / (2.0 * r.y * base.y))
            if d <= tol:
                total += cnt
    return total


def test_almost_closed_brute():
    net = build_row_net(5.0, ModelPoint(0.0, 5.0), 3.0)
    base = ModelPoint(0.0, 5.0)
    fam = count_trajectories(net, base, 1.5, 2)
    got = fam.almost_closed(1.0)
    assert got == 37.0
    assert got == _almost_closed_loop(fam.net, base, fam.node_counts, 1.0)
    assert got == _almost_closed_loop(
        net, base, _on_net(net, fam.net, fam.node_counts), 1.0)


def test_return_mask_cached_per_base_and_tolerance():
    # two bases and two tolerances on one net, interleaved: a mask cached
    # for one (base, tol) must never answer for another
    net = build_row_net(5.0, ModelPoint(0.0, 5.0), 3.0)
    fams = [count_trajectories(net, base, 1.5, 2, keep_steps=True)
            for base in (ModelPoint(0.0, 5.0), ModelPoint(0.3, 8.0))]
    counters = Counter()
    seen = set()
    for _ in range(2):
        for tol in (1.2, 0.7):
            for fam in fams:
                for step in (1, 2):
                    got = fam.almost_closed(tol, step=step, counters=counters)
                    want = _almost_closed_loop(
                        fam.net, fam.base, fam.endpoint_counts(step), tol)
                    assert got == want
                    seen.add(got)
    assert len(seen) == 8  # every (base, tol, step) gives its own count
    assert counters == {"walk.return_mask_sweeps": 4}


@pytest.mark.parametrize("thin_delta", [None, 0.2])
def test_step_snapshots_match_shorter_runs(thin_delta):
    # snapshots alias the DP's arrays; a later step must not overwrite one
    net = build_row_net(5.0, ModelPoint(0.0, 5.0), 3.0)
    base = ModelPoint(0.0, 5.0)
    fam = count_trajectories(net, base, 1.5, 4, thin_delta=thin_delta,
                             keep_steps=True)
    assert len(fam.step_snapshots) == 4
    for i in range(1, 5):
        # a shorter run has a smaller reach: compare on the whole net
        short = count_trajectories(net, base, 1.5, i, thin_delta=thin_delta)
        snap = _on_net(net, fam.net, fam.endpoint_counts(step=i))
        want = _on_net(net, short.net, short.node_counts)
        assert all(np.array_equal(a, b) for a, b in zip(snap, want))
        assert fam.per_step[i - 1] == short.per_step[-1]


def test_endpoint_counts_rejects_steps_outside_the_run():
    net = build_row_net(5.0, ModelPoint(0.0, 5.0), 3.0)
    fam = count_trajectories(net, ModelPoint(0.0, 5.0), 1.5, 2,
                             keep_steps=True)
    assert fam.almost_closed(0.5, step=2) == 29.0
    assert fam.almost_closed(0.5, step=1) != 29.0
    for step in (0, -1, 3):
        with pytest.raises(ValueError, match=r"^step must lie in 1\.\.2$"):
            fam.endpoint_counts(step)
        with pytest.raises(ValueError):
            fam.almost_closed(0.5, step=step)


def test_dp_guards(monkeypatch):
    net = build_row_net(5.0, ModelPoint(0.0, 5.0), 3.0)
    base = ModelPoint(0.0, 5.0)
    with pytest.raises(ValueError):
        count_trajectories(net, base, 1.5, 0)
    with pytest.raises(ValueError):
        count_trajectories(net, base, 0.0, 2)
    monkeypatch.setattr(walk, "NODE_BUDGET", 10)
    with pytest.raises(ResourceError, match=r"^row net has 187 nodes, over "
                       r"the 10 node budget$"):
        count_trajectories(net, base, 1.5, 2)


def test_row_net_budget_is_checked_before_any_array(monkeypatch):
    net = build_row_net(5.0, ModelPoint(0.0, 5.0), 3.0)
    assert net.node_count == 187
    # the widths are summed in Python integers and nothing touches numpy
    monkeypatch.setattr(walk, "np", None)
    monkeypatch.setattr(walk, "NODE_BUDGET", 187)
    assert build_row_net(5.0, ModelPoint(0.0, 5.0), 3.0).rows == net.rows
    monkeypatch.setattr(walk, "NODE_BUDGET", 186)
    with pytest.raises(ResourceError, match="NODE_BUDGET = 186 nodes$"):
        build_row_net(5.0, ModelPoint(0.0, 5.0), 3.0)
    monkeypatch.undo()
    # radii whose widths pass int64, or whose cosh passes float64
    for radius in (80.0, 1000.0):
        with pytest.raises(ResourceError, match="NODE_BUDGET"):
            build_row_net(20.0, ModelPoint(0.0, 1.0), radius)


def test_dp_raises_where_float_counts_stop_being_exact(monkeypatch):
    net = build_row_net(5.0, ModelPoint(0.0, 5.0), 3.0)
    base = ModelPoint(0.0, 5.0)
    # per-step totals are 13 then 161: a limit between them trips step 2
    monkeypatch.setattr(walk, "EXACT_COUNT_LIMIT", 161.0)
    with pytest.raises(OverflowError):
        count_trajectories(net, base, 1.5, 2)
    assert count_trajectories(net, base, 1.5, 1).per_step == (13.0,)
    monkeypatch.setattr(walk, "EXACT_COUNT_LIMIT", 13.0)
    with pytest.raises(OverflowError):
        count_trajectories(net, base, 1.5, 1)


CENTER_X = st.one_of(st.just(0.0), st.floats(-60.0, 60.0))


@settings(deadline=None, max_examples=60)
@given(st.floats(0.5, 8.0), CENTER_X, st.floats(0.3, 6.0),
       st.floats(0.3, 2.5))
@example(5.0, 0.0, 5.0, 3.0)  # symmetric rows about x = 0
@example(1.0, 0.37, 1.0, 2.5)  # off-centre: rows straddle 0 unevenly
@example(0.5, -40.0, 3.0, 2.5)  # rows of only negative j, and j_hi = 0
@example(0.5, 40.0, 3.0, 2.5)  # rows of only positive j, and j_lo = 0
def test_half_row_sweep_matches_direct_sweep(anchor, cx, cy, radius):
    net = build_row_net(anchor, ModelPoint(cx, cy), radius)
    counters = Counter()
    rows = list(net.node_systoles(counters))
    assert len(rows) == len(net.rows)
    for r, sy in zip(net.rows, rows):
        assert np.array_equal(sy, systole_values(r.xs(), np.full(r.n, r.y)))
    # one reduced point per distinct |j| of each row
    assert counters["walk.swept_points"] == sum(
        len(set(np.abs(np.arange(r.j_lo, r.j_hi + 1)))) for r in net.rows)


ROW_END = st.integers(-300, 300)


@settings(deadline=None, max_examples=200)
@given(ROW_END, ROW_END, st.floats(1e-3, 10.0), ROW_END, ROW_END,
       st.floats(1e-3, 10.0), st.floats(1e-4, 50.0),
       st.sampled_from([1, 3, 64, walk.DP_CHUNK]))
# one source node at x = 10 and targets at x = 6, 9, 12: the row ends
# prove targets 9 and 12, and neither window holds the source node
@example(1, 1, 10.0, 2, 4, 3.0, 0.5, 1)
def test_reach_covers_every_nonempty_window(a0, a1, ss, b0, b1, st_, w,
                                            chunk):
    rs = NetRow(1.0, ss, min(a0, a1), max(a0, a1))
    rt = NetRow(1.0, st_, min(b0, b1), max(b0, b1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walk, "DP_CHUNK", chunk)  # so the scan crosses chunks
        t0, t1 = _reach(rs, rt, w)
    lo, hi = _windows(rs, rt, w, np.arange(rt.j_lo, rt.j_hi + 1))
    met = np.flatnonzero(hi > lo)
    # every target whose window holds a source node lies in t0..t1
    assert met.size == 0 or t0 <= met[0] and met[-1] <= t1
    if 2.0 * w < ss:
        # and for near-tangent rows the range is tight: both ends have a
        # nonempty window, or the range is empty and so is every window
        if met.size:
            assert (t0, t1) == (met[0], met[-1])
        else:
            assert t0 > t1


@settings(deadline=None, max_examples=200)
@given(ROW_END, ROW_END, st.floats(1e-3, 10.0), ROW_END, ROW_END,
       st.floats(1e-3, 10.0), st.floats(1e-4, 50.0), st.integers(0, 400))
# a one-node source row inside a wide target row padded on both sides:
# windows clipped to 0 before it and to rs.n after it
@example(0, 0, 1.0, -5, 5, 1.0, 0.5, 10)
def test_windows_equal_the_clip_form(a0, a1, ss, b0, b1, st_, w, pad):
    rs = NetRow(1.0, ss, min(a0, a1), max(a0, a1))
    rt = NetRow(1.0, st_, min(b0, b1), max(b0, b1))
    # targets past both ends of the target row as well as on it
    jt = np.arange(rt.j_lo - pad, rt.j_hi + pad + 1)
    xt = jt * rt.s
    lo = np.clip(np.ceil((xt - w) / rs.s).astype(np.int64) - rs.j_lo,
                 0, rs.n)
    hi = np.clip(np.floor((xt + w) / rs.s).astype(np.int64) - rs.j_lo + 1,
                 0, rs.n)
    got_lo, got_hi = _windows(rs, rt, w, jt)
    assert np.array_equal(got_lo, lo)
    assert np.array_equal(got_hi, np.maximum(hi, lo))


def _full_row_dp(net, base, tau, n_steps, thin_delta):
    """Per-step node counts from the full-row DP: every target node of
    every row pair is evaluated, then the thin mask zeroes the dropped."""
    mask = None
    if thin_delta is not None:
        mask = [_is_thin(systole_values(r.xs(), np.full(r.n, r.y)),
                         thin_delta) for r in net.rows]
    ch = math.cosh(2.0 * tau) - 1.0
    rows = net.rows
    counts = []
    for r in rows:
        w2 = 2.0 * r.y * base.y * ch - (r.y - base.y) ** 2
        c = np.zeros(r.n)
        if w2 > 0:
            w = math.sqrt(w2)
            lo = max(r.j_lo, math.ceil((base.x - w) / r.s))
            hi = min(r.j_hi, math.floor((base.x + w) / r.s))
            if hi >= lo:
                c[lo - r.j_lo: hi - r.j_lo + 1] = 1.0
        counts.append(c)
    if mask is not None:
        counts = [c * m for c, m in zip(counts, mask)]
    steps = [counts]
    for _ in range(n_steps - 1):
        new = [np.zeros(r.n) for r in rows]
        for si, rs in enumerate(rows):
            pref = np.concatenate(([0.0], np.cumsum(counts[si])))
            for ti, rt in enumerate(rows):
                w2 = 2.0 * rs.y * rt.y * ch - (rs.y - rt.y) ** 2
                if w2 <= 0:
                    continue
                w = math.sqrt(w2)
                xt = np.arange(rt.j_lo, rt.j_hi + 1) * rt.s
                lo = np.ceil((xt - w) / rs.s).astype(np.int64)
                hi = np.floor((xt + w) / rs.s).astype(np.int64)
                lo = np.clip(lo - rs.j_lo, 0, rs.n)
                hi = np.clip(hi - rs.j_lo + 1, 0, rs.n)
                hi = np.maximum(hi, lo)
                new[ti] += pref[hi] - pref[lo]
        if mask is not None:
            new = [c * m for c, m in zip(new, mask)]
        counts = new
        steps.append(counts)
    return steps


@settings(deadline=None, max_examples=40)
@given(st.floats(1.0, 8.0), CENTER_X, st.floats(1.0, 8.0),
       st.floats(0.5, 1.5), st.integers(1, 4),
       st.one_of(st.none(), st.floats(0.1, 0.6)),
       st.sampled_from([1, 2, 3, 7]))
@example(5.0, 0.0, 5.0, 1.5, 3, 0.2, 2)
@example(5.0, 0.0, 5.0, 1.5, 3, None, 3)
# near-tangent row pairs (2 w below the source spacing): _reach clips
# their ranges to the nonempty windows, which shrinks this reach from 88
# nodes to 15, and in the second net empties some ranges altogether
@example(8.0, 0.0, 1.0, 1.0, 3, None, 2)
@example(8.0, 0.37, 1.0, 1.0, 4, 0.3, 3)
def test_chunked_dp_matches_full_row_dp(anchor, cx, cy, tau, n_steps,
                                        thin_delta, chunk):
    center = ModelPoint(cx, cy)
    net = build_row_net(anchor, center, min(tau * n_steps, 3.0))
    base = ModelPoint(cx + 0.1, cy)
    want = _full_row_dp(net, base, tau, n_steps, thin_delta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walk, "DP_CHUNK", chunk)  # so chunk edges are crossed
        fam = count_trajectories(net, base, tau, n_steps,
                                 thin_delta=thin_delta, keep_steps=True)
    reach = fam.net
    assert reach is net.reach(base, tau, n_steps)
    # every reach row is a nonempty piece of its row of the full net, the
    # row of its height
    full = {r.y: r for r in net.rows}
    assert len(full) == len(net.rows)
    for rr in reach.rows:
        r = full[rr.y]
        assert (rr.y, rr.s) == (r.y, r.s)
        assert r.j_lo <= rr.j_lo <= rr.j_hi <= r.j_hi
    assert fam.per_step == tuple(sum(float(c.sum()) for c in counts)
                                 for counts in want)
    assert len(fam.step_snapshots) == n_steps
    inside = {rr.y: rr for rr in reach.rows}
    for snap, counts in zip(fam.step_snapshots, want):
        assert len(snap) == len(reach.rows)
        got = dict(zip(inside, snap))
        for r, c in zip(net.rows, counts):
            kept = np.zeros(r.n, dtype=bool)
            if r.y in inside:
                rr = inside[r.y]
                part = slice(rr.j_lo - r.j_lo, rr.j_hi - r.j_lo + 1)
                # node for node inside the reach
                assert np.array_equal(got[r.y], c[part])
                kept[part] = True
            # and the full-row DP is exactly zero outside it
            assert not c[~kept].any()


def test_span_recurrence_runs_once_per_step(monkeypatch):
    # the reach and every DP on it share one run of the span recurrence
    net = build_row_net(5.0, ModelPoint(0.0, 1.0), 3.0)
    base = ModelPoint(0.1, 1.0)
    calls = []
    span_step = walk._span_step
    monkeypatch.setattr(walk, "_span_step",
                        lambda *a: calls.append(a) or span_step(*a))
    plain = count_trajectories(net, base, 1.5, 3)
    thin = count_trajectories(net, base, 1.5, 3, thin_delta=0.2)
    assert len(calls) == 2
    assert all(rows is net.rows for rows, _, _ in calls)
    assert plain.net is thin.net is net.reach(base, 1.5, 3)
    assert plain.per_step == (14.0, 172.0, 1410.0)
    assert thin.per_step == (2.0, 8.0, 37.0)


def test_walk_default_reach_is_the_nonzero_nodes_and_little_more():
    # walk's unmasked DP at default config keeps the whole net's totals,
    # so the reach holds every node nonzero at some step, and few others
    net = build_row_net(20.0, ModelPoint(0.0, 1.0), 8.0)
    fam = count_trajectories(net, ModelPoint(0.0, 1.0), 2.0, 4,
                             keep_steps=True)
    assert fam.net is net.reach(ModelPoint(0.0, 1.0), 2.0, 4)
    assert fam.per_step == (34.0, 836.0, 20611.0, 508222.0)
    nonzero = sum(int(np.logical_or.reduce([s[i] != 0 for s in
                                            fam.step_snapshots]).sum())
                  for i in range(len(fam.net.rows)))
    assert nonzero == 16602
    assert fam.net.node_count == 17392


def test_dp_peak_memory_is_two_count_arrays_and_one_prefix():
    # walk's default net: the DP holds this step's and the next step's
    # counts on the reach (8 bytes a node each), one source prefix sum at
    # a time, and the temporaries of one chunk of _add_window_sums.  Those
    # are at most six 8-byte arrays as long as the chunk: jt, _windows' x
    # and its two live ends (with two scratch arrays while it clips), and
    # then pref[hi], pref[lo] and their difference next to jt, lo and hi.
    # A chunk is a piece of one target row, so it is no longer than the
    # longest row.
    net = build_row_net(20.0, ModelPoint(0.0, 1.0), 8.0)
    assert net.node_count == 6149498
    reach = net.reach(ModelPoint(0.0, 1.0), 2.0, 4)
    n = reach.node_count
    assert n == 17392
    longest = max(r.n for r in reach.rows)
    bound = 16 * n + 8 * longest + 6 * 8 * min(walk.DP_CHUNK, longest)
    tracemalloc.start()
    try:
        count_trajectories(net, ModelPoint(0.0, 1.0), 2.0, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("height", [1e150, 1e300])
def test_row_net_refuses_windows_past_float64_before_any_array(height,
                                                               monkeypatch):
    # at these heights a row's slice width, or its row ends, leave float64
    monkeypatch.setattr(walk, "np", None)
    with pytest.raises(ResourceError, match="beyond the float64 range$"):
        build_row_net(height, ModelPoint(0.0, height), 7.5)
