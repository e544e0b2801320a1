import dataclasses
import gc
import itertools
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lpkmeans.certify
from lpkmeans.certify import (
    PairValues,
    _pair_slacks,
    certify,
    gamma_values,
    proximity_check,
    two_cluster_stats,
)
from lpkmeans.core import (
    Partition,
    PointSet,
    is_partition_matrix,
    kmeans_cost,
    squared_distances,
    unpack_matrix,
)
from lpkmeans.generators import GenSpec, generate
from lpkmeans.lp_model import all_cuts, build
from lpkmeans.solver import solve


def oracle_stats_and_gamma(d, assign):
    """Straight-line reimplementation of the pair conditions, kept separate
    from the package code on purpose."""
    groups = [np.flatnonzero(assign == v) for v in np.unique(assign)]
    groups.sort(key=lambda g: g.size)
    g1, g2 = groups
    n = len(assign)
    r1 = 2 * len(g1) / n
    r2 = 2 * len(g2) / n
    d_in = {}
    for grp in (g1, g2):
        for i in grp:
            d_in[i] = sum(d[i, j] for j in grp) / len(grp)
    din1 = [d_in[i] for i in g1]
    din2 = [d_in[i] for i in g2]
    eta = (r2 / 2) * (
        (1 - r1 / r2) * max(din1)
        + (1 - r2 / r1) * min(din2)
        + (r1 / r2) * (sum(din1) / len(din1))
        + (r2 / r1) * (sum(din2) / len(din2))
    )
    gamma = {}
    for own, other, ratio, thresh in (
        (g1, g2, r2, eta),
        (g2, g1, r1, (r1 / r2) * eta),
    ):
        for a, b in itertools.combinations(own, 2):
            acc = 0.0
            for k in other:
                acc += min(ratio * d[a, k] + d_in[b], ratio * d[b, k] + d_in[a])
            acc /= len(other)
            gamma[(int(a), int(b))] = 2 * acc - 2 * d[a, b] - 2 * thresh
    return r1, r2, eta, d_in, gamma


def pair_dict(values: PairValues) -> dict:
    out = {}
    for c in (0, 1):
        members = values.clusters[c]
        au, bu = np.triu_indices(members.size, 1)
        for t in range(au.size):
            out[(int(members[au[t]]), int(members[bu[t]]))] = float(values.values[c][t])
    return out


# ---------------------------------------------------------------------------
# stats and gamma
# ---------------------------------------------------------------------------


def test_stats_unequal_sizes_ratios():
    rng = np.random.default_rng(71)
    pts = PointSet(rng.normal(size=(8, 2)))
    p = Partition(2, np.array([0, 0, 1, 1, 1, 1, 1, 1]))
    st = two_cluster_stats(squared_distances(pts), p)
    assert st.r1 == 0.5 and st.r2 == 1.5
    assert st.r1 + st.r2 == 2.0


def test_stats_equal_sizes_constant_din_eta():
    # two opposite unit-square edges: every point has mean within-cluster
    # distance 1/2, so eta must equal exactly that constant
    pts = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 7.0], [1.0, 7.0]]))
    p = Partition(2, np.array([0, 0, 1, 1]))
    st = two_cluster_stats(squared_distances(pts), p)
    assert np.allclose(st.d_in, 0.5)
    assert st.eta == pytest.approx(0.5, abs=1e-15)


def test_stats_swapped_labels_reorder():
    rng = np.random.default_rng(72)
    pts = PointSet(rng.normal(size=(7, 2)))
    assign = np.array([0, 0, 0, 0, 0, 1, 1])
    st = two_cluster_stats(squared_distances(pts), Partition(2, assign))
    assert st.clusters[0].size == 2 and st.clusters[1].size == 5
    assert st.r1 == pytest.approx(4 / 7)


def test_stats_rejects_wrong_k(five_point):
    points, _, d = five_point
    with pytest.raises(ValueError):
        two_cluster_stats(d, Partition(3, np.array([0, 1, 2, 0, 1])))


def test_five_point_stats_match_oracle(five_point):
    _, planted, d = five_point
    st = two_cluster_stats(d, planted)
    r1, r2, eta, d_in, _ = oracle_stats_and_gamma(d, planted.assign)
    assert st.r1 == pytest.approx(r1) and st.r2 == pytest.approx(r2)
    assert st.eta == pytest.approx(eta, abs=1e-14)
    assert st.eta == pytest.approx(59 / 120, abs=1e-14)
    for i in range(5):
        assert st.d_in[i] == pytest.approx(d_in[i], abs=1e-14)


def test_five_point_gamma_match_oracle(five_point):
    _, planted, d = five_point
    mine = pair_dict(gamma_values(d, planted))
    _, _, _, _, expected = oracle_stats_and_gamma(d, planted.assign)
    assert set(mine) == set(expected)
    for key, v in expected.items():
        assert mine[key] == pytest.approx(v, abs=1e-13)
    # frozen values from the straight-line evaluation
    assert mine[(0, 3)] == pytest.approx(-1 / 6, abs=1e-13)
    assert mine[(1, 2)] == pytest.approx(-1 / 3, abs=1e-13)
    assert mine[(1, 4)] == pytest.approx(1 / 36, abs=1e-13)
    assert mine[(2, 4)] == pytest.approx(1 / 36, abs=1e-13)


def test_gamma_matches_oracle_random():
    rng = np.random.default_rng(73)
    for _ in range(10):
        n = int(rng.integers(5, 14))
        pts = PointSet(rng.normal(size=(n, 2)))
        assign = np.zeros(n, dtype=int)
        assign[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
        if len(np.unique(assign)) != 2:
            continue
        d = squared_distances(pts)
        p = Partition(2, assign)
        mine = pair_dict(gamma_values(d, p))
        _, _, _, _, expected = oracle_stats_and_gamma(d, assign)
        for key, v in expected.items():
            assert mine[key] == pytest.approx(v, abs=1e-12)


@st.composite
def two_cluster_instances(draw, max_size=8):
    """Points in two clusters of random, possibly unequal sizes down to a
    single point, some of them duplicates of others."""
    sizes = (draw(st.integers(1, max_size)), draw(st.integers(1, max_size)))
    n = sum(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = rng.normal(scale=2.0 ** draw(st.integers(-3, 3)), size=(n, 2))
    for _ in range(draw(st.integers(0, n // 2))):
        src, dst = rng.integers(n, size=2)
        coords[dst] = coords[src]
    assign = rng.permutation(np.repeat([0, 1], sizes))
    return squared_distances(PointSet(coords)), assign


@settings(max_examples=80, deadline=None)
@given(two_cluster_instances())
def test_gamma_kernel_matches_oracle_and_keeps_d(instance):
    d, assign = instance
    p = Partition(2, assign)
    d_before = d.copy()
    mine = pair_dict(gamma_values(d, p))
    assert np.array_equal(d, d_before)
    proximity_check(d, p)
    assert np.array_equal(d, d_before)
    _, _, _, _, expected = oracle_stats_and_gamma(d, assign)
    assert set(mine) == set(expected)
    tol = 1e-12 * (1.0 + d.max())
    for key, v in expected.items():
        assert abs(mine[key] - v) <= tol


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 40), st.sampled_from([1.9, 2.25, 2.6]), st.integers(-20, 20))
def test_gamma_and_certify_exact_under_power_of_four_scaling(seed, delta, j):
    # scaling coordinates by 2**j scales d by 4**j; every operation on the
    # way to gamma and through the repair loop commutes with that exactly
    pts, planted = generate(GenSpec("sbm", n=90, m=2, delta=delta, r1=1.0, seed=seed))
    d = squared_distances(pts)
    scale = 4.0**j
    g = gamma_values(d, planted)
    g_scaled = gamma_values(scale * d, planted)
    for c in (0, 1):
        assert np.array_equal(g_scaled.values[c], scale * g.values[c])
    ref = certify(g, planted)
    got = certify(g_scaled, planted)
    assert got.success == ref.success and got.failed_pair == ref.failed_pair
    assert got.deficit == scale * ref.deficit
    assert got.lam == {key: scale * v for key, v in ref.lam.items()}


def sbm_300_unequal():
    """sbm n=300 with clusters of 75 and 225 points: two and four row
    blocks of the default 64."""
    pts, planted = generate(GenSpec("sbm", n=300, m=2, delta=2.3, r1=0.5, seed=4))
    return squared_distances(pts), planted.assign


@settings(max_examples=40, deadline=None)
@given(two_cluster_instances(max_size=40), st.sampled_from([1, 3, 64]))
@example(sbm_300_unequal(), 64)
def test_stats_byte_equal_to_full_block_means(instance, rows):
    d, assign = instance
    p = Partition(2, assign)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpkmeans.certify, "_STATS_ROWS", rows)
        got = two_cluster_stats(d, p)
    for own, other in (got.clusters, got.clusters[::-1]):
        assert got.d_in[own].tobytes() == d[np.ix_(own, own)].mean(axis=1).tobytes()
        assert got.d_out[own].tobytes() == d[np.ix_(own, other)].mean(axis=1).tobytes()


def row_kernel_slacks(d, stats):
    """The untiled single-thread kernel: one elementwise minimum and one
    mean per row a over the rows b > a; the reference for bit identity."""
    out = []
    for c in (0, 1):
        own = stats.clusters[c]
        other = stats.clusters[1 - c]
        ratio = stats.r2 if c == 0 else stats.r1
        threshold = stats.eta if c == 0 else (stats.r1 / stats.r2) * stats.eta
        sz = own.size
        if sz < 2:
            out.append(np.empty(0))
            continue
        din = stats.d_in[own]
        u = d[np.ix_(own, other)]
        u *= ratio
        u -= din[:, None]
        buf = np.empty((sz - 1, other.size))
        slack = np.empty(sz * (sz - 1) // 2)
        pos = 0
        for a in range(sz - 1):
            count = sz - a - 1
            row = slack[pos : pos + count]
            np.minimum(u[a], u[a + 1 :], out=buf[:count]).mean(axis=1, out=row)
            row += din[a]
            row += din[a + 1 :]
            row -= d[own[a], own[a + 1 :]]
            row -= threshold
            pos += count
        out.append(slack)
    return out[0], out[1]


class ThreadStarts:
    """Counts threads started while installed on ``threading.Thread``."""

    def __init__(self, mp):
        self.count = 0
        start = threading.Thread.start

        def counting_start(thread):
            self.count += 1
            start(thread)

        mp.setattr(threading.Thread, "start", counting_start)


@settings(max_examples=60, deadline=None)
@given(
    # up to 40 points per cluster: several row blocks of 8, the last partial
    two_cluster_instances(max_size=40),
    # 5 workers on fewer cores, with a short switch interval, interleave the
    # threads' writes into the shared output as finely as they can be
    st.sampled_from([1, 2, 5]),
    # 2**20 leaves one column chunk per row block at these sizes; the
    # smaller budgets split each block's columns into several chunks,
    # the last of them partial
    st.sampled_from([0, 2**9, 2**12, 2**20]),
)
def test_tiled_slacks_bit_identical_to_row_kernel(instance, workers, tile_bytes):
    d, assign = instance
    stats = two_cluster_stats(d, Partition(2, assign))
    d_before = d.copy()
    expected = row_kernel_slacks(d, stats)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpkmeans.certify, "_worker_count", lambda: workers)
        mp.setattr(lpkmeans.certify, "_INLINE_WORK", 0)
        mp.setattr(lpkmeans.certify, "_TILE_BYTES", tile_bytes)
        starts = ThreadStarts(mp)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _pair_slacks(d, stats)
        finally:
            sys.setswitchinterval(interval)
    assert np.array_equal(d, d_before)
    for c in (0, 1):
        assert got[c].shape == expected[c].shape
        assert np.array_equal(got[c], expected[c])
    # an idle pool thread may take a second row share instead of a new
    # thread starting, so only the bounds on the count are fixed
    blocks = [-(-(size - 1) // lpkmeans.certify._ROW_BLOCK) for size in np.bincount(assign)]
    pools = [min(workers, b) for b in blocks if min(workers, b) > 1]
    assert len(pools) <= starts.count <= sum(pools)


def test_small_certify_starts_no_thread(monkeypatch):
    # sbm n=100 is below the inline threshold, even where threads are allowed
    pts, planted = generate(GenSpec("sbm", n=100, m=2, delta=2.3, r1=1.0, seed=1))
    d = squared_distances(pts)
    monkeypatch.setattr(lpkmeans.certify, "_worker_count", lambda: 2)
    starts = ThreadStarts(monkeypatch)
    proximity_check(d, planted)
    certify(gamma_values(d, planted), planted)
    assert starts.count == 0


def test_tiled_slacks_worker_error_propagates(monkeypatch):
    # a threshold that does not broadcast against a row fails only where a
    # worker thread subtracts it
    pts, planted = generate(GenSpec("sbm", n=60, m=2, delta=2.3, r1=1.0, seed=1))
    d = squared_distances(pts)
    stats = dataclasses.replace(two_cluster_stats(d, planted), eta=np.zeros(3))
    monkeypatch.setattr(lpkmeans.certify, "_worker_count", lambda: 2)
    monkeypatch.setattr(lpkmeans.certify, "_INLINE_WORK", 0)
    starts = ThreadStarts(monkeypatch)
    with pytest.raises(ValueError, match="broadcast"):
        _pair_slacks(d, stats)
    assert starts.count >= 1


def test_gamma_closed_form_coincident_clusters():
    # two coincident pairs separated by distance sqrt(D): within-cluster
    # distances vanish, eta = 0, and every within-pair gamma is exactly 2 D
    big = 5.0
    pts = PointSet(np.array([[0.0, 0.0], [0.0, 0.0], [big, 0.0], [big, 0.0]]))
    p = Partition(2, np.array([0, 0, 1, 1]))
    d = squared_distances(pts)
    st = two_cluster_stats(d, p)
    assert st.eta == 0.0
    g = pair_dict(gamma_values(d, p))
    assert g[(0, 1)] == 2.0 * big**2
    assert g[(2, 3)] == 2.0 * big**2


def test_gamma_is_twice_proximity_slack(five_point):
    _, planted, d = five_point
    prox = proximity_check(d, planted)
    g = gamma_values(d, planted)
    assert g.values[0].min() == 2 * prox.margin_small
    assert g.values[1].min() == 2 * prox.margin_large


# ---------------------------------------------------------------------------
# one evaluation shared by proximity_check and gamma_values
# ---------------------------------------------------------------------------


@pytest.fixture
def slack_calls(monkeypatch):
    """Records each evaluation of the pair slacks."""
    calls = []
    pair_slacks = lpkmeans.certify._pair_slacks

    def counting(d, stats):
        calls.append(d.shape)
        return pair_slacks(d, stats)

    monkeypatch.setattr(lpkmeans.certify, "_pair_slacks", counting)
    return calls


def sbm_80():
    """sbm n=80 with negative pairs that the repair loop fixes."""
    pts, planted = generate(GenSpec("sbm", n=80, m=2, delta=2.25, r1=1.0, seed=500))
    return squared_distances(pts), planted


@settings(max_examples=60, deadline=None)
@given(two_cluster_instances())
def test_shared_evaluation_equals_fresh_slacks(instance):
    d, assign = instance
    p = Partition(2, assign)
    prox = proximity_check(d, p)
    g = gamma_values(d, p)
    fresh = _pair_slacks(d, two_cluster_stats(d, p))
    for c, margin in ((0, prox.margin_small), (1, prox.margin_large)):
        assert g.values[c].tobytes() == (2.0 * fresh[c]).tobytes()
        assert margin == (float(fresh[c].min()) if fresh[c].size else np.inf)


def test_proximity_then_gamma_sweeps_once(slack_calls):
    d, planted = sbm_80()
    proximity_check(d, planted)
    g = gamma_values(d, planted)
    proximity_check(d, planted)
    assert slack_calls == [(80, 80)]
    assert gamma_values(d, planted).values[0] is g.values[0]


def _mutated_in_place(d, p):
    d[0, 1] += 1.0
    d[1, 0] += 1.0
    return d, p


def _equal_copy(d, p):
    return d.copy(), p


def _other_partition(d, p):
    assign = p.assign.copy()
    i, j = p.members(0)[0], p.members(1)[0]
    assign[i], assign[j] = assign[j], assign[i]
    return d, Partition(2, assign)


@pytest.mark.parametrize("change", [_mutated_in_place, _equal_copy, _other_partition])
def test_changed_inputs_recompute(slack_calls, change):
    d, planted = sbm_80()
    proximity_check(d, planted)
    d2, p2 = change(d, planted)
    got = gamma_values(d2, p2)
    assert len(slack_calls) == 2
    fresh = _pair_slacks(d2, two_cluster_stats(d2, p2))
    for c in (0, 1):
        assert np.array_equal(got.values[c], 2.0 * fresh[c])


def test_slot_cleared_when_d_collected():
    d, planted = sbm_80()
    proximity_check(d, planted)
    assert lpkmeans.certify._last is not None
    del d
    gc.collect()
    assert lpkmeans.certify._last is None


def test_shared_arrays_read_only_and_audit_succeeds():
    d, planted = sbm_80()
    prox = proximity_check(d, planted)
    g = gamma_values(d, planted)
    stats = prox.stats
    for values in (*g.values, stats.d_in, stats.d_out, *stats.clusters):
        assert not values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        g.values[0][0] = 0.0
    state = certify(g, planted)
    assert state.success and state.lam
    assert all(state.r_bar[c].flags.writeable for c in (0, 1))
    assert audited_lam(g, planted) == list(state.lam.items())


def test_concurrent_callers_get_their_own_results():
    # each thread evaluates its own instance, fresh d objects each time;
    # a lost or torn slot update would hand one thread another's gamma
    instances = []
    for seed in range(5):
        pts, planted = generate(GenSpec("sbm", n=40, m=2, delta=2.3, r1=1.0, seed=seed))
        d = squared_distances(pts)
        instances.append((pts, planted, _pair_slacks(d, two_cluster_stats(d, planted))))
    mismatches = []

    def run(pts, planted, fresh):
        for _ in range(20):
            d = squared_distances(pts)
            prox = proximity_check(d, planted)
            g = gamma_values(d, planted)
            ok = prox.margin_small == fresh[0].min() and all(
                np.array_equal(g.values[c], 2.0 * fresh[c]) for c in (0, 1)
            )
            if not ok:
                mismatches.append(planted)

    threads = [threading.Thread(target=run, args=instance) for instance in instances]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


@pytest.mark.parametrize("size", [12, 8])
def test_rejects_distance_matrix_of_other_size(size):
    rng = np.random.default_rng(75)
    d = squared_distances(PointSet(rng.normal(size=(size, 2))))
    p = Partition(2, np.repeat([0, 1], 5))
    for check in (proximity_check, gamma_values, two_cluster_stats):
        with pytest.raises(ValueError, match=rf"\({size}, {size}\).*\(10, 10\)"):
            check(d, p)


def test_float32_distances_evaluated_as_float64():
    d, planted = sbm_80()
    d32 = d.astype(np.float32)
    d64 = d32.astype(np.float64)
    expected = (proximity_check(d64, planted), gamma_values(d64, planted))
    got = (proximity_check(d32, planted), gamma_values(d32, planted))
    assert got[0].margin_small == expected[0].margin_small
    assert got[0].margin_large == expected[0].margin_large
    for c in (0, 1):
        assert np.array_equal(got[1].values[c], expected[1].values[c])


# ---------------------------------------------------------------------------
# proximity verdicts
# ---------------------------------------------------------------------------


def test_proximity_two_singletons_vacuous():
    pts = PointSet(np.array([[0.0, 0.0], [3.0, 0.0]]))
    rep = proximity_check(squared_distances(pts), Partition(2, np.array([0, 1])))
    assert rep.verdict == "holds_strict"
    assert rep.margin_small == np.inf and rep.margin_large == np.inf


def test_proximity_well_separated_holds_strict():
    hits = 0
    for seed in range(20):
        pts, planted = generate(GenSpec("ssm", n=60, m=2, delta=4.0, r1=1.0, seed=1000 + seed))
        rep = proximity_check(squared_distances(pts), planted)
        hits += rep.verdict == "holds_strict"
    assert hits >= 18


def test_proximity_verdict_invariant_under_scaling():
    # margins of ~8 at unit scale; at coordinate scale 2**-20 they are ~7e-12,
    # below an absolute strictness threshold of 1e-9
    pts, planted = generate(GenSpec("sbm", n=60, m=2, delta=4.0, r1=1.0, seed=3))
    ref = proximity_check(squared_distances(pts), planted)
    assert ref.verdict == "holds_strict"
    for j in (-10, -20, 10):
        rep = proximity_check(squared_distances(PointSet(pts.coords * 2.0**j)), planted)
        assert rep.verdict == "holds_strict"
        assert rep.margin_small == 4.0**j * ref.margin_small
        assert rep.margin_large == 4.0**j * ref.margin_large


def test_proximity_overlapping_fails():
    hits = 0
    for seed in range(20):
        pts, planted = generate(GenSpec("ssm", n=60, m=2, delta=2.0, r1=1.0, seed=1000 + seed))
        rep = proximity_check(squared_distances(pts), planted)
        hits += rep.verdict == "fails"
    assert hits >= 18


def test_five_point_proximity_fails(five_point):
    _, planted, d = five_point
    rep = proximity_check(d, planted)
    assert rep.verdict == "fails"
    assert rep.margin_small == pytest.approx(-1 / 12, abs=1e-13)
    assert rep.margin_large == pytest.approx(-1 / 6, abs=1e-13)


# ---------------------------------------------------------------------------
# certificate construction
# ---------------------------------------------------------------------------


def test_certify_trivial_when_gamma_nonnegative():
    pts, planted = generate(GenSpec("ssm", n=30, m=2, delta=5.0, r1=1.0, seed=5))
    d = squared_distances(pts)
    g = gamma_values(d, planted)
    assert g.values[0].min() >= 0 and g.values[1].min() >= 0
    state = certify(g, planted)
    assert state.success and state.lam == {}


def test_certify_two_point_cluster_cannot_repair():
    # negative residual in a 2-point cluster leaves no third point to borrow
    # from: the pair straddles the opposite cluster, so its own distance
    # dwarfs the cross terms
    pts = PointSet(
        np.array([[0.0, 0], [10.0, 0], [5.0, 0.1], [5.0, -0.1], [5.1, 0.0], [4.9, 0.0]])
    )
    p = Partition(2, np.array([0, 0, 1, 1, 1, 1]))
    d = squared_distances(pts)
    g = gamma_values(d, p)
    state = certify(g, p)
    assert pair_dict(g)[(0, 1)] < 0
    assert not state.success
    assert state.failed_pair == (0, 1)
    assert state.deficit < 0


def test_certify_repairs_and_bookkeeping_audit():
    repaired = 0
    for seed in range(6):
        pts, planted = generate(GenSpec("sbm", n=80, m=2, delta=2.25, r1=1.0, seed=500 + seed))
        d = squared_distances(pts)
        g = gamma_values(d, planted)
        negatives = int((g.values[0] < 0).sum() + (g.values[1] < 0).sum())
        state = certify(g, planted)
        assert state.success
        assert audited_lam(g, planted) == list(state.lam.items())
        if negatives:
            repaired += 1
            assert len(state.lam) > 0
            assert all(v >= 0 for v in state.lam.values())
            rebuilt = rebuilt_residuals(g, planted, state.lam)
            for c in (0, 1):
                assert np.abs(rebuilt[c] - state.r_bar[c]).max() < 1e-12
                assert state.r_bar[c].min() >= 0.0
    assert repaired >= 3


def pair_index(size, a, b):
    """Slot of the local pair (a, b), in either order, among the pairs of a
    cluster of ``size`` points in row-major upper-triangle order."""
    if a == b:
        raise ValueError(f"({a}, {b}) is not a pair of two distinct points")
    if a > b:
        a, b = b, a
    return a * size - a * (a + 1) // 2 + (b - a - 1)


def rebuilt_residuals(gamma, p, lam):
    """Residuals rebuilt from gamma and the multipliers alone: each
    lam[(k, i, j)] moves its value from the pairs (i, k) and (j, k) of one
    cluster of ``p`` to the pair (i, j)."""
    clusters = lpkmeans.certify._ordered_clusters(p)
    out = tuple(np.array(v, dtype=np.float64) for v in gamma.values)
    pos = {int(g): (c, a) for c in (0, 1) for a, g in enumerate(clusters[c])}
    for (k, i, j), v in lam.items():
        c, ka = pos[k]
        _, ia = pos[i]
        _, ja = pos[j]
        size = clusters[c].size
        out[c][pair_index(size, ia, ja)] += v
        out[c][pair_index(size, ia, ka)] -= v
        out[c][pair_index(size, ja, ka)] -= v
    return out


def replay_transfer(ledger, c, size, a, b, k, omega):
    """Apply the transfer of omega from pairs (a, k) and (b, k) to (a, b) of
    cluster c to an audit ledger."""
    ledger[c][pair_index(size, a, b)] += omega
    ledger[c][pair_index(size, a, k)] -= omega
    ledger[c][pair_index(size, b, k)] -= omega


def drifted(x, y):
    return any(x[c].size and float(np.abs(x[c] - y[c]).max()) > 1e-12 for c in (0, 1))


def pair_index_certify(gamma, p, audit=False):
    """The repair loop with a ``pair_index`` call per slot and per-element
    worklist conversions; the reference for ``certify``.

    With ``audit`` each transfer is also replayed into a ledger, a second
    copy of gamma, and every slot of the ledger is checked against the
    residuals to 1e-12 after every multiplier; at the end the ledger is
    checked against ``rebuilt_residuals``.  That costs Theta(n^2) per
    multiplier."""
    g1, g2 = lpkmeans.certify._ordered_clusters(p)
    if tuple(map(tuple, gamma.clusters)) != (tuple(g1), tuple(g2)):
        raise ValueError("gamma values do not match the partition's clusters")
    r_bar = tuple(v.copy() for v in gamma.values)
    ledger = tuple(v.copy() for v in r_bar) if audit else None
    state = lpkmeans.certify.CertifyState(r_bar=r_bar)
    worklist = []
    locals_by_cluster = []
    for c in (0, 1):
        members = gamma.clusters[c]
        locals_by_cluster.append({int(g): a for a, g in enumerate(members)})
        au, bu = np.triu_indices(members.size, 1)
        for t in np.flatnonzero(r_bar[c] < 0.0):
            a, b = int(au[t]), int(bu[t])
            worklist.append((float(r_bar[c][t]), int(members[a]), int(members[b]), c))
    worklist.sort(key=lambda rec: (rec[0], rec[1], rec[2]))
    for _, gi, gj, c in worklist:
        members = gamma.clusters[c]
        size = members.size
        local = locals_by_cluster[c]
        a, b = local[gi], local[gj]
        idx_ab = pair_index(size, a, b)
        rc = r_bar[c]
        for k in range(size):
            if k == a or k == b:
                continue
            idx_ak = pair_index(size, a, k)
            idx_bk = pair_index(size, b, k)
            omega = min(-rc[idx_ab], rc[idx_ak], rc[idx_bk])
            if omega <= 0.0:
                continue
            rc[idx_ak] -= omega
            rc[idx_bk] -= omega
            rc[idx_ab] += omega
            key = (int(members[k]), gi, gj)
            state.lam[key] = state.lam.get(key, 0.0) + omega
            if audit:
                replay_transfer(ledger, c, size, a, b, k, omega)
                if drifted(ledger, r_bar):
                    raise AssertionError("residual bookkeeping drifted")
            if rc[idx_ab] >= 0.0:
                break
        if rc[idx_ab] < 0.0:
            state.success = False
            state.failed_pair = (gi, gj)
            state.deficit = float(rc[idx_ab])
            break
    else:
        state.success = True
    if audit and drifted(ledger, rebuilt_residuals(gamma, p, state.lam)):
        raise AssertionError("multipliers do not rebuild the residuals")
    return state


def audited_lam(gamma, p):
    """The multipliers of the audited reference, in the order it made them."""
    return list(pair_index_certify(gamma, p, audit=True).lam.items())


@st.composite
def sbm_instances(draw):
    """Planted sbm partitions from hard (most pairs fail) to easy (a few
    negative pairs, repaired), with unequal cluster sizes."""
    spec = GenSpec("sbm", n=4 * draw(st.integers(2, 30)), m=2,
                   delta=draw(st.sampled_from([1.5, 1.9, 2.25, 2.6, 3.0])),
                   r1=draw(st.sampled_from([0.5, 1.0])), seed=draw(st.integers(0, 10**6)))
    pts, planted = generate(spec)
    return squared_distances(pts), planted.assign


def gamma_of(instance):
    d, assign = instance
    p = Partition(2, assign)
    return gamma_values(d, p), p


# exact zeros of both signs, ties, and donors below and above a deficit
DRAWN_GAMMA = [-1.5, -0.0, 0.0, 0.25, 1.0]


@st.composite
def drawn_gamma(draw, max_size=7):
    """``PairValues`` built directly from values drawn from DRAWN_GAMMA, so
    donors hit both skip tests on exact zeros and -0.0."""
    sizes = [draw(st.integers(1, max_size)), draw(st.integers(1, max_size))]
    p = Partition(2, np.array(draw(st.permutations([0] * sizes[0] + [1] * sizes[1]))))
    clusters = lpkmeans.certify._ordered_clusters(p)
    values = tuple(
        np.array(draw(st.lists(st.sampled_from(DRAWN_GAMMA), min_size=count, max_size=count)))
        for count in (g.size * (g.size - 1) // 2 for g in clusters)
    )
    return PairValues(clusters, values), p


def lone_last_donor():
    """Pair (0, 1) of a 4-point cluster: k = 2 is skipped on its second read,
    r_bk = 0.0, and only k = 3 can give, which leaves the pair 0.5 short."""
    p = Partition(2, np.array([0, 0, 0, 0, 1]))
    clusters = lpkmeans.certify._ordered_clusters(p)
    # pairs (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3) of the larger cluster
    large = np.array([-1.5, 0.25, 1.0, 0.0, 1.0, -0.0])
    return PairValues(clusters, (np.empty(0), large)), p


def sbm_280_repaired():
    """sbm n=280 with clusters of 70 and 210 points, two and four row blocks
    of the default 64 in the stats, whose 1,331 negative pairs are all
    repaired, by 2,221 multipliers."""
    pts, planted = generate(GenSpec("sbm", n=280, m=2, delta=2.4, r1=0.5, seed=2))
    return gamma_of((squared_distances(pts), planted.assign))


def tripled_sbm_ties():
    """sbm n=8 with every point tripled: its 18 negative pairs take two
    values, nine pairs each, so exact ties straddle the boundary of a first
    chunk of 5 and only (gi, gj) orders them; all are repaired."""
    pts, planted = generate(GenSpec("sbm", n=8, m=2, delta=1.9, seed=2))
    d = squared_distances(PointSet(np.repeat(pts.coords, 3, axis=0)))
    g, p = gamma_of((d, np.repeat(planted.assign, 3)))
    negative = np.sort(np.concatenate([v[v < 0.0] for v in g.values]))
    assert negative.size == 18 and np.unique(negative).size == 2 and negative[4] == negative[5]
    return g, p


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    two_cluster_instances(max_size=30).map(gamma_of), sbm_instances().map(gamma_of), drawn_gamma()
))
@example(lone_last_donor())
@example(sbm_280_repaired())
@example(tripled_sbm_ties())
def test_certify_state_identical_to_pair_index_loop(case):
    g, p = case
    before = [v.copy() for v in g.values]
    with pytest.MonkeyPatch.context() as mp:
        # the worklist reaches the loop in chunks of 5 negative pairs, the
        # last of them partial
        mp.setattr(lpkmeans.certify, "_WORK_CHUNK", 5)
        got = certify(g, p)
    ref = pair_index_certify(g, p)
    for c in (0, 1):
        assert np.array_equal(g.values[c], before[c])
        assert got.r_bar[c].tobytes() == ref.r_bar[c].tobytes()  # -0.0 included
    assert list(got.lam.items()) == list(ref.lam.items())
    assert got.success == ref.success
    assert got.failed_pair == ref.failed_pair
    assert got.deficit == ref.deficit


def test_audit_checks_after_every_multiplier(monkeypatch):
    # a ledger that drifts at the third transfer stops the audited reference
    # right there
    d, planted = sbm_80()
    g = gamma_values(d, planted)
    replay = replay_transfer
    replays = []

    def drifting(ledger, c, size, a, b, k, omega):
        replays.append(omega)
        replay(ledger, c, size, a, b, k, omega)
        if len(replays) == 3:
            ledger[c][pair_index(size, a, b)] += 1e-9

    monkeypatch.setitem(globals(), "replay_transfer", drifting)
    with pytest.raises(AssertionError, match="drifted"):
        pair_index_certify(g, planted, audit=True)
    assert len(replays) == 3


def test_audit_checks_ledger_against_recomputed_residuals(monkeypatch):
    # one multiplier nudged by 1e-9 no longer rebuilds the residuals
    d, planted = sbm_80()
    g = gamma_values(d, planted)
    state = certify(g, planted)
    key = next(iter(state.lam))
    nudged = rebuilt_residuals(g, planted, {**state.lam, key: state.lam[key] + 1e-9})
    assert drifted(nudged, state.r_bar)
    assert not drifted(rebuilt_residuals(g, planted, state.lam), state.r_bar)
    # the audited reference checks the rebuild once, after the last multiplier
    rebuild = rebuilt_residuals
    calls = []

    def nudging(gamma, p, lam):
        calls.append(len(lam))
        return rebuild(gamma, p, {**lam, key: lam[key] + 1e-9})

    monkeypatch.setitem(globals(), "rebuilt_residuals", nudging)
    with pytest.raises(AssertionError, match="rebuild"):
        pair_index_certify(g, planted, audit=True)
    assert calls == [len(state.lam)]


def test_audit_replays_each_transfer_once(monkeypatch):
    # sbm n=400: the production loop's 439 multipliers are those of the
    # audited reference, each replayed once, and rebuild its residuals
    pts, planted = generate(GenSpec("sbm", n=400, m=2, delta=2.3, r1=1.0, seed=1))
    g = gamma_values(squared_distances(pts), planted)
    replay = replay_transfer
    replays = []

    def counting_replay(*args):
        replays.append(args)
        replay(*args)

    monkeypatch.setitem(globals(), "replay_transfer", counting_replay)
    audited = pair_index_certify(g, planted, audit=True)
    plain = certify(g, planted)
    assert plain.success and len(plain.lam) == 439 and len(replays) == 439
    assert list(audited.lam.items()) == list(plain.lam.items())
    rebuilt = rebuilt_residuals(g, planted, plain.lam)
    for c in (0, 1):
        assert np.abs(rebuilt[c] - plain.r_bar[c]).max() <= 1e-12


def transient_bytes(call):
    """Result of ``call()`` and the traced bytes it allocated at its peak
    beyond those it still holds when it returns."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - held


def sbm_1000():
    """sbm n=1000, two clusters of 500 points: many row blocks of the
    stats, 124,750 pairs per cluster, 2,571 of them negative."""
    pts, planted = generate(GenSpec("sbm", n=1000, m=2, delta=2.3, r1=1.0, seed=1))
    return squared_distances(pts), planted


def test_slack_evaluation_memory_budget(monkeypatch):
    # beyond the stats and gamma it returns, the evaluation holds one
    # cluster's 500 x 500 cross block u at a time, the workers' buffers and
    # one row block of the stats; full copies of the stats blocks, or the
    # first cluster's u kept while the second's is built, exceed it
    monkeypatch.setattr(lpkmeans.certify, "_worker_count", lambda: 2)
    d, planted = sbm_1000()
    size = 500
    budget = (
        size * size * 8
        + 2 * (lpkmeans.certify._TILE_BYTES + 9 * 8 * size)
        + lpkmeans.certify._STATS_ROWS * size * 8
        + 2**19
    )
    _, extra = transient_bytes(lambda: (proximity_check(d, planted), gamma_values(d, planted)))
    assert extra <= budget


def test_certify_memory_budget():
    # beyond the residuals and multipliers it returns, the repair holds less
    # than half the residuals' bytes: no per-slot index arrays and no Python
    # object per negative pair beyond one chunk of the worklist
    d, planted = sbm_1000()
    g = gamma_values(d, planted)
    state, extra = transient_bytes(lambda: certify(g, planted))
    assert state.success and len(state.lam) == 3492
    assert extra <= sum(v.nbytes for v in state.r_bar) // 2
    # a repair that fails on its first pairs selects one chunk of the most
    # negative pairs, about 170 bytes a pair as arrays and Python objects,
    # and holds at most 16 bytes per negative pair beyond it; sorting the
    # whole worklist took about 95
    pts, planted = generate(GenSpec("sbm", n=1000, m=2, delta=1.5, r1=1.0, seed=1))
    g = gamma_values(squared_distances(pts), planted)
    negatives = sum(int(np.count_nonzero(v < 0.0)) for v in g.values)
    state, extra = transient_bytes(lambda: certify(g, planted))
    assert not state.success and len(state.lam) == 15 and negatives == 48_162
    assert extra <= 256 * lpkmeans.certify._WORK_CHUNK + 16 * negatives


def sbm_40_gamma():
    """sbm n=40 whose repair fails after 45 multipliers."""
    pts, planted = generate(GenSpec("sbm", n=40, m=2, delta=1.9, r1=1.0, seed=3))
    return gamma_values(squared_distances(pts), planted), planted


def five_short(v):
    return v[:-5]


def three_long(v):
    return v[:3]


def two_dimensional(v):
    return v.reshape(10, 19)


@pytest.mark.parametrize("malform", [five_short, three_long, two_dimensional])
@pytest.mark.parametrize("c", [0, 1])
def test_certify_rejects_malformed_gamma(malform, c):
    g, planted = sbm_40_gamma()
    values = list(g.values)
    values[c] = malform(values[c])
    shape = re.escape(str(values[c].shape))
    with pytest.raises(ValueError, match=rf"{shape} for cluster {c} of 20 points.*\(190,\)"):
        certify(PairValues(g.clusters, tuple(values)), planted)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_certify_rejects_non_finite_gamma(bad):
    g, planted = sbm_40_gamma()
    values = [v.copy() for v in g.values]
    values[1][7] = bad
    with pytest.raises(ValueError, match="finite"):
        certify(PairValues(g.clusters, tuple(values)), planted)


def test_certify_float32_gamma_evaluated_as_float64():
    g, planted = sbm_40_gamma()
    g32 = PairValues(g.clusters, tuple(v.astype(np.float32) for v in g.values))
    g64 = PairValues(g.clusters, tuple(v.astype(np.float64) for v in g32.values))
    got, expected = certify(g32, planted), certify(g64, planted)
    assert len(expected.lam) == 45 and not expected.success
    assert audited_lam(g64, planted) == list(expected.lam.items())
    for c in (0, 1):
        assert got.r_bar[c].dtype == np.float64
        assert got.r_bar[c].tobytes() == expected.r_bar[c].tobytes()
    assert list(got.lam.items()) == list(expected.lam.items())
    assert (got.failed_pair, got.deficit) == (expected.failed_pair, expected.deficit)


def test_pair_index_rejects_a_point_paired_with_itself():
    assert pair_index(20, 2, 19) == pair_index(20, 19, 2) == 53
    for a in (0, 3, 19):
        with pytest.raises(ValueError, match="distinct"):
            pair_index(20, a, a)
    # the slots are those of the row-major upper triangle, the layout of gamma
    for size in range(1, 9):
        au, bu = np.triu_indices(size, 1)
        assert [pair_index(size, a, b) for a, b in zip(au, bu)] == list(range(au.size))


def test_certify_monotone_under_uniform_shift():
    rng = np.random.default_rng(74)
    for seed in range(8):
        pts, planted = generate(GenSpec("sbm", n=40, m=2, delta=2.3, r1=1.0, seed=800 + seed))
        d = squared_distances(pts)
        g = gamma_values(d, planted)
        state = certify(g, planted)
        if not state.success:
            continue
        shift = float(rng.random() + 0.1)
        shifted = PairValues(g.clusters, (g.values[0] + shift, g.values[1] + shift))
        assert certify(shifted, planted).success


def test_proximity_holds_implies_certify_success():
    for seed in range(10):
        pts, planted = generate(GenSpec("ssm", n=40, m=2, delta=3.2, r1=1.0, seed=900 + seed))
        d = squared_distances(pts)
        rep = proximity_check(d, planted)
        if rep.verdict == "fails":
            continue
        assert certify(gamma_values(d, planted), planted).success


def test_certify_success_implies_lp_optimal_partition():
    checked = 0
    for seed in range(4):
        pts, planted = generate(GenSpec("ssm", n=16, m=2, delta=3.0, r1=1.0, seed=300 + seed))
        d = squared_distances(pts)
        state = certify(gamma_values(d, planted), planted)
        if not state.success:
            continue
        lp = build(d, 2, all_cuts(16, 2))
        sol = solve(lp, tol=1e-8)
        cost = kmeans_cost(pts, planted)
        assert abs(sol.objective - cost) <= 1e-6 * (1 + abs(cost))
        assert is_partition_matrix(unpack_matrix(sol.x, 16), 2, 1e-5)
        checked += 1
    assert checked >= 3


def test_certify_rejects_mismatched_gamma(five_point):
    _, planted, d = five_point
    g = gamma_values(d, planted)
    other = Partition(2, np.array([0, 0, 1, 1, 1]))
    with pytest.raises(ValueError):
        certify(g, other)
