import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpkmeans.certify import (
    PairValues,
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
from lpkmeans.lp_model import CutPool, all_cuts, build
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
def two_cluster_instances(draw):
    """Points in two clusters of random, possibly unequal sizes down to a
    single point, some of them duplicates of others."""
    sizes = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
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
    assert g.values[0].min() == pytest.approx(2 * prox.margin_small, abs=1e-13)
    assert g.values[1].min() == pytest.approx(2 * prox.margin_large, abs=1e-13)


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
    assert g.get(0, 0, 1) < 0
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
        state = certify(g, planted, audit=True)
        assert state.success
        if negatives:
            repaired += 1
            assert len(state.lam) > 0
            assert all(v >= 0 for v in state.lam.values())
            rebuilt = state.recomputed_r_bar()
            for c in (0, 1):
                assert np.abs(rebuilt[c] - state.r_bar[c]).max() < 1e-12
                assert state.r_bar[c].min() >= 0.0
    assert repaired >= 3


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
        lp = build(d, 2, CutPool(all_cuts(16, 2)))
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
