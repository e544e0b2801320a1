import math

import numpy as np
import pytest

from lpkmeans.core import (
    is_partition_matrix,
    lp_objective,
    pack_matrix,
    squared_distances,
)
from lpkmeans.generators import (
    FIVE_POINT_COORDS,
    GenSpec,
    generate,
    recovery_threshold,
    reference_nontight_matrix,
)
from lpkmeans.lp_model import all_cuts, build


def test_five_point_exact_coordinates():
    points, planted = generate(GenSpec("five_point"))
    s3 = math.sqrt(3.0)
    expected = np.array(
        [
            [0, s3 / 3, 0],
            [0.5, -s3 / 6, 0],
            [-0.5, -s3 / 6, 0],
            [0, 0, 0.5],
            [0, 0, -0.5],
        ]
    )
    assert np.array_equal(points.coords, expected)
    assert np.array_equal(planted.assign, [0, 1, 1, 0, 1])


def test_five_ball_zero_radius_block_structure():
    spec = GenSpec("five_ball", radius=0.0, n_prime=3, seed=9)
    points, planted = generate(spec)
    assert points.n == 15
    d = squared_distances(points)
    d5 = squared_distances(generate(GenSpec("five_point"))[0])
    for p in range(5):
        for q in range(5):
            block = d[3 * p : 3 * p + 3, 3 * q : 3 * q + 3]
            if p == q:
                assert np.all(block == 0.0)
            else:
                assert np.abs(block - d5[p, q]).max() < 1e-14
    assert np.array_equal(planted.assign, np.repeat([0, 1, 1, 0, 1], 3))


def test_five_ball_radius_containment():
    spec = GenSpec("five_ball", radius=0.2, n_prime=10, m=5, seed=3)
    points, _ = generate(spec)
    centers = np.zeros((5, 5))
    centers[:, :3] = FIVE_POINT_COORDS
    for p in range(5):
        block = points.coords[10 * p : 10 * (p + 1)]
        dist = np.linalg.norm(block - centers[p], axis=1)
        assert dist.max() <= 0.2 + 1e-12


def test_ssm_on_sphere_and_separation():
    spec = GenSpec("ssm", n=100, m=2, delta=3.0, r1=1.0, seed=11)
    points, planted = generate(spec)
    assert planted.sizes.tolist() == [50, 50]
    for label, center in ((0, np.array([0.0, 0.0])), (1, np.array([3.0, 0.0]))):
        members = points.coords[planted.assign == label]
        radii = np.linalg.norm(members - center, axis=1)
        assert np.abs(radii - 1.0).max() < 1e-12


def test_sbm_inside_ball():
    spec = GenSpec("sbm", n=60, m=3, delta=2.5, r1=0.5, seed=12)
    points, planted = generate(spec)
    assert planted.sizes.tolist() == [15, 45]
    first = points.coords[planted.assign == 0]
    assert np.linalg.norm(first, axis=1).max() <= 1.0 + 1e-12
    second = points.coords[planted.assign == 1] - np.array([2.5, 0, 0])
    assert np.linalg.norm(second, axis=1).max() <= 1.0 + 1e-12


def test_seeded_determinism_bitwise():
    spec = GenSpec("sbm", n=40, m=4, delta=2.0, r1=0.8, seed=777)
    a, _ = generate(spec)
    b, _ = generate(spec)
    assert np.array_equal(a.coords, b.coords)
    c, _ = generate(GenSpec("sbm", n=40, m=4, delta=2.0, r1=0.8, seed=778))
    assert not np.array_equal(a.coords, c.coords)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        GenSpec("ssm", n=10, m=2, delta=1.0, r1=0.3)  # 1.5 points per cluster
    with pytest.raises(ValueError):
        GenSpec("ssm", n=10, m=2, delta=-1.0, r1=1.0)
    with pytest.raises(ValueError):
        GenSpec("five_point", m=2)
    with pytest.raises(ValueError):
        GenSpec("five_ball", n_prime=0)
    with pytest.raises(ValueError):
        GenSpec("unknown")


# ---------------------------------------------------------------------------
# reference non-tight matrix
# ---------------------------------------------------------------------------


def test_reference_matrix_unit_case():
    xt = reference_nontight_matrix(1)
    expected = (
        np.array(
            [
                [6, 1, 1, 3, 3],
                [1, 6, 1, 3, 3],
                [1, 1, 6, 3, 3],
                [3, 3, 3, 5, 0],
                [3, 3, 3, 0, 5],
            ]
        )
        / 14.0
    )
    assert np.array_equal(xt, expected)


@pytest.mark.parametrize("n_prime", [1, 2, 3])
def test_reference_matrix_trace_and_rows(n_prime):
    xt = reference_nontight_matrix(n_prime)
    assert np.trace(xt) == pytest.approx(2.0, abs=1e-12)
    assert np.abs(xt.sum(axis=1) - 1.0).max() < 1e-12


@pytest.mark.parametrize("n_prime", [1, 2, 3])
def test_reference_matrix_feasible_never_partition(n_prime):
    xt = reference_nontight_matrix(n_prime)
    n = 5 * n_prime
    points, _ = generate(GenSpec("five_ball", radius=0.0, n_prime=n_prime, seed=1))
    d = squared_distances(points)
    lp = build(d, 2, all_cuts(n, 2))
    xp = pack_matrix(xt)
    assert np.abs(lp.a_eq @ xp - lp.b_eq).max() < 1e-12
    assert (lp.q @ xp).max() <= 1e-12
    assert xp.min() >= 0.0 and xp.max() <= 1.0
    assert not is_partition_matrix(xt, 2, 1e-6)
    # objective at zero radius scales linearly with the block size
    assert lp_objective(xt, d) == pytest.approx(n_prime * 54.0 / 28.0, abs=1e-10)


# ---------------------------------------------------------------------------
# recovery threshold
# ---------------------------------------------------------------------------


def test_recovery_threshold_values():
    assert recovery_threshold(1.0) == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-12)
    assert recovery_threshold(0.6) == pytest.approx(3.081665, abs=1e-4)


def test_recovery_threshold_monotone():
    grid = np.linspace(0.01, 1.0, 100)
    vals = [recovery_threshold(r) for r in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_recovery_threshold_domain():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            recovery_threshold(bad)
