"""Kernel operator assembly: symmetry, positivity, scaling, diagonals."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import dropcap as dc
from dropcap.errors import UnsupportedConfigurationError, ValidationError
from dropcap.kernels import kernel_of_distance, uniform_ball_self_energy
from dropcap.operators import BLOCK_ROWS, diagonal_self_energy, potential_at

import oracles


BALL3 = dc.Ball((0.0, 0.0, 0.0), 1.0)
COULOMB = dc.KernelParams(3, 2.0)
LOG2 = dc.KernelParams(2, 2.0)

# (shape, role, kernel) of the clouds the blocked assembly is pinned on
ASSEMBLY_CASES = {
    "boundary_ball": (BALL3, "boundary", COULOMB),
    "volume_ball": (BALL3, "volume", COULOMB),
    "volume_alpha_0.5": (BALL3, "volume", dc.KernelParams(3, 0.5)),
    "volume_alpha_1.5": (BALL3, "volume", dc.KernelParams(3, 1.5)),
    "log_polygon": (
        dc.ConvexPolygon2D(((0.0, 0.0), (2.0, 0.0), (1.5, 1.0), (0.2, 0.8))),
        "boundary",
        LOG2,
    ),
    "box": (dc.Box((0.0, 0.0, 0.0), (1.0, 0.5, 0.3)), "volume", COULOMB),
    "ball_4d": (dc.Ball((0.0,) * 4, 1.0), "volume", dc.KernelParams(4, 2.0)),
}
# one node, one block less, one and more than one, and a ragged last block
ASSEMBLY_SIZES = (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 77)


def _first_nodes(cloud, n):
    return replace(
        cloud,
        points=cloud.points[:n],
        weights=cloud.weights[:n],
        components=cloud.components[:n],
        mirror=None,
        cycles=(),
    )


def _reference_matrix(cloud, params):
    """Every pair from one full distance matrix, diagonal by fill."""
    dist = cdist(cloud.points, cloud.points)
    np.fill_diagonal(dist, 1.0)
    K = kernel_of_distance(params, dist)
    np.fill_diagonal(K, diagonal_self_energy(cloud, params))
    return K


@pytest.mark.parametrize("case", list(ASSEMBLY_CASES))
def test_blocked_assembly_equals_the_full_matrix(case):
    shape, role, params = ASSEMBLY_CASES[case]
    cloud = dc.discretize(shape, 500, role)
    assert cloud.n_nodes >= max(ASSEMBLY_SIZES)
    for n in ASSEMBLY_SIZES:
        sub = _first_nodes(cloud, n)
        K = oracles.full_kernel_matrix(sub, params)
        assert np.array_equal(K, _reference_matrix(sub, params)), n


def test_matrix_is_symmetric_with_positive_entries(ball_op_2000):
    K = oracles.full_kernel_matrix(ball_op_2000.cloud, COULOMB)
    assert np.array_equal(K, K.T)
    assert K.min() > 0  # alpha < N kernel is positive at these separations


def test_energy_positive_on_zero_sum_vectors(ball_op_2000, rng):
    K = oracles.full_kernel_matrix(ball_op_2000.cloud, COULOMB)
    n = K.shape[0]
    W = rng.standard_normal((1000, n))
    W -= W.mean(axis=1, keepdims=True)
    quad = ((W @ K) * W).sum(axis=1)
    assert quad.min() > 0


def test_log_kernel_energy_positive_on_zero_sum_vectors(rng):
    cloud = dc.discretize(dc.Ball((0.0, 0.0), 1.0), 200, "boundary")
    K = oracles.full_kernel_matrix(cloud, dc.KernelParams(2, 2.0))
    W = rng.standard_normal((1000, K.shape[0]))
    W -= W.mean(axis=1, keepdims=True)
    quad = ((W @ K) * W).sum(axis=1)
    assert quad.min() > 0


def test_operator_scales_homogeneously_with_radius():
    small = oracles.full_kernel_matrix(dc.discretize(BALL3, 400, "boundary"), COULOMB)
    big = oracles.full_kernel_matrix(
        dc.discretize(dc.Ball((0.0, 0.0, 0.0), 2.0), 400, "boundary"), COULOMB
    )
    np.testing.assert_allclose(big, small / 2.0, rtol=1e-12)


def test_log_operator_shifts_with_radius():
    p = dc.KernelParams(2, 2.0)
    small = oracles.full_kernel_matrix(dc.discretize(dc.Ball((0.0, 0.0), 1.0), 128, "boundary"), p)
    big = oracles.full_kernel_matrix(dc.discretize(dc.Ball((0.0, 0.0), 3.0), 128, "boundary"), p)
    np.testing.assert_allclose(big, small - np.log(3.0), atol=1e-12)


def test_boundary_diagonal_consistency_uniform_sphere():
    # the uniform sphere measure is the exact minimizer; its discrete
    # energy must approach 1 as the cloud refines
    errs = []
    for M in (500, 2000):
        cloud = dc.discretize(BALL3, M, "boundary")
        op = dc.assemble_operator(cloud, COULOMB)
        u = cloud.weights / cloud.weights.sum()
        errs.append(abs(op.energy(u) - 1.0))
    assert errs[1] < errs[0] <= 0.02


def test_volume_diagonal_consistency_uniform_ball():
    target = uniform_ball_self_energy(3, 2.0)
    assert target == pytest.approx(6.0 / 5.0, rel=1e-12)
    errs = []
    for M in (500, 8000):
        cloud = dc.discretize(BALL3, M, "volume")
        op = dc.assemble_operator(cloud, COULOMB)
        u = cloud.weights / cloud.weights.sum()
        errs.append(abs(op.energy(u) - target) / target)
    assert errs[1] <= errs[0] / 4.0  # two quadruplings, at least halved each
    assert errs[0] < 0.03


def test_circle_diagonal_reproduces_log_energy():
    for R in (0.5, 1.0, 2.0):
        cloud = dc.discretize(dc.Ball((0.0, 0.0), R), 400, "boundary")
        op = dc.assemble_operator(cloud, dc.KernelParams(2, 2.0))
        u = cloud.weights / cloud.weights.sum()
        assert op.energy(u) == pytest.approx(
            oracles.circle_log_energy(R), abs=5e-3
        )


def test_unsupported_boundary_diagonal_raises():
    cloud = dc.discretize(BALL3, 100, "boundary")
    with pytest.raises(UnsupportedConfigurationError):
        dc.assemble_operator(cloud, dc.KernelParams(3, 1.5))


def test_operator_cloud_mismatch_guard(ball_cloud_2000):
    op = dc.assemble_operator(dc.discretize(BALL3, 100, "boundary"), COULOMB)
    with pytest.raises(ValidationError):
        dc.KernelOperator(packed=op.packed[:-1], cloud=op.cloud, params=COULOMB)
    # the right shape for another cloud: one (h + 1) x h buffer per orbit count
    with pytest.raises(ValidationError, match="packed"):
        dc.KernelOperator(packed=op.packed, cloud=ball_cloud_2000, params=COULOMB)
    with pytest.raises(ValidationError, match="kernel dimension 2"):
        dc.assemble_operator(op.cloud, LOG2)


def test_potential_at_checks_masses_and_targets():
    cloud = dc.discretize(BALL3, 100, "boundary")
    masses = cloud.weights / cloud.weights.sum()
    with pytest.raises(ValidationError, match="one mass per node"):
        potential_at(COULOMB, cloud, masses[:-1], [[2.0, 0.0, 0.0]])
    with pytest.raises(ValidationError, match="target dimension"):
        potential_at(COULOMB, cloud, masses, [[2.0, 0.0]])


def test_potential_at_coincident_targets(ball_cloud_2000, ball_op_2000):
    masses = ball_cloud_2000.weights / ball_cloud_2000.weights.sum()
    targets = ball_cloud_2000.points[[3, 17]]
    v = potential_at(COULOMB, ball_cloud_2000, masses, targets)
    expected = ball_op_2000.apply(masses)[[3, 17]]
    np.testing.assert_allclose(v, expected, rtol=1e-12)


@pytest.mark.parametrize("radius", [1.0, 1e-13])
def test_potential_at_nodes_matches_the_operator_at_any_scale(radius):
    # the coincidence test must scale with the cloud: at radius 1e-13
    # every node is closer than 1e-12 to every other
    cloud = dc.discretize(dc.Ball((0.0, 0.0, 0.0), radius), 400, "boundary")
    op = dc.assemble_operator(cloud, COULOMB)
    masses = cloud.weights / cloud.weights.sum()
    v = potential_at(COULOMB, cloud, masses, cloud.points)
    np.testing.assert_allclose(v, op.apply(masses), rtol=1e-12)


def _spread_with_a_twin(n, dim, first, second):
    """n distinct random points in dim with node second moved onto node first."""
    points = np.random.default_rng(3).uniform(-1.0, 1.0, (n, dim))
    points[second] = points[first]
    return points


def test_coincident_nodes_are_rejected():
    cases = [
        ([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]], COULOMB),
        # the twin pair lies in the second row block, not the first
        (_spread_with_a_twin(BLOCK_ROWS + 10, 3, 3, BLOCK_ROWS + 5), COULOMB),
        (_spread_with_a_twin(BLOCK_ROWS + 10, 2, 3, BLOCK_ROWS + 5), LOG2),
    ]
    for points, params in cases:
        n = len(points)
        cloud = dc.NodeCloud(
            points=points,
            weights=np.full(n, 0.1),
            role="volume",
            shape=dc.Ball((0.0,) * params.dim, 1.0),
            components=np.zeros(n, dtype=int),
            component_names=("body",),
        )
        with np.errstate(divide="ignore"), pytest.raises(ValidationError, match="nodes may coincide"):
            dc.assemble_operator(cloud, params)
