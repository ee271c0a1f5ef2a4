"""Kernel operator assembly: symmetry, positivity, scaling, diagonals."""

import numpy as np
import pytest

import dropcap as dc
from dropcap.errors import UnsupportedConfigurationError, ValidationError
from dropcap.kernels import uniform_ball_self_energy
from dropcap.operators import potential_at

import oracles


BALL3 = dc.Ball((0.0, 0.0, 0.0), 1.0)
COULOMB = dc.KernelParams(3, 2.0)


def test_matrix_is_symmetric_with_positive_entries(ball_op_2000):
    K = ball_op_2000.matrix
    assert np.array_equal(K, K.T)
    assert K.min() > 0  # alpha < N kernel is positive at these separations


def test_energy_positive_on_zero_sum_vectors(ball_op_2000, rng):
    K = ball_op_2000.matrix
    n = K.shape[0]
    W = rng.standard_normal((1000, n))
    W -= W.mean(axis=1, keepdims=True)
    quad = ((W @ K) * W).sum(axis=1)
    assert quad.min() > 0


def test_log_kernel_energy_positive_on_zero_sum_vectors(rng):
    cloud = dc.discretize(dc.Ball((0.0, 0.0), 1.0), 200, "boundary")
    K = dc.assemble_operator(cloud, dc.KernelParams(2, 2.0)).matrix
    W = rng.standard_normal((1000, K.shape[0]))
    W -= W.mean(axis=1, keepdims=True)
    quad = ((W @ K) * W).sum(axis=1)
    assert quad.min() > 0


def test_operator_scales_homogeneously_with_radius():
    small = dc.assemble_operator(dc.discretize(BALL3, 400, "boundary"), COULOMB)
    big = dc.assemble_operator(
        dc.discretize(dc.Ball((0.0, 0.0, 0.0), 2.0), 400, "boundary"), COULOMB
    )
    np.testing.assert_allclose(big.matrix, small.matrix / 2.0, rtol=1e-12)


def test_log_operator_shifts_with_radius():
    p = dc.KernelParams(2, 2.0)
    small = dc.assemble_operator(dc.discretize(dc.Ball((0.0, 0.0), 1.0), 128, "boundary"), p)
    big = dc.assemble_operator(dc.discretize(dc.Ball((0.0, 0.0), 3.0), 128, "boundary"), p)
    np.testing.assert_allclose(big.matrix, small.matrix - np.log(3.0), atol=1e-12)


def test_boundary_diagonal_consistency_uniform_sphere():
    # the uniform sphere measure is the exact minimizer; its discrete
    # energy must approach 1 as the cloud refines
    errs = []
    for M in (500, 2000):
        cloud = dc.discretize(BALL3, M, "boundary")
        op = dc.assemble_operator(cloud, COULOMB)
        u = cloud.weights / cloud.weights.sum()
        errs.append(abs(u @ op.matrix @ u - 1.0))
    assert errs[1] < errs[0] <= 0.02


def test_volume_diagonal_consistency_uniform_ball():
    target = uniform_ball_self_energy(3, 2.0)
    assert target == pytest.approx(6.0 / 5.0, rel=1e-12)
    errs = []
    for M in (500, 8000):
        cloud = dc.discretize(BALL3, M, "volume")
        op = dc.assemble_operator(cloud, COULOMB)
        u = cloud.weights / cloud.weights.sum()
        errs.append(abs(u @ op.matrix @ u - target) / target)
    assert errs[1] <= errs[0] / 4.0  # two quadruplings, at least halved each
    assert errs[0] < 0.03


def test_circle_diagonal_reproduces_log_energy():
    for R in (0.5, 1.0, 2.0):
        cloud = dc.discretize(dc.Ball((0.0, 0.0), R), 400, "boundary")
        op = dc.assemble_operator(cloud, dc.KernelParams(2, 2.0))
        u = cloud.weights / cloud.weights.sum()
        assert u @ op.matrix @ u == pytest.approx(
            oracles.circle_log_energy(R), abs=5e-3
        )


def test_unsupported_boundary_diagonal_raises():
    cloud = dc.discretize(BALL3, 100, "boundary")
    with pytest.raises(UnsupportedConfigurationError):
        dc.assemble_operator(cloud, dc.KernelParams(3, 1.5))


def test_operator_cloud_mismatch_guard(ball_cloud_2000):
    op = dc.assemble_operator(dc.discretize(BALL3, 100, "boundary"), COULOMB)
    with pytest.raises(ValidationError):
        dc.KernelOperator(matrix=op.matrix[:50, :50], cloud=op.cloud, params=COULOMB)


def test_potential_at_coincident_targets(ball_cloud_2000, ball_op_2000):
    masses = ball_cloud_2000.weights / ball_cloud_2000.weights.sum()
    targets = ball_cloud_2000.points[[3, 17]]
    v = potential_at(COULOMB, ball_cloud_2000, masses, targets)
    expected = ball_op_2000.matrix[[3, 17]] @ masses
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
