"""Kernel operator assembly: symmetry, positivity, scaling, diagonals."""

import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import dropcap as dc
import dropcap.operators as operators
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


# (shape, n, role, kernel, |G|) of the clouds the pooled assembly is pinned on
POOLED_CASES = {
    "log polygon": (ASSEMBLY_CASES["log_polygon"][0], 1000, "boundary", LOG2, 1),
    "sphere lattice": (BALL3, 2000, "boundary", COULOMB, 2),
    "planar volume disk": (dc.Ball((0.0, 0.0), 1.0), 2600, "volume", LOG2, 4),
    "volume ball": (BALL3, 2550, "volume", COULOMB, 8),
    "off-center annulus": (dc.Annulus((0.1, 0.2, 0.3), 0.4, 1.3), 1000, "volume", COULOMB, 8),
    "volume box": (ASSEMBLY_CASES["box"][0], 2000, "volume", COULOMB, 8),
}


def _triangles(op):
    """The parts of op.packed its products read: all of it, or E's lower triangle alone."""
    if op.orbits.images.shape[0] == 1:
        return [np.tril(op.packed[0][1:])]
    return list(op.packed)


@pytest.mark.parametrize("case", list(POOLED_CASES))
def test_pooled_assembly_is_the_one_worker_assembly_in_any_order(case, monkeypatch):
    shape, n, role, params, group = POOLED_CASES[case]
    cloud = dc.discretize(shape, n, role)
    assert cloud.orbits.images.shape[0] == group
    monkeypatch.setattr(operators, "POOL_MIN_ENTRIES", 0)
    monkeypatch.setattr(operators, "WORKERS", 3)
    pooled = _triangles(dc.assemble_operator(cloud, params))
    monkeypatch.setattr(operators, "WORKERS", 1)
    serial = _triangles(dc.assemble_operator(cloud, params))
    # smallest block first, in narrower chunks
    row_blocks = operators._row_blocks
    monkeypatch.setattr(operators, "_row_blocks", lambda h: row_blocks(h)[::-1])
    monkeypatch.setattr(operators, "CHUNK_COLS", 100)
    reversed_ = _triangles(dc.assemble_operator(cloud, params))
    for a, b, c in zip(pooled, serial, reversed_):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_more_threads_than_cores_switching_often_assemble_the_same_arrays(monkeypatch):
    for case in ("sphere lattice", "volume box"):
        shape, n, role, params, _ = POOLED_CASES[case]
        cloud = dc.discretize(shape, n, role)
        monkeypatch.setattr(operators, "WORKERS", 1)
        serial = dc.assemble_operator(cloud, params).packed
        monkeypatch.setattr(operators, "WORKERS", 8)
        monkeypatch.setattr(operators, "POOL_MIN_ENTRIES", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(7) as pool:
                monkeypatch.setattr(operators, "_pool", lambda: pool)
                pooled = dc.assemble_operator(cloud, params).packed
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(serial, pooled))


@pytest.mark.parametrize("n, min_entries", [(2 * BLOCK_ROWS, 0), (1200, 2**20)])
def test_a_small_operator_is_assembled_on_the_calling_thread(monkeypatch, n, min_entries):
    """One row block, or fewer kernel values than POOL_MIN_ENTRIES: no pool."""

    def no_pool():
        raise AssertionError("the pool was used")

    monkeypatch.setattr(operators, "WORKERS", 4)
    monkeypatch.setattr(operators, "POOL_MIN_ENTRIES", min_entries)
    monkeypatch.setattr(operators, "_pool", no_pool)
    cloud = dc.discretize(BALL3, n, "boundary")  # one orbit per mirrored pair
    h = len(cloud.orbits)
    assert h == BLOCK_ROWS or (h > BLOCK_ROWS and 2 * h * h < 2 * min_entries)
    op = dc.assemble_operator(cloud, COULOMB)
    assert np.isfinite(op.packed[0]).all()


def test_the_row_blocks_run_on_the_pool_at_once_under_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(operators, "WORKERS", 2)
    both = threading.Barrier(2, timeout=10)
    seen = {}

    def work(i0, i1, buffer):
        seen[threading.get_ident()] = np.geterr()["divide"]
        both.wait()  # breaks, and raises, unless the other block is running too

    with np.errstate(divide="ignore"):
        operators._run_blocks(work, [(0, 1), (1, 2)], np.empty((2, 1)))
    assert list(seen.values()) == ["ignore", "ignore"]


def test_an_error_on_a_pool_thread_stops_the_rest_and_is_raised(monkeypatch):
    monkeypatch.setattr(operators, "WORKERS", 2)
    caller = threading.get_ident()
    taken = threading.Event()
    done = []

    def work(i0, i1, buffer):
        if threading.get_ident() == caller:
            assert taken.wait(10)  # hold this block until the pool's thread has one
            done.append(i0)
        else:
            taken.set()
            raise ValidationError("operator has non-finite entries; nodes may coincide")

    blocks = [(i, i + 1) for i in range(10)]
    with pytest.raises(ValidationError, match="nodes may coincide"):
        operators._run_blocks(work, blocks, np.empty((2, 1)))
    assert len(done) == 1  # no thread took a block after the error
    # and the pool's thread is free again
    assert operators._pool().submit(lambda: 7).result(timeout=10) == 7


def test_coincident_nodes_on_every_thread_leave_the_pool_working(monkeypatch):
    monkeypatch.setattr(operators, "WORKERS", 3)
    monkeypatch.setattr(operators, "POOL_MIN_ENTRIES", 0)
    n = 3 * BLOCK_ROWS
    points = _spread_with_a_twin(n, 3, 5, 2 * BLOCK_ROWS + 7)
    points[BLOCK_ROWS + 3] = points[BLOCK_ROWS + 1]
    cloud = dc.NodeCloud(
        points=points,
        weights=np.full(n, 0.1),
        role="volume",
        shape=BALL3,
        components=np.zeros(n, dtype=int),
        component_names=("body",),
    )
    # the caller's errstate holds on the pool's threads: no warning from them
    with np.errstate(divide="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="nodes may coincide"):
            dc.assemble_operator(cloud, COULOMB)
    points = points.copy()
    points[[BLOCK_ROWS + 3, 2 * BLOCK_ROWS + 7]] += 0.25
    fixed = replace(cloud, points=points)
    pooled = _triangles(dc.assemble_operator(fixed, COULOMB))
    monkeypatch.setattr(operators, "WORKERS", 1)
    assert np.array_equal(pooled[0], _triangles(dc.assemble_operator(fixed, COULOMB))[0])
