"""Mirror-symmetry reduction: recorded pairings, orbit blocks, and reduced solves
against the same solves with the mirror stripped."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import dropcap as dc
from dropcap.errors import NonConvergenceError, ValidationError
from dropcap.kernels import kernel_of_distance
from dropcap.operators import diagonal_self_energy
from oracles import full_kernel_matrix

ORIGIN = (0.0, 0.0, 0.0)
COULOMB = dc.KernelParams(3, 2.0)
FIELD = dc.LinearPotential((0.3, -1.0, 0.5))

MIRRORED = {
    "ball": dc.Ball(ORIGIN, 1.0),
    "annulus": dc.Annulus(ORIGIN, 0.5, 1.0),
    "box": dc.Box(ORIGIN, (1.0, 0.6, 0.4)),
    "off-center ball": dc.Ball((0.3, -0.7, 1.1), 1.2),
}
UNMIRRORED = {
    "off-center two-ball union": dc.UnionOfBalls(
        (dc.Ball(ORIGIN, 1.0), dc.Ball((3.0, 0.0, 0.0), 0.5))
    ),
    "random polygon": dc.ConvexPolygon2D(
        ((0.0, 0.0), (2.1, 0.3), (1.7, 1.4), (0.4, 1.1))
    ),
}


def _stripped(cloud):
    return replace(cloud, mirror=None)


def _max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _reference_matrix(cloud, params):
    dist = cdist(cloud.points, cloud.points)
    np.fill_diagonal(dist, 1.0)
    K = kernel_of_distance(params, dist)
    np.fill_diagonal(K, diagonal_self_energy(cloud, params))
    return K


@pytest.mark.parametrize("role", ["boundary", "volume"])
@pytest.mark.parametrize("name", list(MIRRORED))
def test_discretize_records_the_mirror_it_builds(name, role):
    cloud = dc.discretize(MIRRORED[name], 500, role)
    assert cloud.mirror is not None
    o = cloud.orbits
    assert np.array_equal(cloud.mirror[cloud.mirror], np.arange(cloud.n_nodes))
    assert o.n_pairs >= cloud.n_nodes // 2 - 1
    # a volume grid keeps its odd-count middle node as its own orbit
    assert len(o) - o.n_pairs == (1 if role == "volume" and name != "annulus" else 0)


@pytest.mark.parametrize("role", ["boundary", "volume"])
@pytest.mark.parametrize("name", list(UNMIRRORED))
def test_asymmetric_shapes_record_no_mirror(name, role):
    cloud = dc.discretize(UNMIRRORED[name], 500, role)
    assert cloud.mirror is None
    assert len(cloud.orbits) == cloud.n_nodes


def test_operator_blocks_are_orbit_sums_of_the_full_matrix(rng):
    # volume clouds of two and five row blocks, a centered orbit in the last
    for shape, M in ((MIRRORED["ball"], 400), (MIRRORED["box"], 900)):
        cloud = dc.discretize(shape, M, "volume")
        op = dc.assemble_operator(cloud, COULOMB)
        K = _reference_matrix(cloud, COULOMB)
        o = cloud.orbits
        p = o.n_pairs
        pairs, partners = o.reps[:p], o.partners
        # E: potential at each orbit's representative of unit mass spread over an orbit
        E = K[o.reps][:, o.reps].copy()
        E[:, :p] = 0.5 * (K[o.reps][:, pairs] + K[o.reps][:, partners])
        even = np.tril(op.even)
        np.testing.assert_allclose(even + np.tril(even, -1).T, E, rtol=1e-14)
        # A - B exactly, zero on the centered orbit's row and column
        A, B = K[pairs][:, pairs], K[pairs][:, partners]
        odd = np.triu(op.odd)
        assert np.array_equal(odd[:p, :p], np.triu(A - B))
        assert not odd[p:].any() and not odd[:, p:].any()
        assert np.array_equal(full_kernel_matrix(cloud, COULOMB), K)
        X = rng.standard_normal((3, cloud.n_nodes))
        assert _max_rel(op.apply(X), X @ K) <= 1e-13
        assert _max_rel(op.apply(X[0]), K @ X[0]) <= 1e-13
        assert op.energy(X[1]) == pytest.approx(X[1] @ K @ X[1], rel=1e-12)


def test_an_unmirrored_operator_is_its_full_matrix():
    cloud = dc.discretize(UNMIRRORED["off-center two-ball union"], 300, "boundary")
    op = dc.assemble_operator(cloud, COULOMB)
    assert np.array_equal(np.tril(op.even), np.tril(_reference_matrix(cloud, COULOMB)))


def test_both_blocks_share_one_buffer_and_a_field_solve_adds_none():
    op = dc.assemble_operator(dc.discretize(MIRRORED["ball"], 2000, "boundary"), COULOMB)
    h = len(op.orbits)
    assert np.shares_memory(op.even, op.odd)
    assert op.packed.nbytes == 8 * (h + 1) * h
    # scipy's BLAS loaded and bound first, on another operator
    small = dc.assemble_operator(dc.discretize(MIRRORED["ball"], 200, "boundary"), COULOMB)
    dc.solve_external(small, FIELD)
    tracemalloc.start()
    try:
        dc.solve_external(op, FIELD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * h * h


# (shape, role, M) of the clouds the reduced solves are pinned on
EQUIVALENCE_CASES = {
    "boundary ball": (MIRRORED["ball"], "boundary", 800),
    "annulus": (MIRRORED["annulus"], "boundary", 800),
    # the alpha = 2 volume ball collapses over five working sets, its
    # center node an orbit of its own
    "volume ball": (MIRRORED["ball"], "volume", 1200),
    "box faces": (MIRRORED["box"], "boundary", 800),
}


@pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
def test_reduced_solves_match_the_unreduced_ones(case):
    shape, role, M = EQUIVALENCE_CASES[case]
    cloud = dc.discretize(shape, M, role)
    full = _stripped(cloud)
    op, op_full = dc.assemble_operator(cloud, COULOMB), dc.assemble_operator(full, COULOMB)
    eq, eq_full = dc.equilibrium_measure(op), dc.equilibrium_measure(op_full)
    assert eq.iterations == eq_full.iterations
    assert eq.energy == pytest.approx(eq_full.energy, rel=1e-14)
    # two solves of the full system (CG against LU) differ by up to a few
    # 1e-13 in the masses; the reduced one sits within that spread
    assert _max_rel(eq.masses, eq_full.masses) <= 1e-12
    assert np.array_equal(eq.masses > 0.0, eq_full.masses > 0.0)
    for res in (eq, eq_full):
        assert res.kkt_residual <= 1e-14 * res.energy
    fr, fr_full = dc.solve_external(op, FIELD), dc.solve_external(op_full, FIELD)
    assert fr.F_value == pytest.approx(fr_full.F_value, rel=1e-14)
    assert _max_rel(fr.masses, fr_full.masses) <= 1e-12
    for res in (fr, fr_full):
        assert res.el_residual <= 1e-14
    if role == "volume":
        en, en_full = dc.solve_entropic(cloud), dc.solve_entropic(full)
        assert en.J_value == pytest.approx(en_full.J_value, rel=1e-14)
        assert _max_rel(en.masses, en_full.masses) <= 1e-12
        assert max(en.el_residual, en_full.el_residual) <= 1e-14


def _reflected_cloud(seed, k, with_center):
    """k random nodes and their reflections through a random center."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-2.0, 2.0, 3)
    half = c + rng.uniform(-1.0, 1.0, (k, 3))
    w = rng.uniform(0.5, 2.0, k) * 1e-3
    points = [half, 2.0 * c - half]
    weights = [w, w]
    mirror = [np.arange(k, 2 * k), np.arange(k)]
    if with_center:
        points.append(c[None, :])
        weights.append([1e-3])
        mirror.append([2 * k])
    n = 2 * k + with_center
    return dc.NodeCloud(
        points=np.vstack(points),
        weights=np.concatenate(weights),
        role="volume",
        shape=dc.Ball(tuple(c), 2.0),
        components=np.zeros(n, dtype=int),
        component_names=("body",),
        mirror=np.concatenate(mirror),
    )


def _kkt_point_or_a_feasible_raise(op, tol=1e-10):
    """The energy of equilibrium_measure's KKT point, or None if it raised."""
    try:
        res = dc.equilibrium_measure(op, tol=tol)
    except NonConvergenceError as err:
        m, lam = err.result
        lam = None
    else:
        m, lam = res.masses, res.energy
        assert res.kkt_residual <= tol * max(abs(lam), 1.0)
    assert m.min() >= 0.0
    assert m.sum() == pytest.approx(1.0, abs=1e-12)
    return lam


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(8, 60), with_center=st.booleans())
# K indefinite at both alphas: both copies solve, or both raise
@example(seed=1, k=52, with_center=False)
@example(seed=1, k=60, with_center=True)
def test_reflected_random_clouds_solve_like_their_stripped_copies(seed, k, with_center):
    cloud = _reflected_cloud(seed, k, with_center)
    assert cloud.orbits.n_pairs == k
    for params in (COULOMB, dc.KernelParams(3, 1.5)):
        op = dc.assemble_operator(cloud, params)
        op_full = dc.assemble_operator(_stripped(cloud), params)
        if np.linalg.eigvalsh(op_full.even)[0] < 0.0:
            # random weights can leave K indefinite and the program not
            # convex: both copies raise with a feasible iterate, or both
            # reach a KKT point with the same energy
            lam, lam_full = (_kkt_point_or_a_feasible_raise(each) for each in (op, op_full))
            if lam is None or lam_full is None:
                assert lam is None and lam_full is None
            else:
                assert lam == pytest.approx(lam_full, rel=1e-13)
            continue
        res, res_full = dc.equilibrium_measure(op), dc.equilibrium_measure(op_full)
        assert res.energy == pytest.approx(res_full.energy, rel=1e-13)
        assert np.array_equal(res.masses, res.masses[cloud.mirror])
        if params is COULOMB:
            # the field's odd part runs on A - B, zero-padded over a center
            fr, fr_full = dc.solve_external(op, FIELD), dc.solve_external(op_full, FIELD)
            assert fr.F_value == pytest.approx(fr_full.F_value, rel=1e-14)
            assert _max_rel(fr.masses, fr_full.masses) <= 1e-12


@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(8, 60))
def test_a_wrong_mirror_is_rejected(seed, k):
    cloud = _reflected_cloud(seed, k, False)
    n = cloud.n_nodes
    shifted = np.concatenate([np.roll(np.arange(k, n), 1), np.roll(np.arange(k), 1)])
    weights = cloud.weights.copy()
    weights[0] = np.nextafter(weights[0], np.inf)
    wrong = {
        "partners shifted by one": {"mirror": shifted},
        "not an involution": {"mirror": np.roll(cloud.mirror, 1)},
        "index out of range": {"mirror": cloud.mirror + 1},
        "unequal weights": {"weights": weights},
        "a node moved": {"points": cloud.points + np.eye(n, 3, -1) * 1e-9},
    }
    for label, change in wrong.items():
        with pytest.raises(ValidationError, match="mirror"):
            replace(cloud, **change)
        assert replace(cloud, **{**change, "mirror": None}).mirror is None, label
