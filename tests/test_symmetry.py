"""Reflection-group reduction: recorded reflections, orbits, character blocks,
and reduced solves against the same solves with the reflections stripped."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import dropcap as dc
from dropcap.clouds import character_sums
from dropcap.errors import NonConvergenceError, ValidationError
from dropcap.instability import _renormalized_mode_shape
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
# the reflections each placement builds: one point mirror on sphere
# lattices, one reflection per axis on box faces and volume grids
GENERATORS = {(name, "boundary"): 1 for name in ("ball", "annulus", "off-center ball")}
UNMIRRORED = {
    # no coordinate reflection of its bounding box maps it onto itself
    "off-center two-ball union": dc.UnionOfBalls(
        (dc.Ball(ORIGIN, 1.0), dc.Ball((3.0, 0.4, -0.2), 0.5))
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
    n = cloud.n_nodes
    assert cloud.mirror.shape == (GENERATORS.get((name, role), 3), n)
    for g in cloud.mirror:
        assert np.array_equal(g[g], np.arange(n))
    o = cloud.orbits
    # every node lies in exactly one orbit
    assert np.array_equal(np.unique(o.images), np.arange(n))
    assert o.sizes.sum() == n
    assert set(o.sizes) <= {1.0, 2.0, 4.0, 8.0}
    # a volume grid keeps its odd-count middle node as its own orbit
    assert np.count_nonzero(o.sizes == 1.0) == (1 if role == "volume" and name != "annulus" else 0)


def _point_mirror(cloud):
    """The cloud with only the product of its reflections, the point mirror."""
    point = np.arange(cloud.n_nodes)
    for g in cloud.mirror:
        point = g[point]
    return replace(cloud, mirror=point)


# (shape, role, M): nodes, orbits under the point mirror, orbits under the group
ORBIT_COUNTS = {
    "volume ball": ((MIRRORED["ball"], "volume", 2550), (2553, 1277, 410)),
    "box faces": ((dc.Box(ORIGIN, (1.0, 0.7, 0.5)), "boundary", 2000), (2018, 1009, 271)),
    "volume box": ((dc.Box(ORIGIN, (0.7, 0.5, 0.3)), "volume", 2000), (2223, 1112, 350)),
}


@pytest.mark.parametrize("case", list(ORBIT_COUNTS))
def test_the_reflection_group_has_fewer_orbits_than_the_point_mirror(case):
    (shape, role, M), counts = ORBIT_COUNTS[case]
    cloud = dc.discretize(shape, M, role)
    assert (cloud.n_nodes, len(_point_mirror(cloud).orbits), len(cloud.orbits)) == counts


@pytest.mark.parametrize("role", ["boundary", "volume"])
@pytest.mark.parametrize("name", list(UNMIRRORED))
def test_asymmetric_shapes_record_no_mirror(name, role):
    cloud = dc.discretize(UNMIRRORED[name], 500, role)
    assert cloud.mirror is None
    assert len(cloud.orbits) == cloud.n_nodes


def _signs(size):
    """chi_s(g_a) = (-1)^popcount(s & a), row s, column a."""
    return np.array([[(-1.0) ** bin(s & a).count("1") for a in range(size)] for s in range(size)])


def test_character_sums_are_the_signed_sums_over_the_group(rng):
    for size in (1, 2, 4, 8):
        # integer values: every sum is exact in either order
        X = rng.integers(-1000, 1000, (size, 5, 7)).astype(float)
        expected = np.einsum("sa,aij->sij", _signs(size), X)
        assert np.array_equal(np.array(character_sums(list(X.copy()))), expected)
        out = np.empty((5, 7))
        sums = character_sums(list(X.copy()), out, np.empty((5, 7)))
        assert sums[0] is out
        assert np.array_equal(np.array(sums), expected)


def _block(op, s):
    """Character s's block, read back through its products with unit vectors."""
    return op.apply_block(s, np.eye(len(op.cloud.orbits.carriers[s])))


def test_operator_blocks_are_orbit_sums_of_the_full_matrix(rng):
    # volume clouds of one and three row blocks, a centered orbit in the
    # last, under the group and under the point mirror alone
    for shape, M in ((MIRRORED["ball"], 400), (MIRRORED["box"], 900)):
        group = dc.discretize(shape, M, "volume")
        for cloud in (group, _point_mirror(group)):
            op = dc.assemble_operator(cloud, COULOMB)
            K = _reference_matrix(cloud, COULOMB)
            o = cloud.orbits
            size = len(o.images)
            # E: potential at each orbit's representative of unit mass spread over an orbit
            E = np.mean([K[o.reps][:, o.images[a]] for a in range(size)], axis=0)
            np.testing.assert_allclose(_block(op, 0), E, rtol=1e-14)
            # each block exactly the character sums of K's entries over its carriers
            sums = character_sums([K[o.reps][:, images] for images in o.images])
            for s, c in enumerate(o.carriers):
                assert np.array_equal(_block(op, s), sums[s][np.ix_(c, c)] / size), s
            if size == 2:
                # the point mirror: C_1 is (A - B)/2 over the pairs
                pairs, partners = o.images[:, o.carriers[1]]
                A, B = K[pairs][:, pairs], K[pairs][:, partners]
                assert np.array_equal(_block(op, 1), 0.5 * (A - B))
            assert np.array_equal(full_kernel_matrix(cloud, COULOMB), K)
            X = rng.standard_normal((3, cloud.n_nodes))
            assert _max_rel(op.apply(X), X @ K) <= 1e-13
            assert _max_rel(op.apply(X[0]), K @ X[0]) <= 1e-13
            assert op.energy(X[1]) == pytest.approx(X[1] @ K @ X[1], rel=1e-12)


def test_an_unmirrored_operator_is_its_full_matrix():
    cloud = dc.discretize(UNMIRRORED["off-center two-ball union"], 300, "boundary")
    op = dc.assemble_operator(cloud, COULOMB)
    assert np.array_equal(np.tril(op.packed[0][1:]), np.tril(_reference_matrix(cloud, COULOMB)))


def test_both_blocks_share_one_buffer_and_a_field_solve_adds_none():
    op = dc.assemble_operator(dc.discretize(MIRRORED["ball"], 2000, "boundary"), COULOMB)
    h = len(op.cloud.orbits)
    # under the point mirror E and C_1 share one array
    assert len(op.packed) == 1
    assert op.packed[0].nbytes == 8 * (h + 1) * h
    # the group's blocks take less than the point mirror's one array
    volume = dc.discretize(MIRRORED["ball"], 2000, "volume")
    grouped = dc.assemble_operator(volume, COULOMB).packed
    mirrored = dc.assemble_operator(_point_mirror(volume), COULOMB).packed
    assert len(grouped) == 4 and len(mirrored) == 1
    assert sum(m.nbytes for m in grouped) < mirrored[0].nbytes / 2
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


def _assert_group_solves_match_the_stripped_ones(cloud, alphas):
    """Equilibrium, field and entropic solves on cloud within 1e-13 of its stripped copy's."""
    assert cloud.mirror is not None
    full = _stripped(cloud)
    for alpha in alphas:
        params = dc.KernelParams(3, alpha)
        op, op_full = dc.assemble_operator(cloud, params), dc.assemble_operator(full, params)
        eq, eq_full = dc.equilibrium_measure(op), dc.equilibrium_measure(op_full)
        assert eq.iterations == eq_full.iterations
        # the energy is the multiplier
        assert eq.energy == pytest.approx(eq_full.energy, rel=1e-13)
        assert _max_rel(eq.masses, eq_full.masses) <= 1e-13
        if alpha == 2.0:
            # a linear field splits into one character per axis
            fr, fr_full = dc.solve_external(op, FIELD), dc.solve_external(op_full, FIELD)
            assert fr.F_value == pytest.approx(fr_full.F_value, rel=1e-13)
            scale = abs(fr_full.F_value)
            assert fr.lam == pytest.approx(fr_full.lam, rel=1e-13, abs=1e-13 * scale)
            assert _max_rel(fr.masses, fr_full.masses) <= 1e-13
    if cloud.role == "volume":
        en, en_full = dc.solve_entropic(cloud), dc.solve_entropic(full)
        assert en.J_value == pytest.approx(en_full.J_value, rel=1e-13)
        assert en.multiplier == pytest.approx(en_full.multiplier, rel=1e-13)
        assert _max_rel(en.masses, en_full.masses) <= 1e-13


centers = st.tuples(*[st.floats(-2.0, 2.0)] * 3)
half_widths = st.tuples(*[st.floats(0.4, 1.5)] * 3)
group_nodes = st.integers(300, 700)


@settings(max_examples=6)
@given(center=centers, radius=st.floats(0.4, 1.5), M=group_nodes)
def test_group_reduced_volume_ball_solves_match_the_stripped_ones(center, radius, M):
    cloud = dc.discretize(dc.Ball(center, radius), M, "volume")
    _assert_group_solves_match_the_stripped_ones(cloud, (1.5, 2.0))


@settings(max_examples=6)
@given(center=centers, half=half_widths, M=group_nodes)
def test_group_reduced_volume_box_solves_match_the_stripped_ones(center, half, M):
    cloud = dc.discretize(dc.Box(center, half), M, "volume")
    _assert_group_solves_match_the_stripped_ones(cloud, (1.5, 2.0))


@settings(max_examples=6)
@given(center=centers, half=half_widths, M=group_nodes)
def test_group_reduced_box_face_solves_match_the_stripped_ones(center, half, M):
    cloud = dc.discretize(dc.Box(center, half), M, "boundary")
    _assert_group_solves_match_the_stripped_ones(cloud, (2.0,))


# volume unions under part of the group: the reflections each records
GROUP_UNIONS = {
    # symmetric in y and z about the axis through both centers
    "two balls on the x axis": (
        dc.UnionOfBalls((dc.Ball(ORIGIN, 1.0), dc.Ball((3.0, 0.0, 0.0), 0.5))),
        2,
        {1.0, 2.0, 4.0},
    ),
    # symmetric in x and through the center, not in y or z alone: the x
    # reflection and the point mirror
    "two balls across the x axis": (
        dc.UnionOfBalls((dc.Ball((0.0, 1.0, 1.0), 1.0), dc.Ball((0.0, -1.0, -1.0), 1.0))),
        2,
        {2.0, 4.0},
    ),
}


@pytest.mark.parametrize("name", list(GROUP_UNIONS))
def test_group_reduced_union_solves_match_the_stripped_ones(name):
    shape, generators, sizes = GROUP_UNIONS[name]
    cloud = dc.discretize(shape, 600, "volume")
    assert cloud.mirror.shape == (generators, cloud.n_nodes)
    assert set(cloud.orbits.sizes) == sizes
    _assert_group_solves_match_the_stripped_ones(cloud, (1.5, 2.0))


def test_an_off_center_volume_annulus_records_a_reflection_per_axis():
    # the grid axes are exactly symmetric about the off-center midpoint, so
    # rounding breaks neither the clipped mask nor any of the reflections
    center = (0.1, 0.2, 0.3)
    cloud = dc.discretize(dc.Annulus(center, 0.4, 1.3), 1000, "volume")
    assert cloud.mirror.shape == (3, 1158)
    for axis, g in enumerate(cloud.mirror):
        image = cloud.points.copy()
        image[:, axis] = 2.0 * center[axis] - image[:, axis]
        np.testing.assert_allclose(cloud.points[g], image, rtol=0.0, atol=1e-15)
    _assert_group_solves_match_the_stripped_ones(cloud, (1.5,))


def test_past_three_dimensions_grids_carry_the_point_mirror_alone():
    d = 12
    union = dc.UnionOfBalls((dc.Ball((0.0,) * d, 1.0), dc.Ball((0.0,) * (d - 1) + (3.0,), 1.0)))
    cloud = dc.discretize(union, 100, "volume")
    assert cloud.mirror.shape == (1, cloud.n_nodes)
    # the point mirror through the center of the bounding box
    center = np.eye(d)[-1] * 1.5
    np.testing.assert_allclose(cloud.points[cloud.mirror[0]], 2.0 * center - cloud.points, atol=1e-15)
    faces = dc.discretize(dc.Box((0.5,) * 4, (1.0, 0.8, 0.6, 0.4)), 300, "boundary")
    assert faces.mirror.shape == (1, faces.n_nodes)
    np.testing.assert_allclose(faces.points[faces.mirror[0]], 1.0 - faces.points, atol=1e-15)
    assert len(faces.orbits) == faces.n_nodes // 2


def test_even_mode_graphs_carry_the_point_mirror():
    even = dc.NearlySpherical(modes=((0, 0, 0.3), (2, 1, 1.0), (4, -3, 0.5)), eps=0.1)
    cloud = dc.discretize(even, 1200, "boundary")
    assert cloud.mirror.shape == (1, 1200) and len(cloud.orbits) == 600
    # the lower half is the exact reflection of the upper
    assert np.array_equal(cloud.points[cloud.mirror[0]], -cloud.points)
    assert np.array_equal(cloud.weights[cloud.mirror[0]], cloud.weights)
    # the profile on the whole lattice gives the same nodes to rounding
    odd = dc.NearlySpherical(modes=(*even.modes, (3, 0, 1e-300)), eps=0.1)
    unmirrored = dc.discretize(odd, 1200, "boundary")
    assert unmirrored.mirror is None
    assert _max_rel(cloud.points, unmirrored.points) <= 1e-15
    assert _max_rel(cloud.weights, unmirrored.weights) <= 1e-15
    op, op_full = (dc.assemble_operator(c, COULOMB) for c in (cloud, _stripped(cloud)))
    eq, eq_full = dc.equilibrium_measure(op), dc.equilibrium_measure(op_full)
    assert eq.energy == pytest.approx(eq_full.energy, rel=1e-14)
    # within the spread of two solves of the full system, as above
    assert _max_rel(eq.masses, eq_full.masses) <= 1e-12


@pytest.mark.parametrize("l, orbits", [(2, 600), (3, 1200), (4, 600)])
def test_rayleigh_scan_shapes_of_even_degree_solve_on_half_the_nodes(l, orbits):
    shape = _renormalized_mode_shape(l, 0.08)
    cloud = dc.discretize(shape, 1200, "boundary")
    assert len(cloud.orbits) == orbits
    assert (cloud.mirror is None) == (l % 2 == 1)


@pytest.mark.parametrize("l", [1, 3, 5])
def test_a_zero_amplitude_graph_of_odd_degree_carries_the_point_mirror(l):
    # eps = 0 makes the profile exactly 1, so R(-u) = R(u) whatever the degrees
    cloud = dc.discretize(_renormalized_mode_shape(l, 0.0), 1200, "boundary")
    assert cloud.mirror.shape == (1, 1200) and len(cloud.orbits) == 600
    assert np.array_equal(cloud.points[cloud.mirror[0]], -cloud.points)
    sphere = dc.discretize(dc.Ball(ORIGIN, 1.0), 1200, "boundary")
    assert np.array_equal(cloud.points, sphere.points)
    assert np.array_equal(cloud.weights, sphere.weights)
    op, op_full = (dc.assemble_operator(c, COULOMB) for c in (cloud, _stripped(cloud)))
    eq, eq_full = dc.equilibrium_measure(op), dc.equilibrium_measure(op_full)
    assert eq.energy == pytest.approx(eq_full.energy, rel=1e-13)
    # the masses of two CG runs on the same sphere differ at 1.3e-13 here;
    # 1e-12 is the bound of the even-mode graphs above
    assert _max_rel(eq.masses, eq_full.masses) <= 1e-12


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
    assert np.count_nonzero(cloud.orbits.sizes == 2.0) == k
    for params in (COULOMB, dc.KernelParams(3, 1.5)):
        op = dc.assemble_operator(cloud, params)
        op_full = dc.assemble_operator(_stripped(cloud), params)
        if np.linalg.eigvalsh(op_full.packed[0][1:])[0] < 0.0:
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
        assert np.array_equal(res.masses, res.masses[cloud.mirror[0]])
        if params is COULOMB:
            # the field's odd part runs on (A - B)/2, zero-padded over a center
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


def test_wrong_reflection_generators_are_rejected():
    cloud = dc.discretize(MIRRORED["box"], 300, "volume")
    g = cloud.mirror
    n = cloud.n_nodes
    moved = cloud.points.copy()
    moved[g[1, 0]] += (1e-9, 0.0, 0.0)
    wrong = {
        "a generator twice": ({"mirror": g[[0, 0, 2]]}, "distinct"),
        "the identity": ({"mirror": np.vstack([g[:2], np.arange(n)])}, "distinct"),
        "four reflections": ({"mirror": np.vstack([g, g[0][g[1]]])}, "at most 3"),
        "a product of the others": ({"mirror": np.vstack([g[:2], g[0][g[1]]])}, "distinct"),
        "a node off its reflection": ({"points": moved}, "reflect"),
        "three dimensions": ({"mirror": g[None]}, "pair the node indices"),
    }
    for label, (change, word) in wrong.items():
        with pytest.raises(ValidationError, match=word):
            replace(cloud, **change)
        assert replace(cloud, **{**change, "mirror": None}).mirror is None, label
    # two reflections through x = 0 of three coincident pairs, paired
    # differently: each is a reflection, their products are not a group
    points = np.repeat([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], 3, axis=0)
    a1, a2, a3, b1, b2, b3 = range(6)
    pairing = dc.NodeCloud(
        points=points,
        weights=np.ones(6),
        role="volume",
        shape=MIRRORED["ball"],
        components=np.zeros(6, dtype=int),
        component_names=("body",),
        mirror=[b1, b2, b3, a1, a2, a3],
    )
    with pytest.raises(ValidationError, match="commute"):
        replace(pairing, mirror=[pairing.mirror[0], [b2, b3, b1, a3, a1, a2]])
