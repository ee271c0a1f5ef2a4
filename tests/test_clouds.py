"""Node clouds: weights, symmetry, membership, components."""

import numpy as np
import pytest

import dropcap as dc
from dropcap.errors import DiscretizationError, ValidationError


BALL3 = dc.Ball((0.0, 0.0, 0.0), 1.0)


def test_minimum_node_budget_enforced():
    with pytest.raises(ValidationError):
        dc.discretize(BALL3, 15, "boundary")
    with pytest.raises(ValidationError):
        dc.discretize(BALL3, 100, "surface")


def test_sphere_cloud_weights_and_symmetry():
    cloud = dc.discretize(dc.Ball((0.0, 0.0, 0.0), 2.0), 1000, "boundary")
    assert cloud.weights.sum() == pytest.approx(16.0 * np.pi, rel=1e-13)
    assert np.ptp(cloud.weights) == 0.0  # equal-weight lattice
    # antipodal pairing cancels every odd moment
    assert np.linalg.norm(cloud.points.sum(axis=0)) < 1e-10
    assert np.allclose(np.linalg.norm(cloud.points, axis=1), 2.0)


def test_circle_cloud_weights():
    cloud = dc.discretize(dc.Ball((1.0, 1.0), 0.5), 64, "boundary")
    assert cloud.weights.sum() == pytest.approx(np.pi, rel=1e-13)
    assert np.allclose(np.linalg.norm(cloud.points - [1.0, 1.0], axis=1), 0.5)


def test_annulus_components_split_by_area():
    shape = dc.Annulus((0.0, 0.0, 0.0), 0.5, 1.0)
    cloud = dc.discretize(shape, 1000, "boundary")
    assert cloud.component_names == ("inner", "outer")
    inner = cloud.components == 0
    # area split 1:4, so roughly a fifth of the nodes sit inside
    assert inner.sum() == pytest.approx(cloud.n_nodes / 5.0, rel=0.15)
    r = np.linalg.norm(cloud.points, axis=1)
    assert np.allclose(r[inner], 0.5) and np.allclose(r[~inner], 1.0)
    assert cloud.weights[inner].sum() == pytest.approx(np.pi, rel=1e-12)


def test_union_boundary_components():
    u = dc.UnionOfBalls((dc.Ball((0, 0, 0), 1.0), dc.Ball((5, 0, 0), 1.0)))
    cloud = dc.discretize(u, 400, "boundary")
    assert cloud.component_names == ("ball_0", "ball_1")
    masses = np.full(cloud.n_nodes, 1.0 / cloud.n_nodes)
    split = cloud.component_masses(masses)
    assert split["ball_0"] == pytest.approx(0.5, abs=0.05)


def test_box_boundary_weights_equal_surface_area():
    box = dc.Box((0.0, 0.0, 0.0), (1.0, 0.5, 0.25))
    cloud = dc.discretize(box, 600, "boundary")
    assert cloud.weights.sum() == pytest.approx(dc.perimeter(box), rel=1e-12)
    assert len(cloud.component_names) == 6


def test_polygon_boundary_weights_equal_perimeter():
    poly = dc.ConvexPolygon2D(((0, 0), (2, 0), (2, 1), (0, 1)))
    cloud = dc.discretize(poly, 120, "boundary")
    assert cloud.weights.sum() == pytest.approx(6.0, rel=1e-12)


def test_volume_cloud_weight_sums_are_exact():
    for shape in (
        BALL3,
        dc.Box((0.0, 0.0, 0.0), (0.7, 0.5, 0.3)),
        dc.Ball((0.0, 0.0), 1.5),
        dc.UnionOfBalls((dc.Ball((0, 0, 0), 1.0), dc.Ball((3, 0, 0), 0.6))),
    ):
        for M in (300, 1200):
            cloud = dc.discretize(shape, M, "volume")
            assert cloud.weights.sum() == pytest.approx(dc.volume(shape), rel=1e-12)


def test_volume_cloud_centers_node_on_midpoint():
    cloud = dc.discretize(BALL3, 500, "volume")
    r = np.linalg.norm(cloud.points, axis=1)
    assert r.min() < 1e-12


def test_union_volume_components_carry_exact_ball_volumes():
    u = dc.UnionOfBalls((dc.Ball((0, 0, 0), 1.0), dc.Ball((3, 0, 0), 0.6)))
    cloud = dc.discretize(u, 2000, "volume")
    split = cloud.component_masses(cloud.weights)
    assert split["ball_0"] == pytest.approx(4 * np.pi / 3, rel=1e-12)
    assert split["ball_1"] == pytest.approx(4 * np.pi / 3 * 0.6**3, rel=1e-12)


def test_graph_boundary_weight_sum_matches_quadrature_perimeter():
    shape = dc.NearlySpherical(modes=((2, 0, 1.0),), eps=0.1)
    cloud = dc.discretize(shape, 2000, "boundary")
    assert cloud.weights.sum() == pytest.approx(dc.perimeter(shape), rel=2e-3)


def test_weight_sum_error_halves_when_nodes_quadruple():
    shape = dc.NearlySpherical(modes=((2, 0, 1.0),), eps=0.1)
    target = dc.perimeter(shape)
    e1 = abs(dc.discretize(shape, 500, "boundary").weights.sum() - target)
    e2 = abs(dc.discretize(shape, 2000, "boundary").weights.sum() - target)
    assert e2 <= e1 / 2.0
    # closed-form clouds carry exact weight sums at any resolution
    for role in ("boundary", "volume"):
        c = dc.discretize(BALL3, 700, role)
        exact = 4 * np.pi if role == "boundary" else 4 * np.pi / 3
        assert c.weights.sum() == pytest.approx(exact, rel=1e-12)


def test_contains_all_variants():
    assert BALL3.contains([[0.5, 0.0, 0.0]])[0]
    assert not BALL3.contains([[1.5, 0.0, 0.0]])[0]
    ann = dc.Annulus((0.0, 0.0, 0.0), 0.5, 1.0)
    assert ann.contains([[0.7, 0, 0]])[0] and not ann.contains([[0.2, 0, 0]])[0]
    poly = dc.ConvexPolygon2D(((0, 0), (1, 0), (1, 1), (0, 1)))
    assert poly.contains([[0.5, 0.5]])[0] and not poly.contains([[1.5, 0.5]])[0]
    graph = dc.NearlySpherical(modes=((2, 0, 1.0),), eps=0.2)
    assert graph.contains([[0.0, 0.0, 0.0]])[0]


def test_boundary_clouds_reject_four_dimensional_balls_and_unions():
    ball = dc.Ball((0.0, 0.0, 0.0, 0.0), 1.0)
    union = dc.UnionOfBalls((ball, dc.Ball((3.0, 0.0, 0.0, 0.0), 1.0)))
    for shape in (ball, union):
        with pytest.raises(DiscretizationError, match="dimensions 2 and 3, not 4"):
            dc.discretize(shape, 400, "boundary")
        assert dc.discretize(shape, 400, "volume").dim == 4


def test_volume_cloud_too_coarse_raises():
    tiny = dc.Ball((0.0, 0.0, 0.0), 1e-3)
    u = dc.UnionOfBalls((dc.Ball((0, 0, 0), 1.0), dc.Ball((2.5, 0, 0), 1e-3)))
    with pytest.raises(DiscretizationError):
        dc.discretize(u, 40, "volume")
    del tiny


def test_voronoi_patch_areas_tile_the_sphere():
    cloud = dc.discretize(dc.Ball((0.0, 0.0, 0.0), 2.0), 500, "boundary")
    areas = dc.voronoi_patch_areas(cloud)
    assert areas.sum() == pytest.approx(16.0 * np.pi, rel=1e-9)
    assert areas.min() > 0


def test_cloud_validation():
    cloud = dc.discretize(BALL3, 100, "boundary")
    with pytest.raises(ValidationError):
        dc.NodeCloud(
            points=cloud.points,
            weights=-cloud.weights,
            role="boundary",
            shape=BALL3,
            resolution=100,
            components=cloud.components,
            component_names=cloud.component_names,
        )
