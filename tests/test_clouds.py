"""Node clouds: weights, symmetry, membership, components."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dropcap as dc
from dropcap.errors import DiscretizationError, ValidationError
from dropcap.instability import _random_polygon


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


@pytest.mark.parametrize("dim, k, minimum", [(2, 5, 4), (3, 3, 8)])
def test_a_union_boundary_below_its_node_minimum_is_refused(dim, k, minimum):
    # the 16 nodes discretize accepts leave each ball fewer than a circle's
    # 4 or a sphere lattice's 8
    balls = tuple(dc.Ball((3.0 * i,) + (0.0,) * (dim - 1), 1.0) for i in range(k))
    with pytest.raises(DiscretizationError, match=f"at least {minimum * k} nodes for {k} balls"):
        dc.discretize(dc.UnionOfBalls(balls), 16, "boundary")
    assert dc.discretize(dc.UnionOfBalls(balls), minimum * k, "boundary").n_nodes == minimum * k


def test_a_volume_grid_past_the_cell_bound_is_refused_before_it_is_built():
    # 5^50 bounding-box cells: numpy could not even index the grid
    with pytest.raises(ValidationError, match="bounding-box cells"):
        dc.discretize(dc.Ball((0.0,) * 50, 1.0), 100, "volume")
    with pytest.raises(ValidationError, match=f"more than {dc.clouds.MAX_GRID_CELLS}"):
        dc.discretize(BALL3, 10 * dc.clouds.MAX_GRID_CELLS, "volume")


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
            components=cloud.components,
            component_names=cloud.component_names,
        )


# (shape, role) -> the cycles its placement records, as a function of the cloud
CYCLES = {
    "circle": (dc.Ball((1.0, -0.5), 0.7), "boundary", lambda c: (c.n_nodes,)),
    "polygon": (
        dc.ConvexPolygon2D(((0.0, 0.0), (2.0, 0.0), (1.5, 1.0), (0.2, 0.8))),
        "boundary",
        lambda c: (c.n_nodes,),
    ),
    "planar annulus": (
        dc.Annulus((0.0, 0.0), 0.5, 1.0),
        "boundary",
        lambda c: tuple(np.bincount(c.components)),
    ),
    "sphere": (BALL3, "boundary", lambda c: ()),
    "planar union": (
        dc.UnionOfBalls((dc.Ball((0.0, 0.0), 1.0), dc.Ball((3.0, 0.0), 0.5))),
        "boundary",
        lambda c: tuple(np.bincount(c.components)),
    ),
    "planar box": (dc.Box((0.0, 0.0), (1.0, 0.5)), "boundary", lambda c: ()),
    "disk body": (dc.Ball((0.0, 0.0), 1.0), "volume", lambda c: ()),
}


@pytest.mark.parametrize("name", list(CYCLES))
def test_curve_placements_record_their_cycles(name):
    shape, role, expected = CYCLES[name]
    cloud = dc.discretize(shape, 400, role)
    assert cloud.cycles == expected(cloud)
    for start, length in zip(np.cumsum((0,) + cloud.cycles), cloud.cycles):
        run, cells = cloud.points[start : start + length], cloud.weights[start : start + length]
        # each run goes once around its curve: consecutive nodes (the last
        # and the first included) are one cell apart, and it turns by 2 pi
        steps = np.roll(run, -1, axis=0) - run
        assert np.linalg.norm(steps, axis=1).max() <= 2.0 * cells.max()
        heading = np.arctan2(steps[:, 1], steps[:, 0])
        turns = np.angle(np.exp(1j * (np.roll(heading, -1) - heading)))
        assert abs(turns.sum()) == pytest.approx(2.0 * np.pi, abs=1e-9)


def test_cycles_must_split_the_nodes_of_an_unmirrored_cloud():
    circle = dc.discretize(dc.Ball((0.0, 0.0), 1.0), 100, "boundary")
    sphere = dc.discretize(BALL3, 100, "boundary")
    fields = ("points", "weights", "role", "shape", "components", "component_names", "mirror")
    for cloud, cycles in [(circle, (99,)), (circle, (101,)), (circle, (0, 100)), (sphere, (100,))]:
        with pytest.raises(ValidationError, match="cycles"):
            dc.NodeCloud(**{f: getattr(cloud, f) for f in fields}, cycles=cycles)
    split = dc.NodeCloud(**{f: getattr(circle, f) for f in fields}, cycles=[40, 60])
    assert split.cycles == (40, 60)


# (field of a valid 4-node planar cloud, or the masses given to its
# component_masses, the bad value, the message it raises)
BAD_FIELDS = [
    ("points", np.zeros(4), "points must be a nonempty"),
    ("points", np.zeros((0, 2)), "points must be a nonempty"),
    ("weights", np.ones(3), "weights must be one scalar per node"),
    ("components", np.zeros(5, dtype=int), "components must give one label per node"),
    ("role", "surface", "role must be one of"),
    ("points", [[0.0, 0.0], [1.0, 0.0], [0.0, np.nan], [1.0, 1.0]], "coordinates must be finite"),
    ("weights", [1.0, 1.0, 0.0, 1.0], "weights positive"),
    ("components", [0, 0, 1, 0], "component labels out of range"),
    ("masses", np.ones(3), "need one value per node"),
]


@pytest.mark.parametrize("field, value, message", BAD_FIELDS)
def test_a_cloud_with_a_bad_field_is_refused(field, value, message):
    fields = {
        "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        "weights": np.ones(4),
        "role": "volume",
        "shape": dc.Box((0.5, 0.5), (0.5, 0.5)),
        "components": np.zeros(4, dtype=int),
        "component_names": ("body",),
    }
    with pytest.raises(ValidationError, match=message):
        if field == "masses":
            dc.NodeCloud(**fields).component_masses(value)
        else:
            dc.NodeCloud(**{**fields, field: value})


@st.composite
def generated_shapes(draw):
    """A ball, annulus, union of two or three balls, box or (in 2d) convex polygon."""
    dim = draw(st.sampled_from((2, 3)))
    center = draw(st.tuples(*[st.floats(-3.0, 3.0)] * dim))
    radius = st.floats(0.5, 1.5)
    kind = draw(st.sampled_from(("ball", "annulus", "union", "box", "polygon")[: 4 + (dim == 2)]))
    if kind == "ball":
        return dc.Ball(center, draw(radius))
    if kind == "annulus":
        r = draw(radius)
        return dc.Annulus(center, r, r * draw(st.floats(1.2, 3.0)))
    if kind == "union":
        # balls in a row along the first axis, each a gap past the last
        balls, x = [], center[0]
        for r in draw(st.lists(radius, min_size=2, max_size=3)):
            balls.append(dc.Ball((x + r,) + center[1:], r))
            x += 2.0 * r + draw(st.floats(0.1, 1.0))
        return dc.UnionOfBalls(tuple(balls))
    if kind == "box":
        return dc.Box(center, draw(st.tuples(*[radius] * dim)))
    polygon = _random_polygon(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return dc.ConvexPolygon2D(tuple(tuple(np.add(v, center)) for v in polygon.vertices))


def _exact_component_measures(shape, role):
    """The exact volume or perimeter of each component a cloud of shape labels."""
    if role == "volume":
        return [dc.volume(piece) for piece in shape.pieces()]
    if isinstance(shape, dc.Annulus):
        return [dc.perimeter(dc.Ball(shape.center, r)) for r in (shape.r_inner, shape.r_outer)]
    if isinstance(shape, dc.UnionOfBalls):
        return [dc.perimeter(b) for b in shape.balls]
    if isinstance(shape, dc.Box):
        sides = [2.0 * h for h in shape.half_widths]
        faces = [math.prod(sides[:i] + sides[i + 1 :]) for i in range(len(sides))]
        return [area for area in faces for _ in "-+"]
    if isinstance(shape, dc.ConvexPolygon2D):
        v = np.array(shape.vertices)
        return list(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1))
    return [dc.perimeter(shape)]


@settings(max_examples=60)
@given(shape=generated_shapes(), role=st.sampled_from(("boundary", "volume")), M=st.integers(200, 2000))
def test_generated_clouds_weigh_each_component_exactly(shape, role, M):
    cloud = dc.discretize(shape, M, role)
    exact = _exact_component_measures(shape, role)
    assert len(cloud.component_names) == len(exact)
    per_component = np.bincount(cloud.components, weights=cloud.weights, minlength=len(exact))
    np.testing.assert_allclose(per_component, exact, rtol=1e-13, atol=0.0)
    total = dc.volume(shape) if role == "volume" else dc.perimeter(shape)
    assert cloud.weights.sum() == pytest.approx(total, rel=1e-13)
    curves = role == "boundary" and shape.dim == 2 and not isinstance(shape, dc.Box)
    assert bool(cloud.cycles) == curves
    if curves:
        assert sum(cloud.cycles) == cloud.n_nodes
