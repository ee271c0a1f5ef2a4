"""Shape catalog: measures, validation, serialization."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dropcap as dc
from dropcap.errors import DiscretizationError, ValidationError
from dropcap.harmonics import gauss_sphere_grid
from dropcap.shapes import VARIANTS

import oracles


BALL3 = dc.Ball((0.0, 0.0, 0.0), 1.0)


def test_closed_form_measures():
    assert dc.perimeter(BALL3) == pytest.approx(4.0 * np.pi, rel=1e-14)
    assert dc.volume(BALL3) == pytest.approx(4.0 * np.pi / 3.0, rel=1e-14)
    disk = dc.Ball((1.0, -2.0), 2.0)
    assert dc.perimeter(disk) == pytest.approx(4.0 * np.pi, rel=1e-14)
    assert dc.volume(disk) == pytest.approx(4.0 * np.pi, rel=1e-14)
    ann = dc.Annulus((0.0, 0.0, 0.0), 0.5, 1.0)
    assert dc.perimeter(ann) == pytest.approx(4.0 * np.pi * (1.0 + 0.25), rel=1e-14)
    assert dc.volume(ann) == pytest.approx(4.0 * np.pi / 3.0 * (1 - 0.125), rel=1e-14)
    box = dc.Box((0.0, 0.0, 0.0), (1.0, 0.5, 0.25))
    assert dc.volume(box) == pytest.approx(2.0 * 1.0 * 0.5, rel=1e-14)
    assert dc.perimeter(box) == pytest.approx(2 * (2 * 1 + 2 * 0.5 + 1 * 0.5), rel=1e-14)


def test_union_measures_add():
    u = dc.UnionOfBalls((dc.Ball((0, 0, 0), 1.0), dc.Ball((5, 0, 0), 0.5)))
    assert dc.volume(u) == pytest.approx(4 * np.pi / 3 * (1 + 0.125), rel=1e-14)
    assert dc.perimeter(u) == pytest.approx(4 * np.pi * (1 + 0.25), rel=1e-14)


def test_regular_polygon_perimeter_matches_oracle():
    for m in (3, 4, 6, 12):
        R = np.sqrt(2.0 * np.pi / (m * np.sin(2.0 * np.pi / m)))
        ang = 2.0 * np.pi * np.arange(m) / m
        poly = dc.ConvexPolygon2D(
            tuple((R * np.cos(a), R * np.sin(a)) for a in ang)
        )
        assert dc.volume(poly) == pytest.approx(np.pi, rel=1e-12)
        assert dc.perimeter(poly) == pytest.approx(
            oracles.regular_polygon_perimeter(m), rel=1e-12
        )


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        dc.Ball((0.0, 0.0, 0.0), -1.0)
    with pytest.raises(ValidationError):
        dc.Annulus((0.0, 0.0, 0.0), 1.0, 0.5)
    with pytest.raises(ValidationError):
        dc.UnionOfBalls((dc.Ball((0, 0, 0), 1.0), dc.Ball((1, 0, 0), 1.0)))
    with pytest.raises(ValidationError):
        dc.Box((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValidationError):  # clockwise square
        dc.ConvexPolygon2D(((0, 0), (0, 1), (1, 1), (1, 0)))
    with pytest.raises(ValidationError):  # profile touches zero
        dc.NearlySpherical(modes=((0, 0, 1.0),), eps=-4.0)
    nan = float("nan")
    with pytest.raises(ValidationError):
        dc.Box((0.0, 0.0), (nan, 1.0))
    with pytest.raises(ValidationError):
        dc.ConvexPolygon2D(((0, 0), (1, 0), (nan, 1)))
    with pytest.raises(ValidationError):
        dc.NearlySpherical(modes=((2, 0, 1.0),), eps=nan)


def test_nearly_spherical_ball_limit():
    s = dc.NearlySpherical(modes=((2, 0, 1.0),), eps=0.0)
    assert dc.perimeter(s) == pytest.approx(4.0 * np.pi, rel=1e-13)
    assert dc.volume(s) == pytest.approx(4.0 * np.pi / 3.0, rel=1e-13)
    assert dc.symmetric_difference_to_unit_ball(s) == pytest.approx(0.0, abs=1e-13)


def test_renormalize_restores_unit_volume():
    s = dc.NearlySpherical(modes=((2, 0, 1.0), (3, 1, -0.4)), eps=0.12)
    r = dc.renormalize_to_unit_volume(s)
    assert dc.volume(r) == pytest.approx(4.0 * np.pi / 3.0, rel=1e-12)
    assert dc.perimeter(r) >= 4.0 * np.pi - 1e-12  # isoperimetry


# one or more examples per registered variant; a variant added to
# shapes.VARIANTS without examples here fails the test below
EXAMPLES = {
    "ball": [BALL3, dc.Ball((1.0, 2.0), 0.5), dc.Ball((0.0, 0.0, 0.0, 0.0), 1.0)],
    "annulus": [dc.Annulus((0.0, 0.0, 0.0), 0.5, 1.0), dc.Annulus((1.0, 0.0), 0.3, 0.9)],
    "union_of_balls": [
        dc.UnionOfBalls((dc.Ball((0, 0, 0), 1.0), dc.Ball((4, 0, 0), 0.5))),
        dc.UnionOfBalls((dc.Ball((0, 0, 0, 0), 1.0), dc.Ball((3, 0, 0, 0), 1.0))),
    ],
    "box": [dc.Box((0.0, 0.0, 0.0), (1.0, 1.0, 2.0)), dc.Box((0.5, -1.0), (0.2, 0.7))],
    "convex_polygon": [dc.ConvexPolygon2D(((0, 0), (1, 0), (1, 1), (0, 1)))],
    "nearly_spherical": [dc.NearlySpherical(modes=((2, 0, 0.8), (3, -2, 0.1)), eps=0.1)],
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_every_registered_variant(variant):
    cls = VARIANTS[variant]
    assert cls.variant == variant
    for s in EXAMPLES[variant]:
        assert type(s) is cls
        text = dc.shape_to_json(s)
        t = dc.shape_from_json(text)
        assert type(t) is cls and t == s and dc.shape_to_json(t) == text
        assert dc.shape_to_dict(s)["variant"] == variant
        assert dc.dim_of(s) == s.dim >= 2
        assert np.isfinite(dc.perimeter(s)) and dc.perimeter(s) > 0
        assert np.isfinite(dc.volume(s)) and dc.volume(s) > 0
        for role in ("boundary", "volume"):
            try:
                cloud = dc.discretize(s, 400, role)
            except DiscretizationError:
                continue
            assert cloud.dim == s.dim and cloud.role == role
            if role == "volume":
                assert s.contains(cloud.points).all()
                center, half = s.bounding_box()
                assert np.all(np.abs(cloud.points - center) <= half)


def test_unknown_variant_rejected():
    with pytest.raises(ValidationError):
        dc.shape_from_dict({"variant": "pyramid"})
    with pytest.raises(ValidationError):
        dc.shape_from_dict({"variant": "ball", "center": [0, 0, 0]})


def test_dim_of():
    assert dc.dim_of(BALL3) == 3
    assert dc.dim_of(dc.Ball((0.0, 0.0), 1.0)) == 2
    assert dc.dim_of(dc.ConvexPolygon2D(((0, 0), (1, 0), (0, 1)))) == 2


# ---------------------------------------------------------------------------
# the per-shape grid profile

ALL_MODES = [(l, m) for l in range(7) for m in range(-l, l + 1)]
QUAD_ORDERS = (8, 16, 31, 32, 48, 64)


def _nearly_spherical(pairs, coeffs, eps, quad_order):
    modes = tuple((l, m, c) for (l, m), c in zip(pairs, coeffs))
    return dc.NearlySpherical(modes=modes, eps=eps, quad_order=quad_order)


@settings(max_examples=30)
@given(
    pairs=st.lists(st.sampled_from(ALL_MODES), min_size=1, max_size=6, unique=True),
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    eps=st.floats(0.0, 0.1),
    quad_order=st.sampled_from(QUAD_ORDERS),
)
@example(pairs=ALL_MODES, coeffs=[0.5] * len(ALL_MODES), eps=0.01, quad_order=8)
@example(pairs=ALL_MODES, coeffs=[-0.5] * len(ALL_MODES), eps=0.01, quad_order=64)
def test_grid_profile_equals_the_meshed_profile(pairs, coeffs, eps, quad_order):
    s = _nearly_spherical(pairs, coeffs, eps, quad_order)
    TH, LM, _ = gauss_sphere_grid(quad_order)
    for cached, meshed in zip(s.grid_profile(), s.profile(TH, LM)):
        assert cached.shape == TH.shape
        np.testing.assert_array_equal(cached, meshed)


@pytest.mark.parametrize("quad_order", [16, 48])
def test_each_quadrature_grid_is_evaluated_once_per_shape(monkeypatch, quad_order):
    grid_calls = Counter()
    profile = dc.NearlySpherical.profile

    def counted(self, theta, lam):
        if np.ndim(theta) == 2:
            grid_calls[id(self), np.shape(theta)[0]] += 1
        return profile(self, theta, lam)

    monkeypatch.setattr(dc.NearlySpherical, "profile", counted)
    s = dc.NearlySpherical(modes=((2, 0, 1.0), (3, 1, -0.4)), eps=0.12, quad_order=quad_order)
    r = dc.renormalize_to_unit_volume(s)
    dc.perimeter(r)
    dc.volume(r)
    dc.symmetric_difference_to_unit_ball(r)
    dc.discretize(r, 400, "volume")
    # the positivity check runs on at least 32 latitudes, the integrals on quad_order
    grids = {quad_order, max(quad_order, 32)}
    assert grid_calls == {(id(x), n): 1 for x in (s, r) for n in grids}


def test_contains_evaluates_the_radius_alone(monkeypatch):
    s = dc.NearlySpherical(modes=((2, 0, 1.0), (3, 1, -0.4), (4, -3, 0.3)), eps=0.12)
    pts = np.random.default_rng(5).uniform(-1.3, 1.3, size=(2000, 3))
    r = np.linalg.norm(pts, axis=1)
    theta = np.arccos(np.clip(pts[:, 2] / r, -1.0, 1.0))
    lam = np.arctan2(pts[:, 1], pts[:, 0])
    expected = r <= s.profile(theta, lam)[0]
    assert 0 < expected.sum() < len(pts)

    def no_gradient(*args):
        raise AssertionError("contains evaluated a gradient")

    monkeypatch.setattr(dc.harmonics, "real_sph_harm_gradient", no_gradient)
    np.testing.assert_array_equal(s.contains(pts), expected)


def test_grid_profile_is_read_only():
    s = dc.NearlySpherical(modes=((2, 1, 0.5),), eps=0.1)
    for a in s.grid_profile():
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
    assert s.grid_profile() is s.grid_profile()


def test_grid_cache_is_not_part_of_the_shape():
    modes = ((2, 0, 0.8), (3, -2, 0.1))
    a = dc.NearlySpherical(modes=modes, eps=0.1)
    b = dc.NearlySpherical(modes=modes, eps=0.1)
    b.grid_profile(20)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    del a.__dict__["_grid_profiles"]
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == f"NearlySpherical(modes={modes!r}, eps=0.1, quad_order=48)"
    assert dc.shape_to_dict(b) == {
        "variant": "nearly_spherical",
        "modes": [list(mode) for mode in modes],
        "eps": 0.1,
        "quad_order": 48,
    }


def test_overlap_inside_a_large_union_is_rejected():
    balls = [dc.Ball((3.0 * i, 0.0, 0.0), 1.0) for i in range(70)]
    assert len(dc.UnionOfBalls(tuple(balls)).balls) == 70
    balls[41] = dc.Ball((3.0 * 40 + 1.5, 0.0, 0.0), 1.0)  # meets ball 40
    with pytest.raises(ValidationError, match="balls 40 and 41 are not disjoint"):
        dc.UnionOfBalls(tuple(balls))
