"""Parametric compact shapes with exact perimeter and volume.

Perimeter always means the surface measure of the boundary (arc length in
the plane, area in space); volume means Lebesgue measure.  Closed-form
expressions are used everywhere except for nearly-spherical sets, whose
boundary is the radial graph r = 1 + eps*phi over the unit sphere and is
integrated with the exact graph area element on a spectral grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import harmonics
from .errors import ValidationError
from .kernels import unit_ball_volume, unit_sphere_area

__all__ = [
    "Ball",
    "Annulus",
    "UnionOfBalls",
    "Box",
    "ConvexPolygon2D",
    "NearlySpherical",
    "Shape",
    "dim_of",
    "perimeter",
    "volume",
    "shape_to_dict",
    "shape_from_dict",
    "shape_from_json",
    "shape_to_json",
    "renormalize_to_unit_volume",
    "symmetric_difference_to_unit_ball",
]


def _as_tuple(x) -> tuple[float, ...]:
    return tuple(float(v) for v in x)


@dataclass(frozen=True)
class Ball:
    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_tuple(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if len(self.center) < 2:
            raise ValidationError("ball center must have dimension >= 2")
        if not self.radius > 0:
            raise ValidationError(f"ball radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Annulus:
    """Closed shell between two concentric spheres."""

    center: tuple[float, ...]
    r_inner: float
    r_outer: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_tuple(self.center))
        object.__setattr__(self, "r_inner", float(self.r_inner))
        object.__setattr__(self, "r_outer", float(self.r_outer))
        if len(self.center) < 2:
            raise ValidationError("annulus center must have dimension >= 2")
        if not 0 < self.r_inner < self.r_outer:
            raise ValidationError(
                f"annulus radii must satisfy 0 < r_inner < r_outer, "
                f"got ({self.r_inner}, {self.r_outer})"
            )


@dataclass(frozen=True)
class UnionOfBalls:
    """Finite union of pairwise disjoint closed balls."""

    balls: tuple[Ball, ...]

    def __post_init__(self):
        balls = tuple(self.balls)
        object.__setattr__(self, "balls", balls)
        if not balls:
            raise ValidationError("union of balls needs at least one ball")
        d = len(balls[0].center)
        if any(len(b.center) != d for b in balls):
            raise ValidationError("all balls must share one ambient dimension")
        _check_disjoint(balls)


def _check_disjoint(balls: tuple[Ball, ...]) -> None:
    centers = np.array([b.center for b in balls])
    radii = np.array([b.radius for b in balls])
    n = len(balls)
    if n == 1:
        return
    if n <= 64:
        diff = centers[:, None, :] - centers[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        need = radii[:, None] + radii[None, :]
        bad = (dist <= need) & ~np.eye(n, dtype=bool)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValidationError(f"balls {i} and {j} are not disjoint")
        return
    # large unions: neighbor query instead of the quadratic scan
    from scipy.spatial import cKDTree

    tree = cKDTree(centers)
    rmax = float(radii.max())
    for i, j in tree.query_pairs(2.0 * rmax):
        if np.linalg.norm(centers[i] - centers[j]) <= radii[i] + radii[j]:
            raise ValidationError(f"balls {i} and {j} are not disjoint")


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box given by center and per-axis half widths."""

    center: tuple[float, ...]
    half_widths: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "center", _as_tuple(self.center))
        object.__setattr__(self, "half_widths", _as_tuple(self.half_widths))
        if len(self.center) < 2:
            raise ValidationError("box center must have dimension >= 2")
        if len(self.half_widths) != len(self.center):
            raise ValidationError("box half_widths must match center dimension")
        if any(h <= 0 for h in self.half_widths):
            raise ValidationError("box half widths must be positive")


@dataclass(frozen=True)
class ConvexPolygon2D:
    """Strictly convex polygon with counterclockwise vertices."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", verts)
        n = len(verts)
        if n < 3:
            raise ValidationError("polygon needs at least 3 vertices")
        v = np.array(verts)
        scale = float(np.abs(v).max()) or 1.0
        for i in range(n):
            a = v[(i + 1) % n] - v[i]
            b = v[(i + 2) % n] - v[(i + 1) % n]
            cross = a[0] * b[1] - a[1] * b[0]
            if cross <= 1e-12 * scale**2:
                raise ValidationError(
                    "vertices must be strictly convex and counterclockwise"
                )


@dataclass(frozen=True)
class NearlySpherical:
    """Radial graph r = 1 + eps * phi over the unit sphere (3D only).

    phi is a finite combination of real spherical harmonics given as
    (l, m, coefficient) modes.  The profile 1 + eps*phi must stay positive.
    quad_order sets the latitudinal size of the spectral grid used for
    perimeter, volume, and related surface integrals.  The profile on that
    grid is evaluated once per shape (grid_profile) and shared by the
    positivity check, perimeter, volume, the symmetric difference and the
    volume cloud's bounding box.
    """

    modes: tuple[tuple[int, int, float], ...]
    eps: float
    quad_order: int = 48

    def __post_init__(self):
        modes = tuple((int(l), int(m), float(c)) for l, m, c in self.modes)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "eps", float(self.eps))
        seen = set()
        for l, m, _ in modes:
            if l < 0 or abs(m) > l:
                raise ValidationError(f"invalid mode (l={l}, m={m})")
            if (l, m) in seen:
                raise ValidationError(f"duplicate mode (l={l}, m={m})")
            seen.add((l, m))
        if self.quad_order < 8:
            raise ValidationError("quad_order must be at least 8")
        rmin = float(self.grid_profile(max(self.quad_order, 32))[0].min())
        if rmin <= 0.0:
            raise ValidationError(
                f"radial profile 1 + eps*phi must stay positive (min {rmin:.3g})"
            )

    def profile(self, theta, lam):
        """Radius R and tangential gradient components of R on the sphere."""
        theta = np.asarray(theta, dtype=float)
        lam = np.asarray(lam, dtype=float)
        R = np.ones_like(theta)
        gt = np.zeros_like(theta)
        gl = np.zeros_like(theta)
        for l, m, c in self.modes:
            R = R + self.eps * c * harmonics.real_sph_harm(l, m, theta, lam)
            dt, dl = harmonics.real_sph_harm_gradient(l, m, theta, lam)
            gt = gt + self.eps * c * dt
            gl = gl + self.eps * c * dl
        return R, gt, gl

    def grid_profile(self, n_theta: int | None = None):
        """Read-only (R, gt, gl) on gauss_sphere_grid(n_theta), computed once.

        n_theta defaults to quad_order.  On the product grid the Legendre
        factors depend on theta alone and the trig factors on lam alone, so
        the profile is evaluated on a theta column against a lam row and
        broadcast to the mesh, with the same values as on the full mesh.
        The arrays are kept on the instance and die with the shape.
        """
        n_theta = self.quad_order if n_theta is None else int(n_theta)
        cache = self.__dict__.setdefault("_grid_profiles", {})
        if n_theta not in cache:
            TH, LM, _ = harmonics.gauss_sphere_grid(n_theta)
            arrays = tuple(
                np.broadcast_to(a, TH.shape).copy()
                for a in self.profile(TH[:, :1], LM[:1, :])
            )
            for a in arrays:
                a.flags.writeable = False
            cache[n_theta] = arrays
        return cache[n_theta]


Shape = Ball | Annulus | UnionOfBalls | Box | ConvexPolygon2D | NearlySpherical


def dim_of(shape: Shape) -> int:
    if isinstance(shape, (Ball, Annulus, Box)):
        return len(shape.center)
    if isinstance(shape, UnionOfBalls):
        return len(shape.balls[0].center)
    if isinstance(shape, ConvexPolygon2D):
        return 2
    if isinstance(shape, NearlySpherical):
        return 3
    raise ValidationError(f"unknown shape {type(shape).__name__}")


def _sphere_area(dim: int, radius: float) -> float:
    return unit_sphere_area(dim) * radius ** (dim - 1)


def _ball_volume(dim: int, radius: float) -> float:
    return unit_ball_volume(dim) * radius**dim


def _polygon_area(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def perimeter(shape: Shape) -> float:
    """Surface measure of the boundary of the shape."""
    if isinstance(shape, Ball):
        return _sphere_area(dim_of(shape), shape.radius)
    if isinstance(shape, Annulus):
        d = dim_of(shape)
        return _sphere_area(d, shape.r_inner) + _sphere_area(d, shape.r_outer)
    if isinstance(shape, UnionOfBalls):
        return sum(perimeter(b) for b in shape.balls)
    if isinstance(shape, Box):
        sides = [2.0 * h for h in shape.half_widths]
        total = 0.0
        for i in range(len(sides)):
            face = 1.0
            for j, s in enumerate(sides):
                if j != i:
                    face *= s
            total += 2.0 * face
        return total
    if isinstance(shape, ConvexPolygon2D):
        v = np.array(shape.vertices)
        return float(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum())
    if isinstance(shape, NearlySpherical):
        W = harmonics.gauss_sphere_grid(shape.quad_order)[2]
        R, gt, gl = shape.grid_profile()
        return float(np.sum(W * R * np.sqrt(R * R + gt * gt + gl * gl)))
    raise ValidationError(f"unknown shape {type(shape).__name__}")


def volume(shape: Shape) -> float:
    """Lebesgue measure of the shape (area in the plane)."""
    if isinstance(shape, Ball):
        return _ball_volume(dim_of(shape), shape.radius)
    if isinstance(shape, Annulus):
        d = dim_of(shape)
        return _ball_volume(d, shape.r_outer) - _ball_volume(d, shape.r_inner)
    if isinstance(shape, UnionOfBalls):
        return sum(volume(b) for b in shape.balls)
    if isinstance(shape, Box):
        return float(np.prod([2.0 * h for h in shape.half_widths]))
    if isinstance(shape, ConvexPolygon2D):
        return _polygon_area(np.array(shape.vertices))
    if isinstance(shape, NearlySpherical):
        W = harmonics.gauss_sphere_grid(shape.quad_order)[2]
        R = shape.grid_profile()[0]
        return float(np.sum(W * R**3) / 3.0)
    raise ValidationError(f"unknown shape {type(shape).__name__}")


def symmetric_difference_to_unit_ball(shape: NearlySpherical) -> float:
    """Volume of the symmetric difference between the shape and the unit ball."""
    if not isinstance(shape, NearlySpherical):
        raise ValidationError("symmetric difference is defined for radial graphs")
    W = harmonics.gauss_sphere_grid(shape.quad_order)[2]
    R = shape.grid_profile()[0]
    return float(np.sum(W * np.abs(R**3 - 1.0)) / 3.0)


def renormalize_to_unit_volume(shape: NearlySpherical) -> NearlySpherical:
    """Dilate a nearly-spherical set so its volume equals the unit ball's.

    The dilation factor folds exactly into the coefficient table, so the
    result is again a radial graph 1 + eps*phi.
    """
    if not isinstance(shape, NearlySpherical):
        raise ValidationError("renormalization is defined for radial graphs")
    v = volume(shape)
    s = (unit_ball_volume(3) / v) ** (1.0 / 3.0)
    if shape.eps == 0.0 or not shape.modes:
        return shape
    y00 = 1.0 / np.sqrt(4.0 * np.pi)
    coeffs = {(l, m): s * c for l, m, c in shape.modes}
    coeffs[(0, 0)] = coeffs.get((0, 0), 0.0) + (s - 1.0) / (shape.eps * y00)
    modes = tuple(sorted((l, m, c) for (l, m), c in coeffs.items()))
    return NearlySpherical(modes=modes, eps=shape.eps, quad_order=shape.quad_order)


# ---------------------------------------------------------------------------
# JSON round trip


def shape_to_dict(shape: Shape) -> dict:
    if isinstance(shape, Ball):
        return {"variant": "ball", "center": list(shape.center), "radius": shape.radius}
    if isinstance(shape, Annulus):
        return {
            "variant": "annulus",
            "center": list(shape.center),
            "r_inner": shape.r_inner,
            "r_outer": shape.r_outer,
        }
    if isinstance(shape, UnionOfBalls):
        return {
            "variant": "union_of_balls",
            "balls": [shape_to_dict(b) for b in shape.balls],
        }
    if isinstance(shape, Box):
        return {
            "variant": "box",
            "center": list(shape.center),
            "half_widths": list(shape.half_widths),
        }
    if isinstance(shape, ConvexPolygon2D):
        return {"variant": "convex_polygon", "vertices": [list(v) for v in shape.vertices]}
    if isinstance(shape, NearlySpherical):
        return {
            "variant": "nearly_spherical",
            "modes": [[l, m, c] for l, m, c in shape.modes],
            "eps": shape.eps,
            "quad_order": shape.quad_order,
        }
    raise ValidationError(f"unknown shape {type(shape).__name__}")


def shape_from_dict(data: dict) -> Shape:
    if not isinstance(data, dict):
        raise ValidationError("shape specification must be a JSON object")
    variant = data.get("variant")
    try:
        if variant == "ball":
            return Ball(center=data["center"], radius=data["radius"])
        if variant == "annulus":
            return Annulus(
                center=data["center"],
                r_inner=data["r_inner"],
                r_outer=data["r_outer"],
            )
        if variant == "union_of_balls":
            balls = tuple(shape_from_dict(b) for b in data["balls"])
            if not all(isinstance(b, Ball) for b in balls):
                raise ValidationError("union_of_balls entries must be balls")
            return UnionOfBalls(balls=balls)
        if variant == "box":
            return Box(center=data["center"], half_widths=data["half_widths"])
        if variant == "convex_polygon":
            return ConvexPolygon2D(vertices=tuple(map(tuple, data["vertices"])))
        if variant == "nearly_spherical":
            return NearlySpherical(
                modes=tuple(map(tuple, data["modes"])),
                eps=data["eps"],
                quad_order=int(data.get("quad_order", 48)),
            )
    except KeyError as exc:
        raise ValidationError(f"shape '{variant}' is missing field {exc}") from None
    raise ValidationError(f"unknown shape variant {variant!r}")


def shape_to_json(shape: Shape) -> str:
    return json.dumps(shape_to_dict(shape), sort_keys=True)


def shape_from_json(text: str) -> Shape:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed shape JSON: {exc}") from None
    return shape_from_dict(data)
