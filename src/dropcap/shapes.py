"""Parametric compact shapes with exact perimeter and volume.

Perimeter always means the surface measure of the boundary (arc length in
the plane, area in space); volume means Lebesgue measure.  Closed-form
expressions are used everywhere except for nearly-spherical sets, whose
boundary is the radial graph r = 1 + eps*phi over the unit sphere and is
integrated with the exact graph area element on a spectral grid.

Each variant is a frozen dataclass that knows its own dimension, measures,
membership test and bounding box; VARIANTS maps the JSON tag of each
variant to its class, and the JSON form of a shape is its fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields

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
    "VARIANTS",
    "perimeter",
    "volume",
    "shape_to_dict",
    "shape_from_dict",
    "shape_from_json",
    "shape_to_json",
    "renormalize_to_unit_volume",
    "symmetric_difference_to_unit_ball",
]


# Largest NearlySpherical.quad_order: its grid arrays are 16.8 MB each at
# 1024, and a shape with its perimeter, volume and symmetric difference
# peaks 150 MB above the import there, in 1.4 s on a 2-core Xeon.
MAX_QUAD_ORDER = 1024


def _as_tuple(x) -> tuple[float, ...]:
    return tuple(float(v) for v in x)


def _sphere_area(dim: int, radius: float) -> float:
    return unit_sphere_area(dim) * radius ** (dim - 1)


def _ball_volume(dim: int, radius: float) -> float:
    return unit_ball_volume(dim) * radius**dim


def _require_finite(shape, *names) -> None:
    for name in names:
        value = getattr(shape, name)
        values = value if isinstance(value, tuple) else (value,)
        if not all(map(math.isfinite, values)):
            raise ValidationError(f"{shape.variant} {name} must be finite, got {value}")


class Shape:
    """Base of the shape variants.

    A variant is a frozen dataclass with a class attribute `variant` (its
    JSON tag) and the ambient dimension `dim` (the length of `center` for
    the centered variants), and answers perimeter(), volume(),
    contains(points) (a mask over n points) and bounding_box() (center
    and half widths of an axis-aligned box holding it).
    """

    @property
    def dim(self) -> int:
        return len(self.center)

    def _points(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValidationError("point dimension does not match shape")
        return pts

    def _radii(self, points) -> np.ndarray:
        return np.linalg.norm(self._points(points) - np.array(self.center), axis=1)

    def pieces(self) -> tuple[Shape, ...]:
        """Disjoint bodies whose volumes a volume cloud matches one by one."""
        return (self,)


@dataclass(frozen=True)
class Ball(Shape):
    center: tuple[float, ...]
    radius: float

    variant = "ball"

    def __post_init__(self):
        object.__setattr__(self, "center", _as_tuple(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        _require_finite(self, "center", "radius")
        if len(self.center) < 2:
            raise ValidationError("ball center must have dimension >= 2")
        if not self.radius > 0:
            raise ValidationError(f"ball radius must be positive, got {self.radius}")

    def perimeter(self) -> float:
        return _sphere_area(self.dim, self.radius)

    def volume(self) -> float:
        return _ball_volume(self.dim, self.radius)

    def contains(self, points) -> np.ndarray:
        return self._radii(points) <= self.radius

    def bounding_box(self):
        return np.array(self.center), np.full(self.dim, self.radius)


@dataclass(frozen=True)
class Annulus(Shape):
    """Closed shell between two concentric spheres."""

    center: tuple[float, ...]
    r_inner: float
    r_outer: float

    variant = "annulus"

    def __post_init__(self):
        object.__setattr__(self, "center", _as_tuple(self.center))
        object.__setattr__(self, "r_inner", float(self.r_inner))
        object.__setattr__(self, "r_outer", float(self.r_outer))
        _require_finite(self, "center", "r_inner", "r_outer")
        if len(self.center) < 2:
            raise ValidationError("annulus center must have dimension >= 2")
        if not 0 < self.r_inner < self.r_outer:
            raise ValidationError(
                f"annulus radii must satisfy 0 < r_inner < r_outer, "
                f"got ({self.r_inner}, {self.r_outer})"
            )

    def perimeter(self) -> float:
        return _sphere_area(self.dim, self.r_inner) + _sphere_area(self.dim, self.r_outer)

    def volume(self) -> float:
        return _ball_volume(self.dim, self.r_outer) - _ball_volume(self.dim, self.r_inner)

    def contains(self, points) -> np.ndarray:
        r = self._radii(points)
        return (r >= self.r_inner) & (r <= self.r_outer)

    def bounding_box(self):
        return np.array(self.center), np.full(self.dim, self.r_outer)


@dataclass(frozen=True)
class UnionOfBalls(Shape):
    """Finite union of pairwise disjoint closed balls."""

    balls: tuple[Ball, ...]

    variant = "union_of_balls"

    def __post_init__(self):
        balls = tuple(self.balls)
        object.__setattr__(self, "balls", balls)
        if not balls:
            raise ValidationError("union of balls needs at least one ball")
        if not all(isinstance(b, Ball) for b in balls):
            raise ValidationError("union_of_balls entries must be balls")
        d = len(balls[0].center)
        if any(len(b.center) != d for b in balls):
            raise ValidationError("all balls must share one ambient dimension")
        _check_disjoint(balls)

    @property
    def dim(self) -> int:
        return self.balls[0].dim

    def perimeter(self) -> float:
        return sum(b.perimeter() for b in self.balls)

    def volume(self) -> float:
        return sum(b.volume() for b in self.balls)

    def contains(self, points) -> np.ndarray:
        pts = self._points(points)
        mask = np.zeros(len(pts), dtype=bool)
        for b in self.balls:
            mask |= b.contains(pts)
        return mask

    def bounding_box(self):
        lo = np.min([np.array(b.center) - b.radius for b in self.balls], axis=0)
        hi = np.max([np.array(b.center) + b.radius for b in self.balls], axis=0)
        return (lo + hi) / 2.0, (hi - lo) / 2.0

    def pieces(self) -> tuple[Ball, ...]:
        return self.balls


def _check_disjoint(balls: tuple[Ball, ...]) -> None:
    """Raise on the first (lowest-index) pair of balls that meet.

    Sweep and prune: sorted by where they start along the axis the
    centers spread most, a ball can meet only the balls that start
    before it ends there, so the k-th pass compares each ball with the
    one k places on, while any ball still reaches that far.  A union of
    far-apart balls takes one pass.
    """
    centers = np.array([b.center for b in balls])
    radii = np.array([b.radius for b in balls])
    x = centers[:, np.argmax(np.ptp(centers, axis=0))]
    # the slack keeps balls that touch to rounding among the candidates
    slack = 1e-12 * (np.abs(x) + radii)
    lo, hi = x - radii - slack, x + radii + slack
    order = np.argsort(lo, kind="stable")
    reach = np.searchsorted(lo[order], hi[order], side="right")
    pos = np.arange(len(balls))
    found = []
    for k in range(1, len(balls)):
        near = np.flatnonzero(reach > pos + k)
        if not near.size:
            break
        a, b = order[near], order[near + k]
        meet = np.linalg.norm(centers[a] - centers[b], axis=1) <= radii[a] + radii[b]
        found += zip(np.minimum(a, b)[meet].tolist(), np.maximum(a, b)[meet].tolist())
    if found:
        i, j = min(found)
        raise ValidationError(f"balls {i} and {j} are not disjoint")


@dataclass(frozen=True)
class Box(Shape):
    """Axis-aligned closed box given by center and per-axis half widths."""

    center: tuple[float, ...]
    half_widths: tuple[float, ...]

    variant = "box"

    def __post_init__(self):
        object.__setattr__(self, "center", _as_tuple(self.center))
        object.__setattr__(self, "half_widths", _as_tuple(self.half_widths))
        _require_finite(self, "center", "half_widths")
        if len(self.center) < 2:
            raise ValidationError("box center must have dimension >= 2")
        if len(self.half_widths) != len(self.center):
            raise ValidationError("box half_widths must match center dimension")
        if not all(h > 0 for h in self.half_widths):
            raise ValidationError("box half widths must be positive")

    def perimeter(self) -> float:
        sides = [2.0 * h for h in self.half_widths]
        return sum(2.0 * math.prod(sides[:i] + sides[i + 1 :]) for i in range(len(sides)))

    def volume(self) -> float:
        return float(np.prod([2.0 * h for h in self.half_widths]))

    def contains(self, points) -> np.ndarray:
        d = np.abs(self._points(points) - np.array(self.center))
        return np.all(d <= np.array(self.half_widths), axis=1)

    def bounding_box(self):
        return np.array(self.center), np.array(self.half_widths)


@dataclass(frozen=True)
class ConvexPolygon2D(Shape):
    """Strictly convex polygon with counterclockwise vertices."""

    vertices: tuple[tuple[float, float], ...]

    variant = "convex_polygon"
    dim = 2

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
            if not cross > 1e-12 * scale**2:
                raise ValidationError(
                    "vertices must be strictly convex and counterclockwise"
                )

    def perimeter(self) -> float:
        v = np.array(self.vertices)
        return float(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum())

    def volume(self) -> float:
        x, y = np.array(self.vertices).T
        return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))

    def contains(self, points) -> np.ndarray:
        pts = self._points(points)
        v = np.array(self.vertices)
        mask = np.ones(len(pts), dtype=bool)
        for i in range(len(v)):
            e = v[(i + 1) % len(v)] - v[i]
            rel = pts - v[i]
            mask &= e[0] * rel[:, 1] - e[1] * rel[:, 0] >= -1e-12
        return mask

    def bounding_box(self):
        v = np.array(self.vertices)
        lo, hi = v.min(axis=0), v.max(axis=0)
        return (lo + hi) / 2.0, (hi - lo) / 2.0


@dataclass(frozen=True)
class NearlySpherical(Shape):
    """Radial graph r = 1 + eps * phi over the unit sphere (3D only).

    phi is a finite combination of real spherical harmonics given as
    (l, m, coefficient) modes.  The profile 1 + eps*phi must stay positive.
    quad_order sets the latitudinal size of the spectral grid used for
    perimeter, volume, and related surface integrals, from 8 to
    MAX_QUAD_ORDER (1024: about 150 MB at the bound), and must exceed
    every mode's degree l: a Gauss grid of n latitudes resolves products
    of harmonics only up to degree n - 1.  The profile on that grid is
    evaluated once per shape (grid_profile) and shared by the positivity
    check, perimeter, volume, the symmetric difference and the bounding
    box.  The graph is centered at the origin.
    """

    modes: tuple[tuple[int, int, float], ...]
    eps: float
    quad_order: int = 48

    variant = "nearly_spherical"
    center = (0.0, 0.0, 0.0)

    def __post_init__(self):
        modes = tuple((int(l), int(m), float(c)) for l, m, c in self.modes)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "eps", float(self.eps))
        object.__setattr__(self, "quad_order", int(self.quad_order))
        if not 8 <= self.quad_order <= MAX_QUAD_ORDER:
            raise ValidationError(
                f"quad_order must lie in [8, {MAX_QUAD_ORDER}], got {self.quad_order}"
            )
        seen = set()
        for l, m, _ in modes:
            if l < 0 or abs(m) > l:
                raise ValidationError(f"invalid mode (l={l}, m={m})")
            if l >= self.quad_order:
                raise ValidationError(
                    f"mode (l={l}, m={m}) needs quad_order > {l}, got {self.quad_order}"
                )
            if (l, m) in seen:
                raise ValidationError(f"duplicate mode (l={l}, m={m})")
            seen.add((l, m))
        rmin = float(self.grid_profile(max(self.quad_order, 32))[0].min())
        if not rmin > 0.0:
            raise ValidationError(
                f"radial profile 1 + eps*phi must stay positive (min {rmin:.3g})"
            )

    def radius(self, theta, lam):
        """Radius R = 1 + eps * phi on the sphere."""
        theta = np.asarray(theta, dtype=float)
        lam = np.asarray(lam, dtype=float)
        R = np.ones_like(theta)
        for l, m, c in self.modes:
            R = R + self.eps * c * harmonics.real_sph_harm(l, m, theta, lam)
        return R

    def profile(self, theta, lam):
        """Radius R and tangential gradient components of R on the sphere."""
        theta = np.asarray(theta, dtype=float)
        lam = np.asarray(lam, dtype=float)
        R = self.radius(theta, lam)
        gt = np.zeros_like(theta)
        gl = np.zeros_like(theta)
        for l, m, c in self.modes:
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

    def perimeter(self) -> float:
        W = harmonics.gauss_sphere_grid(self.quad_order)[2]
        R, gt, gl = self.grid_profile()
        return float(np.sum(W * R * np.sqrt(R * R + gt * gt + gl * gl)))

    def volume(self) -> float:
        W = harmonics.gauss_sphere_grid(self.quad_order)[2]
        R = self.grid_profile()[0]
        return float(np.sum(W * R**3) / 3.0)

    def contains(self, points) -> np.ndarray:
        pts = self._points(points)
        r = np.linalg.norm(pts, axis=1)
        safe = np.maximum(r, 1e-300)
        theta = np.arccos(np.clip(pts[:, 2] / safe, -1.0, 1.0))
        lam = np.arctan2(pts[:, 1], pts[:, 0])
        return r <= self.radius(theta, lam)

    def bounding_box(self):
        rmax = float(self.grid_profile()[0].max())
        return np.zeros(3), np.full(3, rmax)


VARIANTS = {
    cls.variant: cls
    for cls in (Ball, Annulus, UnionOfBalls, Box, ConvexPolygon2D, NearlySpherical)
}


def perimeter(shape: Shape) -> float:
    """Surface measure of the boundary of the shape."""
    return shape.perimeter()


def volume(shape: Shape) -> float:
    """Lebesgue measure of the shape (area in the plane)."""
    return shape.volume()


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


def _plain(value):
    if isinstance(value, Shape):
        return shape_to_dict(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def shape_to_dict(shape: Shape) -> dict:
    data = {"variant": shape.variant}
    for f in fields(shape):
        data[f.name] = _plain(getattr(shape, f.name))
    return data


def shape_from_dict(data: dict) -> Shape:
    if not isinstance(data, dict):
        raise ValidationError("shape specification must be a JSON object")
    variant = data.get("variant")
    cls = VARIANTS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ValidationError(f"unknown shape variant {variant!r}")
    kwargs = {}
    for f in fields(cls):
        if f.name in data:
            kwargs[f.name] = data[f.name]
        elif f.default is MISSING:
            raise ValidationError(f"shape '{variant}' is missing field {f.name!r}")
    try:
        if cls is UnionOfBalls:
            kwargs["balls"] = [shape_from_dict(b) for b in kwargs["balls"]]
        return cls(**kwargs)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed '{variant}' shape: {exc}") from None


def shape_to_json(shape: Shape) -> str:
    return json.dumps(shape_to_dict(shape), sort_keys=True)


def shape_from_json(text: str) -> Shape:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed shape JSON: {exc}") from None
    return shape_from_dict(data)
