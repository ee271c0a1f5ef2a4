"""Node clouds: quadrature-ready point sets on shapes.

A cloud carries points, the surface or volume measure of the cell each
point represents, and a component label per node (inner/outer sphere,
ball index, face or edge index).  Boundary clouds of spheres use an
antipodally symmetric golden-angle lattice, which keeps odd moments of
the node set at rounding level; circles use equally spaced midpoints;
boxes get per-face grids; polygons are subdivided by arc length.  Each
shape class has one boundary placement in _BOUNDARY.  Volume clouds are
cell-centered Cartesian grids over the shape's bounding box, clipped to
the shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import shapes as shp
from .errors import DiscretizationError, ValidationError
from .kernels import unit_sphere_area

__all__ = [
    "NodeCloud",
    "discretize",
    "default_role",
    "voronoi_patch_areas",
    "GOLDEN_ANGLE",
]

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))

_ROLES = ("boundary", "volume")


@dataclass(frozen=True, eq=False)
class NodeCloud:
    """Points with cell measures on the boundary or the body of a shape."""

    points: np.ndarray
    weights: np.ndarray
    role: str
    shape: shp.Shape
    resolution: int
    components: np.ndarray
    component_names: tuple[str, ...]

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        comp = np.ascontiguousarray(np.asarray(self.components, dtype=np.int64))
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValidationError("points must be a nonempty (n, dim) array")
        if w.shape != (pts.shape[0],):
            raise ValidationError("weights must be one scalar per node")
        if comp.shape != (pts.shape[0],):
            raise ValidationError("components must give one label per node")
        if self.role not in _ROLES:
            raise ValidationError(f"role must be one of {_ROLES}, got {self.role!r}")
        if not np.all(np.isfinite(pts)) or not np.all(w > 0):
            raise ValidationError("node coordinates must be finite, weights positive")
        if comp.min() < 0 or comp.max() >= len(self.component_names):
            raise ValidationError("component labels out of range")
        for arr in (pts, w, comp):
            arr.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comp)
        object.__setattr__(self, "component_names", tuple(self.component_names))

    @property
    def n_nodes(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def component_masses(self, masses) -> dict[str, float]:
        """Sum a nodal vector over each labeled component."""
        masses = np.asarray(masses, dtype=float)
        if masses.shape != (self.n_nodes,):
            raise ValidationError("need one value per node")
        out = {}
        for k, name in enumerate(self.component_names):
            out[name] = float(masses[self.components == k].sum())
        return out


def default_role(alpha: float) -> str:
    """Support side of the dichotomy: body below order 2, boundary from 2 up."""
    return "volume" if alpha < 2.0 else "boundary"


# ---------------------------------------------------------------------------
# boundary placements


def _even_count(target: float, minimum: int) -> int:
    return max(minimum, 2 * int(round(target / 2.0)))


def _sphere_lattice(n: int) -> np.ndarray:
    """Antipodally symmetric golden-angle lattice of n (even) unit vectors."""
    half = n // 2
    j = np.arange(half, dtype=float)
    z = (j + 0.5) / half
    az = GOLDEN_ANGLE * j
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    upper = np.column_stack([rho * np.cos(az), rho * np.sin(az), z])
    return np.vstack([upper, -upper])


def _round_nodes(center, radius: float, n: int):
    """Nodes and equal weights on a circle (2D) or a sphere (3D)."""
    d = len(center)
    if d == 3:
        n = _even_count(n, 8)
        pts = np.asarray(center) + radius * _sphere_lattice(n)
        return pts, np.full(n, unit_sphere_area(3) * radius**2 / n)
    if d == 2:
        n = max(4, int(n))
        ang = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        pts = np.asarray(center) + radius * np.column_stack([np.cos(ang), np.sin(ang)])
        return pts, np.full(n, 2.0 * np.pi * radius / n)
    raise DiscretizationError(
        f"boundary clouds are available in dimensions 2 and 3, not {d}"
    )


def _ball_boundary(shape: shp.Ball, n: int):
    pts, w = _round_nodes(shape.center, shape.radius, n)
    return pts, w, np.zeros(len(pts), dtype=int), ("boundary",)


def _annulus_boundary(shape: shp.Annulus, n: int):
    d = shape.dim
    a_in = unit_sphere_area(d) * shape.r_inner ** (d - 1)
    a_out = unit_sphere_area(d) * shape.r_outer ** (d - 1)
    share = a_in / (a_in + a_out)
    if d == 3:
        n_in = _even_count(n * share, 8)
        n_out = _even_count(n - n_in, 8)
    else:
        n_in = max(4, int(round(n * share)))
        n_out = max(4, n - n_in)
    pts_in, w_in = _round_nodes(shape.center, shape.r_inner, n_in)
    pts_out, w_out = _round_nodes(shape.center, shape.r_outer, n_out)
    pts = np.vstack([pts_in, pts_out])
    w = np.concatenate([w_in, w_out])
    comp = np.concatenate([np.zeros(len(pts_in), int), np.ones(len(pts_out), int)])
    return pts, w, comp, ("inner", "outer")


def _union_boundary(shape: shp.UnionOfBalls, n: int):
    k = len(shape.balls)
    per = n // k
    minimum = 8 if shape.dim == 3 else 4
    if per < minimum:
        raise DiscretizationError(
            f"need at least {minimum * k} nodes for {k} balls, got {n}"
        )
    pts_list, w_list, comp_list, names = [], [], [], []
    for i, b in enumerate(shape.balls):
        p, w = _round_nodes(b.center, b.radius, per)
        pts_list.append(p)
        w_list.append(w)
        comp_list.append(np.full(len(p), i, dtype=int))
        names.append(f"ball_{i}")
    return (
        np.vstack(pts_list),
        np.concatenate(w_list),
        np.concatenate(comp_list),
        tuple(names),
    )


def _box_axes(half_widths, n_target: int):
    """Per-axis cell midpoints and steps that tile the box exactly."""
    h = np.asarray(half_widths, dtype=float)
    d = len(h)
    vol = float(np.prod(2.0 * h))
    cell = (vol / max(n_target, 1)) ** (1.0 / d)
    counts = np.maximum(1, np.round(2.0 * h / cell).astype(int))
    steps = 2.0 * h / counts
    axes = [(-h[i] + (np.arange(counts[i]) + 0.5) * steps[i]) for i in range(d)]
    return axes, steps


def _box_grid(half_widths, n_target: int):
    axes, steps = _box_axes(half_widths, n_target)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    return pts, float(np.prod(steps))


def _box_boundary(shape: shp.Box, n: int):
    d = shape.dim
    center = np.array(shape.center)
    h = np.array(shape.half_widths)
    areas = []
    for i in range(d):
        areas.append(float(np.prod(np.delete(2.0 * h, i))))
    total = 2.0 * sum(areas)
    pts_list, w_list, comp_list, names = [], [], [], []
    label = 0
    for i in range(d):
        m_face = max(1, int(round(n * areas[i] / total)))
        face_pts, cell = _box_grid(np.delete(h, i), m_face)
        for sign, tag in ((-1.0, "-"), (1.0, "+")):
            full = np.empty((len(face_pts), d))
            full[:, np.arange(d) != i] = face_pts
            full[:, i] = sign * h[i]
            pts_list.append(center + full)
            w_list.append(np.full(len(face_pts), cell))
            comp_list.append(np.full(len(face_pts), label, dtype=int))
            names.append(f"face_{i}{tag}")
            label += 1
    return (
        np.vstack(pts_list),
        np.concatenate(w_list),
        np.concatenate(comp_list),
        tuple(names),
    )


def _polygon_boundary(shape: shp.ConvexPolygon2D, n: int):
    v = np.array(shape.vertices)
    k = len(v)
    edges = np.roll(v, -1, axis=0) - v
    lengths = np.linalg.norm(edges, axis=1)
    total = lengths.sum()
    pts_list, w_list, comp_list, names = [], [], [], []
    for i in range(k):
        m = max(1, int(round(n * lengths[i] / total)))
        t = (np.arange(m) + 0.5) / m
        pts_list.append(v[i] + t[:, None] * edges[i])
        w_list.append(np.full(m, lengths[i] / m))
        comp_list.append(np.full(m, i, dtype=int))
        names.append(f"edge_{i}")
    return (
        np.vstack(pts_list),
        np.concatenate(w_list),
        np.concatenate(comp_list),
        tuple(names),
    )


def _graph_boundary(shape: shp.NearlySpherical, n: int):
    n = _even_count(n, 8)
    u = _sphere_lattice(n)
    theta = np.arccos(np.clip(u[:, 2], -1.0, 1.0))
    lam = np.arctan2(u[:, 1], u[:, 0])
    R, gt, gl = shape.profile(theta, lam)
    pts = R[:, None] * u
    w = (4.0 * np.pi / n) * R * np.sqrt(R * R + gt * gt + gl * gl)
    comp = np.zeros(n, dtype=int)
    return pts, w, comp, ("boundary",)


_BOUNDARY = {
    shp.Ball: _ball_boundary,
    shp.Annulus: _annulus_boundary,
    shp.UnionOfBalls: _union_boundary,
    shp.Box: _box_boundary,
    shp.ConvexPolygon2D: _polygon_boundary,
    shp.NearlySpherical: _graph_boundary,
}


# ---------------------------------------------------------------------------
# volume placements


def _volume_cloud(shape: shp.Shape, n: int):
    d = shape.dim
    vol = shp.volume(shape)
    center, half = shape.bounding_box()
    cell = (vol / max(n, 1)) ** (1.0 / d)
    counts = np.maximum(1, np.round(2.0 * half / cell).astype(int))
    # Odd counts center a node on the shape's midpoint, so radial profiles
    # see the innermost shell at any resolution.
    counts += counts % 2 == 0
    steps = 2.0 * half / counts
    axes = [
        center[i] - half[i] + (np.arange(counts[i]) + 0.5) * steps[i] for i in range(d)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    mask = shape.contains(pts)
    if not mask.any():
        raise DiscretizationError("no grid cells landed inside the shape; raise n_nodes")
    pts = pts[mask]
    w = np.full(len(pts), float(np.prod(steps)))
    # Snap each piece's total weight to its exact volume so the cloud
    # integrates constants exactly at every resolution.
    comp = np.zeros(len(pts), dtype=int)
    pieces = shape.pieces()
    if pieces[0] is shape:
        names = ("body",)
        w *= vol / w.sum()
        return pts, w, comp, names
    taken = np.zeros(len(pts), dtype=bool)
    for i, piece in enumerate(pieces):
        inside = piece.contains(pts) & ~taken
        comp[inside] = i
        taken |= inside
        if not inside.any():
            raise DiscretizationError(
                f"no grid cells landed in {piece.variant} {i}; raise n_nodes"
            )
        w[inside] *= shp.volume(piece) / w[inside].sum()
    names = tuple(f"{piece.variant}_{i}" for i, piece in enumerate(pieces))
    return pts, w, comp, names


# ---------------------------------------------------------------------------
# entry point


def discretize(shape: shp.Shape, n_nodes: int, role: str) -> NodeCloud:
    """Place about n_nodes quadrature nodes on the boundary or body of a shape.

    Node counts are adjusted to respect symmetry (sphere lattices come in
    antipodal pairs) and exact tiling (grids), so the realized count can
    differ slightly from the request.
    """
    n_nodes = int(n_nodes)
    if n_nodes < 16:
        raise ValidationError("n_nodes must be at least 16")
    if role not in _ROLES:
        raise ValidationError(f"role must be one of {_ROLES}, got {role!r}")
    place = _volume_cloud if role == "volume" else _BOUNDARY[type(shape)]
    pts, w, comp, names = place(shape, n_nodes)
    return NodeCloud(
        points=pts,
        weights=w,
        role=role,
        shape=shape,
        resolution=n_nodes,
        components=comp,
        component_names=names,
    )


# ---------------------------------------------------------------------------
# utilities


def voronoi_patch_areas(cloud: NodeCloud) -> np.ndarray:
    """Spherical Voronoi cell areas of a spherical boundary cloud.

    The lattice is equal-area only on average; these are the actual patch
    areas owned by each node, which is what a nodal mass should be divided
    by to recover a surface density.
    """
    if cloud.role != "boundary" or cloud.dim != 3 or not isinstance(
        cloud.shape, shp.Ball
    ):
        raise ValidationError("patch areas are defined for spherical clouds in 3d")
    from scipy.spatial import SphericalVoronoi

    center = np.array(cloud.shape.center)
    radius = cloud.shape.radius
    u = (cloud.points - center) / radius
    sv = SphericalVoronoi(u, radius=1.0, threshold=1e-10)
    return sv.calculate_areas() * radius**2
