"""Node clouds: quadrature-ready point sets on shapes.

A cloud carries points, the surface or volume measure of the cell each
point represents, and a component label per node (inner/outer sphere,
ball index, face or edge index).  Boundary clouds of spheres use an
antipodally symmetric golden-angle lattice, which keeps odd moments of
the node set at rounding level; circles use equally spaced midpoints;
boxes get per-face grids; polygons are subdivided by arc length.  Each
shape class has one boundary placement in _BOUNDARY.  Volume clouds are
cell-centered Cartesian grids over the shape's bounding box, clipped to
the shape; a grid of more than MAX_GRID_CELLS cells is refused before
it is built.

A placement that builds its nodes in reflected sets records the
reflections as the cloud's mirror: one row per generator, mirror[g, i]
being node i's image under reflection g, which negates some coordinates
about one center and keeps the rest, and mirror[g, i] == i for a node it
fixes.  The generators commute, and their products form the cloud's
reflection group G of 2^k elements, k at most MAX_REFLECTIONS = 3.
Sphere lattices are [upper;
-upper], so balls, both shells of an annulus in 3d, and radial graphs
whose modes all have even degree carry the one point mirror.  Box faces
carry one reflection per axis: the two faces across an axis swap, and
each face grid is reflected in itself along the others.  A volume grid
carries the reflection along each axis under which its clipped mask
and its weights are symmetric, a property of the shape, and its axes
are then made exactly symmetric about the center; a grid symmetric
only under the point mirror carries that one.  Past three dimensions,
box faces and volume grids carry the point mirror alone, the product
of the axis reflections.  The operators solve on
the node orbits {g i : g in G} (Orbits); on the 2553-node volume ball
that is 410 orbits, where the point mirror alone gives 1277.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import shapes as shp
from .errors import DiscretizationError, ValidationError
from .kernels import unit_sphere_area

__all__ = [
    "NodeCloud",
    "Orbits",
    "character_sums",
    "discretize",
    "default_role",
    "voronoi_patch_areas",
    "GOLDEN_ANGLE",
    "MAX_GRID_CELLS",
    "MAX_REFLECTIONS",
]

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))

_ROLES = ("boundary", "volume")

# Reflected nodes must have a common midpoint in each coordinate they
# negate, and equal other coordinates, to within this many ulps of the
# largest coordinate: placements reflect in floating point.
MIRROR_ULPS = 8

# A volume grid over the bounding box holds at most this many cells
# (about 100 MB of coordinates in 3d), whatever its dimension.
MAX_GRID_CELLS = 4_000_000

# A cloud records at most this many reflections, one per axis in up to
# three dimensions: Orbits builds a 2^k x 2^k sign table, and the
# operators run one kernel pass per group element and one block per
# sign character, so their bookkeeping grows with 4^k.
MAX_REFLECTIONS = 3


def character_sums(slabs, out: np.ndarray | None = None, spare: np.ndarray | None = None) -> list:
    """Sums of per-element slabs over a reflection group, one per sign character.

    slabs[a] is the slab of group element a, whose bits name the
    generators it is the product of.  Returns the characters' slabs: at
    s, the sum over a of (-1)^popcount(s & a) slabs[a]; s = 0 is the
    trivial character, whose sum is the plain one and goes to out if
    given.  This is a fast Walsh-Hadamard transform of two array
    operations per butterfly, the sum into a free array and the
    difference in place, so the slabs are overwritten and returned in
    another order.  spare is the free array, allocated if needed and
    not given; a group of one or two elements with out given needs none.
    """
    slabs, size, step = list(slabs), len(slabs), 1
    if size == 1 and out is not None:
        np.copyto(out, slabs[0])
        return [out]
    while step < size:
        for start in range(0, size, 2 * step):
            for a in range(start, start + step):
                low, high = slabs[a], slabs[a + step]
                if a == 0 and 2 * step == size and out is not None:
                    total = out
                else:
                    total = spare if spare is not None else np.empty_like(low)
                    spare = high
                np.add(low, high, out=total)
                np.subtract(low, high, out=low)
                slabs[a], slabs[a + step] = total, low
        step *= 2
    return slabs


def _group_elements(generators: np.ndarray) -> np.ndarray:
    """The 2^k node permutations of the group generated by k commuting involutions.

    Row a is the product of the generators whose bits are set in a; row
    0 is the identity.
    """
    k, n = generators.shape
    elements = np.empty((2**k, n), dtype=np.int64)
    elements[0] = np.arange(n)
    for i in range(k):
        elements[2**i : 2 ** (i + 1)] = generators[i][elements[: 2**i]]
    return elements


class Orbits:
    """The node orbits of a cloud under its reflection group, and vectors over them.

    An orbit is the set {g i : g in G} of a node i, represented by its
    smallest node; an unmirrored cloud has one orbit per node.  Orbits
    are ordered by size, largest first, then by representative, so under
    a point mirror the pairs come first and the centered nodes last.
    images[a, o] is the image of orbit o's representative under group
    element a, and sizes the orbit sizes, 2^k over the size of the
    representative's stabilizer.

    A nodal vector x splits into one part per sign character s of G: the
    part of x with x[g i] = chi_s(g) x[i].  An orbit carries s when
    chi_s is 1 on its stabilizer, and the part of s is given over the
    orbits that carry it, carriers[s] in ascending order, by its value
    at each representative.  s = 0 is the trivial character: its part is
    the orbit mean, carried by every orbit.  Under a point mirror s = 1
    is the odd part, (x[rep] - x[partner]) / 2 on the pairs.  All
    methods act on the last axis, so they take single vectors and blocks
    of rows alike.
    """

    def __init__(self, generators: np.ndarray | None, n_nodes: int):
        if generators is None:
            generators = np.empty((0, n_nodes), dtype=np.int64)
        elements = _group_elements(generators)
        nodes = np.arange(n_nodes)
        reps = np.flatnonzero(elements.min(axis=0) == nodes)
        fixed = elements[:, reps] == reps
        stabilizer = fixed.sum(axis=0)
        order = np.argsort(stabilizer, kind="stable")
        self.reps = reps[order]
        self.images = elements[:, self.reps]
        self.n_nodes = n_nodes
        self.sizes = len(elements) / stabilizer[order]
        fixed = fixed[:, order]
        # negative[s, a]: chi_s(a) = -1; an orbit carries s unless an
        # element of its stabilizer is negative under it
        group = range(len(elements))
        negative = np.array([[bin(s & a).count("1") % 2 == 1 for a in group] for s in group])
        carried = ~(negative[:, :, None] & fixed).any(axis=1)
        self.carriers = tuple(np.flatnonzero(c) for c in carried)

    def __len__(self) -> int:
        return len(self.reps)

    def sums(self, x: np.ndarray) -> np.ndarray:
        """Sum over each orbit: the orbit masses of nodal masses."""
        return x[..., self.images].sum(axis=-2) * (self.sizes / len(self.images))

    def parts(self, x: np.ndarray) -> list[np.ndarray]:
        """The part of nodal values of each character, over the orbits carrying it."""
        sums = character_sums([x[..., images] for images in self.images])
        return [sums[s][..., c] / len(self.images) for s, c in enumerate(self.carriers)]

    def join(self, *values) -> np.ndarray:
        """Nodal values with the given part of each character.

        values[s] holds the part of character s over its carriers, or
        None for a zero part; characters past the last given are zero.
        """
        shape = values[0].shape[:-1] + (len(self),)
        parts = [np.zeros(shape) for _ in self.images]
        for s, v in enumerate(values):
            if v is not None:
                parts[s][..., self.carriers[s]] = v
        out = np.empty(values[0].shape[:-1] + (self.n_nodes,))
        for images, slab in zip(self.images, character_sums(parts)):
            out[..., images] = slab
        return out


@dataclass(frozen=True, eq=False)
class NodeCloud:
    """Points with cell measures on the boundary or the body of a shape.

    mirror, if given, holds the generators of the cloud's reflection
    group, one node permutation per row; a single permutation may be
    given as a vector.
    """

    points: np.ndarray
    weights: np.ndarray
    role: str
    shape: shp.Shape
    components: np.ndarray
    component_names: tuple[str, ...]
    mirror: np.ndarray | None = None

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
        arrays = [pts, w, comp]
        if self.mirror is not None:
            mirror = np.atleast_2d(np.asarray(self.mirror, dtype=np.int64)).copy()
            _check_mirror(pts, w, mirror)
            arrays.append(mirror)
            object.__setattr__(self, "mirror", mirror)
        for arr in arrays:
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

    @cached_property
    def orbits(self) -> Orbits:
        return Orbits(self.mirror, self.n_nodes)

    def component_masses(self, masses) -> dict[str, float]:
        """Sum a nodal vector over each labeled component."""
        masses = np.asarray(masses, dtype=float)
        if masses.shape != (self.n_nodes,):
            raise ValidationError("need one value per node")
        out = {}
        for k, name in enumerate(self.component_names):
            out[name] = float(masses[self.components == k].sum())
        return out


def _check_mirror(points: np.ndarray, weights: np.ndarray, mirror: np.ndarray) -> None:
    """Raise unless the rows of mirror generate a group of coordinate reflections.

    Each row must be an involution of the node indices under which
    weights are equal, and must negate the coordinates it moves about
    one center: on each, every pair's midpoint is the same to within
    MIRROR_ULPS ulps of the largest coordinate, and the others stay put
    to within as much.  The rows must commute and generate 2^k distinct
    permutations, at most MAX_REFLECTIONS of them.
    """
    k, n = mirror.shape if mirror.ndim == 2 else (0, 0)
    if k > MAX_REFLECTIONS:
        raise ValidationError(f"mirror holds at most {MAX_REFLECTIONS} reflections, got {k}")
    nodes = np.arange(n)
    if (
        k == 0
        or n != len(points)
        or mirror.min() < 0
        or mirror.max() >= n
        or any(not np.array_equal(g[g], nodes) for g in mirror)
    ):
        raise ValidationError("mirror must pair the node indices among themselves")
    tol = MIRROR_ULPS * np.finfo(float).eps * float(np.abs(points).max())
    for g in mirror:
        if not np.array_equal(weights[g], weights):
            raise ValidationError("mirrored nodes must carry equal weights")
        image = points[g]
        moved = np.abs(points - image).max(axis=0) > tol
        midpoints = 0.5 * (points[:, moved] + image[:, moved])
        if midpoints.size and float(np.ptp(midpoints, axis=0).max()) > tol:
            raise ValidationError("mirror does not reflect the nodes through one center")
    if any(not np.array_equal(g[h], h[g]) for i, g in enumerate(mirror) for h in mirror[:i]):
        raise ValidationError("mirror reflections must commute")
    if len({e.tobytes() for e in _group_elements(mirror)}) != 2**k:
        raise ValidationError("mirror reflections must generate 2^k distinct permutations")


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
    """Nodes, equal weights and mirror on a circle (2D) or a sphere (3D).

    The sphere lattice pairs node k with node k + n/2 (its negation); the
    circle's nodes are not built in exact pairs and carry no mirror.
    """
    d = len(center)
    if d == 3:
        n = _even_count(n, 8)
        pts = np.asarray(center) + radius * _sphere_lattice(n)
        mirror = np.roll(np.arange(n), n // 2)
        return pts, np.full(n, unit_sphere_area(3) * radius**2 / n), mirror
    if d == 2:
        n = max(4, int(n))
        ang = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        pts = np.asarray(center) + radius * np.column_stack([np.cos(ang), np.sin(ang)])
        return pts, np.full(n, 2.0 * np.pi * radius / n), None
    raise DiscretizationError(
        f"boundary clouds are available in dimensions 2 and 3, not {d}"
    )


def _ball_boundary(shape: shp.Ball, n: int):
    pts, w, mirror = _round_nodes(shape.center, shape.radius, n)
    return pts, w, np.zeros(len(pts), dtype=int), ("boundary",), mirror


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
    pts_in, w_in, mirror_in = _round_nodes(shape.center, shape.r_inner, n_in)
    pts_out, w_out, mirror_out = _round_nodes(shape.center, shape.r_outer, n_out)
    pts = np.vstack([pts_in, pts_out])
    w = np.concatenate([w_in, w_out])
    comp = np.concatenate([np.zeros(len(pts_in), int), np.ones(len(pts_out), int)])
    mirror = None
    if mirror_in is not None:
        mirror = np.concatenate([mirror_in, mirror_out + len(pts_in)])
    return pts, w, comp, ("inner", "outer"), mirror


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
        p, w, _ = _round_nodes(b.center, b.radius, per)
        pts_list.append(p)
        w_list.append(w)
        comp_list.append(np.full(len(p), i, dtype=int))
        names.append(f"ball_{i}")
    return (
        np.vstack(pts_list),
        np.concatenate(w_list),
        np.concatenate(comp_list),
        tuple(names),
        None,
    )


def _symmetrize(axis: np.ndarray, center: float) -> np.ndarray:
    """Make an axis of grid coordinates exactly symmetric about center.

    Coordinate count-1-k of an axis symmetric about center is coordinate
    k reflected up to rounding; this overwrites the second half with the
    reflection of the first, and an odd axis's middle coordinate with
    the center.
    """
    n = len(axis)
    half = n // 2
    axis[n - half :] = (2.0 * center - axis[:half])[::-1]
    if n % 2:
        axis[half] = center
    return axis


def _grid_points(axes) -> np.ndarray:
    """The points of the tensor grid over axes, in row-major order."""
    counts = [len(a) for a in axes]
    total = math.prod(counts)
    pts = np.empty((total, len(axes)))
    inner = total
    for i, a in enumerate(axes):
        inner //= counts[i]
        pts[:, i] = np.tile(np.repeat(a, inner), total // (inner * counts[i]))
    return pts


def _grid_flip(counts, axis: int) -> np.ndarray:
    """The row-major index of each node of a grid reflected along one axis."""
    nodes = np.arange(math.prod(counts))
    stride = math.prod(counts[axis + 1 :])
    k = nodes // stride % counts[axis]
    return nodes + (counts[axis] - 1 - 2 * k) * stride


def _box_grid(half_widths, n_target: int):
    """Cell midpoints tiling a centered box exactly, each axis symmetric about 0.

    Returns the points, the cell volume and the per-axis counts.
    """
    h = np.asarray(half_widths, dtype=float)
    d = len(h)
    vol = float(np.prod(2.0 * h))
    cell = (vol / max(n_target, 1)) ** (1.0 / d)
    counts = [int(c) for c in np.maximum(1, np.round(2.0 * h / cell))]
    steps = 2.0 * h / counts
    axes = [
        _symmetrize(-h[i] + (np.arange(counts[i]) + 0.5) * steps[i], 0.0) for i in range(d)
    ]
    return _grid_points(axes), float(np.prod(steps)), counts


def _box_boundary(shape: shp.Box, n: int):
    """Per-face grids, with one reflection per axis.

    Faces i- and i+ share one grid, so the reflection along axis i swaps
    their nodes index for index, and the reflection along any other axis
    reflects each face grid in itself.  Past MAX_REFLECTIONS axes the
    cloud carries their product alone, the point mirror.
    """
    d = shape.dim
    center = np.array(shape.center)
    h = np.array(shape.half_widths)
    areas = []
    for i in range(d):
        areas.append(float(np.prod(np.delete(2.0 * h, i))))
    total = 2.0 * sum(areas)
    pts_list, w_list, comp_list, names = [], [], [], []
    mirror_list = []
    label = start = 0
    for i in range(d):
        m_face = max(1, int(round(n * areas[i] / total)))
        face_pts, cell, counts = _box_grid(np.delete(h, i), m_face)
        m = len(face_pts)
        for sign, tag in ((-1.0, "-"), (1.0, "+")):
            full = np.empty((m, d))
            full[:, np.arange(d) != i] = face_pts
            full[:, i] = sign * h[i]
            pts_list.append(center + full)
            w_list.append(np.full(m, cell))
            comp_list.append(np.full(m, label, dtype=int))
            names.append(f"face_{i}{tag}")
            label += 1
        face = np.empty((d, 2 * m), dtype=np.int64)
        for j in range(d):
            if j == i:
                face[j] = np.roll(np.arange(2 * m), m)
            else:
                flip = _grid_flip(counts, j - (j > i))
                face[j] = np.concatenate([flip, flip + m])
        mirror_list.append(start + face)
        start += 2 * m
    mirror = np.hstack(mirror_list)
    if d > MAX_REFLECTIONS:
        point = mirror[0]
        for g in mirror[1:]:
            point = g[point]
        mirror = point[None]
    return (
        np.vstack(pts_list),
        np.concatenate(w_list),
        np.concatenate(comp_list),
        tuple(names),
        mirror,
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
        None,
    )


def _graph_boundary(shape: shp.NearlySpherical, n: int):
    """The sphere lattice lifted onto the graph r = R(u).

    When every mode has even degree, R(-u) = R(u): the profile is
    evaluated on the upper half of the lattice alone, the lower half is
    its exact reflection, and the cloud carries the point mirror.
    """
    n = _even_count(n, 8)
    u = _sphere_lattice(n)
    mirror = None
    if all(l % 2 == 0 for l, _, _ in shape.modes):
        u = u[: n // 2]
        mirror = np.roll(np.arange(n), n // 2)
    theta = np.arccos(np.clip(u[:, 2], -1.0, 1.0))
    lam = np.arctan2(u[:, 1], u[:, 0])
    R, gt, gl = shape.profile(theta, lam)
    pts = R[:, None] * u
    w = (4.0 * np.pi / n) * R * np.sqrt(R * R + gt * gt + gl * gl)
    if mirror is not None:
        pts, w = np.vstack([pts, -pts]), np.concatenate([w, w])
    comp = np.zeros(n, dtype=int)
    return pts, w, comp, ("boundary",), mirror


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
    """A cell-centered grid over the bounding box, clipped to the shape.

    Refuses a grid of more than MAX_GRID_CELLS cells before building it.
    """
    d = shape.dim
    vol = shp.volume(shape)
    center, half = shape.bounding_box()
    cell = (vol / max(n, 1)) ** (1.0 / d)
    counts = np.maximum(1.0, np.round(2.0 * half / cell))
    # Odd counts center a node on the shape's midpoint, so radial profiles
    # see the innermost shell at any resolution.
    counts += counts % 2 == 0
    if not float(np.prod(counts)) <= MAX_GRID_CELLS:
        raise ValidationError(
            f"a volume grid of {n} nodes in dimension {d} needs "
            f"{float(np.prod(counts)):.3g} bounding-box cells, more than {MAX_GRID_CELLS}"
        )
    counts = [int(c) for c in counts]
    steps = 2.0 * half / counts
    axes = [
        center[i] - half[i] + (np.arange(counts[i]) + 0.5) * steps[i] for i in range(d)
    ]
    pts = _grid_points(axes)
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
        w *= vol / w.sum()
        names = ("body",)
    else:
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
    # A grid reflection maps the grid onto itself up to rounding.  Each
    # one under which the clipped mask and the weights are symmetric is
    # recorded, and the axes it negates are made exactly symmetric.  Past
    # MAX_REFLECTIONS axes only the point mirror is tried.
    grid_w = np.zeros(len(mask))
    grid_w[mask] = w

    def symmetric(flip):
        return np.array_equal(grid_w, grid_w[flip])

    moved = [i for i in range(d) if counts[i] > 1]
    axis_flips = {i: _grid_flip(counts, i) for i in moved} if d <= MAX_REFLECTIONS else {}
    reflected = [i for i, flip in axis_flips.items() if symmetric(flip)]
    flips = [axis_flips[i] for i in reflected]
    if len(reflected) < len(moved):
        point = np.arange(len(mask))[::-1]
        if symmetric(point):
            flips.append(point)
            reflected = moved
    if not flips:
        return pts, w, comp, names, None
    for i in reflected:
        axes[i] = _symmetrize(axes[i], center[i])
    node = np.cumsum(mask) - 1
    mirror = np.array([node[flip[mask]] for flip in flips])
    return _grid_points(axes)[mask], w, comp, names, mirror


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
    pts, w, comp, names, mirror = place(shape, n_nodes)
    return NodeCloud(
        points=pts,
        weights=w,
        role=role,
        shape=shape,
        components=comp,
        component_names=names,
        mirror=mirror,
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
