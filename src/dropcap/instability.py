"""Competitor families and stability scans for charged-drop energies.

Three families certify ill-posedness by explicit energy-decreasing
sequences: shattering a charged ball into many far-apart droplets (the
charge cost vanishes while perimeter tends to the sphere's), pulling two
oppositely charged balls apart along an external field, and stretching
a thin slab whose end caps carry opposite unit charges.  Each family
point carries a closed-form energy split into named components, and the
two field-driven families also evaluate the interaction numerically on
volume clouds of the moving pieces.

The stability half expands the energy of nearly-spherical drops: the
perimeter's second-order expansion in spherical harmonics, the charge
threshold where a given mode turns unstable, the empirical constant in
the capacity-vs-perimeter deficit inequality, and a two-dimensional
convex ranking scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import shapes as shp
from .clouds import discretize
from .equilibrium import equilibrium_measure, solve_shape
from .errors import (
    DiscretizationError,
    NonConvergenceError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .kernels import (
    KernelParams,
    uniform_ball_self_energy,
    unit_ball_volume,
    unit_cube_self_energy,
    unit_sphere_area,
)
from .operators import assemble_operator, potential_at

__all__ = [
    "FamilyPoint",
    "StabilityScan",
    "many_balls_family",
    "two_balls_field_family",
    "slab_family",
    "fuglede_check",
    "perimeter_expansion_coefficients",
    "rayleigh_threshold_mode",
    "rayleigh_scan",
    "lemma_ratio_check",
    "convex_scan_2d",
]


@dataclass(frozen=True)
class FamilyPoint:
    """One member of a competitor family with its energy split."""

    n: int
    shape: shp.Shape
    analytic_energy: float
    components: dict[str, float]
    numeric_energy: float | None = None

    def __post_init__(self):
        total = sum(self.components.values())
        if abs(total - self.analytic_energy) > 1e-12 * max(1.0, abs(total)):
            raise ValidationError("component split must add up to the energy")


def _fit_exponent(n_values, values) -> float:
    """Slope of log |value| against log n."""
    n = np.asarray(n_values, dtype=float)
    v = np.abs(np.asarray(values, dtype=float))
    if np.any(v <= 0):
        raise ValidationError("log-log fit needs nonzero values")
    return float(np.polyfit(np.log(n), np.log(v), 1)[0])


# ---------------------------------------------------------------------------
# many far-apart droplets


def many_balls_family(
    n_list,
    beta: float,
    charge: float,
    dim: int = 3,
    alpha: float = 2.0,
    separation: float = 1e3,
    numeric_nodes: int = 0,
) -> list[FamilyPoint]:
    """Ball of charge split into n droplets of radius n^(-beta), far apart.

    The droplets each carry charge/n; the remaining volume stays in one
    uncharged ball, so the total volume is the unit ball's.  Admissible
    rates beta make every energy component vanish except the large
    sphere's perimeter.  The minimal equilibrium energy of the unit ball
    is 1 exactly in the Coulombic three-dimensional case; otherwise the
    equilibrium solver computes it once, on a 1500-node cloud.  Setting
    numeric_nodes > 0 also evaluates the interaction on volume clouds of
    the droplets, self terms plus all pairwise cross terms (each through
    potential_at on the one droplet template, shifted).
    """
    beta = float(beta)
    if not 1.0 < alpha < dim:
        raise ValidationError(f"alpha must lie in (1, dim), got {alpha}")
    lo, hi = 1.0 / (dim - 1), 1.0 / (dim - alpha)
    if not lo < beta < hi:
        raise ValidationError(
            f"beta must lie in ({lo:.6g}, {hi:.6g}) for dim={dim}, alpha={alpha}"
        )
    if separation <= 2.0:
        raise ValidationError("droplet separation must exceed the ball diameters")
    if dim == 3 and alpha == 2.0:
        ball_energy = 1.0
    else:
        ball_energy = solve_shape(shp.Ball((0.0,) * dim, 1.0), alpha, n_nodes=1500).energy
    sphere_area = unit_sphere_area(dim)
    points = []
    for n in sorted(int(n) for n in n_list):
        if n < 1:
            raise ValidationError("droplet counts must be positive")
        r = float(n) ** (-beta)
        used = n * r**dim
        if used >= 1.0:
            raise ValidationError(
                f"n={n} droplets of radius {r:.3g} exhaust the unit volume"
            )
        R = (1.0 - used) ** (1.0 / dim)
        perim = sphere_area * (R ** (dim - 1) + n * r ** (dim - 1))
        inter = (charge**2 / n) * r ** (alpha - dim) * ball_energy
        components = {"perimeter": perim, "interaction": inter, "field": 0.0}
        balls = [shp.Ball((0.0,) * dim, R)]
        for i in range(1, n + 1):
            center = (separation * i,) + (0.0,) * (dim - 1)
            balls.append(shp.Ball(center, r))
        shape = shp.UnionOfBalls(tuple(balls))
        numeric = None
        if numeric_nodes > 0:
            numeric = perim + _droplet_interaction_numeric(
                n, r, charge, dim, alpha, separation, numeric_nodes
            )
        points.append(
            FamilyPoint(
                n=n,
                shape=shape,
                analytic_energy=perim + inter,
                components=components,
                numeric_energy=numeric,
            )
        )
    return points


def _droplet_interaction_numeric(n, r, charge, dim, alpha, separation, nodes):
    params = KernelParams(dim, float(alpha))
    template = discretize(shp.Ball((0.0,) * dim, r), nodes, "volume")
    op = assemble_operator(template, params)
    u = template.weights / template.weights.sum() * (charge / n)
    self_one = op.energy(u)
    total = n * self_one
    centers = [
        np.array((separation * i,) + (0.0,) * (dim - 1)) for i in range(1, n + 1)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            shifted = template.points + (centers[i] - centers[j])
            total += 2.0 * float(potential_at(params, template, u, shifted) @ u)
    return total


# ---------------------------------------------------------------------------
# two opposite charges pulled apart by a field


def two_balls_field_family(
    n_list,
    field_strength: float,
    n_nodes: int = 1000,
    dim: int = 3,
) -> list[FamilyPoint]:
    """Two half-volume balls at +-n e1 carrying unit-density charges +-1.

    In the potential phi = -E x1 the configuration's energy has an exact
    closed form (uniform balls interact as point charges in the
    Coulombic case), and the interaction is also evaluated on volume
    clouds of the two balls.  The field term grows linearly with the
    separation while everything else stays bounded, so the total energy
    decreases without bound.
    """
    if dim < 3:
        raise UnsupportedConfigurationError(
            "the field-driven family is posed in dimension >= 3"
        )
    E = float(field_strength)
    r = 0.5 ** (1.0 / dim)
    params = KernelParams(dim, 2.0)
    template = discretize(shp.Ball((0.0,) * dim, r), n_nodes, "volume")
    op = assemble_operator(template, params)
    u_num = template.weights.copy()
    self_num = op.energy(u_num)
    q = unit_ball_volume(dim) * r**dim
    self_exact = q**2 * uniform_ball_self_energy(dim, 2.0) * r ** (2.0 - dim)
    perim = 2.0 * unit_sphere_area(dim) * r ** (dim - 1)
    points = []
    for n in sorted(int(n) for n in n_list):
        if n <= r:
            raise ValidationError(f"separation n={n} makes the balls overlap")
        e1 = np.zeros(dim)
        e1[0] = 1.0
        shape = shp.UnionOfBalls(
            (
                shp.Ball(tuple(n * e1), r),
                shp.Ball(tuple(-n * e1), r),
            )
        )
        cross_exact = -2.0 * q**2 * (2.0 * n) ** (2.0 - dim)
        field_term = -2.0 * E * n * q
        components = {
            "perimeter": perim,
            "interaction": 2.0 * self_exact + cross_exact,
            "field": field_term,
        }
        shifted = template.points + 2.0 * n * e1
        cross_num = -2.0 * float(potential_at(params, template, u_num, shifted) @ u_num)
        x1 = template.points[:, 0]
        field_num = -E * (
            float(u_num @ (x1 + n)) - float(u_num @ (x1 - n))
        )
        numeric = perim + 2.0 * self_num + cross_num + field_num
        points.append(
            FamilyPoint(
                n=n,
                shape=shape,
                analytic_energy=perim + components["interaction"] + field_term,
                components=components,
                numeric_energy=numeric,
            )
        )
    return points


# ---------------------------------------------------------------------------
# charged slab


def slab_family(n_list, field_strength: float, n_nodes: int = 1000) -> dict:
    """Thin slab of unit-ball volume with oppositely charged cube end caps.

    The slab spans x1 in [-n/2, n/2] with square cross-section of side
    eps_n = (|B_1|/n)^(1/2); the last eps_n of each end carries charge
    +-1 spread uniformly.  Returns the family points together with
    log-log fitted growth exponents of the three energy components and
    the separation beyond which the total energy turns negative.
    """
    E = float(field_strength)
    v1 = unit_ball_volume(3)
    params = KernelParams(3, 2.0)
    template = discretize(
        shp.Box((0.0, 0.0, 0.0), (0.5, 0.5, 0.5)), n_nodes, "volume"
    )
    if template.n_nodes < 16:
        raise DiscretizationError("cap resolution too small to resolve the end caps")
    op = assemble_operator(template, params)
    u = template.weights / template.weights.sum()
    cube_num = op.energy(u)
    cube_exact = unit_cube_self_energy()
    points = []
    for n in sorted(int(n) for n in n_list):
        eps = (v1 / n) ** 0.5
        if n <= 2.0 * eps:
            raise ValidationError(f"slab length n={n} cannot fit two {eps:.3g} caps")
        shape = shp.Box((0.0, 0.0, 0.0), (0.5 * n, 0.5 * eps, 0.5 * eps))
        perim = shp.perimeter(shape)
        gap = n - eps
        inter_exact = 2.0 * cube_exact / eps - 2.0 / gap
        field_term = -E * gap
        components = {
            "perimeter": perim,
            "interaction": inter_exact,
            "field": field_term,
        }
        # caps of side eps at +-gap/2: the 1/r kernel scales as 1/eps
        shifted = template.points + np.array([gap / eps, 0.0, 0.0])
        cross_num = float(potential_at(params, template, u, shifted) @ u) / eps
        inter_num = 2.0 * cube_num / eps - 2.0 * cross_num
        numeric = perim + inter_num + field_term
        points.append(
            FamilyPoint(
                n=n,
                shape=shape,
                analytic_energy=perim + inter_exact + field_term,
                components=components,
                numeric_energy=numeric,
            )
        )
    n_vals = [p.n for p in points]
    fitted = {}
    if len(points) >= 2:
        caps_inter = [
            p.numeric_energy - p.components["perimeter"] - p.components["field"]
            for p in points
        ]
        fitted = {
            "perimeter": _fit_exponent(n_vals, [p.components["perimeter"] for p in points]),
            "interaction": _fit_exponent(n_vals, caps_inter),
            "field": _fit_exponent(n_vals, [p.components["field"] for p in points]),
        }

    def total(x):
        eps = (v1 / x) ** 0.5
        return (
            2.0 * eps * eps
            + 4.0 * x * eps
            + 2.0 * cube_exact / eps
            - 2.0 / (x - eps)
            - E * (x - eps)
        )

    crossover = None
    if E > 0:
        hi = 4.0
        while total(hi) > 0 and hi < 1e9:
            hi *= 2.0
        if total(hi) < 0:
            crossover = float(brentq(total, hi / 2.0 if total(hi / 2.0) > 0 else 2.5, hi))
    return {"points": points, "fitted_exponents": fitted, "crossover": crossover}


# ---------------------------------------------------------------------------
# perimeter expansion of nearly-spherical sets


def perimeter_expansion_coefficients(modes) -> tuple[float, float]:
    """First and second order perimeter coefficients of a harmonic profile.

    For the radial graph 1 + eps * phi with phi given by orthonormal
    harmonic modes, the surface area expands as

        4 pi + eps * 2 sqrt(4 pi) c_00
             + eps^2 * sum of c^2 (1 + l(l+1)/2) + O(eps^4).
    """
    c00 = 0.0
    second = 0.0
    for l, m, c in modes:
        if l == 0 and m == 0:
            c00 += c
        second += c * c * (1.0 + 0.5 * l * (l + 1))
    return 2.0 * np.sqrt(4.0 * np.pi) * c00, second


def fuglede_check(modes, eps_list, quad_order: int = 64) -> list[dict]:
    """Compare quadrature perimeters against the second-order expansion.

    Returns one row per amplitude with the remainder and its ratio to
    eps^3; the remainder of this expansion is of fourth order, so the
    ratio shrinks linearly as the amplitude halves.
    """
    modes = tuple((int(l), int(m), float(c)) for l, m, c in modes)
    p1, p2 = perimeter_expansion_coefficients(modes)
    base = 4.0 * np.pi
    rows = []
    for eps in eps_list:
        eps = float(eps)
        if eps == 0.0:
            per = base
        else:
            per = shp.perimeter(
                shp.NearlySpherical(modes=modes, eps=eps, quad_order=quad_order)
            )
        expansion = base + eps * p1 + eps * eps * p2
        remainder = per - expansion
        rows.append(
            {
                "eps": eps,
                "perimeter": per,
                "expansion": expansion,
                "remainder": remainder,
                "ratio_eps3": remainder / eps**3 if eps != 0.0 else 0.0,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# charge threshold per harmonic mode


@dataclass(frozen=True)
class StabilityScan:
    """Energy table of one harmonic mode across amplitudes and charges."""

    mode: int
    amplitudes: tuple[float, ...]
    charges: tuple[float, ...]
    perimeters: tuple[float, ...]
    riesz_energies: tuple[float, ...]
    converged: tuple[bool, ...]
    energy_table: tuple[tuple[float, ...], ...]  # [charge][amplitude]
    d2_perimeter: float
    d2_interaction: float
    threshold_estimate: float | None

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "amplitudes": list(self.amplitudes),
            "charges": list(self.charges),
            "perimeters": list(self.perimeters),
            "riesz_energies": list(self.riesz_energies),
            "converged": list(self.converged),
            "energy_table": [list(row) for row in self.energy_table],
            "d2_perimeter": self.d2_perimeter,
            "d2_interaction": self.d2_interaction,
            "threshold_estimate": self.threshold_estimate,
        }


def rayleigh_threshold_mode(l: int) -> float:
    """Charge where harmonic mode l turns unstable, sqrt(2 pi (l + 2)).

    From the volume-renormalized second-order forms: the perimeter gains
    (l-1)(l+2)/2 per squared amplitude while the charge energy drops by
    (l-1)/(4 pi); the mode turns neutral where Q^2 balances the two.
    """
    if l < 2:
        raise ValidationError("unstable modes start at degree 2")
    return float(np.sqrt(2.0 * np.pi * (l + 2)))


def _renormalized_mode_shape(l: int, t: float, quad_order: int = 48):
    shape = shp.NearlySpherical(modes=((l, 0, 1.0),), eps=t, quad_order=quad_order)
    return shp.renormalize_to_unit_volume(shape)


def rayleigh_scan(l: int, amplitudes, charges, n_nodes: int = 2000) -> StabilityScan:
    """Scan drop energies of one harmonic mode over amplitude and charge.

    Every shape is volume-renormalized before measuring, so the zero
    amplitude column reproduces the unit ball for every charge.  The
    threshold estimate is the root of the central second difference of
    the energy at zero amplitude, which is linear in charge squared.
    """
    l = int(l)
    amplitudes = tuple(float(t) for t in amplitudes)
    charges = tuple(float(q) for q in charges)
    if 0.0 not in amplitudes:
        raise ValidationError("amplitudes must include 0")
    steps = sorted({abs(t) for t in amplitudes if t != 0.0 and -t in amplitudes})
    if not steps:
        raise ValidationError("amplitudes must include a symmetric pair +-h")
    h = steps[0]
    perims, riesz, ok = [], [], []
    for t in amplitudes:
        shape = _renormalized_mode_shape(l, t)
        perims.append(shp.perimeter(shape))
        cloud = discretize(shape, n_nodes, "boundary")
        op = assemble_operator(cloud, KernelParams(3, 2.0))
        try:
            res = equilibrium_measure(op)
            riesz.append(res.energy)
            ok.append(True)
        except NonConvergenceError as err:
            riesz.append(float(err.result[1]))
            ok.append(False)
    table = tuple(
        tuple(p + q * q * e for p, e in zip(perims, riesz)) for q in charges
    )
    i0 = amplitudes.index(0.0)
    ip = amplitudes.index(h)
    im = amplitudes.index(-h)
    d2p = (perims[ip] - 2.0 * perims[i0] + perims[im]) / h**2
    d2i = (riesz[ip] - 2.0 * riesz[i0] + riesz[im]) / h**2
    threshold = None
    if d2i < 0.0 < d2p:
        threshold = float(np.sqrt(-d2p / d2i))
    return StabilityScan(
        mode=l,
        amplitudes=amplitudes,
        charges=charges,
        perimeters=tuple(perims),
        riesz_energies=tuple(riesz),
        converged=tuple(ok),
        energy_table=table,
        d2_perimeter=d2p,
        d2_interaction=d2i,
        threshold_estimate=threshold,
    )


# ---------------------------------------------------------------------------
# capacity-deficit versus perimeter-deficit ratio


def lemma_ratio_check(
    samples: int,
    eps_max: float,
    n_nodes: int = 600,
    seed: int = 0,
) -> dict:
    """Empirical constant in the capacity-versus-perimeter deficit bound.

    Random nearly-spherical shapes (one or two harmonic modes of degree
    2, 3 or 4, amplitude up to eps_max, volume-renormalized) are compared
    with the unit ball on the same node lattice.  The ratio of the
    capacity-energy deficit to the perimeter deficit is collected where
    the numerator is positive; samples whose perimeter deficit falls
    below the quadrature floor 1e-9 are skipped and counted.  The
    quantitative-isoperimetric side ratio |symmetric difference| /
    sqrt(perimeter deficit) is tracked on the same samples.
    """
    rng = np.random.default_rng(seed)
    params = KernelParams(3, 2.0)
    ball_cloud = discretize(shp.Ball((0.0, 0.0, 0.0), 1.0), n_nodes, "boundary")
    ball_energy = equilibrium_measure(assemble_operator(ball_cloud, params)).energy
    ratios = []
    iso_ratios = []
    skipped_flat = 0
    skipped_nonpositive = 0
    for _ in range(int(samples)):
        k = int(rng.integers(1, 3))
        chosen = []
        for _ in range(k):
            l = int(rng.choice((2, 3, 4)))
            m = int(rng.integers(-l, l + 1))
            chosen.append((l, m))
        chosen = list(dict.fromkeys(chosen))
        coeffs = rng.standard_normal(len(chosen))
        coeffs /= np.linalg.norm(coeffs)
        eps = float(rng.uniform(0.2, 1.0) * eps_max)
        modes = tuple((l, m, float(c)) for (l, m), c in zip(chosen, coeffs))
        shape = shp.renormalize_to_unit_volume(
            shp.NearlySpherical(modes=modes, eps=eps)
        )
        per_deficit = shp.perimeter(shape) - 4.0 * np.pi
        if per_deficit < 1e-9:
            skipped_flat += 1
            continue
        cloud = discretize(shape, n_nodes, "boundary")
        energy = equilibrium_measure(assemble_operator(cloud, params)).energy
        num = ball_energy - energy
        if num <= 0.0:
            skipped_nonpositive += 1
            continue
        ratios.append(num / per_deficit)
        iso_ratios.append(
            shp.symmetric_difference_to_unit_ball(shape) / np.sqrt(per_deficit)
        )
    if not ratios:
        raise ValidationError("no usable samples; increase samples or eps_max")
    return {
        "samples": int(samples),
        "used": len(ratios),
        "skipped_flat": skipped_flat,
        "skipped_nonpositive": skipped_nonpositive,
        "max_ratio": float(np.max(ratios)),
        "mean_ratio": float(np.mean(ratios)),
        "max_iso_ratio": float(np.max(iso_ratios)),
    }


# ---------------------------------------------------------------------------
# two-dimensional convex ranking


def _regular_polygon(m: int) -> shp.ConvexPolygon2D:
    # area pi: (m/2) R^2 sin(2 pi/m) = pi
    R = np.sqrt(2.0 * np.pi / (m * np.sin(2.0 * np.pi / m)))
    ang = 2.0 * np.pi * np.arange(m) / m
    verts = tuple((float(R * np.cos(a)), float(R * np.sin(a))) for a in ang)
    return shp.ConvexPolygon2D(verts)


def _random_polygon(rng) -> shp.ConvexPolygon2D:
    from scipy.spatial import ConvexHull

    while True:
        pts = rng.standard_normal((12, 2))
        hull = ConvexHull(pts)
        verts = pts[hull.vertices]
        area = 0.5 * float(
            np.dot(verts[:, 0], np.roll(verts[:, 1], -1))
            - np.dot(verts[:, 1], np.roll(verts[:, 0], -1))
        )
        verts = verts * np.sqrt(np.pi / area)
        try:
            return shp.ConvexPolygon2D(tuple(map(tuple, verts)))
        except ValidationError:
            continue


def convex_scan_2d(
    charges,
    m_gons=(3, 4, 5, 6, 8, 12),
    n_random: int = 3,
    seed: int = 0,
    n_nodes: int = 600,
) -> dict:
    """Rank equal-area convex shapes by logarithmic drop energy.

    The family holds the unit disk, the regular m-gons of m_gons, and
    n_random random convex hulls drawn from seed, all normalized to area
    pi.  For each shape the scan records perimeter and logarithmic
    equilibrium energy, then the total energy per charge; rankings list
    shape labels from lowest to highest energy.
    """
    charges = tuple(float(q) for q in charges)
    shapes: list[tuple[str, shp.Shape]] = [("disk", shp.Ball((0.0, 0.0), 1.0))]
    for m in m_gons:
        shapes.append((f"gon_{int(m)}", _regular_polygon(int(m))))
    rng = np.random.default_rng(seed)
    for i in range(int(n_random)):
        shapes.append((f"random_{i}", _random_polygon(rng)))
    rows = []
    for label, shape in shapes:
        res = solve_shape(shape, 2.0, n_nodes=n_nodes, role="boundary")
        per = shp.perimeter(shape)
        rows.append(
            {
                "label": label,
                "perimeter": per,
                "riesz_energy": res.energy,
                "energies": {str(q): per + q * q * res.energy for q in charges},
            }
        )
    rankings = {}
    for q in charges:
        order = sorted(rows, key=lambda row: row["energies"][str(q)])
        rankings[str(q)] = [row["label"] for row in order]
    return {"rows": rows, "rankings": rankings, "charges": list(charges)}
