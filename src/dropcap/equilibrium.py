"""Equilibrium measures, minimal interaction energies, and capacities.

The continuous problem minimizes the double interaction integral over
probability measures on a compact set.  Discretized on a node cloud it
becomes a convex quadratic program over the simplex,

    minimize m.T @ K @ m   subject to  sum(m) = 1,  m >= 0,

whose optimality conditions mirror the classical ones: the potential
K @ m equals a constant on the support and dominates it elsewhere.  The
constant is the minimal energy itself; its reciprocal (or, for the
logarithmic kernel, its negative exponential) is the capacity.  An
active-set method solves the program to round-off in a handful of
unit-charge solves on the working set, starting from all nodes active
and deactivating negative masses until complementarity holds.  The
minimizer is unique, so it is invariant under the cloud's reflection
group, and the program is solved over orbit masses with the operator's
trivial-character block E (dropcap.operators).  Each step is one call of the constrained solve in
dropcap.linalg, E x = lambda 1 with sum(x) = 1, projected conjugate
gradients for the Riesz and the planar logarithmic kernels alike,
preconditioned where the working set runs around closed curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import shapes as shp
from .clouds import NodeCloud, default_role, discretize
from .errors import NonConvergenceError, ValidationError, require_finite, require_tol
from .kernels import KernelParams
from .linalg import ScreenedOut, constrained_solve, curve_preconditioner
from .operators import KernelOperator, assemble_operator, potential_at

__all__ = [
    "Measure",
    "EquilibriumResult",
    "DropEnergy",
    "equilibrium_measure",
    "solve_shape",
    "capacity_from_energy",
    "farfield_check",
    "support_profile",
    "drop_energy",
]

_NEG_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class Measure:
    """Nonnegative nodal masses summing to one on a cloud."""

    cloud: NodeCloud
    masses: np.ndarray

    def __post_init__(self):
        m = np.array(self.masses, dtype=float)  # a private copy, frozen below
        if m.shape != (self.cloud.n_nodes,):
            raise ValidationError("need one mass per node")
        if m.min() < -1e-12:
            raise ValidationError(f"masses must be nonnegative, min {m.min():.3g}")
        if abs(m.sum() - 1.0) > 1e-12:
            raise ValidationError(f"masses must sum to 1, got {m.sum():.15g}")
        if m.min() < 0.0:
            # clipping round-off negatives adds mass; rescale so the stored
            # masses still sum to 1
            np.clip(m, 0.0, None, out=m)
            m /= m.sum()
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Equilibrium measure of a cloud with its energy diagnostics."""

    measure: Measure
    params: KernelParams
    energy: float
    capacity: float
    potential_on_nodes: np.ndarray
    kkt_residual: float
    active_fraction: float
    iterations: int

    @property
    def cloud(self) -> NodeCloud:
        return self.measure.cloud

    @property
    def masses(self) -> np.ndarray:
        return self.measure.masses

    def summary(self) -> dict:
        return {
            "dim": self.params.dim,
            "alpha": self.params.alpha,
            "log_kernel": self.params.is_log,
            "role": self.cloud.role,
            "n_nodes": self.cloud.n_nodes,
            "energy": self.energy,
            "capacity": self.capacity,
            "kkt_residual": self.kkt_residual,
            "active_fraction": self.active_fraction,
            "iterations": self.iterations,
            "component_masses": self.cloud.component_masses(self.masses),
        }


# ---------------------------------------------------------------------------
# simplex-constrained quadratic solver


def _kkt_residual(v: np.ndarray, m: np.ndarray, lam: float):
    active = m > 0.0
    on = float(np.max(np.abs(v[active] - lam))) if active.any() else np.inf
    off = float(np.max(lam - v[~active], initial=0.0))
    return max(on, off)


def _whole_cycles(active: np.ndarray, cycles: tuple[int, ...]) -> tuple[int, ...] | None:
    """The cycles a working set is the union of, or None if it cuts one or has none."""
    kept, start = [], 0
    for length in cycles:
        part = active[start : start + length]
        start += length
        if part.all():
            kept.append(length)
        elif part.any():
            return None
    return tuple(kept) or None


def _negative(x: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Orbits whose nodes' mass x / (sizes sum(x)) lies below -_NEG_TOL."""
    return x / sizes < -_NEG_TOL * x.sum()


# ---------------------------------------------------------------------------
# operations


def capacity_from_energy(energy: float, params: KernelParams) -> float:
    """Capacity for an equilibrium energy: 1/E, or exp(-E) in the log case."""
    if params.is_log:
        return float(np.exp(-energy))
    if energy <= 0.0:
        raise ValidationError("equilibrium energy must be positive below the log case")
    return 1.0 / energy


def equilibrium_measure(
    op: KernelOperator,
    tol: float = 1e-10,
    max_iter: int = 200,
    start_active: np.ndarray | None = None,
) -> EquilibriumResult:
    """Equilibrium measure of the cloud underlying an assembled operator.

    Minimizes m.T K m over the probability simplex by active sets.  The
    minimizer, being unique, is invariant under the cloud's reflection
    group, so the program is solved over orbit masses u with the
    operator's trivial-character block E: the same program, whose
    potentials E u are the node potentials.
    Each node of an orbit holds u / size, and the loop judges those node
    masses, so its decisions are those of the unreduced program.  Each
    working set runs the constrained solve (dropcap.linalg) on E[idx, idx]
    (KernelOperator.restricted), and its CG run is screened:
    if the iterate at CG_SCREEN_RTOL has node masses below -_NEG_TOL,
    the run stops and the set loses exactly those orbits.  A set that
    passes finishes the same recurrence, so the accepted set's masses
    and multiplier are bit-identical to an unscreened solve's.  On the
    collapsing alpha = 2 volume ball (2553 nodes, 410 orbits, five
    working sets) that takes 106 products with E instead of 253.  A
    working set that comes round again turns the screen off for the
    rest of the loop.  On a cloud that records cycles (a planar circle,
    polygon, annulus or union), a working set that is a union of whole cycles
    is preconditioned by linalg.curve_preconditioner over them, and any
    other runs without: the random polygons of convex_scan_2d take 18 to
    32 products per solve at n = 600 to 8000 instead of 130 to 453.

    Where K is not positive definite on a working set's zero-sum
    measures (volume clouds at alpha > 2, a thin polygon under the
    log kernel) the CG run steps through the negative curvature
    (dropcap.linalg); if it breaks down, diverges or stalls instead, the
    set loses the orbits negative at the run's last iterate, as a
    screened-out set does.

    The energy is the multiplier, the minimum value.  On nodes carrying
    mass the potential, the loop's own product E u, equals it to within
    kkt_residual; on bare nodes it is at least as large.  start_active
    selects the initial working set (all nodes by default; an orbit
    starts active if any of its nodes does); wrong guesses are repaired
    by the reactivation sweep, so any start converges to the same
    minimizer.  Raises NonConvergenceError if a failed run's last
    iterate has no negative orbit, or if max_iter working sets do not
    settle; it carries the last accepted iterate as node masses (uniform
    if none was) and its energy m.K m.  A tol that is not finite and
    positive raises ValidationError.
    """
    if not isinstance(op, KernelOperator):
        raise ValidationError("equilibrium_measure expects an assembled operator")
    tol = require_tol(tol)
    orbits = op.cloud.orbits
    sizes, n = orbits.sizes, len(orbits)
    if start_active is None:
        active = np.ones(n, dtype=bool)
    else:
        active = np.array(start_active, dtype=bool)
        if active.shape != (orbits.n_nodes,) or not active.any():
            raise ValidationError("start_active must flag at least one node")
        active = orbits.sums(active.astype(float)) > 0.0
    seen: set[bytes] = set()
    screening = True
    reason = "active-set iteration stalled"
    m = sizes / orbits.n_nodes
    for it in range(1, max_iter + 1):
        key = active.tobytes()
        if key in seen:
            screening = False  # a misjudged set came round again: solve in full
        seen.add(key)
        idx = np.flatnonzero(active)
        w = sizes[idx]
        product = op.restricted(idx)

        def keeps_every_node(x):
            return not _negative(x, w).any()

        screen = keeps_every_node if screening else None
        cycles = _whole_cycles(active, op.cloud.cycles)
        precondition = None if cycles is None else curve_preconditioner(cycles)
        try:
            m_act, lam = constrained_solve(product, np.zeros(len(idx)), 1.0, screen, precondition)
            neg = m_act / w < -_NEG_TOL
        except ScreenedOut as stop:
            neg = _negative(stop.x, w)
        except NonConvergenceError as err:
            neg = _negative(err.result[0], w)
            if not neg.any():
                reason = f"working set of {len(idx)} orbits: {err}"
                break
        if neg.any():
            active[idx[neg]] = False
            continue
        m = np.zeros(n)
        m[idx] = np.clip(m_act, 0.0, None)
        scale = max(abs(lam), 1.0)
        v = op.apply_block(0, m)
        gap = lam - v
        gap[active] = -np.inf
        viol = gap > tol * scale
        if not viol.any():
            masses = orbits.join(m / sizes)
            return EquilibriumResult(
                measure=Measure(cloud=op.cloud, masses=masses),
                params=op.params,
                energy=lam,
                capacity=capacity_from_energy(lam, op.params),
                potential_on_nodes=orbits.join(v),
                kkt_residual=_kkt_residual(v, m, lam),
                active_fraction=float(np.mean(masses > 0.0)),
                iterations=it,
            )
        active[viol] = True
    v = op.apply_block(0, m)
    lam = float(m @ v)
    resid = _kkt_residual(v, m, lam)
    raise NonConvergenceError(
        f"{reason}; best iterate at residual {resid:.3e}",
        result=(orbits.join(m / sizes), lam),
        residual=resid,
    )


def solve_shape(
    shape: shp.Shape,
    alpha: float,
    n_nodes: int = 2000,
    role: str | None = None,
) -> EquilibriumResult:
    """Discretize a shape, assemble its operator, and solve in one call.

    role defaults by the support dichotomy: volume clouds below order 2,
    boundary clouds from 2 up.  Either role is accepted for any
    admissible exponent; the minimizer decides where mass lives.
    """
    params = KernelParams(shape.dim, float(alpha))
    if role is None:
        role = default_role(params.alpha)
    cloud = discretize(shape, n_nodes, role)
    op = assemble_operator(cloud, params)
    return equilibrium_measure(op)


def _shape_center(shape: shp.Shape, cloud: NodeCloud) -> np.ndarray:
    """The shape's center, or the node mean for shapes without one."""
    center = getattr(shape, "center", None)
    if center is None:
        return cloud.points.mean(axis=0)
    return np.array(center, dtype=float)


def _directions(dim: int, count: int = 32) -> np.ndarray:
    if dim == 2:
        ang = 2.0 * np.pi * (np.arange(count) + 0.5) / count
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if dim == 3:
        from .clouds import _sphere_lattice

        return _sphere_lattice(count)
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((count, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _check_farfield_radii(radii, cloud: NodeCloud) -> list[float]:
    """The radii as floats, if farfield_check takes them for measures on cloud.

    They must be finite, increase strictly, and reach 100 times the
    cloud's characteristic radius, its largest node distance from the
    shape's center; otherwise ValidationError.  Nothing here needs a
    solve, so a caller can check before it assembles.
    """
    radii = [require_finite(r, "far-field radius") for r in radii]
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValidationError("radii must be strictly increasing")
    center = _shape_center(cloud.shape, cloud)
    char = float(np.linalg.norm(cloud.points - center, axis=1).max())
    if radii[-1] < 100.0 * char:
        raise ValidationError(
            f"largest radius {radii[-1]} must reach 100 x the characteristic "
            f"radius {char:.3g}"
        )
    return radii


def farfield_check(measure: Measure, params: KernelParams, radii) -> dict:
    """Monopole far-field decay of a nodal measure's potential.

    For each radius, the potential is averaged over a spread of
    directions and scaled by r^(dim - alpha); the scaled value tends to
    1 for a unit charge (for the logarithmic kernel, v + log r tends to
    0 instead).  Radii must be finite, increase, and reach 100 times the
    measure's characteristic radius (_check_farfield_radii).
    """
    cloud = measure.cloud
    radii = _check_farfield_radii(radii, cloud)
    center = _shape_center(cloud.shape, cloud)
    dirs = _directions(cloud.dim)
    rows = []
    for r in radii:
        v = potential_at(params, cloud, measure.masses, center + r * dirs)
        if params.is_log:
            scaled = float(np.mean(v) + np.log(r))
            target = 0.0
        else:
            scaled = float(np.mean(v) * r ** (cloud.dim - params.alpha))
            target = 1.0
        rows.append({"radius": r, "scaled_potential": scaled})
    return {
        "rows": rows,
        "target": target,
        "deviation": abs(rows[-1]["scaled_potential"] - target),
    }


def support_profile(result: EquilibriumResult, regions: int) -> list[dict]:
    """Equilibrium mass in each of regions equal-width radial shells.

    The shells are centered on the shape's center; the mass per labeled
    component is EquilibriumResult.summary()["component_masses"].
    """
    return [
        {"r_min": lo, "r_max": hi, "mass": float(result.masses[sel].sum())}
        for lo, hi, sel in _radial_shells(result.cloud, int(regions))
    ]


def _radial_shells(cloud: NodeCloud, n_bins: int):
    """Equal-width radial shells around the shape center: (r_min, r_max, node mask)."""
    if n_bins < 1:
        raise ValidationError("need at least one radial shell")
    r = np.linalg.norm(cloud.points - _shape_center(cloud.shape, cloud), axis=1)
    edges = np.linspace(0.0, float(r.max()) * (1.0 + 1e-12), n_bins + 1)
    return [(float(lo), float(hi), (r >= lo) & (r < hi)) for lo, hi in zip(edges, edges[1:])]


@dataclass(frozen=True)
class DropEnergy:
    """Perimeter plus charge interaction of a drop at fixed total charge."""

    perimeter: float
    charge: float
    equilibrium_energy: float
    interaction: float
    total: float
    capacity: float


def drop_energy(
    shape: shp.Shape,
    charge: float,
    alpha: float,
    n_nodes: int = 2000,
    role: str | None = None,
) -> DropEnergy:
    """Total drop energy: perimeter plus charge^2 times equilibrium energy."""
    charge = require_finite(charge, "charge")
    res = solve_shape(shape, alpha, n_nodes=n_nodes, role=role)
    per = shp.perimeter(shape)
    inter = charge**2 * res.energy
    return DropEnergy(
        perimeter=per,
        charge=charge,
        equilibrium_energy=res.energy,
        interaction=inter,
        total=per + inter,
        capacity=res.capacity,
    )
