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
and deactivating negative masses until complementarity holds.  Each is
one call of the constrained solve in dropcap.linalg, K x = lambda 1 with
sum(x) = 1: conjugate gradients for the Riesz kernels, reusing the full
operator's cached K^-1 1, and the bordered LU for the planar logarithmic
kernel or when CG fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import shapes as shp
from .clouds import NodeCloud, default_role, discretize
from .errors import NonConvergenceError, ValidationError
from .kernels import KernelParams
from .linalg import ScreenedOut, constrained_solve, symv
from .operators import KernelOperator, assemble_operator, potential_at

__all__ = [
    "Measure",
    "EquilibriumResult",
    "DropEnergy",
    "solve_simplex_qp",
    "equilibrium_measure",
    "solve_shape",
    "capacity_from_energy",
    "potential",
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


def _negative(x: np.ndarray) -> np.ndarray:
    """Nodes whose mass x / sum(x) lies below -_NEG_TOL."""
    return x < -_NEG_TOL * x.sum()


def _project_simplex(x: np.ndarray) -> np.ndarray:
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / (np.arange(len(x)) + 1.0) > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(x - theta, 0.0)


def _projected_gradient(K: np.ndarray, m0: np.ndarray, iters: int = 500):
    """Slow but robust polish used only if the active-set loop stalls."""
    m = _project_simplex(np.array(m0, dtype=float))
    f = float(m @ symv(K, m))
    step = 1.0 / max(np.linalg.norm(K, ord=np.inf), 1.0)
    for _ in range(iters):
        g = 2.0 * symv(K, m)
        s = step
        for _ in range(40):
            trial = _project_simplex(m - s * g)
            ft = float(trial @ symv(K, trial))
            if ft <= f:
                break
            s *= 0.5
        if ft >= f - 1e-16 * max(abs(f), 1.0):
            if ft < f:
                m = trial
            break
        m, f = trial, ft
    return m


def solve_simplex_qp(
    K: np.ndarray | KernelOperator,
    tol: float = 1e-10,
    max_iter: int = 200,
    start_active: np.ndarray | None = None,
):
    """Minimize m.T K m over the probability simplex by active sets.

    K is a symmetric matrix or an assembled operator, whose cached
    K^-1 1 then serves the steps with every node active.  A restricted
    working set runs conjugate gradients on a copy of K[idx, idx].  Each
    working set's CG run is screened (dropcap.linalg.cg_solve): if the
    iterate at |r| <= CG_SCREEN_RTOL |b| has masses below -_NEG_TOL, the
    run stops and the set loses exactly those nodes.  A set that passes
    finishes the same recurrence, so the accepted set's masses and
    multiplier are bit-identical to an unscreened solve's.  On the
    collapsing alpha = 2 volume ball (2553 nodes, five working sets)
    that takes 121 products with K instead of 327.  A screened-out full
    set caches no K^-1 1 on the operator.  A working set that comes
    round again turns the screen off for the rest of the loop; a loop
    that still cycles ends after max_iter in the projected-gradient
    polish.

    Returns (masses, multiplier, iterations, kkt_residual); the
    multiplier equals the minimum value.  start_active selects the
    initial working set (all nodes by default); wrong guesses are
    repaired by the reactivation sweep, so any start converges to the
    same minimizer.  Raises NonConvergenceError, carrying the best
    iterate, if the tolerance cannot be met.
    """
    if isinstance(K, KernelOperator):
        op, K = K, K.matrix
    else:
        op = None
        K = np.ascontiguousarray(K, dtype=float)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValidationError("operator must be a square matrix")
    n = K.shape[0]
    definite = op is None or not op.params.is_log

    def solve_on(idx, screen):
        """Masses and multiplier on the working set idx, in one solve."""
        if op is not None and len(idx) == n:
            return op.solve(np.zeros(n), 1.0, screen)
        A = K if len(idx) == n else K[np.ix_(idx, idx)]
        apply = (lambda v: symv(A, v)) if definite else None
        return constrained_solve(lambda: A, np.zeros(len(idx)), 1.0, apply, screen=screen)

    def keeps_every_node(x):
        return not _negative(x).any()

    if start_active is None:
        active = np.ones(n, dtype=bool)
    else:
        active = np.array(start_active, dtype=bool).copy()
        if active.shape != (n,) or not active.any():
            raise ValidationError("start_active must flag at least one node")
    seen: set[bytes] = set()
    screen = keeps_every_node
    m = np.full(n, 1.0 / n)
    for it in range(1, max_iter + 1):
        key = active.tobytes()
        if key in seen:
            screen = None  # a misjudged set came round again: solve in full
        seen.add(key)
        idx = np.flatnonzero(active)
        try:
            m_act, lam = solve_on(idx, screen)
            neg = m_act < -_NEG_TOL
        except ScreenedOut as stop:
            neg = _negative(stop.x)
        if neg.any():
            active[idx[neg]] = False
            if not active.any():
                break
            continue
        m = np.zeros(n)
        m[idx] = np.clip(m_act, 0.0, None)
        scale = max(abs(lam), 1.0)
        v = symv(K, m)
        gap = lam - v
        gap[active] = -np.inf
        viol = gap > tol * scale
        if not viol.any():
            resid = _kkt_residual(v, m, lam)
            total = m.sum()
            if abs(total - 1.0) > 1e-12:
                m = m / total
            return m, lam, it, resid
        active[viol] = True
    m = _projected_gradient(K, m)
    v = symv(K, m)
    lam = float(m @ v)
    resid = _kkt_residual(v, m, lam)
    if resid <= tol * max(abs(lam), 1.0):
        return m, lam, max_iter, resid
    raise NonConvergenceError(
        f"active-set iteration stalled at residual {resid:.3e}",
        result=(m, lam),
        residual=resid,
    )


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

    On nodes carrying mass the potential equals the energy to within
    kkt_residual; on bare nodes it is at least as large.  If the solver
    cannot reach the tolerance it raises NonConvergenceError with the
    best iterate attached.
    """
    if not isinstance(op, KernelOperator):
        raise ValidationError("equilibrium_measure expects an assembled operator")
    masses, lam, iters, resid = solve_simplex_qp(
        op, tol=tol, max_iter=max_iter, start_active=start_active
    )
    v = op.apply(masses)
    return EquilibriumResult(
        measure=Measure(cloud=op.cloud, masses=masses),
        params=op.params,
        energy=lam,
        capacity=capacity_from_energy(lam, op.params),
        potential_on_nodes=v,
        kkt_residual=resid,
        active_fraction=float(np.mean(masses > 0.0)),
        iterations=iters,
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
    params = KernelParams(shp.dim_of(shape), float(alpha))
    if role is None:
        role = default_role(params.alpha)
    cloud = discretize(shape, n_nodes, role)
    op = assemble_operator(cloud, params)
    return equilibrium_measure(op)


def potential(measure: Measure, params: KernelParams, points) -> np.ndarray:
    """Potential of a nodal measure at the given points.

    Points that coincide with nodes pick up the desingularized self term.
    """
    return potential_at(params, measure.cloud, measure.masses, points)


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


def farfield_check(measure: Measure, params: KernelParams, radii) -> dict:
    """Monopole far-field decay of a nodal measure's potential.

    For each radius, the potential is averaged over a spread of
    directions and scaled by r^(dim - alpha); the scaled value tends to
    1 for a unit charge (for the logarithmic kernel, v + log r tends to
    0 instead).  Radii must increase and reach 100 times the measure's
    characteristic radius.
    """
    radii = [float(r) for r in radii]
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValidationError("radii must be strictly increasing")
    cloud = measure.cloud
    center = _shape_center(cloud.shape, cloud)
    char = float(np.linalg.norm(cloud.points - center, axis=1).max())
    if radii[-1] < 100.0 * char:
        raise ValidationError(
            f"largest radius {radii[-1]} must reach 100 x the characteristic "
            f"radius {char:.3g}"
        )
    dirs = _directions(cloud.dim)
    rows = []
    for r in radii:
        v = potential(measure, params, center + r * dirs)
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


def support_profile(result: EquilibriumResult, regions="components"):
    """Distribution of equilibrium mass over regions of the shape.

    regions="components" sums mass per labeled component (inner/outer
    sphere, ball index, face).  An integer asks instead for that many
    equal-width radial shells around the shape center.
    """
    if regions == "components":
        return result.cloud.component_masses(result.masses)
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
    res = solve_shape(shape, alpha, n_nodes=n_nodes, role=role)
    per = shp.perimeter(shape)
    inter = float(charge) ** 2 * res.energy
    return DropEnergy(
        perimeter=per,
        charge=float(charge),
        equilibrium_energy=res.energy,
        interaction=inter,
        total=per + inter,
        capacity=res.capacity,
    )
