"""Induced charge on a neutral conductor in an external field.

The conductor carries zero net charge; the field rearranges charge until

    F(nu) = I(nu, nu) + integral of phi d nu

is minimal over signed measures of zero total mass, phi being the
external potential.  Discretely this is the problem of the existence
proof: K w = -phi/2 + lambda 1 with sum(w) = 0, the multiplier lambda
holding the net charge at zero.  KernelOperator.solve runs it with
rhs -phi/2, split into the parts of the cloud's sign characters: the
trivial part takes projected conjugate gradients on the block E, from
w = 0 within the zero-sum measures, and every other nonzero part one
conjugate-gradient run on its own block (dropcap.operators).  On a
cloud symmetric about the origin a linear phi has no trivial part, so
the constrained solve does no product.  Under a point mirror phi is
odd, one run on (A - B)/2; under the three coordinate reflections of a
volume grid or box faces each axis of phi is its own character, three
runs on blocks of about n/8 orbits.  A CG run that breaks down,
diverges or stalls raises NonConvergenceError carrying the nodal w and
lambda reached.
At the optimum the stationarity relation 2 v + phi = 2 lambda holds at
every node, and for any zero-sum competitor nu the exact identity
F(nu) - F(mu) = I(nu - mu) >= 0 certifies minimality.  Only the
Coulombic exponent alpha = 2 is supported, in dimension at least 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import shapes as shp
from .clouds import NodeCloud, discretize
from .errors import (
    ConstraintViolationError,
    UnsupportedConfigurationError,
    ValidationError,
    require_seed,
)
from .kernels import KernelParams
from .operators import KernelOperator, assemble_operator

__all__ = [
    "LinearPotential",
    "SignedMeasure",
    "FieldResult",
    "solve_external",
    "induced_charge",
    "field_energy",
    "verify_optimality",
]

# verify_optimality draws and multiplies its competitors in blocks of this
# many rows, so memory stays bounded for any number of trials
_AUDIT_BLOCK = 256


@dataclass(frozen=True)
class LinearPotential:
    """Uniform field E, entering through the potential phi(x) = -E . x."""

    field: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "field", tuple(float(v) for v in self.field))
        if len(self.field) < 2:
            raise ValidationError("field vector must have dimension >= 2")
        if not all(np.isfinite(self.field)):
            raise ValidationError(f"field components must be finite, got {self.field}")

    @property
    def dim(self) -> int:
        return len(self.field)

    def potential_values(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValidationError("points do not match the field dimension")
        return -(pts @ np.array(self.field))


def _potential_of(field, points) -> np.ndarray:
    """Nodal values of a LinearPotential or a custom smooth callable."""
    if hasattr(field, "potential_values"):
        vals = field.potential_values(points)
    else:
        vals = field(np.asarray(points, dtype=float))
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (len(points),):
        raise ValidationError("potential must return one value per point")
    return vals


@dataclass(frozen=True, eq=False)
class SignedMeasure:
    """Nodal masses of unconstrained sign summing to zero."""

    cloud: NodeCloud
    masses: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.masses, dtype=float))
        if m.shape != (self.cloud.n_nodes,):
            raise ValidationError("need one mass per node")
        if abs(m.sum()) > 1e-12 * max(1.0, np.abs(m).sum()):
            raise ConstraintViolationError(
                f"signed measure must have zero total mass, got {m.sum():.3g}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)


@dataclass(frozen=True, eq=False)
class FieldResult:
    """Zero-net-charge energy minimizer on a conductor in a field."""

    measure: SignedMeasure
    lam: float
    F_value: float
    interaction: float
    external: float
    el_residual: float

    @property
    def cloud(self) -> NodeCloud:
        return self.measure.cloud

    @property
    def masses(self) -> np.ndarray:
        return self.measure.masses

    @property
    def dipole_moment(self) -> np.ndarray:
        return self.masses @ self.cloud.points

    def summary(self) -> dict:
        return {
            "n_nodes": self.cloud.n_nodes,
            "lambda": self.lam,
            "F_value": self.F_value,
            "interaction": self.interaction,
            "external": self.external,
            "el_residual": self.el_residual,
            "net_charge": float(self.masses.sum()),
            "positive_charge": float(self.masses[self.masses > 0].sum()),
            "dipole_moment": [float(c) for c in self.dipole_moment],
        }


def solve_external(op: KernelOperator, field) -> FieldResult:
    """Minimize I(w) + phi.w over zero-sum nodal measures.

    One constrained solve, K w = -phi/2 + lambda 1 with sum(w) = 0
    (KernelOperator.solve).  field is a LinearPotential or a callable
    mapping points to potential values.
    """
    # the dimension first: in 2d, alpha = 2 is the log kernel
    if op.params.dim < 3:
        raise UnsupportedConfigurationError(
            "the external-field problem is posed in dimension >= 3"
        )
    if op.params.alpha != 2.0:
        raise UnsupportedConfigurationError(
            "the external-field problem is Coulombic: alpha must equal 2"
        )
    phi = _potential_of(field, op.cloud.points)
    w, lam = op.solve(-0.5 * phi)
    w = w - w.sum() / len(w)
    v = op.apply(w)
    el = float(np.max(np.abs(2.0 * v + phi - 2.0 * lam)))
    interaction = float(w @ v)
    external = float(phi @ w)
    return FieldResult(
        measure=SignedMeasure(cloud=op.cloud, masses=w),
        lam=lam,
        F_value=interaction + external,
        interaction=interaction,
        external=external,
        el_residual=el,
    )


def induced_charge(
    shape: shp.Shape,
    field,
    n_nodes: int = 2000,
    role: str = "boundary",
) -> FieldResult:
    """Discretize a conductor and solve the external-field problem on it."""
    params = KernelParams(shape.dim, 2.0)
    cloud = discretize(shape, n_nodes, role)
    op = assemble_operator(cloud, params)
    return solve_external(op, field)


def _require_same_cloud(cloud: NodeCloud, op: KernelOperator) -> None:
    if cloud is not op.cloud and not np.array_equal(cloud.points, op.cloud.points):
        raise ValidationError("measure and operator live on different clouds")


def field_energy(measure: SignedMeasure, op: KernelOperator, field) -> float:
    """Total energy I(w) + phi.w of a zero-sum nodal measure."""
    _require_same_cloud(measure.cloud, op)
    w = measure.masses
    phi = _potential_of(field, measure.cloud.points)
    return op.energy(w) + float(phi @ w)


def verify_optimality(
    result: FieldResult,
    op: KernelOperator,
    field,
    trials: int = 100,
    seed: int = 0,
) -> dict:
    """Audit minimality through the exact identity F(nu) - F(mu) = I(nu - mu).

    Random zero-sum competitors are drawn around the solution; the report
    carries the worst relative violation of the identity and the worst
    (most negative) energy gap, which must be nonnegative.  Each block of
    up to _AUDIT_BLOCK competitors takes one product with the operator.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    _require_same_cloud(result.cloud, op)
    trials = int(trials)
    rng = np.random.default_rng(require_seed(seed))
    w = result.masses
    scale = float(np.abs(w).max()) or 1.0
    phi = _potential_of(field, result.cloud.points)
    worst_identity = 0.0
    worst_gap = np.inf
    for start in range(0, trials, _AUDIT_BLOCK):
        # the steps d, one per row, and then w: K times every row at once
        X = np.empty((min(_AUDIT_BLOCK, trials - start) + 1, op.n_nodes))
        D = X[:-1]
        rng.standard_normal(out=D)
        D *= scale
        D -= D.mean(axis=1, keepdims=True)
        X[-1] = w
        KX = op.apply(X)
        KD, Kw = KX[:-1], KX[-1]
        nu = D + w
        F = np.einsum("ij,ij->i", nu, KD + Kw) + np.einsum("ij,j->i", nu, phi)
        lhs = F - result.F_value
        rhs = np.einsum("ij,ij->i", D, KD)
        denom = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-30)
        worst_identity = max(worst_identity, float(np.max(np.abs(lhs - rhs) / denom)))
        worst_gap = min(worst_gap, float(lhs.min()))
    return {
        "trials": trials,
        "max_identity_violation": worst_identity,
        "min_energy_gap": worst_gap,
    }
