"""Zero-net-charge measures in a linear external field."""

import numpy as np
import pytest

import dropcap as dc
from dropcap.errors import (
    ConstraintViolationError,
    UnsupportedConfigurationError,
    ValidationError,
)

import oracles


BALL3 = dc.Ball((0.0, 0.0, 0.0), 1.0)
COULOMB = dc.KernelParams(3, 2.0)
E1 = dc.LinearPotential((1.0, 0.0, 0.0))


class _Shifted:
    """phi + c, for the multiplier-shift invariant."""

    def __init__(self, base, c):
        self.base = base
        self.c = c

    def potential_values(self, points):
        return self.base.potential_values(points) + self.c


def test_conducting_sphere_oracle(sphere_field_2000):
    res = sphere_field_2000
    assert abs(res.lam) <= 1e-6
    assert res.F_value == pytest.approx(oracles.sphere_field_value(1.0), rel=0.02)
    assert res.el_residual < 1e-10
    np.testing.assert_allclose(res.dipole_moment, [0.5, 0.0, 0.0], atol=1e-2)


def test_net_charge_is_zero(sphere_field_2000):
    assert abs(sphere_field_2000.measure.masses.sum()) < 1e-12


def test_density_follows_cosine(ball_cloud_2000, sphere_field_2000):
    areas = dc.voronoi_patch_areas(ball_cloud_2000)
    rho = sphere_field_2000.measure.masses / areas
    cos_theta = ball_cloud_2000.points[:, 0]
    target = oracles.sphere_field_density(1.0, cos_theta)
    misfit = np.sum(np.abs(rho - target) * areas) / np.sum(np.abs(target) * areas)
    assert misfit <= 0.02


def test_solution_is_linear_in_the_field(ball_op_2000, sphere_field_2000):
    res3 = dc.solve_external(ball_op_2000, dc.LinearPotential((3.0, 0.0, 0.0)))
    np.testing.assert_allclose(
        res3.measure.masses, 3.0 * sphere_field_2000.measure.masses, atol=1e-10
    )
    assert res3.F_value == pytest.approx(9.0 * sphere_field_2000.F_value, rel=1e-10)


def test_constant_shift_moves_multiplier_only(ball_op_2000, sphere_field_2000):
    shifted = _Shifted(E1, 0.7)
    res = dc.solve_external(ball_op_2000, shifted)
    np.testing.assert_allclose(
        res.measure.masses, sphere_field_2000.measure.masses, atol=1e-10
    )
    assert res.lam - sphere_field_2000.lam == pytest.approx(0.35, abs=1e-10)
    assert res.F_value == pytest.approx(sphere_field_2000.F_value, abs=1e-10)


def test_translation_leaves_the_solution_unchanged():
    a = dc.induced_charge(BALL3, E1, n_nodes=400)
    b = dc.induced_charge(dc.Ball((5.0, -2.0, 1.0), 1.0), E1, n_nodes=400)
    np.testing.assert_allclose(a.measure.masses, b.measure.masses, atol=1e-12)
    assert a.F_value == pytest.approx(b.F_value, rel=1e-12)
    np.testing.assert_allclose(a.dipole_moment, b.dipole_moment, atol=1e-12)


def test_zero_field_gives_zero_measure(ball_op_2000):
    res = dc.solve_external(ball_op_2000, dc.LinearPotential((0.0, 0.0, 0.0)))
    assert np.max(np.abs(res.measure.masses)) < 1e-14
    assert res.F_value == pytest.approx(0.0, abs=1e-14)


def test_optimality_identity(ball_op_2000, sphere_field_2000):
    out = dc.verify_optimality(sphere_field_2000, ball_op_2000, E1, trials=100, seed=3)
    assert out["trials"] == 100
    assert out["max_identity_violation"] <= 1e-8
    assert out["min_energy_gap"] >= 0.0


def _per_competitor_audit(result, op, field, trials, seed):
    """The audit one competitor at a time: the reference for the batched one."""
    rng = np.random.default_rng(seed)
    w = result.masses
    scale = float(np.abs(w).max())
    identity, gap = 0.0, np.inf
    for _ in range(trials):
        d = rng.standard_normal(op.n_nodes) * scale
        d -= d.mean()
        nu = dc.SignedMeasure(result.cloud, w + d)
        lhs = dc.field_energy(nu, op, field) - result.F_value
        rhs = op.energy(d)
        identity = max(identity, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        gap = min(gap, lhs)
    return identity, gap


def test_batched_audit_matches_one_competitor_at_a_time():
    op = dc.assemble_operator(dc.discretize(BALL3, 200, "boundary"), COULOMB)
    field = dc.LinearPotential((0.3, -1.0, 0.5))
    res = dc.solve_external(op, field)
    # 300 competitors take two blocks
    out = dc.verify_optimality(res, op, field, trials=300, seed=5)
    identity, gap = _per_competitor_audit(res, op, field, 300, 5)
    assert out["trials"] == 300
    assert out["min_energy_gap"] == pytest.approx(gap, rel=1e-12)
    assert out["max_identity_violation"] <= 1e-12
    assert identity <= 1e-12
    other = dc.discretize(dc.Ball((0.0, 0.0, 0.0), 2.0), 200, "boundary")
    res_other = dc.solve_external(dc.assemble_operator(other, COULOMB), field)
    with pytest.raises(ValidationError):
        dc.verify_optimality(res_other, op, field)


def test_field_energy_consistency(ball_op_2000, sphere_field_2000):
    F = dc.field_energy(sphere_field_2000.measure, ball_op_2000, E1)
    assert F == pytest.approx(sphere_field_2000.F_value, rel=1e-12)


def test_field_energy_rejects_a_measure_from_another_cloud(ball_op_2000):
    other = dc.discretize(dc.Ball((0.0, 0.0, 0.0), 2.0), 2000, "boundary")
    assert other.n_nodes == ball_op_2000.n_nodes
    w = np.zeros(other.n_nodes)
    w[:2] = (1.0, -1.0)
    with pytest.raises(ValidationError):
        dc.field_energy(dc.SignedMeasure(other, w), ball_op_2000, E1)
    # the same points under another cloud object are accepted
    same = dc.discretize(BALL3, 2000, "boundary")
    assert same is not ball_op_2000.cloud
    F = dc.field_energy(dc.SignedMeasure(same, w), ball_op_2000, E1)
    assert F == pytest.approx(ball_op_2000.energy(w) + E1.potential_values(same.points) @ w)


def test_signed_measure_must_balance(ball_cloud_2000):
    n = ball_cloud_2000.n_nodes
    with pytest.raises(ConstraintViolationError):
        dc.SignedMeasure(ball_cloud_2000, np.full(n, 1.0 / n))


def test_dimension_and_kernel_guards():
    disk_cloud = dc.discretize(dc.Ball((0.0, 0.0), 1.0), 100, "boundary")
    op2 = dc.assemble_operator(disk_cloud, dc.KernelParams(2, 2.0))
    with pytest.raises(UnsupportedConfigurationError):
        dc.solve_external(op2, dc.LinearPotential((1.0, 0.0)))
    vol_cloud = dc.discretize(BALL3, 300, "volume")
    op15 = dc.assemble_operator(vol_cloud, dc.KernelParams(3, 1.5))
    with pytest.raises(UnsupportedConfigurationError):
        dc.solve_external(op15, E1)


def test_linear_potential_validation():
    with pytest.raises(ValidationError):
        dc.LinearPotential((1.0,))
    vals = E1.potential_values(np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    np.testing.assert_allclose(vals, [-2.0, 0.0])
