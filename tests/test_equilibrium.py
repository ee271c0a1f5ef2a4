"""Equilibrium measures: oracles, KKT structure, support, far field."""

import numpy as np
import pytest

import dropcap as dc
from dropcap.errors import NonConvergenceError, ValidationError

import oracles


BALL3 = dc.Ball((0.0, 0.0, 0.0), 1.0)
COULOMB = dc.KernelParams(3, 2.0)


def test_two_node_system_solved_exactly(stand_in_operator):
    K = np.array([[1.0, 0.0], [0.0, 2.0]])
    res = dc.equilibrium_measure(stand_in_operator(K))
    np.testing.assert_allclose(res.masses, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)
    assert res.energy == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert res.kkt_residual < 1e-12


def test_active_set_drops_dominated_node(stand_in_operator):
    # node 2 is so expensive the optimum ignores it
    K = np.array([[1.0, 0.0, 5.0], [0.0, 2.0, 5.0], [5.0, 5.0, 50.0]])
    m = dc.equilibrium_measure(stand_in_operator(K)).masses
    assert m[2] == 0.0
    np.testing.assert_allclose(m[:2], [2.0 / 3.0, 1.0 / 3.0], rtol=1e-10)


def test_singular_system_returns_the_uniform_start(stand_in_operator):
    # -11' is zero on zero-sum vectors, so the feasible start 1/n is the
    # answer and projected CG takes no step
    res = dc.equilibrium_measure(stand_in_operator(-np.ones((2, 2))))
    np.testing.assert_allclose(res.masses, [0.5, 0.5], rtol=1e-12)
    assert res.energy == pytest.approx(-1.0, rel=1e-12)
    assert res.kkt_residual < 1e-12


def test_ball_energy_matches_newton(ball_eq_2000):
    assert ball_eq_2000.energy == pytest.approx(oracles.newton_ball_energy(1.0), rel=0.01)
    assert ball_eq_2000.capacity == pytest.approx(1.0, rel=0.01)
    assert ball_eq_2000.kkt_residual < 1e-10
    # sphere equilibrium is uniform, so every node stays active
    assert ball_eq_2000.active_fraction == 1.0


def test_capacity_scaling_is_exact_on_scaled_lattices():
    r1 = dc.solve_shape(BALL3, 2.0, n_nodes=500)
    r2 = dc.solve_shape(dc.Ball((0.0, 0.0, 0.0), 2.0), 2.0, n_nodes=500)
    assert r2.capacity / r1.capacity == pytest.approx(2.0, rel=1e-10)


def test_log_disk_capacity_equals_radius():
    for R in (0.5, 1.0, 2.0):
        res = dc.solve_shape(dc.Ball((0.0, 0.0), R), 2.0, n_nodes=600)
        assert res.energy == pytest.approx(oracles.circle_log_energy(R), abs=0.01)
        assert res.capacity == pytest.approx(R, rel=0.02)


def test_uniqueness_across_active_set_starts(rng):
    shape = dc.Annulus((0.0, 0.0, 0.0), 0.6, 1.0)
    cloud = dc.discretize(shape, 600, "boundary")
    op = dc.assemble_operator(cloud, COULOMB)
    a = dc.equilibrium_measure(op)
    start = rng.random(cloud.n_nodes) < 0.5
    start[0] = True
    b = dc.equilibrium_measure(op, start_active=start)
    assert np.max(np.abs(a.masses - b.masses)) < 1e-8
    assert abs(a.energy - b.energy) < 1e-6


def test_capacity_monotone_under_inclusion():
    small = dc.solve_shape(BALL3, 2.0, n_nodes=500)
    big = dc.solve_shape(dc.Ball((0.0, 0.0, 0.0), 1.3), 2.0, n_nodes=500)
    assert small.capacity < big.capacity
    # annulus boundary contains the unit sphere, where all mass ends up;
    # compare against a ball lattice with the annulus's outer node count
    ann = dc.solve_shape(dc.Annulus((0.0, 0.0, 0.0), 0.5, 1.0), 2.0, n_nodes=500)
    n_outer = int((ann.measure.cloud.components == 1).sum())
    ball = dc.solve_shape(BALL3, 2.0, n_nodes=n_outer)
    assert ann.capacity == pytest.approx(ball.capacity, rel=1e-6)


def test_annulus_mass_escapes_inner_sphere():
    res = dc.solve_shape(dc.Annulus((0.0, 0.0, 0.0), 0.5, 1.0), 2.0, n_nodes=1000)
    split = res.measure.cloud.component_masses(res.masses)
    assert split["inner"] <= 1e-3
    assert split["outer"] == pytest.approx(1.0, abs=1e-3)


def test_volume_run_alpha_below_two_spreads_everywhere():
    res = dc.solve_shape(BALL3, 1.5, n_nodes=1200)
    assert res.measure.cloud.role == "volume"
    r = np.linalg.norm(res.cloud.points, axis=1)
    for k in range(10):
        shell = (r >= k / 10.0) & (r < (k + 1) / 10.0)
        assert res.masses[shell].sum() > 0.0, f"decile {k} empty"


def test_volume_run_alpha_two_collapses_to_boundary():
    res = dc.solve_shape(BALL3, 2.0, n_nodes=1200, role="volume")
    r = np.linalg.norm(res.cloud.points, axis=1)
    assert res.masses[r < 0.8].sum() <= 0.01


def test_stalled_active_set_raises_with_a_feasible_best_iterate():
    # two active-set steps do not settle the collapsing alpha = 2 volume
    # ball, so the solve gives up with the last accepted iterate
    cloud = dc.discretize(BALL3, 800, "volume")
    op = dc.assemble_operator(cloud, COULOMB)
    tol = 1e-10
    with pytest.raises(NonConvergenceError) as exc:
        dc.equilibrium_measure(op, tol=tol, max_iter=2)
    masses, lam = exc.value.result
    assert masses.shape == (cloud.n_nodes,) and masses.min() >= 0.0
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert lam == pytest.approx(masses @ op.apply(masses), rel=1e-12)
    assert exc.value.residual > tol * max(abs(lam), 1.0)


def test_potential_on_and_off_support(ball_eq_2000):
    # on the support the potential sits at the energy level
    v_nodes = ball_eq_2000.potential_on_nodes
    assert np.max(np.abs(v_nodes - ball_eq_2000.energy)) < 1e-9
    # strictly inside, the potential of the sphere is the constant 1/R
    # (the center value is exact: every node sits at distance R)
    inside = dc.potential_at(
        COULOMB, ball_eq_2000.cloud, ball_eq_2000.masses, [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]
    )
    np.testing.assert_allclose(inside, 1.0, rtol=1e-3)
    # far away it decays like 1/r
    far = dc.potential_at(COULOMB, ball_eq_2000.cloud, ball_eq_2000.masses, [[50.0, 0.0, 0.0]])
    assert far[0] == pytest.approx(1.0 / 50.0, rel=1e-3)


def test_farfield_check_normalizes_to_one(ball_eq_2000):
    out = dc.farfield_check(ball_eq_2000.measure, COULOMB, [100.0, 200.0, 400.0])
    assert out["target"] == 1.0
    for row in out["rows"]:
        assert row["scaled_potential"] == pytest.approx(1.0, abs=1e-3)


def test_equilibrium_measure_rejects_bad_arguments(ball_op_2000):
    with pytest.raises(ValidationError, match="assembled operator"):
        dc.equilibrium_measure(ball_op_2000.even)
    n = ball_op_2000.n_nodes
    for start in (np.zeros(n, dtype=bool), np.ones(n - 1, dtype=bool)):
        with pytest.raises(ValidationError, match="start_active"):
            dc.equilibrium_measure(ball_op_2000, start_active=start)


def test_farfield_log_case():
    res = dc.solve_shape(dc.Ball((0.0, 0.0), 1.0), 2.0, n_nodes=400)
    out = dc.farfield_check(res.measure, dc.KernelParams(2, 2.0), [100.0, 400.0])
    assert out["target"] == 0.0
    assert out["deviation"] <= 1e-2


def test_farfield_radius_preconditions(ball_eq_2000):
    with pytest.raises(ValidationError):
        dc.farfield_check(ball_eq_2000.measure, COULOMB, [400.0, 100.0])
    with pytest.raises(ValidationError):
        dc.farfield_check(ball_eq_2000.measure, COULOMB, [5.0, 10.0])


def test_support_profile_shells_sum_to_one(ball_eq_2000):
    shells = dc.support_profile(ball_eq_2000, regions=8)
    assert sum(s["mass"] for s in shells) == pytest.approx(1.0, abs=1e-12)
    assert shells[-1]["mass"] == pytest.approx(1.0, abs=1e-12)


def test_measure_validation(ball_cloud_2000):
    n = ball_cloud_2000.n_nodes
    with pytest.raises(ValidationError):
        dc.Measure(ball_cloud_2000, np.full(n, 2.0 / n))
    bad = np.full(n, 1.0 / n)
    bad[0] = -0.5
    bad[1] += 0.5 + 1.0 / n
    with pytest.raises(ValidationError):
        dc.Measure(ball_cloud_2000, bad)


def test_clipped_masses_pass_their_own_validation():
    # masses down to -1e-12 are accepted and clipped to zero; the stored
    # masses must then still sum to 1, so a measure rebuilds from them
    cloud = dc.discretize(BALL3, 200, "boundary")
    m = np.full(cloud.n_nodes, -1e-12)
    m[::2] = (1.0 + 1e-12 * (cloud.n_nodes // 2)) / (cloud.n_nodes // 2)
    first = dc.Measure(cloud, m)
    assert first.masses.min() == 0.0
    assert first.masses.sum() == pytest.approx(1.0, abs=1e-14)
    again = dc.Measure(cloud, first.masses)
    np.testing.assert_array_equal(again.masses, first.masses)


def test_nonnegative_masses_are_stored_unchanged(ball_cloud_2000):
    m = np.random.default_rng(3).random(ball_cloud_2000.n_nodes)
    m /= m.sum()
    stored = dc.Measure(ball_cloud_2000, m).masses
    np.testing.assert_array_equal(stored, m)
    assert not np.shares_memory(stored, m) and m.flags.writeable


def test_drop_energy_combines_terms():
    out = dc.drop_energy(BALL3, 2.0, 2.0, n_nodes=500)
    assert out.total == pytest.approx(out.perimeter + 4.0 * out.equilibrium_energy, rel=1e-14)
    assert out.perimeter == pytest.approx(4.0 * np.pi, rel=1e-14)
    assert out.interaction == pytest.approx(4.0 * out.equilibrium_energy, rel=1e-14)


def test_capacity_from_energy_branches():
    assert dc.capacity_from_energy(2.0, COULOMB) == pytest.approx(0.5)
    assert dc.capacity_from_energy(-np.log(2.0), dc.KernelParams(2, 2.0)) == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        dc.capacity_from_energy(-1.0, COULOMB)
