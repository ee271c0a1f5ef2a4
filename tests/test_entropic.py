"""Entropic density relaxation on volume clouds."""

import numpy as np
import pytest

import dropcap as dc
from dropcap.errors import UnsupportedConfigurationError, ValidationError

import oracles


BALL3 = dc.Ball((0.0, 0.0, 0.0), 1.0)


def test_closed_form_agrees_with_bvp_oracle():
    for R in (1.0, 1.5, 2.0):
        assert dc.entropic_ball_value(R) == pytest.approx(
            oracles.entropic_ball_bvp(R), abs=1e-8
        )
        assert dc.entropic_ball_value(R) == pytest.approx(
            oracles.entropic_ball_closed_form(R), rel=1e-14
        )


def test_unit_ball_value(ball_volume_entropic_2000):
    res = ball_volume_entropic_2000
    assert res.J_value == pytest.approx(oracles.entropic_ball_bvp(1.0), rel=0.02)
    assert res.el_residual <= 1e-8
    assert res.multiplier == pytest.approx(2.0 * res.J_value, rel=1e-12)
    assert res.masses.sum() == pytest.approx(1.0, rel=1e-10)


def test_value_decreases_with_radius():
    vals = []
    for R in (1.0, 1.5, 2.0):
        cloud = dc.discretize(dc.Ball((0.0, 0.0, 0.0), R), 1200, "volume")
        res = dc.solve_entropic(cloud)
        assert res.J_value == pytest.approx(dc.entropic_ball_value(R), rel=0.02)
        vals.append(res.J_value)
    assert vals[0] > vals[1] > vals[2]


def test_minimum_beats_uniform_density(ball_volume_entropic_2000):
    res = ball_volume_entropic_2000
    cloud = res.cloud
    K = oracles.full_kernel_matrix(cloud, dc.KernelParams(3, 2.0))
    V = dc.volume(BALL3)
    u = cloud.weights / cloud.weights.sum()
    uniform_value = (u @ K @ u) / (4.0 * np.pi) + 1.0 / V
    assert res.J_value <= uniform_value + 1e-12


def test_lower_bound_by_capacity_energy(ball_volume_entropic_2000):
    eq = dc.solve_shape(BALL3, 2.0, n_nodes=800)
    bound = eq.energy / (4.0 * np.pi)
    assert ball_volume_entropic_2000.J_value >= bound * 0.98


def test_density_grows_toward_the_boundary(ball_volume_entropic_2000):
    prof = dc.radial_density_profile(ball_volume_entropic_2000, n_bins=6)
    means = [row["mean_density"] for row in prof if row["mass"] > 0]
    assert means[0] < means[-1]
    assert sum(row["mass"] for row in prof) == pytest.approx(1.0, rel=1e-10)


def test_radial_shells_agree_with_the_equilibrium_support_profile():
    # both profiles bin around the shape center, the origin for a radial graph
    shape = dc.NearlySpherical(modes=((2, 1, 1.0), (3, 0, 0.5)), eps=0.15)
    cloud = dc.discretize(shape, 600, "volume")
    eq = dc.equilibrium_measure(dc.assemble_operator(cloud, dc.KernelParams(3, 1.5)))
    density = dc.radial_density_profile(dc.solve_entropic(cloud), n_bins=5)
    support = dc.support_profile(eq, regions=5)
    edges = [(row["r_min"], row["r_max"]) for row in density]
    assert edges == [(row["r_min"], row["r_max"]) for row in support]
    rmax = float(np.linalg.norm(cloud.points, axis=1).max())
    assert edges[-1][1] == pytest.approx(rmax, rel=1e-11)
    assert sum(row["mass"] for row in density) == pytest.approx(1.0, rel=1e-10)


def test_role_and_dimension_guards():
    bcloud = dc.discretize(BALL3, 200, "boundary")
    with pytest.raises(ValidationError):
        dc.solve_entropic(bcloud)
    disk = dc.discretize(dc.Ball((0.0, 0.0), 1.0), 200, "volume")
    with pytest.raises(UnsupportedConfigurationError):
        dc.solve_entropic(disk)


@pytest.mark.parametrize("charge", [np.nan, np.inf])
def test_entropic_energy_rejects_a_nonfinite_charge(charge):
    with pytest.raises(ValidationError, match="charge must be finite"):
        dc.entropic_energy(BALL3, charge, n_nodes=100)


def test_entropic_energy_combines_terms():
    out = dc.entropic_energy(BALL3, 2.0, n_nodes=800)
    assert out.total == pytest.approx(out.perimeter + 4.0 * out.J_value, rel=1e-14)
    assert out.perimeter == pytest.approx(4.0 * np.pi, rel=1e-14)
