"""Kernel conventions and closed-form self-energies."""

import numpy as np
import pytest

from dropcap.errors import ValidationError
from dropcap.kernels import (
    KernelParams,
    kernel_of_distance,
    uniform_ball_self_energy,
    unit_ball_volume,
    unit_cube_self_energy,
    unit_sphere_area,
)

import oracles


def test_kernel_of_distance_power_branch():
    p = KernelParams(3, 1.5)
    d = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(kernel_of_distance(p, d), d ** (1.5 - 3.0))
    assert not p.is_log


def test_kernel_of_distance_log_branch():
    p = KernelParams(2, 2.0)
    d = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(kernel_of_distance(p, d), -np.log(d))
    assert p.is_log


def test_params_validation():
    with pytest.raises(ValidationError):
        KernelParams(3, 0.0)
    with pytest.raises(ValidationError):
        KernelParams(3, 3.5)
    with pytest.raises(ValidationError):
        KernelParams(1, 1.0)


def test_pde_constant_coulomb():
    assert KernelParams(3, 2.0).pde_constant == pytest.approx(4.0 * np.pi, rel=1e-14)


def test_geometry_constants():
    assert unit_sphere_area(3) == pytest.approx(4.0 * np.pi, rel=1e-14)
    assert unit_sphere_area(2) == pytest.approx(2.0 * np.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0, rel=1e-14)
    assert unit_ball_volume(2) == pytest.approx(np.pi, rel=1e-14)
    assert unit_ball_volume(4) == pytest.approx(np.pi**2 / 2.0, rel=1e-14)


def test_uniform_ball_self_energy_against_distance_density():
    assert uniform_ball_self_energy(3, 2.0) == pytest.approx(6.0 / 5.0, rel=1e-10)
    assert uniform_ball_self_energy(3, 1.5) == pytest.approx(
        oracles.ball_uniform_self_energy_3d(1.5), rel=1e-10
    )
    assert uniform_ball_self_energy(3, 1.0) == pytest.approx(
        oracles.ball_uniform_self_energy_3d(1.0), rel=1e-10
    )


def test_uniform_disk_log_energy():
    assert uniform_ball_self_energy(2, 2.0) == pytest.approx(
        oracles.disk_uniform_log_energy(), abs=1e-9
    )
    assert oracles.disk_uniform_log_energy() == pytest.approx(0.25, abs=1e-12)


def test_unit_cube_self_energy_frozen():
    assert unit_cube_self_energy() == pytest.approx(
        oracles.CUBE_SELF_ENERGY, rel=1e-8
    )


def _quadrature_ball_self_energy(dim, alpha):
    """The kernel against the distance density of two uniform ball points."""
    from scipy import integrate, special

    params = KernelParams(dim, alpha)

    def integrand(r):
        x = max(1.0 - 0.25 * r * r, 0.0)
        pdf = dim * r ** (dim - 1) * special.betainc(0.5 * (dim + 1), 0.5, x)
        return float(kernel_of_distance(params, r)) * pdf

    return integrate.quad(integrand, 0.0, 2.0, limit=200)[0]


def test_uniform_ball_self_energy_closed_form_exact_values():
    assert uniform_ball_self_energy(3, 2.0) == pytest.approx(6.0 / 5.0, rel=1e-15)
    assert uniform_ball_self_energy(2, 2.0) == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_uniform_ball_self_energy_matches_quadrature(dim):
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 4.5, 5.0):
        if alpha <= dim:
            assert uniform_ball_self_energy(dim, alpha) == pytest.approx(
                _quadrature_ball_self_energy(dim, alpha), rel=1e-9
            ), (dim, alpha)


def test_import_leaves_scipy_integrate_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dropcap

    # the fresh interpreter imports this same dropcap
    path = [str(Path(dropcap.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    code = "import sys, dropcap; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    ).stdout
    assert out.strip() == "False"
