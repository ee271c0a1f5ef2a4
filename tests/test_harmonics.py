"""Spherical-harmonic basis: orthonormality and gradients."""

import numpy as np
import pytest
from scipy import special

import dropcap as dc
from dropcap.errors import ValidationError
from dropcap.harmonics import gauss_sphere_grid, real_sph_harm, real_sph_harm_gradient


def _all_modes(lmax):
    return [(l, m) for l in range(lmax + 1) for m in range(-l, l + 1)]


def test_weights_sum_to_sphere_area():
    _, _, W = gauss_sphere_grid(24)
    assert W.sum() == pytest.approx(4.0 * np.pi, rel=1e-13)


def test_orthonormality_up_to_degree_four():
    TH, LM, W = gauss_sphere_grid(24)
    modes = _all_modes(4)
    vals = {mode: real_sph_harm(*mode, TH, LM) for mode in modes}
    for i, a in enumerate(modes):
        for b in modes[i:]:
            inner = float(np.sum(W * vals[a] * vals[b]))
            expected = 1.0 if a == b else 0.0
            assert inner == pytest.approx(expected, abs=1e-12), (a, b)


@pytest.mark.parametrize("l,m", [(1, 0), (2, 0), (2, 1), (3, -2), (4, 3)])
def test_gradient_matches_finite_differences(l, m):
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.3, np.pi - 0.3, 20)
    lam = rng.uniform(0.0, 2.0 * np.pi, 20)
    h = 1e-6
    gt, gl = real_sph_harm_gradient(l, m, theta, lam)
    fd_t = (real_sph_harm(l, m, theta + h, lam) - real_sph_harm(l, m, theta - h, lam)) / (2 * h)
    fd_l = (real_sph_harm(l, m, theta, lam + h) - real_sph_harm(l, m, theta, lam - h)) / (
        2 * h * np.sin(theta)
    )
    np.testing.assert_allclose(gt, fd_t, atol=1e-7)
    np.testing.assert_allclose(gl, fd_l, atol=1e-7)


@pytest.mark.parametrize("n_theta", [8, 31, 48])
def test_column_against_row_equals_the_mesh(n_theta):
    TH, LM, _ = gauss_sphere_grid(n_theta)
    col, row = TH[:, :1], LM[:1, :]
    for l, m in _all_modes(6):
        np.testing.assert_array_equal(
            np.broadcast_to(real_sph_harm(l, m, col, row), TH.shape),
            real_sph_harm(l, m, TH, LM),
        )
        for sep, mesh in zip(
            real_sph_harm_gradient(l, m, col, row), real_sph_harm_gradient(l, m, TH, LM)
        ):
            np.testing.assert_array_equal(np.broadcast_to(sep, TH.shape), mesh)


def _lpmv_harmonic(l, m, theta, lam):
    """Y_lm and its gradient from scipy's lpmv with the factorial normalization.

    The gradient comes from the orders m - 1 and m + 1, with no division
    by sin(theta):
    d/dtheta P_l^m = (P_l^(m+1) - (l + m)(l - m + 1) P_l^(m-1)) / 2 and
    P_l^m / sin(theta) = -(P_(l-1)^(m+1) + (l + m - 1)(l + m) P_(l-1)^(m-1)) / (2m).
    """
    am = abs(m)
    N = np.sqrt((2 * l + 1) / (4.0 * np.pi) * np.exp(special.gammaln(l - am + 1) - special.gammaln(l + am + 1)))
    x = np.cos(theta)
    P = special.lpmv(am, l, x)
    if m == 0:
        return N * P, N * special.lpmv(1, l, x), np.zeros_like(x)
    dP = 0.5 * (special.lpmv(am + 1, l, x) - (l + am) * (l - am + 1) * special.lpmv(am - 1, l, x))
    P_over_s = -(special.lpmv(am + 1, l - 1, x) + (l + am - 1) * (l + am) * special.lpmv(am - 1, l - 1, x)) / (2 * am)
    trig, dtrig = (np.cos, lambda t: -np.sin(t)) if m > 0 else (np.sin, np.cos)
    c = np.sqrt(2.0) * N
    return c * P * trig(am * lam), c * dP * trig(am * lam), c * P_over_s * am * dtrig(am * lam)


def test_recurrence_matches_scipy_lpmv_to_degree_sixty():
    # values and gradients on [0, pi], poles included
    theta = np.linspace(0.0, np.pi, 41)
    lam = np.linspace(0.0, 2.0 * np.pi, 41)
    for l in range(61):
        for m in (*range(l + 1), -l, -(l // 2)):
            ref = _lpmv_harmonic(l, m, theta, lam)
            got = (real_sph_harm(l, m, theta, lam), *real_sph_harm_gradient(l, m, theta, lam))
            for k, (g, r) in enumerate(zip(got, ref)):
                scale = max(1.0, np.abs(r).max())
                np.testing.assert_allclose(g, r, rtol=0, atol=1e-13 * scale, err_msg=f"{(l, m, k)}")


def test_high_degree_harmonic_has_unit_norm():
    # (l + m)! overflows at l = m = 200; the normalized recurrence stays finite
    TH, LM, W = gauss_sphere_grid(256)
    Y = real_sph_harm(200, 200, TH, LM)
    assert float(np.sum(W * Y * Y)) == pytest.approx(1.0, abs=1e-12)
    shape = dc.NearlySpherical(modes=((200, 200, 1.0),), eps=0.01, quad_order=256)
    assert np.isfinite(shape.perimeter())


def test_gradient_finite_at_poles():
    gt, gl = real_sph_harm_gradient(2, 1, np.array([0.0, np.pi]), np.array([0.3, 0.7]))
    assert np.all(np.isfinite(gt)) and np.all(np.isfinite(gl))


def test_invalid_mode_rejected():
    with pytest.raises(ValidationError):
        real_sph_harm(2, 3, 0.5, 0.5)
    with pytest.raises(ValidationError):
        real_sph_harm(-1, 0, 0.5, 0.5)
