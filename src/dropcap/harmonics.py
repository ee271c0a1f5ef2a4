"""Real spherical harmonics on the unit two-sphere.

Conventions: theta is the polar angle (0 at the north pole), lam the
azimuth.  Y(l, m) is L2-orthonormal on the sphere; the m > 0 branch uses
cos(m*lam), the m < 0 branch sin(|m|*lam).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ValidationError

__all__ = ["real_sph_harm", "real_sph_harm_gradient", "gauss_sphere_grid"]


def _norm_constant(l: int, m: int) -> float:
    from scipy import special

    logfac = special.gammaln(l - m + 1) - special.gammaln(l + m + 1)
    return np.sqrt((2 * l + 1) / (4.0 * np.pi) * np.exp(logfac))


def _check_mode(l: int, m: int) -> None:
    if l < 0 or abs(m) > l:
        raise ValidationError(f"invalid spherical-harmonic mode (l={l}, m={m})")


def real_sph_harm(l: int, m: int, theta, lam):
    """Real orthonormal spherical harmonic Y_{l m}(theta, lam)."""
    from scipy import special

    _check_mode(l, m)
    theta = np.asarray(theta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    am = abs(m)
    P = special.lpmv(am, l, np.cos(theta))
    N = _norm_constant(l, am)
    if m == 0:
        return N * P
    if m > 0:
        return np.sqrt(2.0) * N * P * np.cos(m * lam)
    return np.sqrt(2.0) * N * P * np.sin(am * lam)


def real_sph_harm_gradient(l: int, m: int, theta, lam):
    """Tangential gradient components (d/dtheta, (1/sin theta) d/dlam).

    Uses d/dtheta P_l^m(cos t) = (l cos(t) P_l^m - (l+m) P_{l-1}^m) / sin t.
    At the poles the tangent frame degenerates; both components are
    reported as zero there.
    """
    from scipy import special

    _check_mode(l, m)
    theta = np.asarray(theta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    x = np.cos(theta)
    s = np.sin(theta)
    am = abs(m)
    P = special.lpmv(am, l, x)
    if l - 1 >= am:
        Pm1 = special.lpmv(am, l - 1, x)
    else:
        Pm1 = np.zeros_like(x)
    pole = s < 1e-12
    s_safe = np.where(pole, 1.0, s)
    dP_dtheta = np.where(pole, 0.0, (l * x * P - (l + am) * Pm1) / s_safe)
    N = _norm_constant(l, am)
    if m == 0:
        return N * dP_dtheta, np.zeros_like(x)
    c = np.sqrt(2.0) * N
    az = np.where(pole, 0.0, P / s_safe)
    if m > 0:
        return c * dP_dtheta * np.cos(m * lam), -c * az * m * np.sin(m * lam)
    return c * dP_dtheta * np.sin(am * lam), c * az * am * np.cos(am * lam)


@lru_cache(maxsize=16)
def gauss_sphere_grid(n_theta: int, n_lam: int | None = None):
    """Product quadrature grid on the sphere, spectrally accurate.

    Gauss-Legendre in cos(theta) times uniform azimuth.  Returns meshed
    (theta, lam, weights) arrays of shape (n_theta, n_lam); the weights
    integrate against the surface measure and sum to 4*pi.
    """
    if n_lam is None:
        n_lam = 2 * n_theta
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    lam = (np.arange(n_lam) + 0.5) * (2.0 * np.pi / n_lam)
    TH, LM = np.meshgrid(theta, lam, indexing="ij")
    W = np.outer(wx, np.full(n_lam, 2.0 * np.pi / n_lam))
    TH.flags.writeable = False
    LM.flags.writeable = False
    W.flags.writeable = False
    return TH, LM, W
