"""Real spherical harmonics on the unit two-sphere.

Conventions: theta is the polar angle (0 at the north pole), lam the
azimuth.  Y(l, m) is L2-orthonormal on the sphere; the m > 0 branch uses
cos(m*lam), the m < 0 branch sin(|m|*lam).  The Legendre factors come
from the normalized upward recurrence, which stays finite at every
degree a quadrature grid resolves.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError

__all__ = ["real_sph_harm", "real_sph_harm_gradient", "gauss_sphere_grid"]


def _legendre(l: int, m: int, x, s):
    """Normalized associated Legendre functions of degrees l and l - 1.

    Returns N(l, m) P_l^m(x) and N(l-1, m) P_{l-1}^m(x) for 0 <= m, each
    zero where the order exceeds the degree, with s = sqrt(1 - x^2),
    N(l, m) = sqrt((2l + 1)/(4 pi) (l - m)!/(l + m)!) and the
    Condon-Shortley phase (-1)^m in P_l^m.  The normalization rides
    along the recurrence, so no factorial is formed:

        Pn(m, m)   = -sqrt((2m + 1)/(2m)) s Pn(m-1, m-1),  Pn(0, 0) = 1/sqrt(4 pi)
        Pn(m+1, m) = sqrt(2m + 3) x Pn(m, m)
        Pn(k, m)   = a_k (x Pn(k-1, m) - Pn(k-2, m)/a_{k-1}),
                     a_k = sqrt((4k^2 - 1)/(k^2 - m^2)).
    """
    if m > l:
        zero = np.zeros(np.shape(x))
        return zero, zero
    p = np.full(np.shape(x), 1.0 / math.sqrt(4.0 * math.pi))
    for k in range(1, m + 1):
        p = -math.sqrt((2 * k + 1) / (2 * k)) * s * p
    if l == m:
        return p, np.zeros_like(p)
    prev, p = p, math.sqrt(2 * m + 3) * x * p
    for k in range(m + 2, l + 1):
        a = math.sqrt((4 * k * k - 1) / (k * k - m * m))
        b = math.sqrt(((k - 1) ** 2 - m * m) / (4 * (k - 1) ** 2 - 1))
        prev, p = p, a * (x * p - b * prev)
    return p, prev


def _check_mode(l: int, m: int) -> None:
    if l < 0 or abs(m) > l:
        raise ValidationError(f"invalid spherical-harmonic mode (l={l}, m={m})")


def real_sph_harm(l: int, m: int, theta, lam):
    """Real orthonormal spherical harmonic Y_{l m}(theta, lam)."""
    _check_mode(l, m)
    theta = np.asarray(theta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    am = abs(m)
    P, _ = _legendre(l, am, np.cos(theta), np.abs(np.sin(theta)))
    if m == 0:
        return P
    if m > 0:
        return np.sqrt(2.0) * P * np.cos(m * lam)
    return np.sqrt(2.0) * P * np.sin(am * lam)


def real_sph_harm_gradient(l: int, m: int, theta, lam):
    """Tangential gradient components (d/dtheta, (1/sin theta) d/dlam).

    Both come from the neighbouring orders without a division by
    sin theta, on the normalized functions Pn(l, m) = N(l, m) P_l^m of
    _legendre:

        d/dtheta Pn(l, m) = (sqrt((l - m)(l + m + 1)) Pn(l, m+1)
                             - sqrt((l + m)(l - m + 1)) Pn(l, m-1)) / 2,
        m Pn(l, m) / sin  = -sqrt((2l + 1)/(2l - 1)) / 2
                            (sqrt((l - m)(l - m - 1)) Pn(l-1, m+1)
                             + sqrt((l + m)(l + m - 1)) Pn(l-1, m-1)),

    with Pn(l, -1) = -Pn(l, 1).  At the poles, where the tangent frame
    degenerates, they are the limits along the meridian lam.
    """
    _check_mode(l, m)
    theta = np.asarray(theta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    x = np.cos(theta)
    s = np.abs(np.sin(theta))
    am = abs(m)
    up, up_prev = _legendre(l, am + 1, x, s)
    if am == 0:
        return math.sqrt(l * (l + 1)) * up, np.zeros_like(up)
    down, down_prev = _legendre(l, am - 1, x, s)
    dP_dtheta = 0.5 * (
        math.sqrt((l - am) * (l + am + 1)) * up - math.sqrt((l + am) * (l - am + 1)) * down
    )
    az = -0.5 * math.sqrt((2 * l + 1) / (2 * l - 1)) * (
        math.sqrt((l - am) * (l - am - 1)) * up_prev
        + math.sqrt((l + am) * (l + am - 1)) * down_prev
    )
    c = np.sqrt(2.0)
    if m > 0:
        return c * dP_dtheta * np.cos(m * lam), -c * az * np.sin(m * lam)
    return c * dP_dtheta * np.sin(am * lam), c * az * np.cos(am * lam)


@lru_cache(maxsize=16)
def gauss_sphere_grid(n_theta: int):
    """Product quadrature grid on the sphere, spectrally accurate.

    Gauss-Legendre in cos(theta) times uniform azimuth.  Returns meshed
    (theta, lam, weights) arrays of shape (n_theta, 2 n_theta); the
    weights integrate against the surface measure and sum to 4*pi.
    """
    n_azimuth = 2 * n_theta
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    lam = (np.arange(n_azimuth) + 0.5) * (2.0 * np.pi / n_azimuth)
    TH, LM = np.meshgrid(theta, lam, indexing="ij")
    W = np.outer(wx, np.full(n_azimuth, 2.0 * np.pi / n_azimuth))
    TH.flags.writeable = False
    LM.flags.writeable = False
    W.flags.writeable = False
    return TH, LM, W
