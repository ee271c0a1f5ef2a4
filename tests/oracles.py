"""Independent oracle values for the test suite.

Everything here but full_kernel_matrix is computed without importing
the package: closed forms, textbook identities, and a radial two-point
boundary-value solve.  Expected values in the tests are frozen from
these, never from the code under test.
"""

import math

import numpy as np
from scipy.integrate import quad, solve_bvp

# ---------------------------------------------------------------------------
# Riesz energies of classical bodies

# Newton: the equilibrium measure of a ball in the Coulomb case sits
# uniformly on the sphere, and a uniform sphere of unit charge has
# potential 1/R on itself, so the minimal energy of B_R is 1/R.
def newton_ball_energy(R: float) -> float:
    return 1.0 / R


# Uniform unit circle of radius R: logarithmic potential on the circle
# is -log R, hence minimal log energy -log R and capacity R.
def circle_log_energy(R: float) -> float:
    return -np.log(R)


def ball_uniform_self_energy_3d(alpha: float) -> float:
    """Riesz self-energy of the uniform probability measure on B_1 in R^3.

    The distance density between two uniform points of the unit ball is
    p(t) = 3 t^2 - (9/4) t^3 + (3/16) t^5 on [0, 2]; integrating
    t^(alpha-3) against it termwise gives

        3 2^alpha / alpha - (9/2) 2^alpha / (alpha+1)
        + (3/2) 2^alpha / (alpha+3).
    """
    if not 0.0 < alpha < 3.0:
        raise ValueError("alpha must lie in (0, 3)")
    two = 2.0**alpha
    return 3.0 * two / alpha - 4.5 * two / (alpha + 1.0) + 1.5 * two / (alpha + 3.0)


# alpha = 2 must reproduce the Coulomb value 6/5 of the uniform ball.
assert abs(ball_uniform_self_energy_3d(2.0) - 6.0 / 5.0) < 1e-14


def riesz_ball_energy_3d(alpha: float) -> float:
    """Minimal Riesz energy of the unit ball in R^3 (M. Riesz 1938).

    The equilibrium density is proportional to (1 - |x|^2)^(-alpha/2),
    and its potential at the center is the energy:

        I_alpha(B_1) = G(alpha/2) G(1 + (3 - alpha)/2) / G(3/2).
    """
    if not 0.0 < alpha < 3.0:
        raise ValueError("alpha must lie in (0, 3)")
    return math.gamma(0.5 * alpha) * math.gamma(1.0 + 0.5 * (3.0 - alpha)) / math.gamma(1.5)


# alpha = 2 is Newton's 1/R at R = 1
assert abs(riesz_ball_energy_3d(2.0) - 1.0) < 1e-14


def disk_uniform_log_energy() -> float:
    """Log self-energy of the uniform unit disk, by its distance density.

    p(t) = (2 t / pi) (2 acos(t/2) - (t/2) sqrt(4 - t^2)) on [0, 2];
    the integral of -log t against it equals 1/4.
    """
    def pdf(t):
        return (2.0 * t / np.pi) * (
            2.0 * np.arccos(0.5 * t) - 0.5 * t * np.sqrt(4.0 - t * t)
        )

    val, _ = quad(lambda t: -np.log(t) * pdf(t), 0.0, 2.0, limit=200)
    return val


# Coulomb self-energy of the uniform unit cube (probability measure),
# frozen from an octant-reduction quadrature of the 1/r kernel.
CUBE_SELF_ENERGY = 1.8823126443


def cube_self_energy_quadrature(points: int) -> float:
    """1/r self-energy of the uniform unit cube by Gauss quadrature.

    Octant reduction: with delta = x - y distributed with density
    prod(1 - |delta_i|) on [-1, 1]^3, pass to spherical coordinates so
    the radial integral is a polynomial and the integrand is bounded;
    the two angles take points Gauss-Legendre nodes each.
    """
    x, wq = np.polynomial.legendre.leggauss(points)
    th = 0.25 * np.pi * (x + 1.0)
    wth = 0.25 * np.pi * wq
    TH, LM = np.meshgrid(th, th, indexing="ij")
    W = np.outer(wth, wth) * np.sin(TH)
    w1 = np.sin(TH) * np.cos(LM)
    w2 = np.sin(TH) * np.sin(LM)
    w3 = np.cos(TH)
    T = 1.0 / np.maximum(np.maximum(w1, w2), w3)
    e1 = w1 + w2 + w3
    e2 = w1 * w2 + w1 * w3 + w2 * w3
    e3 = w1 * w2 * w3
    radial = T**2 / 2.0 - e1 * T**3 / 3.0 + e2 * T**4 / 4.0 - e3 * T**5 / 5.0
    return float(8.0 * np.sum(W * radial))


# ---------------------------------------------------------------------------
# conducting sphere in a uniform field (zero net charge, alpha = 2, N = 3)

# Classical electrostatics: the induced surface density on the unit
# sphere in the field E e_1 is sigma = (3 E / (8 pi)) cos(theta) after
# normalizing the kernel energy as a full double integral; the
# multiplier vanishes by symmetry and the minimal value is -E^2/4.
def sphere_field_density(E: float, cos_theta):
    return 3.0 * E / (8.0 * np.pi) * np.asarray(cos_theta)


def sphere_field_value(E: float) -> float:
    return -E * E / 4.0


# ---------------------------------------------------------------------------
# entropic relaxation on balls

def entropic_ball_closed_form(R: float) -> float:
    """J(B_R) for the Coulomb-plus-density-squared functional.

    The Euler-Lagrange system reduces to the modified Helmholtz equation
    for the potential, solved by sinh(r)/r; matching the exterior 1/r
    field fixes every constant and gives

        J(B_R) = cosh R / (4 pi (R cosh R - sinh R)).
    """
    return np.cosh(R) / (4.0 * np.pi * (R * np.cosh(R) - np.sinh(R)))


def entropic_ball_bvp(R: float) -> float:
    """J(B_R) from a radial boundary-value solve, no closed form used.

    The optimality system for the radial potential v is the modified
    Helmholtz equation v'' + (2/r) v' = v - 2 pi lam inside the ball
    (lam free), regular at the origin, matching the exterior monopole
    field at R.  In terms of u = r v this is the regular problem

        u'' = u - 2 pi lam r,  u(0) = 0,  u(R) = 1,  u'(R) = 0,

    where the last two conditions encode v(R) = 1/R, v'(R) = -1/R^2.
    The functional value is lam / 2.
    """

    def rhs(r, y, p):
        return np.vstack([y[1], y[0] - 2.0 * np.pi * p[0] * r])

    def bc(ya, yb, p):
        return np.array([ya[0], yb[0] - 1.0, yb[1]])

    r = np.linspace(0.0, R, 200)
    y = np.vstack([r / R, np.full_like(r, 1.0 / R)])
    sol = solve_bvp(
        rhs, bc, r, y, p=[1.0 / (2.0 * np.pi * R)], tol=1e-10, max_nodes=50000
    )
    if not sol.success:
        raise RuntimeError(f"entropic BVP failed: {sol.message}")
    return float(sol.p[0]) / 2.0


# ---------------------------------------------------------------------------
# perturbative stability of the ball

# Volume-renormalized second-order energy of the graph 1 + t Y_lm:
# perimeter gains t^2 (l-1)(l+2)/2, the Coulomb equilibrium energy drops
# by t^2 (l-1)/(4 pi); the mode turns neutral at Q^2 = 2 pi (l + 2).
def rayleigh_threshold(l: int) -> float:
    return np.sqrt(2.0 * np.pi * (l + 2.0))


def perimeter_quadratic_form(l: int) -> float:
    return (l - 1.0) * (l + 2.0) / 2.0


def energy_quadratic_form(l: int) -> float:
    return -(l - 1.0) / (4.0 * np.pi)


# Supremum of the capacity-deficit to perimeter-deficit ratio over
# nearly-spherical shapes: attained in the l = 2 modes at 1/(8 pi).
LEMMA_RATIO_SUP = 1.0 / (8.0 * np.pi)


# Raw (unrenormalized) perimeter expansion of 1 + eps phi:
# P = 4 pi + eps P1 + eps^2 P2 + O(eps^4) with P1 = 2 sqrt(4 pi) c_00
# and P2 = sum c^2 (1 + l (l+1) / 2).
def raw_perimeter_p1(c00: float) -> float:
    return 2.0 * np.sqrt(4.0 * np.pi) * c00


def raw_perimeter_p2(modes) -> float:
    return sum(c * c * (1.0 + 0.5 * l * (l + 1.0)) for l, _m, c in modes)


# ---------------------------------------------------------------------------
# regular polygons of area pi

def regular_polygon_perimeter(m: int) -> float:
    R = np.sqrt(2.0 * np.pi / (m * np.sin(2.0 * np.pi / m)))
    return 2.0 * m * R * np.sin(np.pi / m)


# ---------------------------------------------------------------------------
# reference operator

def full_kernel_matrix(cloud, params) -> np.ndarray:
    """The package's full n x n kernel matrix of a cloud, in node order.

    The operator of the cloud with its mirror dropped: the lower triangle
    of E, packed[0][1:], is the unreduced K's, which tests compare the
    orbit blocks and the solves with.
    """
    from dataclasses import replace

    import dropcap

    E = dropcap.assemble_operator(replace(cloud, mirror=None), params).packed[0][1:]
    return np.tril(E) + np.tril(E, -1).T
