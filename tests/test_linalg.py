"""Solve back-ends: Cholesky against the bordered LU system, and factor reuse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError

import dropcap as dc
import dropcap.linalg
from dropcap.equilibrium import solve_simplex_qp
from dropcap.linalg import bordered_solve, spd_factor, unit_charge_solve

ORIGIN = (0.0, 0.0, 0.0)
COULOMB = dc.KernelParams(3, 2.0)

# (shape for a radius R, role, alpha) of the generated 3d clouds
CLOUDS = {
    "boundary ball, alpha=2": (lambda R: dc.Ball(ORIGIN, R), "boundary", 2.0),
    "annulus": (lambda R: dc.Annulus(ORIGIN, R / 2.0, R), "boundary", 2.0),
    "volume ball, alpha=1.5": (lambda R: dc.Ball(ORIGIN, R), "volume", 1.5),
}
radii = st.floats(0.5, 2.0)
node_counts = st.integers(150, 500)
# a fixed sequence of examples, so a run never depends on the last one
generated = settings(max_examples=6, deadline=None, derandomize=True, database=None)


class _Counter:
    """Wraps a function and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def _reject(*args, **kwargs):
    raise LinAlgError("rejected for the test")


def _max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _operator(name, R, M):
    shape, role, alpha = CLOUDS[name]
    cloud = dc.discretize(shape(R), M, role)
    return dc.assemble_operator(cloud, dc.KernelParams(3, alpha))


@pytest.mark.parametrize("name", sorted(CLOUDS))
@generated
@given(R=radii, M=node_counts)
def test_cholesky_agrees_with_bordered_solve(name, R, M):
    op = _operator(name, R, M)
    m, lam, iters, _ = solve_simplex_qp(op)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dropcap.linalg, "cho_factor", _reject)
        m_lu, lam_lu, iters_lu, _ = solve_simplex_qp(op.matrix)
    assert iters == iters_lu
    assert _max_rel(m, m_lu) <= 1e-12
    assert lam == pytest.approx(lam_lu, rel=1e-12)
    if name == "annulus":
        # the inner sphere drops out, so restricted sets were solved
        assert iters > 1 and np.count_nonzero(m) < len(m)


@generated
@given(R=radii, M=node_counts, seed=st.integers(0, 2**32 - 1))
def test_restricted_unit_charge_solves_agree(R, M, seed):
    K = _operator("boundary ball, alpha=2", R, M).matrix
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(K), size=len(K) // 2, replace=False))
    m, lam = unit_charge_solve(spd_factor(K[np.ix_(idx, idx)], overwrite=True))
    m_lu, lam_lu = bordered_solve(K, idx)
    assert _max_rel(m, m_lu) <= 1e-12
    assert lam == pytest.approx(lam_lu, rel=1e-12)
    assert m.sum() == pytest.approx(1.0, rel=1e-14)


def _old_entropic(cloud):
    """Masses and multiplier from the bordered system [2G 1; 1' 0]."""
    K = dc.assemble_operator(cloud, COULOMB).matrix
    G = K / (4.0 * np.pi) + np.diag(1.0 / cloud.weights)
    n = cloud.n_nodes
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = 2.0 * G
    A[:n, n] = 1.0
    A[n, :n] = 1.0
    b = np.zeros(n + 1)
    b[n] = 1.0
    sol = np.linalg.solve(A, b)
    return sol[:n], -sol[n]


@generated
@given(R=st.floats(0.6, 1.5), M=node_counts)
def test_entropic_matches_the_bordered_system(R, M):
    cloud = dc.discretize(dc.Ball(ORIGIN, R), M, "volume")
    res = dc.solve_entropic(cloud)
    m_old, lam_old = _old_entropic(cloud)
    assert _max_rel(res.masses, m_old) <= 1e-12
    assert res.multiplier == pytest.approx(lam_old, rel=1e-12)


def test_fallbacks_agree_when_cholesky_rejects(monkeypatch):
    cloud = dc.discretize(dc.Ball(ORIGIN, 1.0), 400, "boundary")
    op = dc.assemble_operator(cloud, COULOMB)
    field = dc.LinearPotential((0.3, -1.0, 0.5))
    eq, fr = dc.equilibrium_measure(op), dc.solve_external(op, field)
    volume = dc.discretize(dc.Ball(ORIGIN, 1.0), 400, "volume")
    en = dc.solve_entropic(volume)

    monkeypatch.setattr(dropcap.linalg, "cho_factor", _reject)
    op_lu = dc.assemble_operator(cloud, COULOMB)
    assert op_lu.cholesky is None
    eq_lu, fr_lu = dc.equilibrium_measure(op_lu), dc.solve_external(op_lu, field)
    en_lu = dc.solve_entropic(volume)
    assert _max_rel(eq.masses, eq_lu.masses) <= 1e-12
    assert eq.energy == pytest.approx(eq_lu.energy, rel=1e-12)
    assert _max_rel(fr.masses, fr_lu.masses) <= 1e-12
    assert fr.F_value == pytest.approx(fr_lu.F_value, rel=1e-12)
    assert _max_rel(en.masses, en_lu.masses) <= 1e-12
    assert en.multiplier == pytest.approx(en_lu.multiplier, rel=1e-12)


def test_one_factorization_serves_equilibrium_and_field(monkeypatch):
    counter = _Counter(dropcap.linalg.cho_factor)
    monkeypatch.setattr(dropcap.linalg, "cho_factor", counter)
    cloud = dc.discretize(dc.Ball(ORIGIN, 1.0), 500, "boundary")
    op = dc.assemble_operator(cloud, COULOMB)
    eq = dc.equilibrium_measure(op)
    fr = dc.solve_external(op, dc.LinearPotential((1.0, 0.0, 0.0)))
    assert counter.calls == 1
    assert eq.active_fraction == 1.0
    assert fr.el_residual < 1e-10


def test_log_kernel_never_attempts_cholesky(monkeypatch):
    counter = _Counter(dropcap.linalg.cho_factor)
    monkeypatch.setattr(dropcap.linalg, "cho_factor", counter)
    cloud = dc.discretize(dc.Ball((0.0, 0.0), 1.0), 300, "boundary")
    op = dc.assemble_operator(cloud, dc.KernelParams(2, 2.0))
    res = dc.equilibrium_measure(op)
    assert counter.calls == 0
    assert op.cholesky is None
    assert res.capacity == pytest.approx(1.0, rel=0.02)
    assert res.kkt_residual < 1e-10


def test_symmetric_products_match_numpy(ball_op_2000, rng):
    x = rng.standard_normal(ball_op_2000.n_nodes)
    Kx = ball_op_2000.matrix @ x
    assert _max_rel(ball_op_2000.apply(x), Kx) <= 1e-12
    assert ball_op_2000.energy(x) == pytest.approx(x @ Kx, rel=1e-12)
