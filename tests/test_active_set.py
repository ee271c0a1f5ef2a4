"""The screened active-set loop: KKT complementarity on generated clouds, and a wrong screen."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dropcap as dc
import dropcap.equilibrium
import dropcap.linalg
from dropcap.equilibrium import solve_simplex_qp

ORIGIN = (0.0, 0.0, 0.0)
TOL = 1e-10  # solve_simplex_qp's default

# shape for a radius R and a ratio t in [0.3, 0.8]
SHAPES = {
    "annulus": lambda R, t: dc.Annulus(ORIGIN, t * R, R),
    "ball": lambda R, t: dc.Ball(ORIGIN, R),
    "box": lambda R, t: dc.Box(ORIGIN, (R, t * R, (1.0 - t / 2.0) * R)),
    "union": lambda R, t: dc.UnionOfBalls(
        (dc.Ball(ORIGIN, R), dc.Ball(((1.5 + t) * R, 0.0, 0.0), t * R))
    ),
}
# (alpha, role): boundary clouds carry a diagonal rule only at alpha = 2
ORDERS = [(1.6, "volume"), (2.0, "volume"), (2.0, "boundary"), (2.4, "volume")]


def _unscreened(cloud, params):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dropcap.linalg, "CG_SCREEN_RTOL", 0.0)
        return solve_simplex_qp(dc.assemble_operator(cloud, params))


@settings(max_examples=12)
@given(
    kind=st.sampled_from(sorted(SHAPES)),
    order=st.sampled_from(ORDERS),
    R=st.floats(0.5, 2.0),
    t=st.floats(0.3, 0.8),
    M=st.integers(200, 600),
)
@example(kind="ball", order=(2.0, "volume"), R=1.0, t=0.5, M=600)  # collapses to the surface
@example(kind="union", order=(2.0, "boundary"), R=1.0, t=0.5, M=400)
def test_screened_solve_is_the_kkt_point_of_the_unscreened_one(kind, order, R, t, M):
    alpha, role = order
    cloud = dc.discretize(SHAPES[kind](R, t), M, role)
    params = dc.KernelParams(3, alpha)
    op = dc.assemble_operator(cloud, params)
    m, lam, iters, _ = solve_simplex_qp(op)
    m_full, lam_full, iters_full, _ = _unscreened(cloud, params)
    assert iters == iters_full
    assert np.array_equal(m, m_full)
    assert lam == lam_full
    assert m.min() >= 0.0
    assert m.sum() == pytest.approx(1.0, abs=1e-12)
    v = op.apply(m)
    scale = TOL * max(abs(lam), 1.0)
    on = m > 0.0
    assert np.all(np.abs(v[on] - lam) <= scale)
    assert np.all(v[~on] >= lam - scale)


def test_a_working_set_seen_twice_is_solved_in_full(monkeypatch):
    # a screen that wrongly rejects the full set, dropping the support node
    # of largest mass: that node comes back and the full set is seen again
    cloud = dc.discretize(dc.Ball(ORIGIN, 1.0), 300, "boundary")
    params = dc.KernelParams(3, 2.0)
    n = cloud.n_nodes
    negative = dropcap.equilibrium._negative
    screened = []

    def wrong(x):
        screened.append(len(x))
        flagged = negative(x)
        if len(x) == n:
            flagged[np.argmax(x)] = True
        return flagged

    monkeypatch.setattr(dropcap.equilibrium, "_negative", wrong)
    op = dc.assemble_operator(cloud, params)
    m, lam, iters, resid = solve_simplex_qp(op)
    # the full set is screened out (the screen, then the nodes it drops),
    # the set without that node passes, and the full set, seen a second
    # time, is solved with the screen off
    assert screened == [n, n, n - 1]
    assert iters == 3
    monkeypatch.setattr(dropcap.equilibrium, "_negative", negative)
    m_full, lam_full, iters_full, resid_full = _unscreened(cloud, params)
    assert iters_full == 1
    assert np.array_equal(m, m_full)
    assert lam == lam_full
    assert resid == resid_full
