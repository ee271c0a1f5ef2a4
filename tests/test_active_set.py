"""The screened active-set loop: KKT complementarity on generated clouds, and a wrong screen."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dropcap as dc
import dropcap.equilibrium
import dropcap.linalg

ORIGIN = (0.0, 0.0, 0.0)
TOL = 1e-10  # equilibrium_measure's default

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
        return dc.equilibrium_measure(dc.assemble_operator(cloud, params))


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
    res, full = dc.equilibrium_measure(op), _unscreened(cloud, params)
    m, lam = res.masses, res.energy
    assert res.iterations == full.iterations
    assert np.array_equal(m, full.masses)
    assert lam == full.energy
    assert m.min() >= 0.0
    assert m.sum() == pytest.approx(1.0, abs=1e-12)
    v = op.apply(m)
    scale = TOL * max(abs(lam), 1.0)
    on = m > 0.0
    assert np.all(np.abs(v[on] - lam) <= scale)
    assert np.all(v[~on] >= lam - scale)


def test_a_working_set_seen_twice_is_solved_in_full(monkeypatch):
    # a screen that wrongly rejects the full set, dropping the support
    # orbit of largest mass: that orbit comes back and the full set is
    # seen again
    cloud = dc.discretize(dc.Ball(ORIGIN, 1.0), 300, "boundary")
    params = dc.KernelParams(3, 2.0)
    h = len(cloud.orbits)
    negative = dropcap.equilibrium._negative
    screened = []

    def wrong(x, sizes):
        screened.append(len(x))
        flagged = negative(x, sizes)
        if len(x) == h:
            flagged[np.argmax(x)] = True
        return flagged

    monkeypatch.setattr(dropcap.equilibrium, "_negative", wrong)
    op = dc.assemble_operator(cloud, params)
    res = dc.equilibrium_measure(op)
    # the full set is screened out (the screen, then the orbits it drops),
    # the set without that orbit passes, and the full set, seen a second
    # time, is solved with the screen off
    assert screened == [h, h, h - 1]
    assert res.iterations == 3
    monkeypatch.setattr(dropcap.equilibrium, "_negative", negative)
    full = _unscreened(cloud, params)
    assert full.iterations == 1
    assert np.array_equal(res.masses, full.masses)
    assert res.energy == full.energy
    assert res.kkt_residual == full.kkt_residual
