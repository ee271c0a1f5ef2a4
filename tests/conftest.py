"""Shared fixtures: the expensive solves are done once per session.

Every hypothesis test runs one fixed sequence of examples, so a run
never depends on the last one; each test sets only its max_examples.
"""

import numpy as np
import pytest
from hypothesis import settings

import dropcap as dc

settings.register_profile("derandomized", deadline=None, database=None, derandomize=True)
settings.load_profile("derandomized")

COULOMB = dc.KernelParams(3, 2.0)


@pytest.fixture(scope="session")
def ball_cloud_2000():
    return dc.discretize(dc.Ball((0.0, 0.0, 0.0), 1.0), 2000, "boundary")


@pytest.fixture(scope="session")
def ball_op_2000(ball_cloud_2000):
    return dc.assemble_operator(ball_cloud_2000, COULOMB)


@pytest.fixture(scope="session")
def ball_eq_2000(ball_op_2000):
    return dc.equilibrium_measure(ball_op_2000)


@pytest.fixture(scope="session")
def sphere_field_2000(ball_op_2000):
    return dc.solve_external(ball_op_2000, dc.LinearPotential((1.0, 0.0, 0.0)))


@pytest.fixture(scope="session")
def ball_volume_entropic_2000():
    cloud = dc.discretize(dc.Ball((0.0, 0.0, 0.0), 1.0), 2000, "volume")
    return dc.solve_entropic(cloud)


@pytest.fixture(scope="session")
def stand_in_operator():
    """A symmetric matrix as the operator of an unmirrored stand-in cloud.

    The cloud has one planar node per row and the log-kernel params, so
    capacity_from_energy takes an energy of either sign.  The packed
    blocks hold K's lower triangle as the even block and a zero odd one.
    """

    def wrap(K):
        n = len(K)
        cloud = dc.NodeCloud(
            points=np.column_stack([np.arange(n, dtype=float), np.zeros(n)]),
            weights=np.ones(n),
            role="boundary",
            shape=dc.Ball((0.0, 0.0), 1.0),
            components=np.zeros(n, dtype=int),
            component_names=("nodes",),
        )
        packed = np.vstack([np.zeros((1, n)), np.tril(K)])
        return dc.KernelOperator(packed=packed, cloud=cloud, params=dc.KernelParams(2, 2.0))

    return wrap


@pytest.fixture
def second_solve_fails(monkeypatch):
    """Make the second equilibrium solve give up at its uniform start.

    That solve runs with max_iter=0, so it raises NonConvergenceError
    carrying the uniform masses and their energy; the list this returns
    receives the error.
    """
    import dropcap.equilibrium
    from dropcap.errors import NonConvergenceError

    solve = dropcap.equilibrium.equilibrium_measure
    calls, raised = [], []

    def second_fails(op, **kwargs):
        calls.append(op)
        if len(calls) != 2:
            return solve(op, **kwargs)
        try:
            return solve(op, max_iter=0)
        except NonConvergenceError as err:
            raised.append(err)
            raise

    monkeypatch.setattr(dropcap.equilibrium, "equilibrium_measure", second_fails)
    return raised


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260819)
