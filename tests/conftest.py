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
def rng():
    return np.random.default_rng(20260819)
