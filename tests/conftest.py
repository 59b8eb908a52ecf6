"""Shared fixtures: the expensive standard runs are session-scoped so the
acceptance tests and the unit tests reuse the same trajectories."""

import numpy as np
import pytest

from rbklab.harness import load_fixtures
from rbklab.integrate import integrate_logtime, integrate_phi_to_blowup


@pytest.fixture(scope="session")
def oracle_fixtures():
    return load_fixtures()["fixtures"]


@pytest.fixture(scope="session")
def blowup_n4():
    """Standard blowup fixture: N=4, phi0=(1,1,1), cap=1e10."""
    return integrate_phi_to_blowup(np.ones(4), cap=1e10)


@pytest.fixture(scope="session")
def logtime_n3():
    """Standard long-time fixture: N=3, c0=(1,1,1), t to 1e8."""
    return integrate_logtime(np.ones(3), 1e8)
