import math

import numpy as np
import pytest

from spectral_billiards.geometry import (elliptic_table,
                                         elliptic_table_for_ellipse,
                                         make_circle, make_ellipse,
                                         make_fourier)


@pytest.fixture(scope="session")
def unit_circle():
    return make_circle(1.0)


@pytest.fixture(scope="session")
def ellipse21():
    return make_ellipse(2.0, 1.0)


@pytest.fixture(scope="session")
def fourier005():
    """Non-integrable convex table rho(t) = 1 + 0.05 cos(2t)."""
    return make_fourier([1.0, 0.0, 0.0, 0.05])


@pytest.fixture(scope="session")
def fourier003_001():
    """Non-integrable convex table rho(t) = 1 + 0.03 cos(2t) + 0.01 sin(3t)."""
    return make_fourier([1.0, 0.0, 0.0, 0.03, 0.0, 0.0, 0.01])


@pytest.fixture(scope="session", params=["circle", "ellipse", "fourier", "fourier003-001"])
def any_curve(request):
    """One table of each curve kind, each with its own bounce step, and a
    second Fourier table with two harmonics."""
    name = {"circle": "unit_circle", "ellipse": "ellipse21", "fourier": "fourier005",
            "fourier003-001": "fourier003_001"}
    return request.getfixturevalue(name[request.param])


@pytest.fixture(scope="session")
def table_c1():
    """Elliptic-coordinate table f = sin^2 x, q = -sinh^2 y, N = 1."""
    return elliptic_table(1.0, 1.0)


@pytest.fixture(scope="session")
def table_e21():
    """Liouville data of the a=2, b=1 ellipse."""
    return elliptic_table_for_ellipse(2.0, 1.0)


@pytest.fixture(scope="session")
def golden():
    return (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
