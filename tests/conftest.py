import math

import pytest

from whitney_lab.geometry import Parallelepiped, QuadratureSpec

INF = math.inf


@pytest.fixture(scope="session")
def unit_box_1d():
    return Parallelepiped([0.0], [1.0])


@pytest.fixture(scope="session")
def unit_box_2d():
    return Parallelepiped([0.0, 0.0], [1.0, 1.0])


@pytest.fixture(scope="session")
def quad_1d():
    return QuadratureSpec()


@pytest.fixture(scope="session")
def quad_2d():
    return QuadratureSpec()


@pytest.fixture(scope="session")
def quad_2d_fast():
    return QuadratureSpec(nodes=16, sup_nodes=17)
