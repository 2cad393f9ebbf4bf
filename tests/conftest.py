import math

import pytest

from jumpspectra import geometry, measures, secular

RATIO = 1.2337          # incommensurate side ratio with simple low spectrum


@pytest.fixture(scope="session")
def disk():
    return geometry.unit_disk()


@pytest.fixture(scope="session")
def disk_basis(disk):
    return geometry.build_basis(disk, 2000.0)


@pytest.fixture(scope="session")
def disk_basis_small(disk):
    return geometry.build_basis(disk, 300.0)


@pytest.fixture(scope="session")
def square_basis():
    return geometry.build_basis(geometry.rectangle(math.pi, math.pi), 300.0)


@pytest.fixture(scope="session")
def rect_basis():
    return geometry.build_basis(
        geometry.rectangle(math.pi, RATIO * math.pi), 2000.0)


@pytest.fixture(scope="session")
def uniform_disk(disk_basis):
    mom = measures.compute_moments(measures.UniformMeasure(), disk_basis)
    return secular.build_secular_series(disk_basis, mom)


@pytest.fixture(scope="session")
def groundstate_disk(disk_basis):
    mom = measures.compute_moments(measures.GroundStateMeasure(), disk_basis)
    return secular.build_secular_series(disk_basis, mom)


@pytest.fixture(scope="session")
def uniform_rect(rect_basis):
    mom = measures.compute_moments(measures.UniformMeasure(), rect_basis)
    return secular.build_secular_series(rect_basis, mom)

