import numpy as np
import pytest

from spingas.optics import AtomSystem, cesium_collisions, cesium_doppler


@pytest.fixture(scope="session")
def system():
    return AtomSystem()


@pytest.fixture(scope="session")
def collisions():
    return cesium_collisions()


@pytest.fixture(scope="session")
def doppler():
    return cesium_doppler()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_density(rng, dim=16):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real
