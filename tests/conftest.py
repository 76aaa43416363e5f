import numpy as np
import pytest

from spingas.optics import AtomSystem, cesium_collisions, cesium_doppler
from spingas.sweep import _pin_blas_threads


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """One OpenBLAS thread for the whole session, as every CLI command and
    sweep pins it, so a test's last bits do not depend on which tests ran
    before it."""
    _pin_blas_threads()


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
