import numpy as np
import pytest

from holoris import (ParityBlocks, correlation_matrix_isotropic, impedance_matrix_dipoles,
                     make_dipole_array)

Z_ANTENNA = 73.1 + 42.5j
Z_MATCH = Z_ANTENNA.conjugate()
SPACINGS = (0.5, 0.25, 0.125)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def dipole_geometries():
    """Reference stacked-dipole layouts: 4-wavelength row aperture,
    8 rows, 0.02-wavelength gap, for the three studied x spacings."""
    return {sp: make_dipole_array(4.0, sp, 8, 0.02, 1.0) for sp in SPACINGS}


@pytest.fixture(scope="session")
def dipole_correlations(dipole_geometries):
    return {sp: correlation_matrix_isotropic(g)
            for sp, g in dipole_geometries.items()}


@pytest.fixture(scope="session")
def dipole_impedances(dipole_geometries):
    return {sp: impedance_matrix_dipoles(g)
            for sp, g in dipole_geometries.items()}


@pytest.fixture(scope="session")
def dipole_stack_520():
    """The reference stack at 1/16 wavelength (N = 520), the densest that
    a benchmark workload builds: its geometry and impedance matrix."""
    g = make_dipole_array(4.0, 1 / 16, 8, 0.02, 1.0)
    return g, impedance_matrix_dipoles(g)


def random_coupling(rng, n, scale=0.3):
    """Well-conditioned random complex coupling matrix for property tests,
    as one block."""
    m = np.eye(n) + scale * (rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    return ParityBlocks((m,))
