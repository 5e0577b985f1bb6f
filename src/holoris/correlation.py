"""Spatial correlation matrices under isotropic scattering.

For elements confined to the xoz plane and scattering power spread
uniformly over the half-space solid angle, the pairwise correlation
collapses to a sinc kernel of the element distance:

    corr(n1, n2) = sinc(2 |d_n1 - d_n2| / wavelength)

so the full matrix on a uniform lattice is symmetric block-Toeplitz
with Toeplitz blocks (BTTB).
"""

import numpy as np

from .errors import DomainError
from .geometry import ArrayGeometry, ParityBlocks, parity_blocks


def sinc_table(nx: int, nz: int, step_x: float, step_z: float,
               wavelength: float) -> np.ndarray:
    """The sinc kernel sinc(2 |d| / wavelength) at the offsets
    d = (l step_x, m step_z) for 0 <= l < nx and 0 <= m < nz, shape
    (nx, nz): the package's one evaluation of the kernel."""
    dist = np.hypot(np.arange(nx)[:, None] * step_x, np.arange(nz)[None, :] * step_z)
    return np.sinc(2.0 * dist / wavelength)


def sinc_offset_table(geom: ArrayGeometry) -> np.ndarray:
    """The sinc kernel at every lattice offset (|di|, |dk|), shape (nx, nz)."""
    return sinc_table(geom.nx, geom.nz, geom.dx, geom.dz, geom.wavelength)


def correlation_matrix_isotropic(geom: ArrayGeometry) -> ParityBlocks:
    """Correlation matrix of a geometry under isotropic scattering: the
    package's one R0 constructor.

    Entries are the closed-form sinc kernel of pairwise distances,
    evaluated once per lattice offset; the blocks keep that table and
    gather a parity block each time one is read, and the matrix when
    first read.  It is real with unit diagonal, and Hermitian
    positive-semidefinite (``eigen_spectrum`` and ``analysis.factor``
    check both).
    """
    if geom.n == 0:
        raise DomainError("geometry has no elements")
    return parity_blocks(sinc_offset_table(geom), geom, lazy=True)

