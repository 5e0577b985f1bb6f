"""Spatial correlation matrices under isotropic scattering.

For elements confined to the xoz plane and scattering power spread
uniformly over the half-space solid angle, the pairwise correlation
collapses to a sinc kernel of the element distance:

    corr(n1, n2) = sinc(2 |d_n1 - d_n2| / wavelength)

so the full matrix on a uniform lattice is symmetric block-Toeplitz
with Toeplitz blocks (BTTB).
"""

from enum import Enum

import numpy as np

from .errors import DomainError
from .geometry import ArrayGeometry, BlockMatrix, ParityBlocks, parity_blocks


class CorrelationKind(Enum):
    MC_UNAWARE = "mc_unaware"
    EFFECTIVE_TX = "effective_tx"
    EFFECTIVE_RX = "effective_rx"


class CorrelationMatrix(BlockMatrix):
    """Hermitian positive-semidefinite correlation matrix (``eigen_spectrum``
    checks both): its ``values``, or the mirror-parity ``blocks`` of a
    lattice matrix."""

    def __init__(self, values: np.ndarray | None = None,
                 kind: CorrelationKind = CorrelationKind.MC_UNAWARE, *,
                 blocks: ParityBlocks | None = None):
        super().__init__(values, blocks)
        self.kind = kind


def sinc_offset_table(geom: ArrayGeometry) -> np.ndarray:
    """The sinc kernel sinc(2 |d| / wavelength) at every lattice offset
    (|di|, |dk|), shape (nx, nz)."""
    dist = np.hypot(np.arange(geom.nx)[:, None] * geom.dx,
                    np.arange(geom.nz)[None, :] * geom.dz)
    return np.sinc(2.0 * dist / geom.wavelength)


def correlation_matrix_isotropic(geom: ArrayGeometry) -> CorrelationMatrix:
    """Correlation matrix of a geometry under isotropic scattering.

    Entries are the closed-form sinc kernel of pairwise distances,
    evaluated once per lattice offset; the parity blocks are gathered
    from that table, and the matrix when first read.  It is real with
    unit diagonal.
    """
    if geom.n == 0:
        raise DomainError("geometry has no elements")
    return CorrelationMatrix(blocks=parity_blocks(sinc_offset_table(geom), geom))

