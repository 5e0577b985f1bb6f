"""Spatial correlation matrices under isotropic scattering.

For elements confined to the xoz plane and scattering power spread
uniformly over the half-space solid angle, the pairwise correlation
collapses to a sinc kernel of the element distance:

    corr(n1, n2) = sinc(2 |d_n1 - d_n2| / wavelength)

so the full matrix on a uniform lattice is symmetric block-Toeplitz
with Toeplitz blocks (BTTB).
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .geometry import ArrayGeometry, BlockMatrix, Direction, ParityBlocks, gather_offsets


class CorrelationKind(Enum):
    MC_UNAWARE = "mc_unaware"
    EFFECTIVE_TX = "effective_tx"
    EFFECTIVE_RX = "effective_rx"


class CorrelationMatrix(BlockMatrix):
    """Hermitian positive-semidefinite correlation matrix (``eigen_spectrum``
    checks both): its ``values``, the mirror-parity ``blocks`` of a lattice
    matrix, or the (nx, nz) offset ``table`` of a lattice ``geom``."""

    def __init__(self, values: np.ndarray | None = None,
                 kind: CorrelationKind = CorrelationKind.MC_UNAWARE, *,
                 blocks: ParityBlocks | None = None, table: np.ndarray | None = None,
                 geom: ArrayGeometry | None = None):
        super().__init__(values, blocks, table, geom)
        self.kind = kind


@dataclass(frozen=True)
class BttbReport:
    is_bttb: bool
    max_violation: float


def isotropic_scattering_density(direction: Direction) -> float:
    """Scattering density sin(theta) / (2 pi) over (phi, theta) in [0, pi]^2.

    Integrates to 1 over the domain.
    """
    return math.sin(direction.theta) / (2.0 * math.pi)


def sinc_offset_table(geom: ArrayGeometry) -> np.ndarray:
    """The sinc kernel sinc(2 |d| / wavelength) at every lattice offset
    (|di|, |dk|), shape (nx, nz)."""
    dist = np.hypot(np.arange(geom.nx)[:, None] * geom.dx,
                    np.arange(geom.nz)[None, :] * geom.dz)
    return np.sinc(2.0 * dist / geom.wavelength)


def correlation_matrix_isotropic(geom: ArrayGeometry) -> CorrelationMatrix:
    """Correlation matrix of a geometry under isotropic scattering.

    Entries are the closed-form sinc kernel of pairwise distances,
    evaluated once per lattice offset; the matrix and its parity blocks
    are gathered from that table when first read.  It is real with unit
    diagonal.
    """
    if geom.n == 0:
        raise DomainError("geometry has no elements")
    return CorrelationMatrix(table=sinc_offset_table(geom), geom=geom,
                             kind=CorrelationKind.MC_UNAWARE)


def verify_bttb(matrix, geom: ArrayGeometry, tol: float = 1e-10) -> BttbReport:
    """Check the symmetric block-Toeplitz-with-Toeplitz-blocks structure
    of a matrix built on a uniform grid (row-major ordering, x index
    fastest): every entry must depend only on the index-offset
    magnitudes (|di|, |dk|), as the lattice matrices of this package do.

    The reference matrix is gathered from the first row (the offsets from
    the corner element); ``max_violation`` is the largest entry mismatch.
    """
    values = matrix.values if hasattr(matrix, "values") else np.asarray(matrix)
    n = geom.n
    if values.shape != (n, n):
        raise DomainError(
            f"matrix shape {values.shape} does not match geometry with {n} elements"
        )
    table = values[0].reshape(geom.nz, geom.nx).T
    worst = float(np.abs(values - gather_offsets(table, geom)).max())
    return BttbReport(is_bttb=worst <= tol, max_violation=worst)
