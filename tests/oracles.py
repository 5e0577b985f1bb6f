"""Reference checks that the tests compare the package against.

The package builds every lattice matrix from its offset table, so it is
block-Toeplitz with Toeplitz blocks (BTTB) by construction; ``verify_bttb``
checks that from the matrix entries alone.  ``isotropic_scattering_density``
is the angular weight of the correlation quadrature oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from holoris import ArrayGeometry, Direction, DomainError
from holoris.geometry import gather_offsets


@dataclass(frozen=True)
class BttbReport:
    is_bttb: bool
    max_violation: float


def isotropic_scattering_density(direction: Direction) -> float:
    """Scattering density sin(theta) / (2 pi) over (phi, theta) in [0, pi]^2.

    Integrates to 1 over the domain.
    """
    return math.sin(direction.theta) / (2.0 * math.pi)


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
