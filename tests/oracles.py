"""Reference checks that the tests compare the package against.

The package builds every lattice matrix from its offset table, so it is
block-Toeplitz with Toeplitz blocks (BTTB) by construction; ``verify_bttb``
checks that from the matrix entries alone.  ``isotropic_scattering_density``
is the angular weight of the correlation quadrature oracle.

``table_block`` and ``swap_halves`` are the straightforward whole-array
forms of the package's parity-block gather and swap-half build, which
build their results in place, or from a table of unordered index pairs
without the whole block; each package result must equal its oracle bit
for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from holoris import ArrayGeometry, Direction, DomainError
from holoris.geometry import _SQRT1_2, _parities, gather_offsets


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


def _mirror_gather(table: np.ndarray, axis: int, odd: bool) -> np.ndarray:
    """One offset axis of a table in the even or odd half of its mirror
    basis: the axis becomes two, (r, c), holding w_r w_c (T(|r - c|) +/-
    T(n - 1 - r - c))."""
    n = table.shape[axis]
    h = n // 2
    m = h if odd else n - h
    i = np.arange(m)
    b = np.take(table, np.abs(i[:, None] - i), axis)
    far = np.take(table, n - 1 - i[:, None] - i, axis)
    if odd:
        b -= far
    else:
        b += far
    if m > h:
        w = np.ones(m)
        w[h] = _SQRT1_2
        b *= (w[:, None] * w).reshape((m, m) + (1,) * (b.ndim - axis - 2))
    return b


def table_block(table: np.ndarray, geom: ArrayGeometry, k: int) -> np.ndarray:
    """Parity block k of an (nx, nz) offset table: gathered along z, then
    along x, as one (rx, cx, rz, cz) array, transposed to z-major rows."""
    pz, px, mz, mx = list(_parities(geom))[k]
    b = _mirror_gather(_mirror_gather(table, 1, pz), 0, px)
    return b.transpose(2, 0, 3, 1).reshape(mz * mx, mz * mx)


def swap_half(b: np.ndarray, m: int, antisymmetric: bool) -> np.ndarray:
    """Half of a swap-commuting diagonal parity block of m x m points, in
    the basis (e_ab + e_ba) / sqrt(2) and e_aa, or (e_ab - e_ba) / sqrt(2),
    a < b, built whole."""
    a, c = np.triu_indices(m, k=int(antisymmetric))
    i, j = a * m + c, c * m + a
    h = b[np.ix_(i, i)]
    h += b[np.ix_(j, j)]
    cross = b[np.ix_(i, j)]
    cross += b[np.ix_(j, i)]
    (np.subtract if antisymmetric else np.add)(h, cross, out=h)
    w = np.where(a == c, 0.5, math.sqrt(0.5))
    h *= np.outer(w, w)
    return h


def swap_halves(table: np.ndarray, geom: ArrayGeometry, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The antisymmetric and symmetric swap halves of diagonal parity
    block k of a square lattice's offset table: the block gathered whole
    by ``table_block``, and each half read from it whole."""
    b = table_block(table, geom, k)
    m = list(_parities(geom))[k][2]
    return swap_half(b, m, True), swap_half(b, m, False)
