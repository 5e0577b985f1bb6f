"""Effective correlation under coupling, eigenvalue spectra, knee and
dominance metrics, and the inter-element correlation/coupling strength
indicator (ICSI).

ICSI of a square matrix Q is the mean off-diagonal magnitude normalized
per row by the diagonal magnitude:

    ICSI = 1 / (N (N-1)) * sum_{n != m} |Q[n, m]| / |Q[n, n]|

0 means no off-diagonal coupling/correlation, 1 the all-ones extreme.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .correlation import CorrelationKind, CorrelationMatrix
from .coupling import CouplingMatrix, CouplingSide
from .errors import DomainError, KneeUndefinedError, NumericalError
from .geometry import ArrayGeometry, ParityBlocks, _parities, as_blocks

_HERMITIAN_TOL = 1e-8
_CHECK_BYTES = 1 << 20  # scratch of one row chunk of the exact Hermitian test
# Negative eigenvalues of a PSD matrix are round-off; more negative mass
# than this share of the largest eigenvalue means the input is not PSD.
_NEGATIVE_MASS_TOL = 1e-8
_DOMINANCE_THRESHOLD = 1e-2
# Knee detection looks at the dynamic range a log-scale eigenvalue plot
# actually shows; entries further than this factor below the maximum are
# numerical floor, not spectrum shape.
_KNEE_FLOOR = 1e-6
_KNEE_SEARCH_START = 4


class Normalization(Enum):
    RAW = "raw"
    BY_N = "by_N"


@dataclass(frozen=True)
class EigenSpectrum:
    """Non-increasing real eigenvalue list with derived metrics.

    ``knee_index`` is None when no knee is detectable (all-flat spectra).
    ``asymptotic_dof`` is filled when the source geometry is known.
    ``negative_mass`` is the summed magnitude of the negative eigenvalues
    over the largest eigenvalue, before magnitudes were taken.
    """

    values: np.ndarray = field(repr=False)
    normalization: Normalization
    dominant_count: int
    knee_index: int | None
    asymptotic_dof: int | None = None
    negative_mass: float = 0.0

    @property
    def n(self) -> int:
        return len(self.values)


def effective_correlation(coupling: CouplingMatrix,
                          r0: CorrelationMatrix | ParityBlocks) -> CorrelationMatrix:
    """Effective correlation C^T R0 conj(C) under a coupling matrix,
    C_b^T R0_b conj(C_b) for each parity block: the basis is real and
    orthogonal, so transposes and conjugates stay inside it.  When only
    one of C and R0 has a lattice, both are taken whole, as one block."""
    if getattr(r0, "kind", CorrelationKind.MC_UNAWARE) is not CorrelationKind.MC_UNAWARE:
        raise DomainError(f"base correlation must be mc_unaware, got {r0.kind.value}")
    cb, rb = as_blocks(coupling), as_blocks(r0)
    if (cb.geom is None) != (rb.geom is None):
        cb, rb = as_blocks(cb.dense()), as_blocks(rb.dense())
    if cb.geom is not rb.geom or cb.n != rb.n:
        raise DomainError(f"coupling dim {cb.n} and correlation dim {rb.n} must match, "
                          "on the same lattice")
    kind = (CorrelationKind.EFFECTIVE_TX if coupling.side is CouplingSide.TX
            else CorrelationKind.EFFECTIVE_RX)
    return CorrelationMatrix(blocks=ParityBlocks(
        tuple(c.T @ r @ c.conj() for c, r in zip(cb.blocks, rb.blocks)), rb.geom), kind=kind)


def dominant_count(values: np.ndarray,
                   threshold: float = _DOMINANCE_THRESHOLD) -> int:
    """Number of eigenvalues above ``threshold`` times the largest."""
    values = np.asarray(values)
    if len(values) == 0:
        return 0
    return int((values > threshold * values.max()).sum())


def knee_index(values) -> int:
    """Index where a non-increasing eigenvalue list starts to drop rapidly.

    Maximizes the discrete second difference of log10(values), i.e. the
    downward bend 2 y[i] - y[i-1] - y[i+1], over the positive-eigenvalue
    range, searching from index 4 onward and only at indices whose value
    is within 1e-6 of the maximum (entries below that are numerical
    floor).  Ties resolve to the smallest index.
    """
    ev = np.asarray(getattr(values, "values", values), dtype=float)
    ev = ev[ev > 0.0]
    if len(ev) < 8:
        raise DomainError(f"knee detection needs >= 8 positive eigenvalues, got {len(ev)}")
    spread = (ev.max() - ev.min()) / ev.max()
    if spread < 1e-9:
        raise KneeUndefinedError("knee undefined for an all-equal spectrum")
    y = np.log10(ev)
    last = len(ev) - 2
    while last > 0 and ev[last] < _KNEE_FLOOR * ev[0]:
        last -= 1
    if last < _KNEE_SEARCH_START:
        raise KneeUndefinedError(
            "knee undefined: no searchable indices within the dynamic range"
        )
    idx = np.arange(_KNEE_SEARCH_START, last + 1)
    bend = 2.0 * y[idx] - y[idx - 1] - y[idx + 1]
    return int(idx[np.argmax(bend)])


def _hermitian_part(values: np.ndarray) -> np.ndarray:
    """(A + A^H) / 2 of a matrix that must be Hermitian within 1e-8 of
    its largest entry; an exactly Hermitian matrix is returned as it is.
    The exact test compares a few rows at a time with the matching
    columns, so its scratch (their conjugate, when complex, and the bool
    result) stays near 1 MiB."""
    rows = max(1, _CHECK_BYTES // ((values.itemsize + 1) * len(values)))
    if all(np.array_equal(values[i:i + rows], values[:, i:i + rows].conj().T)
           for i in range(0, len(values), rows)):
        return values
    skew = values - values.conj().T
    defect = float(np.abs(skew).max())
    top = float(np.abs(values).max())
    if defect > _HERMITIAN_TOL * top:
        raise DomainError(f"matrix not Hermitian: defect {defect:.3e} at scale {top:.3e}")
    return values - 0.5 * skew


def _swap_half(b: np.ndarray, m: int, antisymmetric: bool) -> np.ndarray:
    """Half of a swap-commuting diagonal parity block of m x m points, in
    the basis (e_ab + e_ba) / sqrt(2) and e_aa, or (e_ab - e_ba) / sqrt(2),
    a < b; terms are paired so that it is exactly Hermitian if b is.  It
    is built m rows at a time, so beside the block and the half it holds
    only scratch of m rows."""
    a, c = np.triu_indices(m, k=int(antisymmetric))
    i, j = a * m + c, c * m + a
    w = np.where(a == c, 0.5, math.sqrt(0.5))
    join = np.subtract if antisymmetric else np.add
    h = np.empty((len(i), len(i)), b.dtype)
    for p in range(0, len(i), m):
        rows, ri, rj = h[p:p + m], i[p:p + m, None], j[p:p + m, None]
        np.add(b[ri, i], b[rj, j], out=rows)
        join(rows, b[ri, j] + b[rj, i], out=rows)
        rows *= w[p:p + m, None] * w
    return h


def _parity_eigenvalues(r: ParityBlocks):
    """Eigenvalues of the blocks of ``r``, one array per solve; a block
    is read only after the last was released, so lazy blocks are
    gathered one at a time, and under ``r.swap`` each half is built only
    after the last was solved.  A diagonal block's antisymmetric half is
    solved before its symmetric one; they are yielded in the other order."""
    # the parities matter only under swap, which needs a lattice
    parities = _parities(r.geom) if r.swap else [(False, False, 0, 0)] * len(r.blocks)
    for k, (odd_z, odd_x, m, _) in enumerate(parities):
        if r.swap and odd_z and not odd_x:
            continue  # (odd, even) is the swap image of (even, odd)
        b = _hermitian_part(r.blocks[k])
        if not r.swap:
            yield np.linalg.eigvalsh(b)
        elif odd_z == odd_x:
            # the smaller half is solved first: glibc maps a request at least
            # as large as any mapped block freed before, and unmaps it when
            # freed, so in ascending order no half or its LAPACK copy stays
            # in the heap under the next block's solve (16 MiB at N = 9409)
            anti = np.linalg.eigvalsh(_swap_half(b, m, True)) if m > 1 else None
            yield np.linalg.eigvalsh(_swap_half(b, m, False))
            if anti is not None:
                yield anti
        else:
            yield np.tile(np.linalg.eigvalsh(b), 2)
        del b


def eigen_spectrum(r: CorrelationMatrix | ParityBlocks,
                   normalize_by_n: bool = True) -> EigenSpectrum:
    """Eigenvalues of a correlation matrix, sorted non-increasing: the
    package's one check that a matrix is Hermitian PSD.

    Each block must be Hermitian within 1e-8 of its largest entry, or
    ``DomainError`` is raised.  It is solved block by block, exact for
    every lattice matrix that commutes with the x and z reversals.  The
    matrix's lattice, if it has one, sets ``asymptotic_dof``.  Under
    ``swap`` the (even, odd) block counts twice and each m^2 diagonal
    block is solved as swap halves of sizes m (m + 1) / 2 and
    m (m - 1) / 2.

    Effective correlation matrices can carry tiny negative round-off
    eigenvalues; magnitudes are reported (matching how eigenvalue decay
    is normally displayed), which leaves exact PSD spectra untouched.
    Their summed magnitude over the largest eigenvalue is kept as
    ``negative_mass``; above 1e-8 the matrix is not PSD and
    ``NumericalError`` is raised.
    """
    blocks = as_blocks(r)
    if blocks.n == 0:
        raise DomainError("eigen spectrum of an empty matrix")
    ev = np.concatenate(list(_parity_eigenvalues(blocks)))
    top = float(ev.max())
    negative = float(np.abs(ev[ev < 0.0]).sum())  # +0.0, not -0.0, when there is none
    negative_mass = negative / top if top > 0.0 else (math.inf if negative else 0.0)
    if negative_mass > _NEGATIVE_MASS_TOL:
        raise NumericalError(
            f"negative eigenvalue mass {negative_mass:.3e} of the largest eigenvalue "
            f"exceeds {_NEGATIVE_MASS_TOL:.0e}: matrix is not PSD"
        )
    ev = np.sort(np.abs(ev))[::-1]
    if normalize_by_n:
        ev = ev / blocks.n
    knee: int | None
    try:
        knee = knee_index(ev)
    except (DomainError, KneeUndefinedError):
        knee = None
    return EigenSpectrum(
        values=ev,
        normalization=Normalization.BY_N if normalize_by_n else Normalization.RAW,
        dominant_count=dominant_count(ev),
        knee_index=knee,
        asymptotic_dof=None if blocks.geom is None else asymptotic_dof(blocks.geom),
        negative_mass=negative_mass,
    )


def asymptotic_dof(geom: ArrayGeometry) -> int:
    """Far-field spatial degrees of freedom of the aperture,
    ceil(pi lx lz / wavelength^2)."""
    return math.ceil(math.pi * geom.lx * geom.lz / geom.wavelength**2)


def icsi(q) -> float:
    """Inter-element correlation/coupling strength indicator of a square
    matrix: a raw array, any of the matrix wrapper types, or blocks.

    A lattice matrix commutes with both lattice reversals, so the row
    ratios of a point and of its mirror images are equal: only the rows
    of one lattice quarter are assembled, each weighted by its count of
    mirror images (1, 2 or 4).  A matrix with no lattice is the one-block
    case: every row, weight 1.
    """
    q = as_blocks(q)
    points, weights = q.quarter()
    if q.n < 2:
        raise DomainError("ICSI needs at least two elements")
    mags = np.abs(q.rows(points))
    diag = mags[np.arange(len(points)), points]
    if np.any(diag == 0.0):
        raise DomainError("ICSI undefined: zero diagonal entry")
    return float(((weights * mags.sum(axis=1) / diag).sum() - q.n) / (q.n * (q.n - 1)))
