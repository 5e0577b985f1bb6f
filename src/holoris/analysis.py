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

import numpy as np

from .errors import DomainError, KneeUndefinedError, NumericalError
from .geometry import ArrayGeometry, ParityBlocks, as_blocks, chunks, gram_blocks, require_finite

_HERMITIAN_TOL = 1e-8
# Negative eigenvalues of a PSD matrix are round-off; more negative mass
# than this share of the largest eigenvalue means the input is not PSD.
_NEGATIVE_MASS_TOL = 1e-8
# Eigenpairs of R0 at or below this share of its largest eigenvalue are
# round-off of the solve; its factor leaves them out.
_RANK_CUTOFF = 1e-15
_DOMINANCE_THRESHOLD = 1e-2
# Knee detection looks at the dynamic range a log-scale eigenvalue plot
# actually shows; entries further than this factor below the maximum are
# numerical floor, not spectrum shape.
_KNEE_FLOOR = 1e-6
_KNEE_SEARCH_START = 4


@dataclass(frozen=True)
class EigenSpectrum:
    """Non-increasing real eigenvalue list with derived metrics.

    ``knee_index`` is None when no knee is detectable (all-flat spectra).
    ``asymptotic_dof`` is filled when the source geometry is known.
    ``negative_mass`` is the summed magnitude of the negative eigenvalues
    over the largest eigenvalue, before magnitudes were taken.
    """

    values: np.ndarray = field(repr=False)
    dominant_count: int
    knee_index: int | None
    asymptotic_dof: int | None = None
    negative_mass: float = 0.0


def effective_correlation(coupling, r0) -> ParityBlocks:
    """Effective correlation C^T R0 conj(C) under a coupling matrix,
    C_b^T R0_b conj(C_b) for each parity block: the basis is real and
    orthogonal, so transposes and conjugates stay inside it.  When only
    one of C and R0 has a lattice, both are taken whole, as one block.

    With R0 held as its factor F F^H (``factor``, whose PSD check is
    eigen_spectrum's), ``coupling`` is C^T F instead: the blocks
    Y_b = C_b^T F_b that ``coupling_tx``/``coupling_rx`` solve with the
    factors as right-hand sides.  The result is held as them, block b
    being Y_b Y_b^H, so it is solved and its ICSI rows are assembled
    without forming a block."""
    rb = as_blocks(r0)
    if rb.factors is not None:
        ys = tuple(coupling)
        if [np.shape(y) for y in ys] != [np.shape(f) for f in rb.factors]:
            raise DomainError("a factored correlation takes C^T F, shaped as its factors")
        return gram_blocks(ys, rb.geom)
    cb = as_blocks(coupling)
    if (cb.geom is None) != (rb.geom is None):
        cb, rb = as_blocks(cb.dense()), as_blocks(rb.dense())
    if cb.n != rb.n:
        raise DomainError(f"coupling dim {cb.n} and correlation dim {rb.n} must match")
    if cb.geom != rb.geom:
        raise DomainError(f"coupling and correlation must be on the same lattice, "
                          f"got {cb.geom} and {rb.geom}")
    return ParityBlocks(tuple(c.T @ r @ c.conj() for c, r in zip(cb.blocks, rb.blocks)), rb.geom)


def factor(r) -> ParityBlocks:
    """A Hermitian PSD matrix as F F^H at its numerical rank: one
    ``eigh`` per parity block, F_b = V_b sqrt(w_b) over the eigenpairs
    above 1e-15 of the largest eigenvalue of all blocks, held as the
    factors of ``gram_blocks``.  Each block is checked as
    ``eigen_spectrum`` checks it, and so is the negative eigenvalue mass
    of the whole: above 1e-8 of the largest, ``NumericalError``."""
    blocks = as_blocks(r)
    if blocks.n == 0:
        raise DomainError("factor of an empty matrix")
    real = blocks.table is not None and not np.iscomplexobj(blocks.table)
    ev, kept = [], []
    for b in blocks.blocks:
        w, v = np.linalg.eigh(_finite(b) if real else _hermitian_part(b))
        ev.append(w)
        # the pairs above the cut-off of the block's own largest eigenvalue,
        # a superset of those kept, so no block's whole V stays alive
        keep = w > _RANK_CUTOFF * w[-1]
        kept.append((w[keep], v[:, keep]))
        del v
    ev = np.concatenate(ev)
    _negative_mass(ev)
    cut = _RANK_CUTOFF * ev.max()
    return gram_blocks((v[:, w > cut] * np.sqrt(w[w > cut]) for w, v in kept), blocks.geom)


def _eigenvalue_list(values) -> np.ndarray:
    """``values`` as a float array; one that is not one-dimensional and
    finite raises ``DomainError``."""
    ev = np.asarray(values, dtype=float)
    if ev.ndim != 1:
        raise DomainError(f"eigenvalue list must be one-dimensional, got shape {ev.shape}")
    require_finite("eigenvalue list", ev)
    return ev


def dominant_count(values: np.ndarray) -> int:
    """Number of eigenvalues above 1e-2 times the largest; a list that
    is not one-dimensional and finite raises ``DomainError``."""
    values = _eigenvalue_list(values)
    if len(values) == 0:
        return 0
    return int((values > _DOMINANCE_THRESHOLD * values.max()).sum())


def knee_index(values: np.ndarray) -> int:
    """Index where a non-increasing eigenvalue list starts to drop rapidly.

    Maximizes the discrete second difference of log10(values), i.e. the
    downward bend 2 y[i] - y[i-1] - y[i+1], over the positive-eigenvalue
    range, searching from index 4 onward and only at indices whose value
    is within 1e-6 of the maximum (entries below that are numerical
    floor).  Ties resolve to the smallest index.  A list that is not
    one-dimensional, finite and non-increasing raises ``DomainError``.
    """
    ev = _eigenvalue_list(values)
    if np.any(ev[1:] > ev[:-1]):
        raise DomainError("eigenvalue list must be non-increasing")
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


def _finite(values: np.ndarray) -> np.ndarray:
    """A matrix that must be finite, tested a few rows at a time
    (``geometry.chunks``)."""
    for rows in chunks(len(values), len(values)):
        require_finite("matrix", values[rows])
    return values


def _hermitian_part(values: np.ndarray) -> np.ndarray:
    """(A + A^H) / 2 of a finite matrix that must be Hermitian within 1e-8
    of its largest entry; an exactly Hermitian matrix is returned as it
    is.  The finiteness test reads a few rows at a time, and the exact
    test compares them with the matching columns."""
    exact = True
    for rows in chunks(len(values), len(values)):
        require_finite("matrix", values[rows])
        exact = exact and np.array_equal(values[rows], values[:, rows].conj().T)
    if exact:
        return values
    skew = values - values.conj().T
    defect = float(np.abs(skew).max())
    top = float(np.abs(values).max())
    if defect > _HERMITIAN_TOL * top:
        raise DomainError(f"matrix not Hermitian: defect {defect:.3e} at scale {top:.3e}")
    return values - 0.5 * skew


def _parity_eigenvalues(r: ParityBlocks) -> np.ndarray:
    """Eigenvalues of ``r``, solved piece by piece (``ParityBlocks.pieces``)
    and each tiled by its multiplicity.  A piece gathered from a real
    table is exactly symmetric, so it is tested for finiteness only; any
    other is tested as Hermitian within 1e-8.  Each is released before
    the next is read, so lazy blocks are gathered one at a time."""
    evs = []
    for piece, count, symmetric in r.pieces():
        piece = _finite(piece) if symmetric else _hermitian_part(piece)
        evs.append(np.tile(np.linalg.eigvalsh(piece), count))
        del piece
    return np.concatenate(evs)


def _negative_mass(ev: np.ndarray) -> float:
    """Summed magnitude of the negative eigenvalues over the largest
    one; above 1e-8 the matrix is not PSD and ``NumericalError`` is
    raised."""
    top = float(ev.max())
    negative = float(np.abs(ev[ev < 0.0]).sum())  # +0.0, not -0.0, when there is none
    mass = negative / top if top > 0.0 else (math.inf if negative else 0.0)
    if mass > _NEGATIVE_MASS_TOL:
        raise NumericalError(
            f"negative eigenvalue mass {mass:.3e} of the largest eigenvalue "
            f"exceeds {_NEGATIVE_MASS_TOL:.0e}: matrix is not PSD"
        )
    return mass


def eigen_spectrum(r, normalize_by_n: bool = True) -> EigenSpectrum:
    """Eigenvalues of a correlation matrix, sorted non-increasing: the
    package's one check that a matrix is Hermitian PSD.

    Each block must be finite and Hermitian within 1e-8 of its largest
    entry, or ``DomainError`` is raised before it is solved.  It is
    solved block by block, exact for every lattice matrix that commutes
    with the x and z reversals.  The matrix's lattice, if it has one,
    sets ``asymptotic_dof``.  Under ``swap`` the (even, odd) block counts
    twice and each m^2 diagonal block is solved as swap halves of sizes
    m (m + 1) / 2 and m (m - 1) / 2, built from the offset table.  A real
    table's blocks and halves are symmetric by construction, so each is
    tested for finiteness only.

    Effective correlation matrices can carry tiny negative round-off
    eigenvalues; magnitudes are reported (matching how eigenvalue decay
    is normally displayed), which leaves exact PSD spectra untouched.
    Their summed magnitude over the largest eigenvalue is kept as
    ``negative_mass``; above 1e-8 the matrix is not PSD and
    ``NumericalError`` is raised.  ``factor`` runs the same checks on
    the R0 it factors, so an effective correlation held as Gram blocks
    (``effective_correlation`` of a factored R0) was checked there:
    its eigenvalues beyond the factor's rank are exact zeros.
    """
    blocks = as_blocks(r)
    if blocks.n == 0:
        raise DomainError("eigen spectrum of an empty matrix")
    ev = _parity_eigenvalues(blocks)
    negative_mass = _negative_mass(ev)
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
    matrix, given as an array or as blocks.

    A lattice matrix commutes with both lattice reversals, so the row
    ratios of a point and of its mirror images are equal: only the rows
    of one lattice quarter are assembled, each weighted by its count of
    mirror images (1, 2 or 4).  A matrix with no lattice is the one-block
    case: every row, weight 1.  The rows are assembled a chunk of points
    at a time (``geometry.chunks``, about 512 KiB of complex rows each),
    and the weighted row ratios of all chunks are summed once, so the
    result does not depend on the chunking.
    """
    q = as_blocks(q)
    points, weights = q.quarter()
    if q.n < 2:
        raise DomainError("ICSI needs at least two elements")
    ratios = []
    for k in chunks(len(points), q.n):
        mags = np.abs(q.rows(points[k]))
        require_finite("ICSI matrix", mags)
        diag = mags[np.arange(len(mags)), points[k]]
        if np.any(diag == 0.0):
            raise DomainError("ICSI undefined: zero diagonal entry")
        ratios.append(weights[k] * mags.sum(axis=1) / diag)
    return float((np.concatenate(ratios).sum() - q.n) / (q.n * (q.n - 1)))
