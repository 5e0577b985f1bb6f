"""Impedance matrices for half-wave dipole and isotropic element models,
and the normalized coupling matrices they induce at the transmit and
receive side.

Dipole mutual impedances use the induced-EMF closed forms for two
parallel half-wave dipoles in echelon (horizontal separation dh,
vertical center offset dv, axes along z), expressed through
F = Ci - j Si; they take arrays, so a whole offset table is one
evaluation.  The side-by-side (dv = 0) and collinear (dh = 0)
cases are the continuous limits of the echelon expressions; the
collinear log terms are written out explicitly since the echelon form
degenerates at dh = 0.
"""

import math

import numpy as np

from .errors import DomainError, NumericalError
from .correlation import sinc_offset_table
from .geometry import ArrayGeometry, ElementKind, ParityBlocks, parity_blocks
from .specfun import cosine_integral as Ci
from .specfun import sine_integral as Si

FREE_SPACE_IMPEDANCE = 120.0 * math.pi  # ohms
HALF_WAVE_DIPOLE_SELF_IMPEDANCE = 73.1 + 42.5j  # ohms
DEFAULT_ISOTROPIC_RESISTANCE = 73.1  # ohms; shares the dipole resistance scale
_SCALE = FREE_SPACE_IMPEDANCE / (8.0 * math.pi)  # closed-form prefactor, ohms


class ImpedanceMatrix(ParityBlocks):
    """Symmetric complex impedance matrix in ohms, as parity blocks.  Its
    self-impedance ``z_self`` is read from it: the offset table's
    zero-offset entry, or the first diagonal entry of a matrix with no
    table."""

    @property
    def z_self(self) -> complex:
        return complex((self.values if self.table is None else self.table)[0, 0])


def _shifted_condition(z: ImpedanceMatrix, shift: complex) -> float:
    """2-norm condition number of Z + shift I, the largest over the
    smallest singular value of its blocks (the basis is orthonormal), or
    nan when an SVD fails, as it does on non-finite entries."""
    try:
        s = np.concatenate([np.linalg.svd(b + shift * np.eye(len(b)), compute_uv=False)
                            for b in z.blocks])
    except np.linalg.LinAlgError:
        return math.nan
    return float(s.max() / s.min()) if s.min() != 0 else math.inf


def _impedance_matrix(table: np.ndarray, geom: ArrayGeometry) -> ImpedanceMatrix:
    """The impedance matrix gathered from an (nx, nz) offset table."""
    b = parity_blocks(table, geom)
    return ImpedanceMatrix(b.blocks, geom, b.table)


def dipole_mutual_impedance(dh: float, dv: float, wavelength: float = 1.0) -> complex:
    """Mutual impedance (ohms) of two parallel half-wave dipoles.

    Parameters
    ----------
    dh : float
        Horizontal center separation, perpendicular to the dipole axes.
    dv : float
        Vertical center offset along the dipole axes.
    wavelength : float
        Carrier wavelength in the same length unit.

    Returns
    -------
    complex
        Mutual impedance referred to the input (maximum) currents.

    Notes
    -----
    Coincident dipoles must use the self-impedance instead, and touching
    or overlapping collinear dipoles (dh = 0, dv <= wavelength/2) have a
    divergent filament coupling integral; both raise ``DomainError``.
    """
    if dh < 0 or dv < 0 or not (math.isfinite(dh) and math.isfinite(dv)):
        raise DomainError(f"separations must be finite and >= 0, got ({dh}, {dv})")
    if not (wavelength > 0 and math.isfinite(wavelength)):
        raise DomainError(f"wavelength must be positive and finite, got {wavelength}")
    if dh == 0.0 and dv == 0.0:
        raise DomainError("coincident dipoles: use the self-impedance, not the mutual term")
    if dh == 0.0:
        return complex(_collinear(dv, wavelength))
    return complex(_echelon(dh, dv, wavelength))


def _radial_sum_diff(d: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r + s, r - s) with r = hypot(d, s) for d > 0, avoiding the
    cancellation in r - |s| by using r - |s| = d^2 / (r + |s|)."""
    r = np.hypot(d, s)
    near = d * d / (r + np.abs(s))
    return np.where(s >= 0, r + s, near), np.where(s >= 0, near, r - s)


def _echelon(d, h, wavelength: float) -> np.ndarray:
    """Echelon closed form for horizontal separations d > 0 and vertical
    offsets h (broadcast together), with F = Ci - j Si:

        scale [e^{jkh} (2F(u1) - F(u2) - F(u3)) + e^{-jkh} (2F(u1') - F(u2') - F(u3'))]
    """
    k = 2.0 * math.pi / wavelength
    l = wavelength / 2.0  # dipole length
    sums, diffs = zip(*(_radial_sum_diff(d, h + t) for t in (0.0, -l, l)))
    u = k * np.stack(sums + diffs)
    f = Ci(u) - 1j * Si(u)
    lead = np.exp(1j * k * h)
    return _SCALE * (lead * (2 * f[0] - f[1] - f[2]) + lead.conj() * (2 * f[3] - f[4] - f[5]))


def _collinear(h, wavelength: float) -> np.ndarray:
    """Collinear (d -> 0) limit of the echelon form for h > l: the
    diverging F(u') terms combine into the finite -log(h^2 / (h^2 - l^2)).
    Touching or overlapping dipoles (h <= l) raise ``DomainError``."""
    k = 2.0 * math.pi / wavelength
    l = wavelength / 2.0
    if np.any(h <= l):
        raise DomainError(f"collinear dipoles with dv={np.min(h)} <= length {l} touch or overlap")
    u = 2.0 * k * np.stack([h, h - l, h + l])
    f = Ci(u) - 1j * Si(u)
    lead = np.exp(1j * k * h)
    log_term = np.log(h * h / (h * h - l * l))
    return _SCALE * (lead * (2 * f[0] - f[1] - f[2]) - lead.conj() * log_term)


def impedance_matrix_dipoles(geom: ArrayGeometry,
                             z_self: complex = HALF_WAVE_DIPOLE_SELF_IMPEDANCE
                             ) -> ImpedanceMatrix:
    """Impedance matrix of a stacked half-wave dipole layout.

    Mutual terms depend on the pair displacement only, so the (nx, nz)
    table of one value per (|di|, |dk|) index offset is evaluated in one
    pass (echelon for di >= 1, collinear for di = 0) and gathered into
    the parity blocks.
    """
    if geom.element_kind is not ElementKind.HALF_WAVE_DIPOLE:
        raise DomainError(
            f"dipole impedance model needs half_wave_dipole elements, got {geom.element_kind.value}"
        )
    dh = np.arange(1, geom.nx) * geom.dx
    dv = np.arange(geom.nz) * geom.dz
    table = np.empty((geom.nx, geom.nz), dtype=complex)
    table[0, 0] = z_self
    table[0, 1:] = _collinear(dv[1:], geom.wavelength)
    table[1:] = _echelon(dh[:, None], dv[None, :], geom.wavelength)
    return _impedance_matrix(table, geom)


def impedance_matrix_isotropic(geom: ArrayGeometry,
                               r_iso: float = DEFAULT_ISOTROPIC_RESISTANCE
                               ) -> ImpedanceMatrix:
    """Purely real impedance matrix of isotropic elements: the radiation
    resistance times the sinc kernel of pairwise distances (the
    reactive part is assumed matched out)."""
    if not (r_iso > 0 and math.isfinite(r_iso)):
        raise DomainError(f"r_iso must be positive, got {r_iso}")
    table = (r_iso * sinc_offset_table(geom)).astype(complex)
    return _impedance_matrix(table, geom)


def _normalized_inverse(z: ImpedanceMatrix, port: complex, tx: bool) -> ParityBlocks:
    """The transmit (``tx``) or receive coupling matrix, solved block by
    block: the blocks of Z give those of C, in the same basis."""
    port, z_self = complex(port), z.z_self
    side, name = ("tx", "z_source") if tx else ("rx", "z_load")
    if z_self + port == 0:
        raise DomainError(f"z_self + {name} = 0 leaves the normalization undefined")
    if tx and z_self == 0:
        raise DomainError("z_self = 0 leaves the transmit normalization undefined")
    prefactor = 1.0 + port / z_self if tx else z_self + port
    out = []
    for zb in z.blocks:
        eye = np.eye(len(zb), dtype=complex)
        numerator = zb if tx else eye
        try:
            solved = np.linalg.solve((zb + port * eye).T, numerator.T).T  # numerator @ inv(a)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular system in {side} coupling "
                                 f"(condition {_shifted_condition(z, port):.3e})") from exc
        if not np.all(np.isfinite(solved)):
            raise NumericalError(f"non-finite {side} coupling entries "
                                 f"(condition {_shifted_condition(z, port):.3e})")
        out.append(prefactor * solved)
    return ParityBlocks(tuple(out), z.geom)


def coupling_tx(z: ImpedanceMatrix, z_source: complex) -> ParityBlocks:
    """Transmit-side coupling matrix (1 + zS/zA) Z (Z + zS I)^-1."""
    return _normalized_inverse(z, z_source, tx=True)


def coupling_rx(z: ImpedanceMatrix, z_load: complex) -> ParityBlocks:
    """Receive-side coupling matrix (zA + zL) (Z + zL I)^-1."""
    return _normalized_inverse(z, z_load, tx=False)
