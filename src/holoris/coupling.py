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
from .geometry import ArrayGeometry, ElementKind, ParityBlocks, gram_blocks, parity_blocks
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
    return ImpedanceMatrix(parity_blocks(table, geom).blocks, geom)


def impedance_matrix_isotropic(geom: ArrayGeometry,
                               r_iso: float = DEFAULT_ISOTROPIC_RESISTANCE
                               ) -> ImpedanceMatrix:
    """Purely real impedance matrix of isotropic elements: the radiation
    resistance times the sinc kernel of pairwise distances (the
    reactive part is assumed matched out)."""
    if not (r_iso > 0 and math.isfinite(r_iso)):
        raise DomainError(f"r_iso must be positive, got {r_iso}")
    table = (r_iso * sinc_offset_table(geom)).astype(complex)
    return ImpedanceMatrix(parity_blocks(table, geom).blocks, geom)


def couplings(z: ImpedanceMatrix, port: complex, r0=None,
              sides=("tx", "rx")) -> dict[str, ParityBlocks]:
    """The coupling matrices C of one port impedance z on the ``sides``
    named, transmit ("tx") and receive ("rx"), from one solve block by
    block: the blocks of Z give those of C, in the same basis.  The
    receive side is C_rx = (zA + z) (Z + z I)^-1, and the transmit side
    its complement C_tx = (1 + z/zA) Z (Z + z I)^-1 =
    ((zA + z)/zA) I - (z/zA) C_rx, formed in place.  With ``r0``, an R0
    on Z's lattice held as its factor F F^H (``analysis.factor``), the
    effective correlations C^T R0 conj(C) instead, held as
    ``gram_blocks`` of C_b^T F_b from the same solve with r_b right-hand
    sides; any other ``r0`` raises ``DomainError``.  Errors name the
    transmit side and ``z_source`` when it is asked for."""
    port, z_self = complex(port), z.z_self
    side, name = ("tx", "z_source") if "tx" in sides else ("rx", "z_load")
    if r0 is not None and getattr(r0, "factors", None) is None:
        raise DomainError("the correlation must be held as its factor (analysis.factor)")
    if r0 is not None and (r0.geom != z.geom or r0.n != z.n):
        raise DomainError(f"impedance and correlation must be on the same lattice, "
                          f"got {z.geom} and {r0.geom}")
    if z_self + port == 0:
        raise DomainError(f"z_self + {name} = 0 leaves the normalization undefined")
    if "tx" in sides and z_self == 0:
        raise DomainError("z_self = 0 leaves the transmit normalization undefined")
    out = {s: [] for s in sides}
    for zb, f in zip(z.blocks, [None] * len(z.blocks) if r0 is None else r0.factors, strict=True):
        eye = np.eye(len(zb), dtype=complex)
        rhs = eye if f is None else f
        # C_rx^T = (zA + z) inv(a^T) with a = Z_b + z I, applied to I or to F_b
        try:
            solved = np.linalg.solve((zb + port * eye).T, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular system in {side} coupling "
                                 f"(condition {_shifted_condition(z, port):.3e})") from exc
        if not np.all(np.isfinite(solved)):
            raise NumericalError(f"non-finite {side} coupling entries "
                                 f"(condition {_shifted_condition(z, port):.3e})")
        if "rx" in out:
            out["rx"].append((z_self + port) * solved)
        if "tx" in out:  # C_tx^T rhs = (1 + z/zA) (rhs - z inv(a^T) rhs), over the solve
            solved *= -port
            solved += rhs
            solved *= 1.0 + port / z_self
            out["tx"].append(solved)
    return {s: ParityBlocks(tuple(b.T for b in blocks), z.geom) if r0 is None
            else gram_blocks(blocks, r0.geom) for s, blocks in out.items()}


def coupling_tx(z: ImpedanceMatrix, z_source: complex, r0=None) -> ParityBlocks:
    """Transmit-side coupling matrix (1 + zS/zA) Z (Z + zS I)^-1; with a
    factored ``r0``, the effective correlation C^T R0 conj(C)
    (``couplings``)."""
    return couplings(z, z_source, r0, ("tx",))["tx"]


def coupling_rx(z: ImpedanceMatrix, z_load: complex, r0=None) -> ParityBlocks:
    """Receive-side coupling matrix (zA + zL) (Z + zL I)^-1; with a
    factored ``r0``, the effective correlation C^T R0 conj(C)
    (``couplings``)."""
    return couplings(z, z_load, r0, ("rx",))["rx"]
