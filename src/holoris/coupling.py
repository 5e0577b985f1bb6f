"""Impedance matrices for half-wave dipole and isotropic element models,
and the normalized coupling matrices they induce at the transmit and
receive side.

Dipole mutual impedances use the induced-EMF closed forms for two
parallel half-wave dipoles in echelon (horizontal separation dh,
vertical center offset dv, axes along z), expressed through the sine
and cosine integrals.  The side-by-side (dv = 0) and collinear (dh = 0)
cases are the continuous limits of the echelon expressions; the
collinear log terms are written out explicitly since the echelon form
degenerates at dh = 0.
"""

import cmath
import logging
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, NumericalError
from .correlation import sinc_offset_table
from .geometry import ArrayGeometry, ElementKind, gather_offsets
from .specfun import cosine_integral as Ci
from .specfun import sine_integral as Si

log = logging.getLogger(__name__)

FREE_SPACE_IMPEDANCE = 120.0 * math.pi  # ohms
HALF_WAVE_DIPOLE_SELF_IMPEDANCE = 73.1 + 42.5j  # ohms
DEFAULT_ISOTROPIC_RESISTANCE = 73.1  # ohms; shares the dipole resistance scale


class CouplingSide(Enum):
    TX = "tx"
    RX = "rx"


@dataclass(frozen=True)
class ImpedanceMatrix:
    """Symmetric complex impedance matrix with constant self-impedance
    on the diagonal, in ohms."""

    values: np.ndarray = field(repr=False)
    z_self: complex

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CouplingMatrix:
    """Dimensionless port-domain coupling matrix.

    Normalized so that an impedance matrix without mutual terms maps to
    the identity for any admissible port impedance.  ``condition`` is
    the 2-norm condition number of the matrix that was inverted.
    """

    values: np.ndarray = field(repr=False)
    side: CouplingSide
    port_impedance: complex
    condition: float

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


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
    if wavelength <= 0:
        raise DomainError(f"wavelength must be positive, got {wavelength}")
    if dh == 0.0 and dv == 0.0:
        raise DomainError("coincident dipoles: use the self-impedance, not the mutual term")
    k = 2.0 * math.pi / wavelength
    half = wavelength / 2.0  # dipole length
    scale = FREE_SPACE_IMPEDANCE / (8.0 * math.pi)
    if dh == 0.0:
        if dv <= half:
            raise DomainError(
                f"collinear dipoles with dv={dv} <= length {half} touch or overlap"
            )
        return _collinear(k, dv, half, scale)
    return _echelon(k, dh, dv, half, scale)


def _radial_sum_diff(d: float, s: float) -> tuple[float, float]:
    """(r + s, r - s) with r = hypot(d, s), avoiding the cancellation in
    r - |s| by using r - |s| = d^2 / (r + |s|)."""
    r = math.hypot(d, s)
    near = d * d / (r + abs(s)) if r + abs(s) > 0 else 0.0
    if s >= 0:
        return r + s, near
    return near, r - s


def _echelon(k: float, d: float, h: float, l: float, scale: float) -> complex:
    s1, d1 = _radial_sum_diff(d, h)
    s2, d2 = _radial_sum_diff(d, h - l)
    s3, d3 = _radial_sum_diff(d, h + l)
    u1, u1p = k * s1, k * d1
    u2, u2p = k * s2, k * d2
    u3, u3p = k * s3, k * d3
    cos0, sin0 = math.cos(k * h), math.sin(k * h)
    r = (-cos0 * (-2 * Ci(u1) - 2 * Ci(u1p) + Ci(u2) + Ci(u2p) + Ci(u3) + Ci(u3p))
         + sin0 * (2 * Si(u1) - 2 * Si(u1p) - Si(u2) + Si(u2p) - Si(u3) + Si(u3p)))
    x = (-cos0 * (2 * Si(u1) + 2 * Si(u1p) - Si(u2) - Si(u2p) - Si(u3) - Si(u3p))
         + sin0 * (2 * Ci(u1) - 2 * Ci(u1p) - Ci(u2) + Ci(u2p) - Ci(u3) + Ci(u3p)))
    return scale * complex(r, x)


def _collinear(k: float, h: float, l: float, scale: float) -> complex:
    # dh -> 0 limit of the echelon form; the diverging Ci terms combine
    # into the finite log(h^2 / (h^2 - l^2)).
    log_term = math.log(h * h / (h * h - l * l))
    ci_sum = -2 * Ci(2 * k * h) + Ci(2 * k * (h - l)) + Ci(2 * k * (h + l))
    si_sum = 2 * Si(2 * k * h) - Si(2 * k * (h - l)) - Si(2 * k * (h + l))
    cos0, sin0 = math.cos(k * h), math.sin(k * h)
    r = -cos0 * (ci_sum + log_term) + sin0 * si_sum
    x = (-cos0 * si_sum
         + sin0 * (2 * Ci(2 * k * h) - Ci(2 * k * (h - l)) - Ci(2 * k * (h + l)) + log_term))
    return scale * complex(r, x)


def impedance_matrix_dipoles(geom: ArrayGeometry,
                             z_self: complex = HALF_WAVE_DIPOLE_SELF_IMPEDANCE
                             ) -> ImpedanceMatrix:
    """Impedance matrix of a stacked half-wave dipole layout.

    Mutual terms depend on the pair displacement only, so they are
    computed once per distinct (|di|, |dk|) index offset and gathered
    into the full matrix.
    """
    if geom.element_kind is not ElementKind.HALF_WAVE_DIPOLE:
        raise DomainError(
            f"dipole impedance model needs half_wave_dipole elements, got {geom.element_kind.value}"
        )
    table = np.empty((geom.nx, geom.nz), dtype=complex)
    for di in range(geom.nx):
        for dk in range(geom.nz):
            if di == 0 and dk == 0:
                table[0, 0] = z_self
            else:
                table[di, dk] = dipole_mutual_impedance(
                    di * geom.dx, dk * geom.dz, geom.wavelength
                )
    return ImpedanceMatrix(values=gather_offsets(table, geom), z_self=complex(z_self))


def impedance_matrix_isotropic(geom: ArrayGeometry,
                               r_iso: float = DEFAULT_ISOTROPIC_RESISTANCE
                               ) -> ImpedanceMatrix:
    """Purely real impedance matrix of isotropic elements: the radiation
    resistance times the sinc kernel of pairwise distances (the
    reactive part is assumed matched out)."""
    if not (r_iso > 0 and math.isfinite(r_iso)):
        raise DomainError(f"r_iso must be positive, got {r_iso}")
    table = (r_iso * sinc_offset_table(geom)).astype(complex)
    return ImpedanceMatrix(values=gather_offsets(table, geom), z_self=complex(r_iso))


def _normalized_inverse(z: ImpedanceMatrix, shift: complex, numerator: np.ndarray,
                        prefactor: complex, side: CouplingSide,
                        port: complex) -> CouplingMatrix:
    a = z.values + shift * np.eye(z.dim)
    condition = float(np.linalg.cond(a))
    log.debug("%s coupling solve: dim=%d cond=%.3e", side.value, z.dim, condition)
    try:
        solved = np.linalg.solve(a.T, numerator.T).T  # numerator @ inv(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"singular system in {side.value} coupling (condition {condition:.3e})"
        ) from exc
    if not np.all(np.isfinite(solved)):
        raise NumericalError(
            f"non-finite {side.value} coupling entries (condition {condition:.3e})"
        )
    return CouplingMatrix(
        values=prefactor * solved, side=side, port_impedance=complex(port),
        condition=condition,
    )


def coupling_tx(z: ImpedanceMatrix, z_source: complex) -> CouplingMatrix:
    """Transmit-side coupling matrix (1 + zS/zA) Z (Z + zS I)^-1."""
    z_source = complex(z_source)
    if z.z_self + z_source == 0:
        raise DomainError("z_self + z_source = 0 leaves the normalization undefined")
    return _normalized_inverse(
        z, shift=z_source, numerator=np.asarray(z.values),
        prefactor=1.0 + z_source / z.z_self, side=CouplingSide.TX, port=z_source,
    )


def coupling_rx(z: ImpedanceMatrix, z_load: complex) -> CouplingMatrix:
    """Receive-side coupling matrix (zA + zL) (Z + zL I)^-1."""
    z_load = complex(z_load)
    return _normalized_inverse(
        z, shift=z_load, numerator=np.eye(z.dim, dtype=complex),
        prefactor=z.z_self + z_load, side=CouplingSide.RX, port=z_load,
    )
