"""Array response vectors, beamforming vectors and array gain.

Array gain is the radiated power of the beamformed array relative to a
single element under the same total excitation power:

    gain = |a^T w|^2 / ||w||^2

where a = C^T a0 is the coupling-aware response.  The gain does not
depend on ||w||, so every excitation is scaled to unit power.  The
gain-maximizing excitation is w = zeta C^H conj(a0), which turns the
gain into |a0^T C C^H conj(a0)|; with no coupling (C = I) every scheme
collapses to conjugate beamforming and the gain is the element count,
regardless of direction.
"""

import math
from enum import Enum

import numpy as np

from .coupling import CouplingMatrix
from .errors import DomainError, NumericalError
from .geometry import ArrayGeometry, Direction, as_blocks, unit_direction

_POWER_TOL = 1e-9


class BeamformingScheme(Enum):
    """The four excitation strategies compared in the gain studies."""

    PROPOSED_MC_AWARE = "proposed_mc_aware"
    CONJUGATE_MC_UNAWARE = "conjugate_mc_unaware"
    DIRECTIVITY_MAX = "directivity_max"
    NO_MC_REFERENCE = "no_mc_reference"


def steering_vector(geom: ArrayGeometry, direction: Direction) -> np.ndarray:
    """Coupling-unaware response: exp(j kappa d_hat . d_n) per element."""
    d_hat = unit_direction(direction)
    return np.exp(1j * geom.wavenumber * (geom.positions @ d_hat))


def _coupling_values(coupling: CouplingMatrix | np.ndarray, a0) -> np.ndarray:
    """The values of C, checked to match the length of the response a0."""
    c = coupling.values if isinstance(coupling, CouplingMatrix) else np.asarray(coupling)
    length = np.shape(a0)[0] if np.ndim(a0) else None
    if length != len(c):
        raise DomainError(f"response length {length} does not match coupling dimension {len(c)}")
    return c


def _unscaled_excitation(scheme: BeamformingScheme, c: np.ndarray, a0: np.ndarray,
                         a: np.ndarray | None = None) -> np.ndarray:
    """Excitation of a scheme for a response vector a0, or for each column
    of a matrix a0, before power scaling; ``a`` is the effective response
    C^T a0 when the caller already has it.  In the parity basis of a
    lattice C the same formulas hold block by block."""
    if scheme is BeamformingScheme.PROPOSED_MC_AWARE:
        if a is None:
            a = c.T @ a0
        return a.conj()  # C^H conj(a0), without an N x N conjugate copy
    if scheme is BeamformingScheme.DIRECTIVITY_MAX:
        try:
            return np.linalg.solve(c, a0.conj())
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular coupling matrix in directivity_max") from exc
    return a0.conj()


def _power_scale(scheme: BeamformingScheme, norm):
    """Factor that scales excitations of norm ``norm`` to unit power."""
    if np.any(norm == 0):
        raise NumericalError(f"{scheme.value} produced a zero excitation vector")
    return 1.0 / norm


def _check_power(norm) -> None:
    """The power constraint ||w|| = 1 to 1e-9, for one norm or many."""
    if np.any(np.abs(norm - 1.0) > _POWER_TOL):
        raise DomainError(f"power constraint violated: ||w|| = {norm}")


def beamforming_vector(scheme: BeamformingScheme, coupling, a0: np.ndarray) -> np.ndarray:
    """Excitation vector for a scheme, scaled to unit power ||w|| = 1; for
    a matrix a0, one excitation column per column of a0.

    * proposed_mc_aware: conj of the effective response, C^H conj(a0).
    * conjugate_mc_unaware: conj(a0), ignoring coupling.
    * directivity_max: C^-1 conj(a0).
    * no_mc_reference: conjugate beamforming evaluated in a coupling-free
      world (identical vector to conjugate_mc_unaware; pair it with C = I
      when evaluating the gain).
    """
    w = _unscaled_excitation(scheme, _coupling_values(coupling, a0), np.asarray(a0, dtype=complex))
    return _power_scale(scheme, np.linalg.norm(w, axis=0)) * w


def array_gain(coupling, a0: np.ndarray, w: np.ndarray) -> float:
    """Gain |a^T w|^2 / ||w||^2 with a = C^T a0, the same for any
    scaling of w."""
    a = _coupling_values(coupling, a0).T @ np.asarray(a0)
    w = np.asarray(w)
    if w.shape != a.shape:
        raise DomainError(f"excitation shape {w.shape} does not match response shape {a.shape}")
    norm = float(np.linalg.norm(w))
    if norm == 0:
        raise DomainError("zero excitation vector")
    return float(abs(a @ w) ** 2 / norm**2)


def max_gain_closed_form(coupling, a0: np.ndarray) -> float:
    """Gain of the proposed scheme in closed form, |a0^T C C^H conj(a0)|."""
    a = _coupling_values(coupling, a0).T @ np.asarray(a0)
    return float(abs(a @ a.conj()))


def _norm(columns) -> np.ndarray:
    """Column norms of a matrix given as its row blocks."""
    return np.sqrt(sum((w.real**2 + w.imag**2).sum(axis=0) for w in columns))


def gain_sweep(geom: ArrayGeometry, coupling, scheme: BeamformingScheme,
               theta: float, phi_grid) -> np.ndarray:
    """Array gain versus azimuth at a fixed zenith angle.

    Returns the gains as an array shaped like the azimuth grid.  For the
    no-coupling reference scheme the gain is evaluated with the identity
    coupling, so it is flat at the element count.  The whole grid is
    evaluated at once, one steering and excitation column per azimuth,
    and every excitation column is checked to have unit norm.

    A lattice coupling is used as its parity blocks: P is real and
    orthogonal, so with a0_b = P_b^T a0 the response is a_b = C_b^T a0_b,
    the excitations are found block by block, and ||w||^2 and a^T w are
    sums over the blocks.  A dense C is the one-block case.
    """
    phis = np.array(list(phi_grid), dtype=float)
    if phis.size == 0:
        raise DomainError("empty azimuth grid")
    for phi in (phis.min(), phis.max()):  # range and finiteness of the whole grid
        Direction(phi=float(phi), theta=theta)
    blocks = as_blocks(coupling)
    if blocks.geom is not None and blocks.geom is not geom:
        raise DomainError("gain sweep needs coupling blocks on the same lattice")
    # steering exp(j kappa (x sin(theta) cos(phi) + z cos(theta))) of the
    # lattice point (iz, ix) is the product of one z and one x factor
    kappa = geom.wavenumber
    a0 = blocks.split_product(
        np.exp(1j * kappa * np.arange(geom.nz) * geom.dz * math.cos(theta)),
        np.exp(1j * kappa * np.multiply.outer(np.arange(geom.nx) * geom.dx,
                                              math.sin(theta) * np.cos(phis))))
    ws, aw = [], 0.0
    for c, a0b in zip(blocks.blocks, a0):
        a = a0b if scheme is BeamformingScheme.NO_MC_REFERENCE else c.T @ a0b
        ws.append(_unscaled_excitation(scheme, c, a0b, a))
        aw = aw + np.einsum("np,np->p", a, ws[-1])
    scale = _power_scale(scheme, _norm(ws))
    for w in ws:
        w *= scale
    _check_power(_norm(ws))
    return np.abs(scale * aw) ** 2
