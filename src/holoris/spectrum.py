"""Wavenumber-domain power spectrum of the truncated, sampled correlation
kernel, and the closed-form spectrum of the unbounded continuous aperture.

The sampled kernel b[l, m] = sinc(2 sqrt((l sx)^2 + (m sz)^2) / wavelength)
is transformed on the odd Fourier grid

    w = -(n-1) pi / n, -(n-3) pi / n, ..., (n-1) pi / n

per axis (n grid points, never hitting w = pi).  Sorted samples of the
transform approximate the sorted eigenvalues of the correlation matrix
divided by the element count.

b is even along each axis, so its transform is the real cosine sum

    G(wx, wz) = sum over 0 <= l < nx, 0 <= m < nz of
                c_l c_m b[l, m] cos(l wx) cos(m wz) / (nx nz)

with c_0 = 1 and c_l = 2 otherwise: two small matrix products with the
quarter table b[l >= 0, m >= 0], exact on the grid and with no complex
arithmetic.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .correlation import sinc_table
from .errors import DomainError, NumericalError
from .geometry import ArrayGeometry

_EVEN_TOL = 1e-6
# A grid point on the rim |k| = kappa, where a square aperture of a whole
# number A of wavelengths puts some, lands a few ulps either side of
# kappa^2 in floating point; a point off the rim lies at least 1 / (4 A^2)
# of kappa^2 from it.
_RIM_TOL = 1e-9


@dataclass(frozen=True)
class GeneratorSequence:
    """Centered samples of the correlation kernel, b[l, m] with
    l in [-(nx-1), nx-1] and m in [-(nz-1), nz-1], as ``values`` of shape
    (2nx - 1, 2nz - 1), sampled at ``step_x`` and ``step_z``."""

    values: np.ndarray = field(repr=False)
    step_x: float
    step_z: float


@dataclass(frozen=True)
class WavenumberSpectrum:
    """Real spectrum samples on the wavenumber grid, with per-point
    propagating/evanescent tags: ``propagating`` holds where
    kx^2 + kz^2 <= kappa^2 within a relative 1e-9, so a point on the rim
    counts as propagating at any wavelength."""

    kx_grid: np.ndarray = field(repr=False)
    kz_grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    wavenumber: float
    propagating: np.ndarray = field(repr=False)

    @property
    def total(self) -> float:
        return float(self.values.sum())

    @property
    def propagating_count(self) -> int:
        return int(self.propagating.sum())

    def sorted_values(self) -> np.ndarray:
        return np.sort(self.values.ravel())[::-1]


def generator_sequence(geom: ArrayGeometry) -> GeneratorSequence:
    """Sample the correlation kernel on the centered index lattice, at
    the aperture step lx / nx and lz / nz per axis.

    The wavenumber axis is then w / step, whose resolution 2 pi / lx
    depends on the aperture only, so the number of grid points in the
    propagating disk does not change with the element spacing.
    """
    step_x = geom.lx / geom.nx
    step_z = geom.lz / geom.nz
    quarter = sinc_table(geom.nx, geom.nz, step_x, step_z, geom.wavelength)
    return GeneratorSequence(
        values=np.pad(quarter, ((geom.nx - 1, 0), (geom.nz - 1, 0)), mode="reflect"),
        step_x=step_x,
        step_z=step_z,
    )


def _odd_grid(n: int) -> np.ndarray:
    return (2.0 * np.arange(n) - (n - 1)) * np.pi / n


def _cosines(n: int) -> np.ndarray:
    """C[l, p] = c_l cos(l w_p) for the offsets 0 <= l < n and the odd
    grid w_p, with c_0 = 1 and c_l = 2 for the offset pair +-l.  The
    phase l w_p = pi l (2p - (n-1)) / n is reduced modulo 2 pi in
    integers, so it carries no rounding of large l w_p."""
    lidx = np.arange(n)
    c = np.cos(np.pi * (np.outer(lidx, 2 * lidx - (n - 1)) % (2 * n)) / n)
    c[1:] *= 2.0
    return c


def power_spectrum(seq: GeneratorSequence, geom: ArrayGeometry) -> WavenumberSpectrum:
    """Evaluate the normalized 2D transform of the generator sequence on
    the odd wavenumber grid.

    The transform value at (wx, wz) is sum over (l, m) of
    b[l, m] exp(-j (l wx + m wz)) / (nx nz).  For a sequence that is even
    along each axis this is Cx^T B Cz / (nx nz), with B the quarter
    table b[l >= 0, m >= 0] and C the cosine matrices of ``_cosines``.
    The evenness that this relies on is checked first: a sequence whose
    mirror images differ from it by more than 1e-6 of its largest
    magnitude, or that holds a non-finite value, raises
    ``NumericalError``.
    """
    nx, nz = geom.nx, geom.nz
    b = seq.values
    if b.shape != (2 * nx - 1, 2 * nz - 1):
        raise DomainError(
            f"sequence shape {b.shape} does not match geometry ({2 * nx - 1}, {2 * nz - 1})"
        )
    defect = max(float(np.abs(b - b[::-1]).max()), float(np.abs(b - b[:, ::-1]).max()))
    if not defect <= _EVEN_TOL * float(np.abs(b).max()):
        raise NumericalError(f"sequence not even: defect {defect:.3e} exceeds "
                             f"{_EVEN_TOL:.0e} * max|b|")
    g = _cosines(nx).T @ b[nx - 1:, nz - 1:] @ _cosines(nz) / (nx * nz)
    kappa = geom.wavenumber
    kx = _odd_grid(nx) / seq.step_x
    kz = _odd_grid(nz) / seq.step_z
    kxg, kzg = np.meshgrid(kx, kz, indexing="ij")
    propagating = kxg**2 + kzg**2 <= kappa**2 * (1.0 + _RIM_TOL)
    return WavenumberSpectrum(
        kx_grid=kx, kz_grid=kz, values=g,
        wavenumber=kappa, propagating=propagating,
    )


def asymptotic_spectrum(kx: float, kz: float, kappa: float) -> float:
    """Spectrum of the unbounded continuous aperture.

    Bowl-shaped: 2 pi / (kappa sqrt(kappa^2 - kx^2 - kz^2)) inside the
    disk kx^2 + kz^2 <= kappa^2, +inf on the rim, 0 outside.
    """
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise DomainError(f"kappa must be positive, got {kappa}")
    if not (math.isfinite(kx) and math.isfinite(kz)):
        raise DomainError(f"wavenumbers must be finite, got ({kx}, {kz})")
    rho2 = kx * kx + kz * kz
    if rho2 > kappa * kappa:
        return 0.0
    if rho2 == kappa * kappa:
        return math.inf
    return 2.0 * math.pi / (kappa * math.sqrt(kappa * kappa - rho2))

