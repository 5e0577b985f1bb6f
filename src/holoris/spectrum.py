"""Wavenumber-domain power spectrum of the truncated, sampled correlation
kernel, and the closed-form spectrum of the unbounded continuous aperture.

The sampled kernel b[l, m] = sinc(2 sqrt((l sx)^2 + (m sz)^2) / wavelength)
is transformed on the odd Fourier grid

    w = -(n-1) pi / n, -(n-3) pi / n, ..., (n-1) pi / n

per axis (n grid points, never hitting w = pi).  Sorted samples of the
transform approximate the sorted eigenvalues of the correlation matrix
divided by the element count.

The odd grid is the n-point DFT grid shifted by (n-1) pi / n, so the
transform is computed exactly, with no resampling: each axis of the
sequence is modulated by exp(j l (n-1) pi / n), folded modulo n, and
passed through an n-point FFT, O(n log n) per line instead of a direct
sum over all 2n - 1 offsets for each of the n grid points.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError
from .geometry import ArrayGeometry

_IMAG_RESIDUE_TOL = 1e-6


@dataclass(frozen=True)
class GeneratorSequence:
    """Centered samples of the correlation kernel, b[l, m] with
    l in [-(nx-1), nx-1] and m in [-(nz-1), nz-1]."""

    values: np.ndarray = field(repr=False)
    half_extents: tuple[int, int]
    step_x: float
    step_z: float


@dataclass(frozen=True)
class WavenumberSpectrum:
    """Real spectrum samples on the wavenumber grid, with per-point
    propagating/evanescent tags: ``propagating`` holds where
    kx^2 + kz^2 <= kappa^2, so the rim counts as propagating."""

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


def _require_uniform(geom: ArrayGeometry) -> None:
    # The transform needs lattice positions; any constructed geometry
    # qualifies, but reject degenerate inputs defensively.
    if geom.nx < 1 or geom.nz < 1:
        raise DomainError("geometry must have at least one element per axis")


def generator_sequence(geom: ArrayGeometry) -> GeneratorSequence:
    """Sample the correlation kernel on the centered index lattice, at
    the aperture step lx / nx and lz / nz per axis.

    The wavenumber axis is then w / step, whose resolution 2 pi / lx
    depends on the aperture only, so the number of grid points in the
    propagating disk does not change with the element spacing.
    """
    _require_uniform(geom)
    step_x = geom.lx / geom.nx
    step_z = geom.lz / geom.nz
    lidx = np.arange(-(geom.nx - 1), geom.nx)
    midx = np.arange(-(geom.nz - 1), geom.nz)
    ll, mm = np.meshgrid(lidx, midx, indexing="ij")
    dist = np.hypot(ll * step_x, mm * step_z)
    values = np.sinc(2.0 * dist / geom.wavelength)
    return GeneratorSequence(
        values=values,
        half_extents=(geom.nx - 1, geom.nz - 1),
        step_x=step_x,
        step_z=step_z,
    )


def _odd_grid(n: int) -> np.ndarray:
    return (2.0 * np.arange(n) - (n - 1)) * np.pi / n


def _fold(values: np.ndarray, axis: int) -> np.ndarray:
    """Modulate a centred axis of a 2D array, of length 2n - 1 (offsets
    l = -(n-1)..n-1), by exp(j l (n-1) pi / n) and fold it modulo n.

    The n-point DFT of the result is the transform on the odd grid:
    exp(-j l w_p) = exp(-2 pi j l p / n) exp(j l (n-1) pi / n), and the
    first factor depends on l only modulo n.
    """
    n = (values.shape[axis] + 1) // 2
    lidx = np.arange(-(n - 1), n)
    phase = np.exp(1j * lidx * ((n - 1) * np.pi / n))
    c = np.moveaxis(values, axis, 0) * phase[:, None]
    folded = c[n - 1:].copy()
    folded[1:] += c[:n - 1]
    return np.moveaxis(folded, 0, axis)


def power_spectrum(seq: GeneratorSequence, geom: ArrayGeometry) -> WavenumberSpectrum:
    """Evaluate the normalized 2D transform of the generator sequence on
    the odd wavenumber grid.

    The transform value at (wx, wz) is sum over (l, m) of
    b[l, m] exp(-j (l wx + m wz)) / (nx nz).  The odd grid is the
    n-point DFT grid shifted by (n-1) pi / n, so each axis is evaluated
    exactly as a phase-modulated fold of the sequence modulo n followed
    by an n-point FFT.  Even symmetry of b makes the transform real, and
    the imaginary residue is checked before being discarded.
    """
    nx, nz = geom.nx, geom.nz
    if seq.half_extents != (nx - 1, nz - 1):
        raise DomainError(
            f"sequence extents {seq.half_extents} do not match geometry ({nx - 1}, {nz - 1})"
        )
    wx = _odd_grid(nx)
    wz = _odd_grid(nz)
    g = np.fft.fft2(_fold(_fold(seq.values, 0), 1)) / (nx * nz)
    residue = float(np.abs(g.imag).max())
    scale = float(np.abs(g.real).max())
    if residue > _IMAG_RESIDUE_TOL * scale:
        raise NumericalError(
            f"imaginary residue {residue:.3e} exceeds {_IMAG_RESIDUE_TOL:.0e} * max|G|"
        )
    kappa = geom.wavenumber
    kx = wx / seq.step_x
    kz = wz / seq.step_z
    kxg, kzg = np.meshgrid(kx, kz, indexing="ij")
    propagating = kxg**2 + kzg**2 <= kappa**2
    return WavenumberSpectrum(
        kx_grid=kx, kz_grid=kz, values=g.real,
        wavenumber=kappa, propagating=propagating,
    )


def asymptotic_spectrum(kx: float, kz: float, kappa: float) -> float:
    """Spectrum of the unbounded continuous aperture.

    Bowl-shaped: 2 pi / (kappa sqrt(kappa^2 - kx^2 - kz^2)) inside the
    disk kx^2 + kz^2 <= kappa^2, +inf on the rim, 0 outside.
    """
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise DomainError(f"kappa must be positive, got {kappa}")
    rho2 = kx * kx + kz * kz
    if rho2 > kappa * kappa:
        return 0.0
    if rho2 == kappa * kappa:
        return math.inf
    return 2.0 * math.pi / (kappa * math.sqrt(kappa * kappa - rho2))

