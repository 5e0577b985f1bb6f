import dataclasses
import math

import numpy as np
import pytest

from holoris import (ArrayGeometry, DomainError, ElementKind, NumericalError,
                     asymptotic_spectrum, correlation_matrix_isotropic,
                     generator_sequence, make_uniform_grid, power_spectrum)
from holoris.correlation import sinc_table
from holoris.spectrum import GeneratorSequence, _odd_grid

KAPPA = 2 * math.pi


def axis_geometry(nx, nz, dx, dz):
    """An nx x nz lattice at spacings dx, dz, one-point axes included."""
    return ArrayGeometry(wavelength=1.0, dx=dx, dz=dz, lx=nx * dx, lz=nz * dz, nx=nx, nz=nz,
                         element_kind=ElementKind.ISOTROPIC)


def brute_force_sum(seq, geom):
    """Independent spectrum-sum oracle: evaluate the transform one grid
    point at a time with plain dot products and add them up."""
    total = 0.0
    lidx = np.arange(-(geom.nx - 1), geom.nx)
    midx = np.arange(-(geom.nz - 1), geom.nz)
    for wx in _odd_grid(geom.nx):
        for wz in _odd_grid(geom.nz):
            phase = np.exp(-1j * (lidx[:, None] * wx + midx[None, :] * wz))
            total += float((seq.values * phase).sum().real)
    return total / (geom.nx * geom.nz)


class TestGeneratorSequence:
    def test_center_is_one(self):
        g = make_uniform_grid(4.0, 4.0, 0.5, 0.5, 1.0)
        seq = generator_sequence(g)
        assert seq.values[g.nx - 1, g.nz - 1] == 1.0

    def test_even_symmetry(self):
        g = make_uniform_grid(4.0, 2.0, 0.5, 0.5, 1.0)
        seq = generator_sequence(g)
        v = seq.values
        assert np.allclose(v, v[::-1, :], atol=0)
        assert np.allclose(v, v[:, ::-1], atol=0)

    def test_half_wavelength_distance_zeros(self):
        g = make_uniform_grid(12.0, 12.0, 1 / 3, 1 / 3, 1.0)
        seq = generator_sequence(g)
        lidx = np.arange(-(g.nx - 1), g.nx)
        midx = np.arange(-(g.nz - 1), g.nz)
        ll, mm = np.meshgrid(lidx, midx, indexing="ij")
        dist = np.hypot(ll * seq.step_x, mm * seq.step_z)
        halves = np.isclose(dist % 0.5, 0.0, atol=1e-12) & (dist > 0)
        assert np.all(np.abs(seq.values[halves]) <= 1e-12)

    def test_absolute_sum_bounded(self):
        for spacing in (0.5, 0.25):
            g = make_uniform_grid(4.0, 4.0, spacing, spacing, 1.0)
            seq = generator_sequence(g)
            assert np.abs(seq.values).sum() / g.n <= 4.0

    def test_step_is_aperture_over_count(self):
        g = make_uniform_grid(4.0, 2.0, 0.5, 0.25, 1.0)
        seq = generator_sequence(g)
        assert seq.step_x == g.lx / g.nx
        assert seq.step_z == g.lz / g.nz
        assert seq.step_x < g.dx and seq.step_z < g.dz

    @pytest.mark.parametrize("g", [
        make_uniform_grid(4.0, 4.0, 0.5, 0.5, 1.0),
        make_uniform_grid(1.2, 0.6, 0.15, 0.1, 0.3),
        axis_geometry(6, 6, 0.25, 0.25),
        axis_geometry(5, 8, 1 / 3, 0.125),
        axis_geometry(1, 6, 0.5, 0.7),
        axis_geometry(7, 1, 0.1, 0.5),
        axis_geometry(1, 1, 0.5, 0.5),
    ], ids=["9x9", "9x7", "6x6", "5x8", "1x6", "7x1", "1x1"])
    def test_values_are_mirrored_sinc_table(self, g):
        # bit for bit: the quarter table at the aperture step, mirrored,
        # and the kernel evaluated on the whole centred lattice
        seq = generator_sequence(g)
        lidx, midx = np.arange(1 - g.nx, g.nx), np.arange(1 - g.nz, g.nz)
        quarter = sinc_table(g.nx, g.nz, g.lx / g.nx, g.lz / g.nz, g.wavelength)
        assert np.array_equal(seq.values, quarter[np.abs(lidx)][:, np.abs(midx)])
        ll, mm = np.meshgrid(lidx, midx, indexing="ij")
        dist = np.hypot(ll * seq.step_x, mm * seq.step_z)
        assert np.array_equal(seq.values, np.sinc(2.0 * dist / g.wavelength))


class TestPowerSpectrum:
    def test_sum_identity(self):
        for spacing in (0.5, 0.25, 0.125):
            g = make_uniform_grid(4.0, 4.0, spacing, spacing, 1.0)
            spec = power_spectrum(generator_sequence(g), g)
            assert spec.total == pytest.approx(1.0, abs=1e-9)

    def test_sum_identity_matches_brute_force(self):
        g = make_uniform_grid(4.0, 4.0, 0.5, 0.5, 1.0)
        seq = generator_sequence(g)
        spec = power_spectrum(seq, g)
        assert spec.total == pytest.approx(brute_force_sum(seq, g), abs=1e-10)

    def test_single_element(self):
        g = axis_geometry(1, 1, 0.5, 0.5)
        spec = power_spectrum(generator_sequence(g), g)
        assert spec.values.shape == (1, 1)
        assert spec.values[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_values_real_and_spectrum_nontrivial(self):
        g = make_uniform_grid(4.0, 4.0, 0.25, 0.25, 1.0)
        spec = power_spectrum(generator_sequence(g), g)
        assert np.isrealobj(spec.values)
        assert spec.values.max() > spec.values.min()

    def test_periodicity_in_omega(self):
        # shifting omega by 2 pi reproduces the transform exactly
        g = make_uniform_grid(2.0, 2.0, 0.5, 0.5, 1.0)
        seq = generator_sequence(g)
        lidx = np.arange(-(g.nx - 1), g.nx)
        midx = np.arange(-(g.nz - 1), g.nz)

        def transform(wx, wz):
            phase = np.exp(-1j * (lidx[:, None] * wx + midx[None, :] * wz))
            return (seq.values * phase).sum() / (g.nx * g.nz)

        for wx in (_odd_grid(g.nx)[1], 0.7):
            for wz in (_odd_grid(g.nz)[2], -0.2):
                base = transform(wx, wz)
                shifted = transform(wx + 2 * math.pi, wz)
                assert abs(base - shifted) < 1e-10

    def test_grid_under_aperture_convention_reaches_nominal_edge(self):
        g = make_uniform_grid(4.0, 4.0, 0.5, 0.5, 1.0)
        spec = power_spectrum(generator_sequence(g), g)
        # resolution depends on the aperture only: 2 pi / lx
        step = spec.kx_grid[1] - spec.kx_grid[0]
        assert step == pytest.approx(2 * math.pi / g.lx, rel=1e-12)
        assert spec.kx_grid[-1] == pytest.approx(KAPPA / (2 * 0.5), rel=1e-12)

    def test_propagating_count_spacing_invariant(self):
        counts = []
        for spacing in (0.5, 0.25, 0.125):
            g = make_uniform_grid(4.0, 4.0, spacing, spacing, 1.0)
            spec = power_spectrum(generator_sequence(g), g)
            counts.append(spec.propagating_count)
        assert max(counts) - min(counts) <= 2
        assert counts[0] == 49

    def test_evanescent_fraction_dense_grid(self):
        g = make_uniform_grid(4.0, 4.0, 0.125, 0.125, 1.0)
        spec = power_spectrum(generator_sequence(g), g)
        frac = 1.0 - spec.propagating_count / spec.values.size
        assert abs(frac - (1.0 - math.pi / 64.0)) < 0.005

    def test_large_aperture_ridge_shape(self):
        # bowl rim near the propagating circle plus leakage outside it
        g = make_uniform_grid(12.0, 12.0, 1 / 3, 1 / 3, 1.0)
        spec = power_spectrum(generator_sequence(g), g)
        kx, kz = np.meshgrid(spec.kx_grid, spec.kz_grid, indexing="ij")
        rho = np.hypot(kx, kz) / spec.wavenumber
        peak = np.unravel_index(spec.values.argmax(), spec.values.shape)
        assert 0.85 <= rho[peak] <= 1.05
        inside = spec.values[spec.propagating]
        outside = spec.values[~spec.propagating]
        assert inside.mean() > 5.0 * outside.mean()
        assert outside.max() > 0.0  # truncation leaks outside the disk

    def test_sorted_samples_track_eigenvalues(self):
        g = make_uniform_grid(4.0, 4.0, 0.25, 0.25, 1.0)
        spec = power_spectrum(generator_sequence(g), g)
        r0 = correlation_matrix_isotropic(g)
        ev = np.sort(np.linalg.eigvalsh(r0.values / g.n))[::-1]
        mad = np.mean(np.abs(ev - spec.sorted_values()))
        assert mad < 0.01

    def test_mismatched_sequence_rejected(self):
        g1 = make_uniform_grid(4.0, 4.0, 0.5, 0.5, 1.0)
        g2 = make_uniform_grid(4.0, 4.0, 0.25, 0.25, 1.0)
        with pytest.raises(DomainError):
            power_spectrum(generator_sequence(g1), g2)

    def test_misshaped_sequence_rejected(self):
        # the values of a smaller grid at this grid's steps
        g = make_uniform_grid(2.0, 2.0, 0.5, 0.5, 1.0)
        seq = generator_sequence(g)
        bad = dataclasses.replace(seq, values=seq.values[1:-1, 1:-1])
        with pytest.raises(DomainError, match=r"sequence shape \(7, 7\)"):
            power_spectrum(bad, g)

    def test_uneven_sequence_detected(self):
        g = make_uniform_grid(2.0, 2.0, 0.5, 0.5, 1.0)
        seq = generator_sequence(g)
        values = seq.values.copy()
        values[0, 1] += 0.4  # break even symmetry
        bad = GeneratorSequence(values=values, step_x=seq.step_x, step_z=seq.step_z)
        with pytest.raises(NumericalError):
            power_spectrum(bad, g)

    def test_point_symmetric_defect_detected(self):
        # b[l, m] = b[-l, -m] keeps the transform real, so only the test
        # of evenness along each axis catches this sequence
        g = make_uniform_grid(2.0, 2.0, 0.5, 0.5, 1.0)
        seq = generator_sequence(g)
        values = seq.values.copy()
        values[0, 1] += 0.4
        values[-1, -2] += 0.4
        with pytest.raises(NumericalError, match="not even"):
            power_spectrum(dataclasses.replace(seq, values=values), g)

    def test_non_finite_sequence_rejected(self):
        g = make_uniform_grid(2.0, 2.0, 0.5, 0.5, 1.0)
        seq = generator_sequence(g)
        values = seq.values.copy()
        values[2, 2] = math.nan
        with pytest.raises(NumericalError, match="not even"):
            power_spectrum(dataclasses.replace(seq, values=values), g)


class TestAsymptoticSpectrum:
    def test_center_value(self):
        assert asymptotic_spectrum(0.0, 0.0, KAPPA) == pytest.approx(
            2 * math.pi / KAPPA**2, rel=1e-12)

    def test_rim_is_infinite(self):
        assert asymptotic_spectrum(KAPPA, 0.0, KAPPA) == math.inf

    def test_outside_is_zero(self):
        assert asymptotic_spectrum(KAPPA, KAPPA, KAPPA) == 0.0

    def test_monotone_inside(self):
        vals = [asymptotic_spectrum(r * KAPPA, 0.0, KAPPA) for r in (0.0, 0.3, 0.6, 0.9)]
        assert vals == sorted(vals)

    def test_invalid_kappa(self):
        with pytest.raises(DomainError):
            asymptotic_spectrum(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("kx, kz", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_wavenumber_rejected(self, kx, kz):
        with pytest.raises(DomainError, match="wavenumbers must be finite"):
            asymptotic_spectrum(kx, kz, KAPPA)


class TestClassifyWavenumber:
    """The propagating/evanescent tags of ``power_spectrum``: a grid point
    propagates when kx^2 + kz^2 <= kappa^2, the rim included."""

    @pytest.fixture(scope="class")
    def spec(self):
        g = make_uniform_grid(4.0, 4.0, 0.5, 0.5, 1.0)
        return power_spectrum(generator_sequence(g), g)

    def test_center(self, spec):
        c = len(spec.kz_grid) // 2
        assert spec.kx_grid[c] == spec.kz_grid[c] == 0.0
        assert spec.propagating[c, c]

    def test_diagonal_outside(self, spec):
        assert spec.kx_grid[-1] ** 2 + spec.kz_grid[-1] ** 2 > KAPPA**2
        assert not spec.propagating[-1, -1]
        assert not spec.propagating[0, 0]

    def test_boundary_inclusive(self, spec):
        # at half-wavelength spacing the last grid point is exactly kappa
        c = len(spec.kz_grid) // 2
        assert spec.kx_grid[-1] == KAPPA and spec.kz_grid[c] == 0.0
        assert spec.propagating[-1, c] and spec.propagating[c, -1]

    @pytest.mark.parametrize("wavelength", [1.0, 3.0, 1e-3])
    def test_rim_counted_exactly_at_any_wavelength(self, wavelength):
        # on A wavelengths at spacing 1/s, kx / kappa = (2p - (n - 1)) / (2 A)
        # exactly, so a point propagates when that integer radius is <= 2 A
        wrong = []
        for aperture in range(2, 17):
            for per_wavelength in (2, 3, 4, 6, 8):
                g = make_uniform_grid(aperture * wavelength, aperture * wavelength,
                                      wavelength / per_wavelength,
                                      wavelength / per_wavelength, wavelength)
                i = 2 * np.arange(g.nx) - (g.nx - 1)
                exact = int((np.add.outer(i**2, i**2) <= 4 * aperture**2).sum())
                count = power_spectrum(generator_sequence(g), g).propagating_count
                if count != exact:
                    wrong.append((aperture, per_wavelength, count, exact))
        assert wrong == []
