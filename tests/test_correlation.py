import math

import numpy as np
import pytest

from holoris import (CorrelationKind, CorrelationMatrix, Direction,
                     DomainError, correlation_matrix_isotropic, coupling_tx,
                     effective_correlation, eigen_spectrum, icsi, impedance_matrix_isotropic,
                     make_dipole_array, make_uniform_grid)

from conftest import random_coupling
from oracles import isotropic_scattering_density, verify_bttb


def pair_geometry(separation):
    """Two elements along x at the given separation (in wavelengths)."""
    return make_dipole_array(separation, separation, 1, 0.0, 1.0)


class TestScatteringDensity:
    def test_broadside(self):
        d = Direction(phi=1.0, theta=math.pi / 2)
        assert isotropic_scattering_density(d) == pytest.approx(1 / (2 * math.pi))

    def test_pole(self):
        assert isotropic_scattering_density(Direction(phi=0.0, theta=0.0)) == 0.0

    def test_normalization_by_quadrature(self):
        # tensor Gauss-Legendre oracle over [0, pi] x [0, pi]
        x, w = np.polynomial.legendre.leggauss(80)
        ang = 0.5 * math.pi * (x + 1)
        wt = 0.5 * math.pi * w
        total = sum(
            wp * wt_ * isotropic_scattering_density(Direction(phi=p, theta=t))
            for p, wp in zip(ang, wt) for t, wt_ in zip(ang, wt)
        )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestCorrelationMatrix:
    def test_half_wavelength_pair_decorrelates(self):
        r = correlation_matrix_isotropic(pair_geometry(0.5))
        assert r.values[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_quarter_wavelength_pair(self):
        r = correlation_matrix_isotropic(pair_geometry(0.25))
        assert r.values[0, 1] == pytest.approx(2 / math.pi, abs=1e-12)

    def test_reference_dipole_icsi(self, dipole_correlations):
        assert icsi(dipole_correlations[0.5]) == pytest.approx(0.0495, abs=0.005)

    def test_unit_diagonal_and_trace(self, dipole_correlations):
        r = dipole_correlations[0.5]
        assert np.allclose(np.diag(r.values), 1.0, atol=1e-12)
        assert np.trace(r.values) == pytest.approx(r.blocks.n, abs=1e-9)
        assert r.kind is CorrelationKind.MC_UNAWARE
        assert np.isrealobj(r.values)

    def test_normalized_eigenvalues(self, dipole_correlations):
        r = dipole_correlations[0.25]
        ev = np.linalg.eigvalsh(r.values / r.blocks.n)
        assert ev.min() >= -1e-10
        assert ev.max() <= 1.0 + 1e-12
        assert ev.sum() == pytest.approx(1.0, abs=1e-9)

    def test_decorrelation_zeros_on_half_wavelength_multiples(self):
        g = make_uniform_grid(3.0, 3.0, 0.5, 0.5, 1.0)
        r = correlation_matrix_isotropic(g)
        pos = g.positions
        dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
        onaxis = np.isclose(dist % 0.5, 0.0, atol=1e-12) & (dist > 0)
        assert np.all(np.abs(r.values[onaxis]) <= 1e-12)

    def test_congruence_stays_hermitian_psd(self, rng, dipole_correlations):
        r0 = dipole_correlations[0.5]
        for _ in range(50):
            c = random_coupling(rng, r0.blocks.n)
            r = effective_correlation(c, r0)
            assert np.abs(r.values - r.values.conj().T).max() <= 1e-9
            eigen_spectrum(r)  # raises unless Hermitian and PSD

    def test_invariant_checker_rejects_non_hermitian(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        m = CorrelationMatrix(values=bad, kind=CorrelationKind.MC_UNAWARE)
        with pytest.raises(DomainError, match="not Hermitian"):
            eigen_spectrum(m)


class TestQuadratureOracle:
    def test_closed_form_matches_integral_3x3(self):
        # independent oracle: tensor quadrature of the correlation integral
        # with density sin(theta)/(2 pi) against the sinc closed form
        g = make_uniform_grid(1.0, 1.0, 0.5, 0.5, 1.0)
        r = correlation_matrix_isotropic(g)
        x, w = np.polynomial.legendre.leggauss(200)
        ang = 0.5 * math.pi * (x + 1)
        wt = 0.5 * math.pi * w
        phi_g, th_g = np.meshgrid(ang, ang, indexing="ij")
        weight = np.outer(wt, wt) * np.sin(th_g) / (2 * math.pi)
        dhat = np.stack([np.sin(th_g) * np.cos(phi_g),
                         np.sin(th_g) * np.sin(phi_g),
                         np.cos(th_g)], axis=-1)
        kappa = 2 * math.pi
        pos = g.positions
        worst = 0.0
        for a in range(g.n):
            for b in range(g.n):
                phase = kappa * (dhat @ (pos[a] - pos[b]))
                val = (np.exp(1j * phase) * weight).sum()
                worst = max(worst, abs(val - r.values[a, b]))
        assert worst < 1e-4


class TestBttb:
    def test_uniform_grid_correlation_is_bttb(self):
        g = make_uniform_grid(2.0, 1.5, 0.5, 0.5, 1.0)
        r = correlation_matrix_isotropic(g)
        report = verify_bttb(r, g, tol=1e-12)
        assert report.is_bttb
        assert report.max_violation <= 1e-12

    def test_detects_injected_defect(self):
        g = make_uniform_grid(2.0, 1.5, 0.5, 0.5, 1.0)
        r = correlation_matrix_isotropic(g)
        values = r.values.copy()
        values[3, 7] += 1e-3
        report = verify_bttb(values, g, tol=1e-12)
        assert not report.is_bttb
        assert report.max_violation == pytest.approx(1e-3, rel=0.6)

    def test_single_entry_violation_is_exact(self):
        g = make_uniform_grid(2.0, 1.5, 0.5, 0.5, 1.0)
        values = correlation_matrix_isotropic(g).values.copy()
        values[5, 2] += 3e-4
        report = verify_bttb(values, g, tol=1e-12)
        assert not report.is_bttb
        assert report.max_violation == pytest.approx(3e-4, rel=1e-12)

    def test_effective_correlation_not_exactly_bttb(self):
        # the coupling normalization involves a matrix inverse, whose
        # boundary effects break exact block-Toeplitz structure; frozen
        # violation level measured on a 5x5 isotropic grid
        g = make_uniform_grid(2.0, 2.0, 0.5, 0.5, 1.0)
        r0 = correlation_matrix_isotropic(g)
        z = impedance_matrix_isotropic(g, 73.1)
        ct = coupling_tx(z, 73.1)
        r = effective_correlation(ct, r0)
        report = verify_bttb(r, g, tol=1e-8)
        assert not report.is_bttb
        assert 0.01 < report.max_violation < 0.2

    def test_coupling_matrix_is_banded_but_not_bttb(self):
        g = make_uniform_grid(2.0, 2.0, 0.5, 0.5, 1.0)
        z = impedance_matrix_isotropic(g, 73.1)
        ct = coupling_tx(z, 50.0)
        report = verify_bttb(ct, g, tol=1e-8)
        assert report.max_violation > 1e-8

    def test_dimension_mismatch(self):
        g = make_uniform_grid(2.0, 2.0, 0.5, 0.5, 1.0)
        with pytest.raises(DomainError):
            verify_bttb(np.eye(7), g)


def test_empty_geometry_rejected():
    from holoris import ArrayGeometry, ElementKind
    g = ArrayGeometry(wavelength=1.0, dx=0.5, dz=0.5, lx=0.5, lz=0.5,
                      nx=0, nz=0,
                      element_kind=ElementKind.ISOTROPIC)
    with pytest.raises(DomainError):
        correlation_matrix_isotropic(g)
