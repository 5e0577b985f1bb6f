import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

import holoris
from holoris import (ArrayGeometry, CouplingMatrix, CouplingSide, DomainError,
                     ElementKind, FREE_SPACE_IMPEDANCE,
                     HALF_WAVE_DIPOLE_SELF_IMPEDANCE, ImpedanceMatrix,
                     NumericalError, correlation_matrix_isotropic,
                     coupling_rx, coupling_tx, dipole_mutual_impedance,
                     impedance_matrix_dipoles, impedance_matrix_isotropic,
                     make_dipole_array, make_uniform_grid)

Z_A = HALF_WAVE_DIPOLE_SELF_IMPEDANCE


def induced_emf_oracle(dh, dv, lam=1.0):
    """Quadrature of the coupling integral between sinusoidal current
    filaments: the independent oracle for the closed forms."""
    k = 2 * math.pi / lam
    half = lam / 4  # half of the dipole length

    def integrand(zeta):
        r1 = math.hypot(dh, dv + zeta - half)
        r2 = math.hypot(dh, dv + zeta + half)
        field = cmath.exp(-1j * k * r1) / r1 + cmath.exp(-1j * k * r2) / r2
        return 1j * FREE_SPACE_IMPEDANCE / (4 * math.pi) * field * math.cos(k * zeta)

    re = quad(lambda z: integrand(z).real, -half, half, limit=400)[0]
    im = quad(lambda z: integrand(z).imag, -half, half, limit=400)[0]
    return complex(re, im)


def diagonal_impedance(n, z_self=Z_A):
    return ImpedanceMatrix(values=z_self * np.eye(n, dtype=complex),
                           z_self=z_self)


class TestDipoleMutualImpedance:
    def test_side_by_side_half_wavelength(self):
        z = dipole_mutual_impedance(0.5, 0.0)
        assert z.real == pytest.approx(-12.53, abs=0.05)
        assert z.imag == pytest.approx(-29.93, abs=0.05)
        assert abs(z - induced_emf_oracle(0.5, 0.0)) < 0.05

    def test_far_separation_decays(self):
        assert abs(dipole_mutual_impedance(1000.0, 0.0)) < 0.1

    def test_adjacent_echelon_matches_oracle(self):
        z = dipole_mutual_impedance(0.5, 0.52)
        assert abs(z - induced_emf_oracle(0.5, 0.52)) < 0.05

    def test_geometry_sweep_against_oracle(self):
        # 20 configurations spanning side-by-side, echelon and collinear
        cases = [(0.5, 0.0), (0.125, 0.0), (1.0, 0.0), (2.5, 0.0),
                 (0.5, 0.52), (0.125, 0.52), (0.25, 1.04), (0.05, 0.52),
                 (1.5, 2.08), (4.0, 3.64), (0.75, 0.52), (0.375, 1.56),
                 (0.625, 2.6), (2.0, 1.04), (3.0, 0.52), (0.25, 3.12),
                 (0.0, 0.52), (0.0, 1.04), (0.0, 2.08), (0.0, 3.64)]
        assert len(cases) == 20
        for dh, dv in cases:
            closed = dipole_mutual_impedance(dh, dv)
            oracle = induced_emf_oracle(dh, dv)
            assert abs(closed - oracle) < 0.05, (dh, dv)

    def test_side_by_side_limit_continuous(self):
        base = dipole_mutual_impedance(0.5, 0.0)
        approached = dipole_mutual_impedance(0.5, 1e-6)
        assert abs(base - approached) < 1e-8

    def test_collinear_limit_continuous(self):
        base = dipole_mutual_impedance(0.0, 1.04)
        approached = dipole_mutual_impedance(1e-5, 1.04)
        assert abs(base - approached) < 1e-8

    def test_coincident_rejected(self):
        with pytest.raises(DomainError):
            dipole_mutual_impedance(0.0, 0.0)

    def test_touching_collinear_rejected(self):
        with pytest.raises(DomainError):
            dipole_mutual_impedance(0.0, 0.5)

    def test_negative_separation_rejected(self):
        with pytest.raises(DomainError):
            dipole_mutual_impedance(-0.5, 0.0)


class TestImpedanceMatrixDipoles:
    def test_single_element(self):
        g = ArrayGeometry(wavelength=1.0, dx=0.5, dz=0.52, lx=0.5, lz=0.5,
                          nx=1, nz=1,
                          element_kind=ElementKind.HALF_WAVE_DIPOLE)
        z = impedance_matrix_dipoles(g)
        assert z.values.shape == (1, 1)
        assert z.values[0, 0] == Z_A

    def test_symmetry(self, dipole_geometries, dipole_impedances):
        z = dipole_impedances[0.5]
        assert np.allclose(z.values, z.values.T, rtol=1e-10)
        assert np.allclose(np.diag(z.values), Z_A)

    def test_translation_invariance(self, dipole_geometries, dipole_impedances):
        g = dipole_geometries[0.5]
        z = dipole_impedances[0.5].values
        # all adjacent x-neighbor pairs share one mutual value
        vals = [z[n, n + 1] for n in range(g.nx - 1)]
        assert np.allclose(vals, vals[0], rtol=0, atol=1e-12)

    def test_matches_pairwise_closed_form(self, dipole_geometries, dipole_impedances):
        g = dipole_geometries[0.5]
        z = dipole_impedances[0.5].values
        pos = g.positions
        for a, b in [(0, 1), (0, 9), (3, 40), (10, 71)]:
            expected = dipole_mutual_impedance(abs(pos[a, 0] - pos[b, 0]),
                                               abs(pos[a, 2] - pos[b, 2]))
            assert z[a, b] == pytest.approx(expected, rel=1e-12)

    def test_wrong_element_kind_rejected(self):
        g = make_uniform_grid(2.0, 2.0, 0.5, 0.5, 1.0)
        with pytest.raises(DomainError):
            impedance_matrix_dipoles(g)

    def test_dense_stack_matches_quadrature_oracle(self):
        # the table shares its kernels with dipole_mutual_impedance, so
        # check it against the independent quadrature at a 1/16-wavelength
        # spacing: the collinear di = 0 column, near neighbours, far corner
        g = make_dipole_array(4.0, 0.0625, 8, 0.02, 1.0)
        z = impedance_matrix_dipoles(g).values
        offsets = [(0, dk) for dk in range(1, g.nz)] + [
            (1, 0), (1, 1), (2, 3), (17, 0), (40, 5), (g.nx - 1, 0), (g.nx - 1, g.nz - 1)]
        for di, dk in offsets:
            oracle = induced_emf_oracle(di * g.dx, dk * g.dz)
            assert abs(z[0, dk * g.nx + di] - oracle) < 0.05, (di, dk)

    def test_touching_stack_rejected(self):
        for rows in (2, 8):
            g = make_dipole_array(4.0, 0.0625, rows, 0.0, 1.0)
            with pytest.raises(DomainError, match="touch"):
                impedance_matrix_dipoles(g)
        single_row = make_dipole_array(4.0, 0.0625, 1, 0.0, 1.0)
        assert impedance_matrix_dipoles(single_row).blocks.n == 65


class TestImpedanceMatrixIsotropic:
    def test_equals_scaled_correlation(self, dipole_geometries):
        g = dipole_geometries[0.5]
        r0 = correlation_matrix_isotropic(g)
        z = impedance_matrix_isotropic(g, 73.1)
        assert np.allclose(z.values, 73.1 * r0.values, rtol=1e-12)

    def test_half_wavelength_zeros(self):
        g = make_uniform_grid(2.0, 2.0, 0.5, 0.5, 1.0)
        z = impedance_matrix_isotropic(g, 50.0).values
        off = z - np.diag(np.diag(z))
        onrow = np.abs(off[0, 1:5])  # colinear neighbors at k * lam/2
        assert np.all(onrow < 1e-12)

    def test_dipole_mutuals_all_nonzero(self, dipole_impedances):
        z = dipole_impedances[0.5].values
        off = z[~np.eye(z.shape[0], dtype=bool)]
        assert np.all(np.abs(off) > 1e-6)

    def test_psd(self, dipole_geometries):
        z = impedance_matrix_isotropic(dipole_geometries[0.5], 73.1)
        ev = np.linalg.eigvalsh(z.values.real)
        assert ev.min() >= -1e-8 * ev.max()

    def test_invalid_resistance(self, dipole_geometries):
        with pytest.raises(DomainError):
            impedance_matrix_isotropic(dipole_geometries[0.5], 0.0)


class TestCouplingMatrices:
    def test_tx_identity_for_diagonal_impedance(self):
        z = diagonal_impedance(6)
        for zs in (Z_A.conjugate(), 50.0 + 0j, 300.0 + 0j, 10.0 - 5.0j):
            c = coupling_tx(z, zs)
            assert np.abs(c.values - np.eye(6)).max() < 1e-12
            assert c.side is CouplingSide.TX

    def test_tx_zero_source_impedance_gives_identity(self, dipole_impedances):
        c = coupling_tx(dipole_impedances[0.5], 0.0)
        assert np.abs(c.values - np.eye(c.blocks.n)).max() < 1e-9

    def test_rx_identity_for_diagonal_impedance(self):
        z = diagonal_impedance(5)
        c = coupling_rx(z, 50.0)
        assert np.abs(c.values - np.eye(5)).max() < 1e-12
        assert c.side is CouplingSide.RX

    def test_rx_large_load_approaches_identity(self, dipole_impedances):
        c = coupling_rx(dipole_impedances[0.5], 1e6)
        assert np.abs(c.values - np.eye(c.blocks.n)).max() < 1e-2

    def test_condition_number_reported(self, dipole_impedances):
        c = coupling_tx(dipole_impedances[0.5], Z_A.conjugate())
        assert c.condition > 1.0 and math.isfinite(c.condition)

    @pytest.mark.parametrize("solve, port", [(coupling_tx, Z_A.conjugate()),
                                             (coupling_rx, Z_A.conjugate()),
                                             (coupling_rx, 50.0 + 0j)])
    def test_condition_number_exact_on_read(self, dipole_impedances, solve, port):
        z = dipole_impedances[0.25]
        c = solve(z, port)
        expected = np.linalg.cond(z.values + port * np.eye(z.blocks.n))
        assert c.condition == pytest.approx(expected, rel=1e-12)

    def test_condition_number_computed_only_when_read(self, dipole_impedances, monkeypatch):
        # one SVD per parity block of Z + port I, on the first read only
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        z = dipole_impedances[0.5]
        blocks = len(z.blocks.blocks)
        ct = coupling_tx(z, Z_A.conjugate())
        cr = coupling_rx(z, 50.0)
        assert calls == []
        first = ct.condition
        assert ct.condition == first and len(calls) == blocks == 4
        assert cr.condition > 1.0 and len(calls) == 2 * blocks

    def test_given_condition_number_kept(self):
        c = CouplingMatrix(values=np.eye(3, dtype=complex), side=CouplingSide.TX,
                           port_impedance=50.0 + 0j, condition=2.5)
        assert c.condition == 2.5

    def test_condition_number_or_impedance_required(self):
        with pytest.raises(DomainError):
            CouplingMatrix(values=np.eye(3, dtype=complex), side=CouplingSide.TX,
                           port_impedance=50.0 + 0j)

    def test_singular_system_reports_condition(self):
        z = ImpedanceMatrix(values=np.diag([Z_A, Z_A, -50.0]).astype(complex), z_self=Z_A)
        with pytest.raises(NumericalError, match="condition"):
            coupling_rx(z, 50.0)

    def test_degenerate_normalization_rejected(self):
        z = diagonal_impedance(3)
        with pytest.raises(DomainError):
            coupling_tx(z, -Z_A)

    @pytest.mark.parametrize("solve, name", [(coupling_tx, "z_source"), (coupling_rx, "z_load")])
    def test_port_cancelling_self_impedance_rejected_on_each_side(self, dipole_impedances,
                                                                 solve, name):
        # the receive side once solved this and returned C = 0
        for z in (diagonal_impedance(3), dipole_impedances[0.5]):
            with pytest.raises(DomainError, match=rf"z_self \+ {name} = 0"):
                solve(z, -z.z_self)

    def test_tx_sparsity_grows_with_density(self, dipole_impedances):
        fractions = []
        for sp in (0.5, 0.25, 0.125):
            c = coupling_tx(dipole_impedances[sp], Z_A.conjugate())
            mags = np.abs(c.values)
            diag = np.abs(np.diag(c.values))
            fractions.append(float((mags > 0.01 * diag[:, None]).mean()))
        assert fractions[0] > fractions[1] > fractions[2]

    def test_rx_isotropic_invariant_to_resistance_scale(self, dipole_geometries):
        # with the load matched to the radiation resistance, the coupling
        # matrix does not depend on the resistance value at all
        g = dipole_geometries[0.5]
        c1 = coupling_rx(impedance_matrix_isotropic(g, 73.1), 73.1)
        c2 = coupling_rx(impedance_matrix_isotropic(g, 13.7), 13.7)
        assert np.abs(c1.values - c2.values).max() < 1e-10


def test_every_public_name_resolves():
    assert [name for name in holoris.__all__ if not hasattr(holoris, name)] == []
