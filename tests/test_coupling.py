import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

import holoris
from holoris import (ArrayGeometry, DomainError, ElementKind, FREE_SPACE_IMPEDANCE,
                     HALF_WAVE_DIPOLE_SELF_IMPEDANCE, ImpedanceMatrix,
                     NumericalError, correlation_matrix_isotropic,
                     coupling_rx, coupling_tx, dipole_mutual_impedance,
                     impedance_matrix_dipoles, impedance_matrix_isotropic,
                     make_dipole_array, make_uniform_grid)
from holoris.coupling import _shifted_condition, couplings

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
    return ImpedanceMatrix((z_self * np.eye(n, dtype=complex),))


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

    @pytest.mark.parametrize("wavelength", [math.inf, math.nan, 0.0, -1.0])
    def test_non_positive_or_non_finite_wavelength_rejected(self, wavelength):
        with pytest.raises(DomainError, match="wavelength must be positive"):
            dipole_mutual_impedance(0.5, 0.0, wavelength=wavelength)


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
        assert impedance_matrix_dipoles(single_row).n == 65


def exact_self_impedance(lam=1.0):
    """Induced-EMF self-impedance of a filament half-wave dipole,
    30 (gamma + ln 2 pi - Ci(2 pi)) + j 30 Si(2 pi): the limit of the
    mutual closed forms as the side-by-side spacing goes to 0."""
    si, ci = sici(2 * math.pi)
    return 30 * (np.euler_gamma + math.log(2 * math.pi) - ci) + 30j * si


def resistance_eigenvalues(geom, z_self):
    """Eigenvalues of Re(Z), block by block: the parity basis is real, so
    the real part of a block is the block of Re(Z)."""
    z = impedance_matrix_dipoles(geom, z_self)
    return np.concatenate([np.linalg.eigvalsh(b.real) for b in z.blocks])


PASSIVITY_STACKS = [(4.0, 0.5, 8), (4.0, 0.25, 8), (4.0, 0.125, 8), (4.0, 1 / 16, 8),
                    (8.0, 0.25, 16)]


class TestPassivity:
    """Re(Z) of a lossless array is its radiation-resistance matrix, a Gram
    matrix of the element patterns, so it is positive semidefinite with
    the exact self-impedance; this checks the echelon and collinear
    closed forms together at every offset."""

    @pytest.mark.parametrize("lx,dx,rows", PASSIVITY_STACKS)
    def test_resistance_psd_with_exact_self_impedance(self, lx, dx, rows):
        ev = resistance_eigenvalues(make_dipole_array(lx, dx, rows, 0.02, 1.0),
                                    exact_self_impedance())
        assert ev.min() >= -1e-12 * ev.max()

    @pytest.mark.parametrize("dx", [0.25, 0.125, 1 / 16])
    def test_packaged_self_resistance_margin(self, dx):
        # below half a wavelength the smallest eigenvalue with the
        # packaged 73.1 ohms is its shortfall from the exact 73.1296 ohms
        ev = resistance_eigenvalues(make_dipole_array(4.0, dx, 8, 0.02, 1.0), Z_A)
        shortfall = Z_A.real - exact_self_impedance().real
        assert shortfall == pytest.approx(-0.0296, abs=1e-4)
        assert ev.min() == pytest.approx(shortfall, abs=1e-9)


def test_self_impedance_is_read_from_the_matrix(dipole_geometries):
    # z_self is the offset table's zero-offset entry, or the first
    # diagonal entry of a matrix given as one block: never a second copy
    g = dipole_geometries[0.5]
    for z in (impedance_matrix_dipoles(g, 50.0 - 3j), impedance_matrix_isotropic(g, 13.7)):
        assert type(z.z_self) is complex and z.z_self == z.table[0, 0] == z.values[0, 0]
    v = np.diag([2.0 + 1j, 5.0, 7.0])
    assert ImpedanceMatrix((v,)).z_self == v[0, 0]


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

    def test_tx_zero_source_impedance_gives_identity(self, dipole_impedances):
        c = coupling_tx(dipole_impedances[0.5], 0.0)
        assert np.abs(c.values - np.eye(c.n)).max() < 1e-9

    def test_rx_identity_for_diagonal_impedance(self):
        z = diagonal_impedance(5)
        c = coupling_rx(z, 50.0)
        assert np.abs(c.values - np.eye(5)).max() < 1e-12

    def test_rx_large_load_approaches_identity(self, dipole_impedances):
        c = coupling_rx(dipole_impedances[0.5], 1e6)
        assert np.abs(c.values - np.eye(c.n)).max() < 1e-2

    def test_condition_number_reported(self, dipole_impedances):
        condition = _shifted_condition(dipole_impedances[0.5], Z_A.conjugate())
        assert condition > 1.0 and math.isfinite(condition)

    @pytest.mark.parametrize("solve, port", [(coupling_tx, Z_A.conjugate()),
                                             (coupling_rx, Z_A.conjugate()),
                                             (coupling_rx, 50.0 + 0j)])
    def test_condition_number_exact_on_read(self, dipole_impedances, solve, port):
        # the solve inverts Z + port I, whose condition number its error
        # messages quote
        z = dipole_impedances[0.25]
        assert np.all(np.isfinite(solve(z, port).values))
        expected = np.linalg.cond(z.values + port * np.eye(z.n))
        assert _shifted_condition(z, port) == pytest.approx(expected, rel=1e-12)

    def test_condition_number_computed_only_when_read(self, dipole_impedances, monkeypatch):
        # a solve that succeeds takes no SVD; the condition number takes
        # one per parity block of Z + port I
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        z = dipole_impedances[0.5]
        blocks = len(z.blocks)
        coupling_tx(z, Z_A.conjugate())
        coupling_rx(z, 50.0)
        assert calls == []
        assert _shifted_condition(z, 50.0) > 1.0 and len(calls) == blocks == 4

    def test_singular_system_reports_condition(self):
        z = ImpedanceMatrix((np.diag([Z_A, Z_A, -50.0]).astype(complex),))
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

    def test_zero_self_impedance_rejected_on_transmit_side(self, dipole_geometries):
        # the transmit prefactor 1 + zS / zA divides by the self-impedance
        with pytest.raises(DomainError, match="z_self = 0"):
            coupling_tx(impedance_matrix_dipoles(dipole_geometries[0.5], 0j), 50)

    def test_one_solve_names_the_transmit_side_in_its_errors(self, dipole_geometries):
        # a port on both sides is checked as a transmit port; the receive
        # side alone needs no self-impedance to divide by
        z = diagonal_impedance(3)
        with pytest.raises(DomainError, match=r"z_self \+ z_source = 0"):
            couplings(z, -Z_A)
        z = impedance_matrix_dipoles(dipole_geometries[0.5], 0j)
        with pytest.raises(DomainError, match="z_self = 0"):
            couplings(z, 50)
        assert list(couplings(z, 50, sides=("rx",))) == ["rx"]

    @pytest.mark.parametrize("spacing", [0.5, 0.25, 0.125, 0.0625])
    def test_transmit_coupling_matches_the_direct_form(self, spacing):
        """The transmit side, formed from the receive solve as its
        complement, against the direct form (1 + zS/zA) Z (Z + zS I)^-1 of
        the dense Z on the default stack, within 1e-12 of its largest
        entry (3.4e-14 measured, at 1e4 + 5j); and both sides of one
        ``couplings`` call against ``coupling_tx`` and ``coupling_rx``,
        bit for bit."""
        z = impedance_matrix_dipoles(make_dipole_array(4.0, spacing, 8, 0.02, 1.0))
        for port in (Z_A.conjugate(), 50.0, 300.0, 1e-3, 1e4 + 5j, 20 - 100j):
            direct = (1.0 + port / Z_A) * z.values @ np.linalg.inv(z.values + port * np.eye(z.n))
            both = couplings(z, port)
            assert np.abs(both["tx"].values - direct).max() <= 1e-12 * np.abs(direct).max()
            assert np.array_equal(both["tx"].values, coupling_tx(z, port).values)
            assert np.array_equal(both["rx"].values, coupling_rx(z, port).values)

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
