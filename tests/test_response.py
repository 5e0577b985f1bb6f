import cmath
import math

import numpy as np
import pytest

from holoris import (ArrayGeometry, BeamformingScheme, Direction, DomainError,
                     ElementKind, NumericalError, array_gain, beamforming_vector,
                     coupling_tx, gain_sweep, make_dipole_array, make_uniform_grid,
                     max_gain_closed_form, parity_blocks, steering_vector)
from holoris.correlation import sinc_offset_table

from conftest import random_coupling

BROADSIDE = Direction(phi=math.pi / 2, theta=math.pi / 2)
END_FIRE = Direction(phi=0.0, theta=math.pi / 2)


def identity_coupling(n):
    return np.eye(n, dtype=complex)


def looped_sweep(geom, coupling, scheme, theta, phis):
    """Reference gain sweep: one steering vector, excitation and gain per azimuth."""
    if scheme is BeamformingScheme.NO_MC_REFERENCE:
        coupling = identity_coupling(geom.n)
    gains = []
    for phi in phis:
        a0 = steering_vector(geom, Direction(phi=phi, theta=theta))
        gains.append(array_gain(coupling, a0, beamforming_vector(scheme, coupling, a0)))
    return gains


class TestSteeringVector:
    def test_broadside_all_ones(self, dipole_geometries):
        a0 = steering_vector(dipole_geometries[0.5], BROADSIDE)
        assert np.allclose(a0, 1.0, atol=1e-14)

    def test_single_element(self):
        g = ArrayGeometry(wavelength=1.0, dx=0.5, dz=0.5, lx=0.5, lz=0.5,
                          nx=1, nz=1,
                          element_kind=ElementKind.ISOTROPIC)
        for d in (BROADSIDE, END_FIRE, Direction(phi=0.7, theta=0.9)):
            assert np.allclose(steering_vector(g, d), [1.0])

    def test_end_fire_pair_alternates_sign(self):
        g = make_dipole_array(0.5, 0.5, 1, 0.0, 1.0)  # two elements on x
        a0 = steering_vector(g, END_FIRE)
        assert a0[0] == pytest.approx(1.0)
        assert a0[1] == pytest.approx(-1.0, abs=1e-12)

    def test_unit_modulus(self, dipole_geometries):
        a0 = steering_vector(dipole_geometries[0.25], Direction(phi=0.3, theta=1.1))
        assert np.allclose(np.abs(a0), 1.0, atol=1e-14)


class TestBeamformingVector:
    def test_power_constraint_random(self, rng):
        a0 = np.exp(1j * rng.uniform(0, 2 * math.pi, 12))
        for _ in range(100):
            c = random_coupling(rng, 12)
            for scheme in BeamformingScheme:
                w = beamforming_vector(scheme, c, a0)
                assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
                # the gain is per unit power, so the norm of w drops out
                gain = array_gain(c, a0, w)
                for k in (1e-3, 1.0, 1e3):
                    assert array_gain(c, a0, k * w) == pytest.approx(gain, rel=1e-12)

    def test_schemes_coincide_without_coupling(self, rng):
        a0 = np.exp(1j * rng.uniform(0, 2 * math.pi, 9))
        c = identity_coupling(9)
        gains = [array_gain(c, a0, beamforming_vector(s, c, a0)) for s in BeamformingScheme]
        assert np.allclose(gains, gains[0], rtol=1e-12)

    def test_proposed_dominates_conjugate(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 16))
            a0 = np.exp(1j * rng.uniform(0, 2 * math.pi, n))
            c = random_coupling(rng, n)
            g_prop = array_gain(c, a0, beamforming_vector(
                BeamformingScheme.PROPOSED_MC_AWARE, c, a0))
            g_conj = array_gain(c, a0, beamforming_vector(
                BeamformingScheme.CONJUGATE_MC_UNAWARE, c, a0))
            assert g_prop >= g_conj - 1e-9 * g_prop

    def test_invalid_power(self, rng):
        # a zero response leaves no excitation to scale to unit power
        c = random_coupling(rng, 4)
        with pytest.raises(NumericalError, match="zero excitation"):
            beamforming_vector(BeamformingScheme.PROPOSED_MC_AWARE, c, np.zeros(4))
        with pytest.raises(DomainError, match="zero excitation"):
            array_gain(c, np.ones(4), np.zeros(4))


class TestArrayGain:
    def test_no_coupling_gain_is_element_count(self, dipole_geometries):
        g = dipole_geometries[0.5]
        c = identity_coupling(g.n)
        for d in (BROADSIDE, END_FIRE, Direction(phi=1.0, theta=1.3)):
            a0 = steering_vector(g, d)
            w = beamforming_vector(BeamformingScheme.CONJUGATE_MC_UNAWARE, c, a0)
            assert array_gain(c, a0, w) == pytest.approx(g.n, rel=1e-9)

    def test_closed_form_identity_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 20))
            a0 = np.exp(1j * rng.uniform(0, 2 * math.pi, n))
            c = random_coupling(rng, n)
            w = beamforming_vector(BeamformingScheme.PROPOSED_MC_AWARE, c, a0)
            assert array_gain(c, a0, w) == pytest.approx(
                max_gain_closed_form(c, a0), rel=1e-9)

    def test_proposed_excitation_and_closed_form_match_conjugate_transpose(self, rng):
        for n in (3, 17, 64):
            c = random_coupling(rng, n).values
            a0 = np.exp(1j * rng.uniform(0, 2 * math.pi, (n, 5)))
            w = beamforming_vector(BeamformingScheme.PROPOSED_MC_AWARE, c, a0)
            v = c.conj().T @ a0.conj()  # the N x N copy the excitation no longer makes
            assert np.allclose(w, v / np.linalg.norm(v, axis=0), rtol=1e-12, atol=0)
            a = a0[:, 0]
            old = abs((a @ c) @ (c.conj().T @ a.conj()))
            assert max_gain_closed_form(c, a) == pytest.approx(old, rel=1e-12)

    def test_phase_invariance(self, rng):
        c = random_coupling(rng, 7)
        a0 = np.exp(1j * rng.uniform(0, 2 * math.pi, 7))
        w = beamforming_vector(BeamformingScheme.PROPOSED_MC_AWARE, c, a0)
        rotated = w * cmath.exp(1j * 1.234)
        assert array_gain(c, a0, rotated) == pytest.approx(
            array_gain(c, a0, w), rel=1e-12)

    @pytest.mark.parametrize("call", [
        lambda c, a0: array_gain(c, a0, np.ones(4)),
        lambda c, a0: beamforming_vector(BeamformingScheme.PROPOSED_MC_AWARE, c, a0),
        lambda c, a0: beamforming_vector(BeamformingScheme.DIRECTIVITY_MAX, c, a0),
        lambda c, a0: max_gain_closed_form(c, a0),
    ], ids=["array_gain", "beamforming_vector", "beamforming_vector_directivity",
            "max_gain_closed_form"])
    @pytest.mark.parametrize("a0", [np.ones(4), np.ones((4, 2)), np.array(1.0)],
                             ids=["vector", "columns", "scalar"])
    def test_response_length_must_match_coupling(self, call, a0, rng):
        for c in (np.eye(3), random_coupling(rng, 3)):
            with pytest.raises(DomainError, match="coupling dimension 3"):
                call(c, a0)

    @pytest.mark.parametrize("w", [np.ones(4), np.ones(2), np.ones((3, 2)), np.array(1.0)],
                             ids=["long", "short", "columns", "scalar"])
    def test_excitation_length_must_match_response(self, w, rng):
        for c in (np.eye(3), random_coupling(rng, 3)):
            with pytest.raises(DomainError, match=r"excitation shape .* response shape \(3,\)"):
                array_gain(c, np.ones(3), w)

    def test_power_constraint_enforced(self):
        # the unit-norm check every gain_sweep excitation column passes
        from holoris.response import _check_power
        _check_power(np.array([1.0, 1.0 + 1e-10]))
        with pytest.raises(DomainError, match="power constraint"):
            _check_power(np.array([1.0, 2.0]))


class TestGainSweep:
    def test_no_mc_reference_flat(self, dipole_geometries, dipole_impedances):
        g = dipole_geometries[0.5]
        ct = coupling_tx(dipole_impedances[0.5], 73.1 - 42.5j)
        sweep = gain_sweep(g, ct, BeamformingScheme.NO_MC_REFERENCE,
                           math.pi / 2, np.linspace(0, math.pi, 31))
        assert np.allclose(sweep, g.n, rtol=1e-9)

    def test_gain_varies_with_coupling(self, dipole_geometries, dipole_impedances):
        g = dipole_geometries[0.5]
        ct = coupling_tx(dipole_impedances[0.5], 73.1 - 42.5j)
        sweep = gain_sweep(g, ct, BeamformingScheme.PROPOSED_MC_AWARE,
                           math.pi / 2, np.linspace(0, math.pi, 31))
        assert sweep.max() > sweep.min()

    def test_empty_grid_rejected(self, dipole_geometries, dipole_impedances):
        ct = coupling_tx(dipole_impedances[0.5], 50.0)
        with pytest.raises(DomainError):
            gain_sweep(dipole_geometries[0.5], ct,
                       BeamformingScheme.PROPOSED_MC_AWARE, math.pi / 2, [])

    @pytest.mark.parametrize("scheme", list(BeamformingScheme))
    def test_matches_per_azimuth_loop_random(self, scheme):
        rng = np.random.default_rng(7)
        g = make_dipole_array(2.0, 0.25, 3, 0.02, 1.0)
        phis = np.linspace(0, math.pi, 37)
        for _ in range(5):
            c = random_coupling(rng, g.n)
            theta = float(rng.uniform(0.2, math.pi - 0.2))
            sweep = gain_sweep(g, c, scheme, theta, phis)
            assert sweep.shape == phis.shape
            np.testing.assert_allclose(sweep,
                                       looped_sweep(g, c, scheme, theta, phis), rtol=1e-12)

    @pytest.mark.parametrize("scheme", list(BeamformingScheme))
    def test_matches_per_azimuth_loop_dipole_stack(self, scheme, dipole_geometries,
                                                   dipole_impedances):
        g = dipole_geometries[0.125]
        ct = coupling_tx(dipole_impedances[0.125], 73.1 - 42.5j)
        phis = np.linspace(0, math.pi, 19)
        sweep = gain_sweep(g, ct, scheme, math.pi / 2, phis)
        np.testing.assert_allclose(sweep,
                                   looped_sweep(g, ct, scheme, math.pi / 2, phis), rtol=1e-12)

    def test_singular_coupling_rejected(self, dipole_geometries):
        g = dipole_geometries[0.5]
        c = identity_coupling(g.n)
        c[3, 3] = 0.0
        with pytest.raises(NumericalError):
            gain_sweep(g, c, BeamformingScheme.DIRECTIVITY_MAX, math.pi / 2, [0.0, 1.0])

    def test_zero_excitation_rejected(self, dipole_geometries):
        g = dipole_geometries[0.5]
        with pytest.raises(NumericalError):
            gain_sweep(g, np.zeros((g.n, g.n)), BeamformingScheme.PROPOSED_MC_AWARE,
                       math.pi / 2, [0.0, 1.0])

    @pytest.mark.parametrize("phis", [[0.0, 3.2], [-0.1, 1.0], [0.5, math.nan]])
    def test_azimuth_out_of_range_rejected(self, dipole_geometries, phis):
        g = dipole_geometries[0.5]
        with pytest.raises(DomainError):
            gain_sweep(g, identity_coupling(g.n), BeamformingScheme.CONJUGATE_MC_UNAWARE,
                       math.pi / 2, phis)


class TestNonFiniteCoupling:
    """A coupling with a NaN or infinite entry raises DomainError before
    any product: the gains would otherwise come out NaN, because a NaN
    excitation norm passes the unit-power check."""

    GRID = make_uniform_grid(1.0, 1.0, 0.5, 0.5, 1.0)

    @staticmethod
    def coupling(bad):
        c = np.eye(9, dtype=complex)
        c[1, 2] = bad
        return c

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("scheme", list(BeamformingScheme))
    def test_gain_sweep(self, scheme, bad):
        with pytest.raises(DomainError, match="non-finite"):
            gain_sweep(self.GRID, self.coupling(bad), scheme, math.pi / 2, [0.0, 1.0])

    @pytest.mark.parametrize("scheme", list(BeamformingScheme))
    def test_gain_sweep_of_blocks(self, scheme):
        t = sinc_offset_table(self.GRID).astype(complex)
        t[1, 2] = math.nan
        with pytest.raises(DomainError, match="non-finite"):
            gain_sweep(self.GRID, parity_blocks(t, self.GRID), scheme, math.pi / 2, [0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    @pytest.mark.parametrize("scheme", list(BeamformingScheme))
    def test_beamforming_vector(self, scheme, bad):
        with pytest.raises(DomainError, match="non-finite"):
            beamforming_vector(scheme, self.coupling(bad), np.ones(9))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("scheme", list(BeamformingScheme))
    def test_array_gain(self, scheme, bad):
        a0 = steering_vector(self.GRID, BROADSIDE)
        w = beamforming_vector(scheme, identity_coupling(9), a0)
        with pytest.raises(DomainError, match="non-finite"):
            array_gain(self.coupling(bad), a0, w)
