import math

import numpy as np
import pytest

from holoris import (ArrayGeometry, ConfigError, CorrelationKind,
                     CorrelationMatrix, CouplingMatrix, CouplingSide, Direction,
                     DomainError, ElementKind, ImpedanceMatrix,
                     make_dipole_array, make_uniform_grid, unit_direction)


class TestUniformGrid:
    def test_half_wavelength_grid(self):
        g = make_uniform_grid(4.0, 4.0, 0.5, 0.5, 1.0)
        assert (g.nx, g.nz, g.n) == (9, 9, 81)
        assert g.element_kind is ElementKind.ISOTROPIC

    def test_third_wavelength_grid(self):
        g = make_uniform_grid(12.0, 12.0, 1 / 3, 1 / 3, 1.0)
        assert (g.nx, g.nz, g.n) == (37, 37, 1369)

    def test_eighth_wavelength_row_count(self):
        g = make_uniform_grid(4.0, 4.0, 0.125, 0.125, 1.0)
        assert g.nx == 33

    def test_positions_layout(self):
        g = make_uniform_grid(1.0, 1.0, 0.5, 0.5, 1.0)
        # row-major, x fastest
        expected = [(i * 0.5, 0.0, k * 0.5) for k in range(3) for i in range(3)]
        assert np.allclose(g.positions, expected)
        assert np.all(g.positions[:, 1] == 0.0)

    def test_aperture_consistency(self):
        g = make_uniform_grid(4.0, 2.0, 0.25, 0.5, 1.0)
        assert g.lx == pytest.approx((g.nx - 1) * g.dx, rel=1e-12)
        assert g.lz == pytest.approx((g.nz - 1) * g.dz, rel=1e-12)

    def test_non_integral_ratio_rejected(self):
        with pytest.raises(ConfigError):
            make_uniform_grid(4.0, 4.0, 0.3, 0.5, 1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(lx=0.0, lz=4.0, dx=0.5, dz=0.5, wavelength=1.0),
        dict(lx=4.0, lz=-1.0, dx=0.5, dz=0.5, wavelength=1.0),
        dict(lx=4.0, lz=4.0, dx=0.5, dz=0.5, wavelength=0.0),
    ])
    def test_nonpositive_rejected(self, kwargs):
        with pytest.raises(DomainError):
            make_uniform_grid(**kwargs)

    def test_lattice_closure(self):
        g = make_uniform_grid(2.0, 1.5, 0.5, 0.5, 1.0)
        pos = g.positions
        ix, iz = np.arange(g.n) % g.nx, np.arange(g.n) // g.nx  # x index fastest
        for a in range(g.n):
            for b in range(g.n):
                expected = np.array([(ix[a] - ix[b]) * g.dx, 0.0,
                                     (iz[a] - iz[b]) * g.dz])
                assert np.allclose(pos[a] - pos[b], expected, atol=1e-12)


class TestDipoleArray:
    def test_reference_layout(self):
        g = make_dipole_array(4.0, 0.5, 8, 1 / 50, 1.0)
        assert g.n == 72
        assert g.dz == pytest.approx(0.52)
        assert g.element_kind is ElementKind.HALF_WAVE_DIPOLE
        # tip-to-tip vertical extent
        assert g.lz == pytest.approx(8 * 0.5 + 7 / 50)

    def test_dense_layout(self):
        g = make_dipole_array(4.0, 0.125, 8, 1 / 50, 1.0)
        assert g.n == 33 * 8 == 264

    def test_single_row(self):
        g = make_dipole_array(4.0, 0.5, 1, 0.0, 1.0)
        assert (g.nx, g.nz) == (9, 1)
        assert np.all(g.positions[:, 2] == 0.0)

    def test_zero_gap_matches_uniform_grid(self):
        d = make_dipole_array(2.0, 0.5, 5, 0.0, 1.0)
        u = make_uniform_grid(2.0, 2.0, 0.5, 0.5, 1.0)
        assert np.allclose(d.positions, u.positions)

    def test_invalid_rows(self):
        with pytest.raises(DomainError):
            make_dipole_array(4.0, 0.5, 0, 0.0, 1.0)

    def test_negative_gap(self):
        with pytest.raises(DomainError):
            make_dipole_array(4.0, 0.5, 8, -0.1, 1.0)


class TestDirection:
    @pytest.mark.parametrize("phi,theta,expected", [
        (0.0, math.pi / 2, (1.0, 0.0, 0.0)),
        (0.3, 0.0, (0.0, 0.0, 1.0)),
        (math.pi / 2, math.pi / 2, (0.0, 1.0, 0.0)),
    ])
    def test_unit_direction_values(self, phi, theta, expected):
        v = unit_direction(Direction(phi=phi, theta=theta))
        assert np.allclose(v, expected, atol=1e-15)

    def test_unit_norm_random(self, rng):
        phis = rng.uniform(0, math.pi, 10_000)
        thetas = rng.uniform(0, math.pi, 10_000)
        for phi, theta in zip(phis, thetas):
            v = unit_direction(Direction(phi=phi, theta=theta))
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    @pytest.mark.parametrize("phi,theta", [
        (-0.1, 1.0), (3.2, 1.0), (1.0, -0.1), (1.0, 3.2), (math.nan, 1.0),
    ])
    def test_invalid_angles(self, phi, theta):
        with pytest.raises(DomainError):
            Direction(phi=phi, theta=theta)


def test_positions_immutable():
    g = make_uniform_grid(1.0, 1.0, 0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        g.positions[0, 0] = 5.0


def test_geometry_compares_and_hashes_as_a_value():
    g = make_uniform_grid(2.0, 2.0, 0.5, 0.5, 1.0)
    same = make_uniform_grid(2.0, 2.0, 0.5, 0.5, 1.0)
    assert g == same and hash(g) == hash(same)
    assert len({g, same, make_uniform_grid(2.0, 2.0, 0.5, 0.25, 1.0)}) == 2
    assert g != make_dipole_array(2.0, 0.5, 5, 0.0, 1.0)
    # positions follow from the lattice fields, x index fastest
    assert np.array_equal(ArrayGeometry(wavelength=1.0, dx=0.5, dz=0.25, lx=1.0, lz=0.25,
                                        nx=3, nz=2, element_kind=ElementKind.ISOTROPIC).positions,
                          [[0, 0, 0], [0.5, 0, 0], [1, 0, 0],
                           [0, 0, 0.25], [0.5, 0, 0.25], [1, 0, 0.25]])


@pytest.mark.parametrize("build, attr", [
    (lambda a: CorrelationMatrix(values=a, kind=CorrelationKind.MC_UNAWARE), "values"),
    (lambda a: ImpedanceMatrix(values=a, z_self=73.1 + 0j), "values"),
    (lambda a: CouplingMatrix(values=a, side=CouplingSide.TX, port_impedance=50.0 + 0j,
                              condition=1.0), "values"),
], ids=["correlation", "impedance", "coupling"])
def test_caller_array_stays_writeable(build, attr):
    caller = np.eye(3)
    stored = getattr(build(caller), attr)
    assert caller.flags.writeable
    assert not stored.flags.writeable
    assert np.shares_memory(stored, caller)
