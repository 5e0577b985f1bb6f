"""Property tests of the lattice kernels against their dense or direct
definitions, on small lattices with odd and even axis lengths (1 included):

* the mirror-split eigensolve against dense ``eigvalsh``;
* parity blocks gathered from an offset table against the split of the
  gathered matrix, their dense assembly, and the blockwise coupling and
  effective correlation against the dense path;
* the folded-FFT wavenumber transform against a per-point direct sum;
* the offset-table gather against the pairwise-distance formula.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from holoris import (ArrayGeometry, CorrelationKind, CorrelationMatrix,
                     CouplingSide, DomainError, ElementKind, ImpedanceMatrix,
                     NumericalError, SpacingConvention,
                     correlation_matrix_isotropic, coupling_blocks, coupling_rx,
                     coupling_tx, effective_correlation, eigen_spectrum,
                     generator_sequence, icsi, impedance_matrix_dipoles,
                     impedance_matrix_isotropic, parity_blocks, power_spectrum)
from holoris.analysis import _mirror_blocks
from holoris.correlation import sinc_offset_table
from holoris.geometry import gather_offsets
from holoris.spectrum import _odd_grid

PROPERTY = settings(max_examples=60, deadline=None)

axis_len = st.integers(min_value=1, max_value=9)
spacing = st.sampled_from([0.1, 0.125, 0.2, 0.25, 1 / 3, 0.5, 0.7])
ohms = st.builds(complex, st.floats(20.0, 400.0), st.floats(-100.0, 100.0))


def lattice(nx, nz, dx, dz, kind=ElementKind.ISOTROPIC):
    """Lattice geometry of any axis lengths, x index fastest."""
    ix = np.tile(np.arange(nx), nz)
    iz = np.repeat(np.arange(nz), nx)
    positions = np.column_stack([ix * dx, np.zeros(nx * nz), iz * dz])
    dipole = kind is ElementKind.HALF_WAVE_DIPOLE
    return ArrayGeometry(wavelength=1.0, dx=dx, dz=dz, lx=nx * dx, lz=nz * dz,
                         nx=nx, nz=nz, positions=positions, element_kind=kind,
                         dipole_length=0.5 if dipole else 0.0)


def dense_spectrum(values):
    return np.sort(np.abs(np.linalg.eigvalsh(values)))[::-1]


def assert_split_matches_dense(r, geom):
    split = eigen_spectrum(r, normalize_by_n=False, geom=geom).values
    dense = dense_spectrum(r.values)
    assert np.abs(split - dense).max() <= 1e-13 * dense[0]


@PROPERTY
@given(axis_len, axis_len, spacing, spacing)
def test_split_eigenvalues_real_correlation(nx, nz, dx, dz):
    g = lattice(nx, nz, dx, dz)
    assert_split_matches_dense(correlation_matrix_isotropic(g), g)


@PROPERTY
@given(axis_len, axis_len, spacing, st.floats(0.01, 0.2), ohms, st.booleans())
def test_split_eigenvalues_effective_correlation(nx, nz, dx, gap, port, transmit):
    g = lattice(nx, nz, dx, 0.5 + gap, ElementKind.HALF_WAVE_DIPOLE)
    z = impedance_matrix_dipoles(g)
    c = coupling_tx(z, port) if transmit else coupling_rx(z, port)
    r = effective_correlation(c, correlation_matrix_isotropic(g))
    assert np.iscomplexobj(r.values)
    assert_split_matches_dense(r, g)


@PROPERTY
@given(axis_len, axis_len, spacing, spacing, st.sampled_from(list(SpacingConvention)))
def test_fft_transform_matches_direct_sum(nx, nz, dx, dz, convention):
    g = lattice(nx, nz, dx, dz)
    seq = generator_sequence(g, convention)
    spec = power_spectrum(seq, g)
    lidx = np.arange(-(nx - 1), nx)
    midx = np.arange(-(nz - 1), nz)
    direct = np.empty((nx, nz))
    for p, wx in enumerate(_odd_grid(nx)):
        for q, wz in enumerate(_odd_grid(nz)):
            phase = np.exp(-1j * (lidx[:, None] * wx + midx[None, :] * wz))
            direct[p, q] = (seq.values * phase).sum().real / (nx * nz)
    assert np.abs(spec.values - direct).max() <= 1e-13 * np.abs(direct).max()


@PROPERTY
@given(axis_len, axis_len, spacing, spacing, st.floats(10.0, 300.0))
def test_gathered_matrices_match_pairwise_distances(nx, nz, dx, dz, r_iso):
    g = lattice(nx, nz, dx, dz)
    pos = g.positions
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    kernel = np.sinc(2.0 * dist / g.wavelength)
    assert np.abs(correlation_matrix_isotropic(g).values - kernel).max() <= 1e-14
    z = impedance_matrix_isotropic(g, r_iso).values
    assert np.iscomplexobj(z)
    assert np.abs(z - r_iso * kernel).max() <= 1e-14 * r_iso


@PROPERTY
@given(axis_len, axis_len, st.integers(0, 2**32 - 1))
def test_matrix_without_mirror_symmetry_rejected(nx, nz, seed):
    assume(nx * nz >= 2)  # a single element is trivially mirror-symmetric
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((nx * nz, nx * nz))
    r = CorrelationMatrix(values=x + x.T, kind=CorrelationKind.MC_UNAWARE)
    with pytest.raises(DomainError, match="mirror"):
        eigen_spectrum(r, geom=lattice(nx, nz, 0.25, 0.25))


def test_small_mirror_defect_rejected_but_hermitian_accepted():
    g = lattice(5, 4, 0.25, 0.25)
    values = correlation_matrix_isotropic(g).values.copy()
    values[0, 1] += 1e-6  # Hermitian, but no longer mirror-symmetric
    values[1, 0] += 1e-6
    r = CorrelationMatrix(values=values, kind=CorrelationKind.MC_UNAWARE)
    assert math.isfinite(eigen_spectrum(r).values[0])
    with pytest.raises(DomainError, match="mirror"):
        eigen_spectrum(r, geom=g)


def test_geometry_size_mismatch_rejected():
    g = lattice(3, 3, 0.25, 0.25)
    r = correlation_matrix_isotropic(lattice(2, 3, 0.25, 0.25))
    with pytest.raises(DomainError):
        eigen_spectrum(r, geom=g)


def random_table(rng, nx, nz, complex_entries):
    t = rng.standard_normal((nx, nz))
    return t + 1j * rng.standard_normal((nx, nz)) if complex_entries else t


@PROPERTY
@given(axis_len, axis_len, st.booleans(), st.integers(0, 2**32 - 1))
def test_parity_blocks_match_split_of_gathered_matrix(nx, nz, complex_entries, seed):
    g = lattice(nx, nz, 0.25, 0.25)
    t = random_table(np.random.default_rng(seed), nx, nz, complex_entries)
    gathered = parity_blocks(t, g)
    split = _mirror_blocks(gather_offsets(t, g), g, 1.0)
    assert gathered.scale == np.abs(t).max()
    assert [b.shape for b in gathered.blocks] == [b.shape for b in split]
    for b, ref in zip(gathered.blocks, split):
        assert np.iscomplexobj(b) == complex_entries
        assert np.abs(b - ref).max() <= 1e-13 * np.abs(t).max()


@PROPERTY
@given(axis_len, axis_len, st.booleans(), st.integers(0, 2**32 - 1))
def test_dense_assembly_round_trips_to_gathered_matrix(nx, nz, complex_entries, seed):
    g = lattice(nx, nz, 0.25, 0.25)
    t = random_table(np.random.default_rng(seed), nx, nz, complex_entries)
    dense = parity_blocks(t, g).dense()
    assert dense.shape == (g.n, g.n)
    assert np.abs(dense - gather_offsets(t, g)).max() <= 1e-13 * np.abs(t).max()


@PROPERTY
@given(axis_len, axis_len, spacing, st.floats(0.01, 0.2), ohms, st.booleans())
def test_blockwise_coupling_matches_dense(nx, nz, dx, gap, port, transmit):
    g = lattice(nx, nz, dx, 0.5 + gap, ElementKind.HALF_WAVE_DIPOLE)
    z = impedance_matrix_dipoles(g)
    r0 = correlation_matrix_isotropic(g)
    c = coupling_tx(z, port) if transmit else coupling_rx(z, port)
    cb = coupling_blocks(z, port, CouplingSide.TX if transmit else CouplingSide.RX)
    assert np.abs(cb.dense() - c.values).max() <= 1e-12 * np.abs(c.values).max()
    dense = effective_correlation(c, r0)
    blocks = effective_correlation(cb, parity_blocks(sinc_offset_table(g), g))
    ref = dense_spectrum(dense.values)
    got = eigen_spectrum(blocks, normalize_by_n=False).values
    assert np.abs(got - ref).max() <= 1e-13 * ref[0]
    if g.n >= 2:
        assert icsi(blocks.dense()) == pytest.approx(icsi(dense), rel=1e-12)


def test_lattice_impedance_gathers_values_on_first_read():
    g = lattice(4, 3, 0.25, 0.6, ElementKind.HALF_WAVE_DIPOLE)
    z = impedance_matrix_dipoles(g)
    assert z._values is None and z.dim == g.n
    assert np.abs(z.values - z.blocks.dense()).max() <= 1e-13 * np.abs(z.values).max()
    assert z.values is z.values and not z.values.flags.writeable
    with pytest.raises(DomainError):
        ImpedanceMatrix(z_self=73.1 + 0j)
    with pytest.raises(DomainError, match="offset table"):
        ImpedanceMatrix(values=np.eye(3, dtype=complex), z_self=73.1 + 0j).blocks


def test_blockwise_singular_coupling_raises_as_dense():
    g = lattice(3, 2, 0.25, 0.25)
    table = np.zeros((3, 2), dtype=complex)
    table[0, 0] = -50.0  # Z = -50 I, so Z + 50 I is singular
    z = ImpedanceMatrix(z_self=73.1 + 0j, table=table, geom=g)
    with pytest.raises(NumericalError, match="singular system in rx coupling") as dense:
        coupling_rx(z, 50.0)
    with pytest.raises(NumericalError, match="singular system in rx coupling") as blocks:
        coupling_blocks(z, 50.0, CouplingSide.RX)
    assert str(blocks.value) == str(dense.value)


def test_blockwise_non_finite_coupling_raises_as_dense(monkeypatch):
    g = lattice(3, 2, 0.25, 0.6, ElementKind.HALF_WAVE_DIPOLE)
    z = impedance_matrix_dipoles(g)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(b.shape, np.nan + 0j))
    with pytest.raises(NumericalError, match="non-finite tx coupling") as dense:
        coupling_tx(z, 50.0)
    with pytest.raises(NumericalError, match="non-finite tx coupling") as blocks:
        coupling_blocks(z, 50.0, CouplingSide.TX)
    assert str(blocks.value) == str(dense.value)


def test_blocks_on_another_lattice_rejected():
    g, other = lattice(3, 3, 0.25, 0.25), lattice(3, 3, 0.25, 0.25)
    r0 = parity_blocks(sinc_offset_table(g), g)
    z = impedance_matrix_isotropic(other)
    with pytest.raises(DomainError):
        effective_correlation(coupling_blocks(z, 50.0, CouplingSide.RX), r0)
    with pytest.raises(DomainError):
        eigen_spectrum(r0, geom=other)
