"""Property tests of the lattice kernels against their dense or direct
definitions, on small lattices with odd and even axis lengths (1 included):

* parity blocks gathered from an offset table against P_b^T A P_b, with
  the orthonormal parity basis P built here from its definition, and
  their dense assembly against the gathered matrix;
* the blockwise eigensolve of parity blocks, of a correlation and of an
  effective correlation under ``coupling_tx``/``coupling_rx``, against
  dense ``eigvalsh``, and the x <-> z swap split of a square lattice's
  correlation against dense ``eigvalsh`` and against the four-block solve,
  and lazily gathered blocks read one at a time, and once per row pass;
* gathered blocks and swap halves against their whole-array oracles, bit
  for bit, those of a real table against their transpose, and the traced
  peak of a lazy block read and of the lazy eigensolve at N = 4225
  against the block's bytes, and the first two eigenvalue moments of
  that lazy swap solve against the offset table;
* the traced peaks of one coupling solve, and of the chunked gain sweep
  and ICSI, at N = 520;
* the coupling cases of a factored R0, both sides of a port the Gram
  blocks of C_b^T F_b from one solve, against dense C_b^T R0_b conj(C_b)
  of the direct coupling formula and ``eigvalsh`` on the default stack
  from 1/2 to 1/16 wavelength, and the factor's PSD check;
* the blockwise coupling against the closed-form coupling matrices;
* the gain sweep and the ICSI of parity blocks against the same
  operation on the assembled dense matrix, errors included, and the gain
  sweep's per-axis steering against per-azimuth ``steering_vector``
  gains;
* every block operation on a lattice matrix against the same operation on
  its values-only twin, held as one block, mixed pairs included, and the
  Hermitian-PSD check of ``eigen_spectrum`` in both forms;
* the cosine-sum wavenumber transform against a per-point direct sum;
* the offset-table gather against the pairwise-distance formula, and
  the values of table-backed matrices against the gather, bit for bit.
"""

import dataclasses
import math
import tracemalloc
import weakref
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holoris import (ArrayGeometry, BeamformingScheme, Direction, DomainError, ElementKind,
                     ImpedanceMatrix, NumericalError,
                     ParityBlocks, array_gain, beamforming_vector,
                     correlation_matrix_isotropic, coupling_rx, coupling_tx,
                     effective_correlation, eigen_spectrum, gain_sweep, generator_sequence,
                     icsi, impedance_matrix_dipoles, impedance_matrix_isotropic,
                     make_uniform_grid, parity_blocks, power_spectrum, steering_vector)
from holoris.analysis import _hermitian_part, factor
from holoris.config import ExperimentConfig
from holoris.coupling import HALF_WAVE_DIPOLE_SELF_IMPEDANCE, _shifted_condition, couplings
from holoris.correlation import sinc_offset_table
from holoris.geometry import _TableBlocks, _parities, _swap_halves, chunks, gather_offsets
from holoris.spectrum import _odd_grid

import oracles
from conftest import Z_MATCH, random_coupling

PROPERTY = settings(max_examples=60, deadline=None)

axis_len = st.integers(min_value=1, max_value=9)
spacing = st.sampled_from([0.1, 0.125, 0.2, 0.25, 1 / 3, 0.5, 0.7])
ohms = st.builds(complex, st.floats(20.0, 400.0), st.floats(-100.0, 100.0))


def lattice(nx, nz, dx, dz, kind=ElementKind.ISOTROPIC):
    """Lattice geometry of any axis lengths, x index fastest."""
    return ArrayGeometry(wavelength=1.0, dx=dx, dz=dz, lx=nx * dx, lz=nz * dz,
                         nx=nx, nz=nz, element_kind=kind)


def mirror_basis(n, odd):
    """(n, m) columns of one axis's even or odd mirror basis:
    (e_i +/- e_{n-1-i}) / sqrt(2) for i < n // 2, then the centre
    e_{n // 2} in the even half of an odd n."""
    cols = []
    for i in range(n // 2):
        v = np.zeros(n)
        v[i], v[n - 1 - i] = 1.0, -1.0 if odd else 1.0
        cols.append(v / math.sqrt(2.0))
    if n % 2 and not odd:
        cols.append(np.eye(n)[n // 2])
    return np.array(cols).reshape(len(cols), n).T


def parity_bases(geom):
    """Orthonormal basis P_b of each non-empty (z, x) parity block, in
    block order; lattice rows are z-major, so P_b = P_z (x) P_x."""
    bases = [np.kron(mirror_basis(geom.nz, pz), mirror_basis(geom.nx, px))
             for pz in (False, True) for px in (False, True)]
    return [p for p in bases if p.shape[1]]


def dense_spectrum(values):
    return np.sort(np.abs(np.linalg.eigvalsh(values)))[::-1]


def coupling_formula(z, port, transmit):
    """(1 + zS/zA) Z (Z + zS I)^-1 or (zA + zL) (Z + zL I)^-1 of a Z."""
    inv = np.linalg.inv(z.values + port * np.eye(z.n))
    return (1.0 + port / z.z_self) * z.values @ inv if transmit else (z.z_self + port) * inv


def dipole_coupling(nx, nz, dx, gap, port, transmit):
    """A dipole lattice, its impedance matrix and its coupling matrix."""
    g = lattice(nx, nz, dx, 0.5 + gap, ElementKind.HALF_WAVE_DIPOLE)
    z = impedance_matrix_dipoles(g)
    return g, z, coupling_tx(z, port) if transmit else coupling_rx(z, port)


def assert_split_matches_dense(blocks, dense):
    split = eigen_spectrum(blocks, normalize_by_n=False).values
    ref = dense_spectrum(dense)
    assert np.abs(split - ref).max() <= 1e-13 * ref[0]


@PROPERTY
@given(axis_len, axis_len, spacing, spacing)
def test_split_eigenvalues_real_correlation(nx, nz, dx, dz):
    g = lattice(nx, nz, dx, dz)
    assert_split_matches_dense(parity_blocks(sinc_offset_table(g), g),
                               correlation_matrix_isotropic(g).values)


@PROPERTY
@given(axis_len, spacing)
@example(1, 0.25)  # the (even, even) block alone
@example(2, 0.5)  # every antisymmetric half empty
def test_swap_split_eigenvalues_real_correlation(n, d):
    g = lattice(n, n, d, d)
    r0 = parity_blocks(sinc_offset_table(g), g)
    assert r0.swap
    assert_split_matches_dense(r0, correlation_matrix_isotropic(g).values)


@pytest.mark.parametrize("n, sizes", [(1, [1]), (2, [1, 1, 1]), (5, [3, 6, 6, 1, 3]),
                                      (6, [3, 6, 9, 3, 6])])
def test_swap_split_solves_each_half_once(n, sizes, monkeypatch):
    g = lattice(n, n, 0.25, 0.25)
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        assert np.array_equal(a, a.T)
        solved.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    spec = eigen_spectrum(parity_blocks(sinc_offset_table(g), g))
    assert solved == sizes and len(spec.values) == g.n


def test_swap_flag_only_on_symmetric_square_tables():
    square, wide, stretched = (lattice(4, 4, 0.25, 0.25), lattice(4, 3, 0.25, 0.25),
                               lattice(4, 4, 0.25, 0.3))
    assert parity_blocks(sinc_offset_table(square), square).swap
    assert not parity_blocks(sinc_offset_table(wide), wide).swap
    assert not parity_blocks(sinc_offset_table(stretched), stretched).swap
    t = random_table(np.random.default_rng(7), 4, 4, True)
    assert not parity_blocks(t.real, square).swap
    assert parity_blocks(t.real + t.real.T, square).swap
    # a complex table is never swap-flagged, symmetric or not
    assert not parity_blocks(t + t.T, square).swap


def test_swap_flag_not_carried_into_effective_correlation():
    g, _, c = dipole_coupling(3, 3, 0.75, 0.25, 50.0, True)
    r0 = parity_blocks(sinc_offset_table(g), g)
    assert r0.swap  # dx = dz = 0.75
    assert not c.swap
    assert not effective_correlation(c, r0).swap


@pytest.mark.parametrize("n", [1, 2, 7, 8])
def test_swap_flagged_dense_assembly_matches_gathered_matrix(n):
    g = lattice(n, n, 0.2, 0.2)
    r0 = parity_blocks(sinc_offset_table(g), g)
    assert r0.swap
    assert np.abs(r0.dense() - correlation_matrix_isotropic(g).values).max() <= 1e-13


@pytest.mark.parametrize("spacing", [0.5, 1 / 3, 0.25])
def test_swap_split_keeps_eigen_summary(spacing):
    g = make_uniform_grid(12.0, 12.0, spacing, spacing, 1.0)
    r0 = parity_blocks(sinc_offset_table(g), g)
    assert r0.swap
    split = eigen_spectrum(r0)
    four = eigen_spectrum(ParityBlocks(r0.blocks, r0.geom))
    assert split.dominant_count == four.dominant_count
    assert split.knee_index == four.knee_index
    assert abs(split.negative_mass - four.negative_mass) <= 1e-13
    assert np.abs(split.values - four.values).max() <= 1e-13 * four.values[0]


class RecordingBlocks(Sequence):
    """Blocks that record which are read, and check on each read that
    no block read before is still alive."""

    def __init__(self, blocks):
        self.blocks, self.reads, self.refs = blocks, [], []

    def __len__(self):
        return len(self.blocks)

    def __getitem__(self, k):
        return self.record(k, self.blocks[k])

    def record(self, k, b):
        assert all(ref() is None for ref in self.refs)
        self.reads.append(k)
        self.refs.append(weakref.ref(b))
        return b


class RecordingTableBlocks(_TableBlocks):
    """The lazily gathered blocks of an offset table, which carry the
    table, recording their reads as ``RecordingBlocks`` does."""

    def __init__(self, table, geom):
        super().__init__(table, geom)
        self.reads, self.refs = [], []

    def __getitem__(self, k):
        return RecordingBlocks.record(self, k, super().__getitem__(k))


@pytest.mark.parametrize("n, swap_reads", [(1, []), (2, [1]), (7, [1]), (8, [1])])
def test_lazy_blocks_are_gathered_and_solved_one_at_a_time(n, swap_reads):
    g = lattice(n, n, 0.25, 0.25)
    table = sinc_offset_table(g)
    kept, lazy = parity_blocks(table, g), parity_blocks(table, g, lazy=True)
    assert lazy.swap and len(lazy.blocks) == len(kept.blocks)
    assert all(np.array_equal(a, b) for a, b in zip(kept.blocks, lazy.blocks))
    assert np.array_equal(lazy.dense(), kept.dense())
    # blocks that carry their table take the swap path, others the four-block one
    for blocks, reads, expected in (
            (RecordingTableBlocks(table, g), swap_reads, kept),
            (RecordingBlocks(lazy.blocks), list(range(len(kept.blocks))),
             ParityBlocks(tuple(kept.blocks), g))):
        spec = eigen_spectrum(ParityBlocks(blocks, g))
        assert blocks.reads == reads
        assert np.array_equal(spec.values, eigen_spectrum(expected).values)


def test_rows_of_lazy_blocks_read_each_block_once_per_pass(dipole_stack_520):
    """Assembling rows reads each lazy block once: the dtype is the
    table's, so no block is gathered to learn it.  At N = 520 ICSI
    assembles its quarter rows in 3 chunks."""
    g = dipole_stack_520[0]
    table = sinc_offset_table(g)
    kept, blocks = parity_blocks(table, g), RecordingTableBlocks(table, g)
    lazy = ParityBlocks(blocks, g)
    assert np.array_equal(lazy.dense(), kept.dense())
    assert blocks.reads == [0, 1, 2, 3]
    del blocks.reads[:]
    assert len(chunks(len(lazy.quarter()[0]), g.n)) == 3
    assert icsi(lazy) == icsi(kept)
    assert blocks.reads == [0, 1, 2, 3] * 3


def test_swap_is_derived_from_the_table():
    g = lattice(5, 5, 0.25, 0.25)
    pb = parity_blocks(sinc_offset_table(g), g)
    assert pb.swap and not pb.table.flags.writeable
    assert ParityBlocks(pb.blocks, g).swap  # the blocks carry their table
    assert not ParityBlocks(tuple(pb.blocks), g).swap
    with pytest.raises(TypeError, match="swap"):
        ParityBlocks(pb.blocks, g, swap=True)
    with pytest.raises(TypeError, match="table"):
        ParityBlocks(tuple(pb.blocks), g, table=pb.table)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pb.swap = False
    # blocks of an asymmetric table are never solved as swap halves
    t = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 5))
    t[0, 0] = 2.0 * g.n  # strictly diagonally dominant: positive definite
    asym = parity_blocks(t, g)
    assert not asym.swap
    assert_split_matches_dense(asym, gather_offsets(t, g))


def test_blocks_that_contradict_their_lattice_are_rejected():
    g = lattice(5, 5, 0.25, 0.25)
    table = sinc_offset_table(g)
    blocks = parity_blocks(table, g).blocks
    # the cases that used to give a wrong answer or a foreign exception
    # (two eigenvalues of a 25-point lattice, IndexError, ValueError, AttributeError)
    for build in (lambda: ParityBlocks((np.eye(2),), g),
                  lambda: ParityBlocks((np.ones((2, 3)),)),
                  lambda: ParityBlocks(blocks)):  # a table without a lattice
        with pytest.raises(DomainError):
            eigen_spectrum(build())
    with pytest.raises(DomainError, match="does not match lattice"):
        parity_blocks(table[:, :4], g)
    with pytest.raises(DomainError, match=r"\(5, 5\) does not match lattice \(5, 4\)"):
        ParityBlocks(blocks, lattice(5, 4, 0.25, 0.25))
    with pytest.raises(DomainError, match="3 blocks given for 4 parities"):
        ParityBlocks(blocks[:3], g)
    with pytest.raises(DomainError, match="2 blocks given for 1 parities"):
        ParityBlocks((np.eye(2), np.eye(2)))
    with pytest.raises(DomainError, match="square"):
        ParityBlocks((blocks[0][:, :-1],) + blocks[1:], g)
    with pytest.raises(DomainError, match=r"square at its parity size 9, got shape \(8, 8\)"):
        ParityBlocks((np.eye(8),) + blocks[1:], g)
    with pytest.raises(DomainError, match=r"matrix must be square, got shape \(3,\)"):
        eigen_spectrum(np.ones(3))
    # a lazy sequence is checked by its count, without reading a block
    lazy = RecordingTableBlocks(table, g)
    assert ParityBlocks(lazy, g).swap and lazy.reads == []
    with pytest.raises(DomainError, match="blocks given"):
        ParityBlocks(RecordingBlocks(blocks[:2]), g)


@PROPERTY
@given(axis_len, axis_len, st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
@example(1, 1, False, False, 0)
@example(5, 5, False, True, 1)  # square: the swap halves of both diagonal blocks
@example(8, 8, True, False, 2)
@example(9, 4, True, True, 3)
def test_blocks_and_swap_halves_equal_whole_array_oracles(nx, nz, complex_table, lazy, seed):
    g = lattice(nx, nz, 0.25, 0.25)
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((nx, nz))
    if complex_table:
        table = table + 1j * rng.standard_normal((nx, nz))
    blocks = parity_blocks(table, g, lazy=lazy).blocks
    for k, (pz, px, mz, mx) in enumerate(_parities(g)):
        b, ref = blocks[k], oracles.table_block(table, g, k)
        assert b.dtype == ref.dtype and np.array_equal(b, ref)
        if nx == nz and pz == px:
            square = table.real + table.real.T
            for half, ref_half in zip(_swap_halves(square, pz), oracles.swap_halves(square, g, k)):
                assert np.array_equal(half, ref_half)


def symmetric_pd_table(rng, n):
    """A random exactly symmetric (n, n) offset table whose matrix is
    strictly diagonally dominant, so positive definite."""
    t = rng.uniform(-1.0, 1.0, (n, n))
    t += t.T
    t[0, 0] = 4.0 * n * n
    return t


@PROPERTY
@given(axis_len, st.booleans(), st.integers(0, 2**32 - 1))
@example(1, False, 0)  # the (even, even) block alone: its symmetric half only
@example(9, True, 1)
def test_solved_swap_halves_equal_whole_array_oracle(n, lazy, seed):
    g = lattice(n, n, 0.25, 0.25)
    table = symmetric_pd_table(np.random.default_rng(seed), n)
    expected = []
    for k, (pz, px, m, _) in enumerate(_parities(g)):
        if pz == px:
            anti, sym = oracles.swap_halves(table, g, k)
            expected += [anti, sym] if m > 1 else [sym]
        elif not pz:
            expected.append(oracles.table_block(table, g, k))
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        solved.append(a.copy())
        return eigvalsh(a)

    np.linalg.eigvalsh = recording
    try:
        eigen_spectrum(parity_blocks(table, g, lazy=lazy))
    finally:
        np.linalg.eigvalsh = eigvalsh
    assert len(solved) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(solved, expected))


def test_complex_table_is_solved_as_four_hermitian_checked_blocks():
    g = lattice(5, 5, 0.25, 0.25)
    table = symmetric_pd_table(np.random.default_rng(5), 5)
    # T (1 + j eps) has A - A^H = 2 j eps A, in every block too
    near, far = table * (1.0 + 0.5e-10j), table * (1.0 + 0.5e-7j)
    expected = np.linalg.eigvalsh(gather_offsets(table, g))[::-1]
    for lazy in (False, True):
        r = parity_blocks(near, g, lazy=lazy)
        assert not r.swap
        assert [(len(b), count, symmetric) for b, count, symmetric in r.pieces()] == [
            (9, 1, False), (6, 1, False), (6, 1, False), (4, 1, False)]
        spec = eigen_spectrum(r, normalize_by_n=False)
        np.testing.assert_allclose(spec.values, expected, rtol=1e-12, atol=1e-12 * expected[0])
        r = parity_blocks(far, g, lazy=lazy)
        assert not r.swap
        with pytest.raises(DomainError, match="not Hermitian"):
            eigen_spectrum(r)
    # each block of a complex table is read once, for its Hermitian test and solve
    blocks = RecordingTableBlocks(near, g)
    eigen_spectrum(ParityBlocks(blocks, g))
    assert blocks.reads == [0, 1, 2, 3]


def test_blocks_that_do_not_carry_a_table_are_hermitian_tested():
    # only parity_blocks pairs blocks with their table, so blocks edited
    # after the gather are Hermitian-tested, not flagged symmetric
    g = make_uniform_grid(0.5, 0.75, 0.25, 0.25, 1.0)  # 3 x 4
    t = sinc_offset_table(g)
    b = tuple(parity_blocks(t, g).blocks)
    b = (b[0] + np.triu(np.ones_like(b[0]), 1),) + b[1:]
    with pytest.raises(TypeError, match="table"):
        ParityBlocks(b, g, table=t)
    r = ParityBlocks(b, g)
    assert r.table is None and not any(symmetric for _, _, symmetric in r.pieces())
    with pytest.raises(DomainError, match="not Hermitian"):
        eigen_spectrum(r)


@PROPERTY
@given(axis_len, axis_len, st.booleans(), st.integers(0, 2**32 - 1))
@example(9, 9, False, 0)
@example(8, 3, True, 1)
def test_pieces_of_a_real_table_are_exactly_symmetric(nx, nz, lazy, seed):
    # eigen_spectrum tests such pieces for finiteness only
    g = lattice(nx, nz, 0.25, 0.25)
    t = random_table(np.random.default_rng(seed), nx, nz, False)
    for b in parity_blocks(t, g, lazy=lazy).blocks:
        assert np.array_equal(b, b.T)
    if nx == nz:  # and the swap halves of a symmetric table
        r = parity_blocks(t + t.T, g, lazy=lazy)
        assert r.swap
        assert all(symmetric and np.array_equal(p, p.T) for p, _, symmetric in r.pieces())


def _traced_peak(call):
    """tracemalloc peak of one call (numpy's LAPACK work copies are not
    traced) and its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_lazy_block_read_allocates_the_block_and_small_scratch():
    g = make_uniform_grid(16.0, 16.0, 0.25, 0.25, 1.0)  # N = 4225
    blocks = correlation_matrix_isotropic(g).blocks
    peak, b = _traced_peak(lambda: blocks[0])
    assert b.shape == (1089, 1089)
    assert peak <= 1.2 * b.nbytes


def test_lazy_eigen_spectrum_peaks_near_the_largest_block():
    g = make_uniform_grid(16.0, 16.0, 0.25, 0.25, 1.0)
    r0 = correlation_matrix_isotropic(g)
    largest = max(b.nbytes for b in r0.blocks)
    peak, spec = _traced_peak(lambda: eigen_spectrum(r0))
    assert len(spec.values) == g.n
    # a swap half held through the next solve reads about 1.34x
    assert peak <= 1.15 * largest


@pytest.mark.parametrize("aperture, spacing, n", [(16.0, 0.25, 4225), (12.0, 0.125, 9409)])
def test_lazy_swap_eigenvalues_keep_the_moments_of_the_offset_table(aperture, spacing, n):
    """The first two moments of the eigenvalues of R0 at N = 4225 and
    9409, sizes no dense oracle reaches, on the lazy swap path, against
    the offset table t alone: sum = tr R0 = N t[0, 0], and the sum of
    squares = ||R0||_F^2 = sum over l, m of c_l c_m (nx - l) (nz - m)
    t[l, m]^2, with c_0 = 1 and c_l = 2 else.  A lost multiplicity, a
    wrong weight or a wrong offset moves them.  Blind spot: an error
    that is an orthogonal similarity of a block (a block's rows and
    columns mixed by the same orthogonal map) leaves its eigenvalues,
    and so both moments, unchanged."""
    g = make_uniform_grid(aperture, aperture, spacing, spacing, 1.0)
    r0 = correlation_matrix_isotropic(g)
    assert r0.swap and g.n == n
    ev = eigen_spectrum(r0, normalize_by_n=False).values
    t = sinc_offset_table(g)
    cx = np.where(np.arange(g.nx) == 0, 1, 2) * (g.nx - np.arange(g.nx))
    cz = np.where(np.arange(g.nz) == 0, 1, 2) * (g.nz - np.arange(g.nz))
    trace, frobenius = g.n * t[0, 0], cx @ t**2 @ cz
    assert abs(ev.sum() - trace) <= 1e-12 * trace
    assert abs((ev**2).sum() - frobenius) <= 1e-12 * frobenius


def test_gain_sweep_and_icsi_transients_stay_within_the_chunk_budget(dipole_stack_520):
    # at N = 520, chunks of 48 azimuths or points, each about 512 KiB of
    # complex columns or rows; the whole grid at once peaked at 3.4-3.8 MiB
    # (the gain sweep) and all (N / 4) N quarter rows at 3.4 MiB (ICSI)
    g, z = dipole_stack_520
    ct = coupling_tx(z, Z_MATCH)
    phis = np.linspace(0.0, math.pi, 181)
    for scheme in BeamformingScheme:
        peak, gains = _traced_peak(lambda: gain_sweep(g, ct, scheme, math.pi / 2, phis))
        assert gains.shape == phis.shape
        assert peak <= 1.5 * 2**20  # 1.05-1.23 MiB measured
    r = effective_correlation(coupling_rx(z, Z_MATCH), correlation_matrix_isotropic(g))
    peak, _ = _traced_peak(lambda: icsi(r))
    assert peak <= 1.75 * 2**20  # 1.44 MiB measured


def test_one_coupling_solve_peaks_near_its_blocks(dipole_stack_520):
    # at N = 520 the four blocks of C take 1.03 MiB: 1.53 MiB measured on
    # the transmit side, whose complement overwrites the solve, and 1.80
    # MiB on the receive side; the complement built out of place from a
    # receive block, block by block, peaked at 2.07 MiB
    z = dipole_stack_520[1]
    for solve in (coupling_tx, coupling_rx):
        peak, c = _traced_peak(lambda: solve(z, Z_MATCH))
        assert c.n == 520
        assert peak <= 1.9 * 2**20


@pytest.mark.parametrize("dtype", [float, complex])
def test_exact_hermitian_check_compares_in_small_chunks(dtype):
    a = np.random.default_rng(4).standard_normal((2048, 2048)).astype(dtype)
    a = a + a.conj().T
    peak, h = _traced_peak(lambda: _hermitian_part(a))
    assert h is a
    # the whole-block comparison took 4 MiB of bool, and a 64 MiB conjugate
    assert peak <= (1.1 if dtype is float else 1.2) * 2**20


def test_exactly_hermitian_matrix_is_not_copied():
    a = correlation_matrix_isotropic(lattice(3, 4, 0.25, 0.3)).values
    assert _hermitian_part(a) is a
    b = a.copy()
    b[0, 1] += 1e-12
    h = _hermitian_part(b)
    assert np.array_equal(h, h.T) and h[0, 1] == pytest.approx(a[0, 1] + 0.5e-12, abs=1e-15)
    with pytest.raises(DomainError, match="not Hermitian"):
        _hermitian_part(b + np.triu(np.ones_like(b), 1))


@PROPERTY
@given(axis_len, axis_len, spacing, st.floats(0.01, 0.2), ohms, st.booleans())
def test_split_eigenvalues_effective_correlation(nx, nz, dx, gap, port, transmit):
    g, z, c = dipole_coupling(nx, nz, dx, gap, port, transmit)
    r = effective_correlation(c, parity_blocks(sinc_offset_table(g), g))
    cd = coupling_formula(z, port, transmit)
    assert_split_matches_dense(r, cd.T @ correlation_matrix_isotropic(g).values @ cd.conj())


@PROPERTY
@given(axis_len, axis_len, spacing, spacing)
def test_cosine_transform_matches_direct_sum(nx, nz, dx, dz):
    g = lattice(nx, nz, dx, dz)
    seq = generator_sequence(g)
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


def random_table(rng, nx, nz, complex_entries):
    t = rng.standard_normal((nx, nz))
    return t + 1j * rng.standard_normal((nx, nz)) if complex_entries else t


@PROPERTY
@given(axis_len, axis_len, st.booleans(), st.integers(0, 2**32 - 1))
def test_parity_blocks_match_split_of_gathered_matrix(nx, nz, complex_entries, seed):
    g = lattice(nx, nz, 0.25, 0.25)
    t = random_table(np.random.default_rng(seed), nx, nz, complex_entries)
    a = gather_offsets(t, g)
    bases = parity_bases(g)
    p = np.hstack(bases)
    assert np.abs(p.T @ p - np.eye(g.n)).max() <= 1e-15
    # the basis splits the gathered matrix exactly: no cross-parity terms
    split = p.T @ a @ p
    edges = np.cumsum([0] + [b.shape[1] for b in bases])
    for lo, hi in zip(edges[:-1], edges[1:]):
        split[lo:hi, lo:hi] = 0.0
    assert np.abs(split).max(initial=0.0) <= 1e-13 * np.abs(t).max()
    gathered = parity_blocks(t, g)
    assert len(gathered.blocks) == len(bases)
    for b, pb in zip(gathered.blocks, bases):
        ref = pb.T @ a @ pb
        assert np.iscomplexobj(b) == complex_entries
        assert b.shape == ref.shape
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
    g, z, c = dipole_coupling(nx, nz, dx, gap, port, transmit)
    ref = coupling_formula(z, port, transmit)
    assert np.abs(c.dense() - ref).max() <= 1e-12 * np.abs(ref).max()
    r0 = correlation_matrix_isotropic(g).values
    dense = ref.T @ r0 @ ref.conj()
    blocks = effective_correlation(c, parity_blocks(sinc_offset_table(g), g)).values
    assert np.abs(blocks - dense).max() <= 1e-12 * np.abs(dense).max()
    if g.n >= 2:
        assert icsi(blocks) == pytest.approx(icsi(dense), rel=1e-12)


@pytest.mark.parametrize("transmit", [True, False])
def test_lattice_coupling_assembles_values_on_first_read(transmit, monkeypatch):
    g = lattice(5, 4, 0.2, 0.55, ElementKind.HALF_WAVE_DIPOLE)
    z = impedance_matrix_dipoles(g)
    assembled = []
    dense = ParityBlocks.dense
    monkeypatch.setattr(ParityBlocks, "dense", lambda self: assembled.append(self) or dense(self))
    c = coupling_tx(z, 50.0 + 10j) if transmit else coupling_rx(z, 50.0 + 10j)
    assert c.n == g.n and len(c.blocks) == 4
    assert assembled == [] and "values" not in vars(c) and "values" not in vars(z)
    values = c.values
    assert assembled == [c] and c.values is values and not values.flags.writeable
    ref = coupling_formula(z, 50.0 + 10j, transmit)
    assert np.abs(values - ref).max() <= 1e-12 * np.abs(ref).max()


def assert_one_block(m):
    """``m`` is held as one block in the identity basis, its values."""
    (b,) = m.blocks
    assert m.geom is None and m.table is None and not m.swap
    assert np.shares_memory(b, m.values) and m.n == len(m.values)


def test_values_only_matrix_is_one_block():
    g = lattice(3, 2, 0.25, 0.6, ElementKind.HALF_WAVE_DIPOLE)
    z = ImpedanceMatrix((impedance_matrix_dipoles(g).values,))
    c = coupling_rx(z, 50.0)
    assert_one_block(z)
    assert_one_block(c)
    # with lattice blocks of R0, both are taken whole
    r = effective_correlation(c, parity_blocks(sinc_offset_table(g), g))
    dense = c.values.T @ correlation_matrix_isotropic(g).values @ c.values.conj()
    assert np.abs(r.values - dense).max() <= 1e-12 * np.abs(dense).max()
    assert_one_block(r)


def test_lattice_impedance_gathers_values_on_first_read():
    g = lattice(4, 3, 0.25, 0.6, ElementKind.HALF_WAVE_DIPOLE)
    z = impedance_matrix_dipoles(g)
    assert "values" not in vars(z) and z.n == g.n and len(z.blocks) == 4
    assert np.abs(z.values - z.dense()).max() <= 1e-13 * np.abs(z.values).max()
    assert z.values is z.values and not z.values.flags.writeable
    with pytest.raises(TypeError):  # z_self is read from the matrix, never given
        ImpedanceMatrix(z.blocks, g, z_self=73.1 + 0j)
    assert_one_block(ImpedanceMatrix((np.eye(3, dtype=complex),)))


@pytest.mark.parametrize("nx, nz", [(1, 1), (1, 4), (3, 1), (2, 3), (5, 2), (4, 4), (7, 6)])
def test_table_backed_values_are_the_exact_gather(nx, nz):
    iso = lattice(nx, nz, 0.25, 0.3)
    dipoles = lattice(nx, nz, 0.25, 0.6, ElementKind.HALF_WAVE_DIPOLE)
    for m, g, diagonal in ((correlation_matrix_isotropic(iso), iso, 1.0),
                           (impedance_matrix_isotropic(iso, 73.1), iso, 73.1),
                           (impedance_matrix_dipoles(dipoles), dipoles,
                            HALF_WAVE_DIPOLE_SELF_IMPEDANCE)):
        assert m.geom is g
        assert np.array_equal(m.values, gather_offsets(m.table, g))
        assert np.all(m.values.diagonal() == diagonal)


def values_only(z):
    """The same impedance matrix held as its dense values alone."""
    return ImpedanceMatrix((z.values,))


def test_blockwise_singular_coupling_raises_as_dense():
    g = lattice(3, 2, 0.25, 0.25)
    table = np.zeros((3, 2), dtype=complex)
    table[0, :] = -25.0  # Z + 50 I = [[25, -25], [-25, 25]] along z is singular
    z = ImpedanceMatrix(parity_blocks(table, g).blocks, g)
    with pytest.raises(NumericalError, match="singular system in rx coupling") as blocks:
        coupling_rx(z, 50.0)
    with pytest.raises(NumericalError, match="singular system in rx coupling") as dense:
        coupling_rx(values_only(z), 50.0)
    assert str(blocks.value) == str(dense.value)


def test_blockwise_non_finite_coupling_raises_as_dense(monkeypatch):
    g = lattice(3, 2, 0.25, 0.6, ElementKind.HALF_WAVE_DIPOLE)
    z = impedance_matrix_dipoles(g)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(b.shape, np.nan + 0j))
    with pytest.raises(NumericalError, match="non-finite tx coupling") as blocks:
        coupling_tx(z, 50.0)
    with pytest.raises(NumericalError, match="non-finite tx coupling") as dense:
        coupling_tx(values_only(z), 50.0)
    assert str(blocks.value) == str(dense.value)


@pytest.mark.parametrize("table_backed", [True, False], ids=["table", "values"])
@pytest.mark.parametrize("solve, side", [(coupling_tx, "tx"), (coupling_rx, "rx")])
def test_nan_impedance_raises_numerical_error(solve, side, table_backed):
    g = lattice(3, 2, 0.25, 0.25)
    table = 73.1 * sinc_offset_table(g).astype(complex)
    if table_backed:
        table[1, 0] = np.nan
        z = ImpedanceMatrix(parity_blocks(table, g).blocks, g)
    else:
        values = gather_offsets(table, g)
        values[0, 1] = np.nan
        z = ImpedanceMatrix((values,))
    with pytest.raises(NumericalError, match=f"{side} coupling.*condition"):
        solve(z, 50.0)


def test_blocks_on_another_lattice_rejected():
    g, other = lattice(3, 3, 0.25, 0.25), lattice(3, 3, 0.25, 0.3)
    r0 = parity_blocks(sinc_offset_table(g), g)
    z = impedance_matrix_isotropic(other)
    with pytest.raises(DomainError, match="same lattice"):
        effective_correlation(coupling_rx(z, 50.0), r0)


def random_tx_coupling(nx, nz, seed):
    """A lattice, and the transmit coupling of a random complex offset
    table whose self term makes Z strictly diagonally dominant."""
    g = lattice(nx, nz, 0.25, 0.3)
    rng = np.random.default_rng(seed)
    table = rng.uniform(-1.0, 1.0, (nx, nz)) + 1j * rng.uniform(-1.0, 1.0, (nx, nz))
    table[0, 0] = 2.0 * g.n * (1.0 + 0.3j)
    z = ImpedanceMatrix(parity_blocks(table, g).blocks, g)
    return g, coupling_tx(z, complex(rng.uniform(20.0, 400.0), rng.uniform(-100.0, 100.0)))


@PROPERTY
@given(axis_len, axis_len, st.integers(0, 2**32 - 1), st.floats(0.2, math.pi - 0.2))
@example(1, 1, 0, 1.0)  # one element, the (even, even) block alone
@example(2, 1, 0, 1.0)  # the (odd, *) blocks empty
def test_block_gain_sweep_matches_dense(nx, nz, seed, theta):
    g, c = random_tx_coupling(nx, nz, seed)
    phis = np.linspace(0.0, math.pi, 13)
    for scheme in BeamformingScheme:
        blocks = gain_sweep(g, c, scheme, theta, phis)
        assert blocks.shape == phis.shape
        np.testing.assert_allclose(blocks, gain_sweep(g, c.values, scheme, theta, phis),
                                   rtol=1e-12)


@PROPERTY
@given(axis_len, axis_len, st.integers(0, 2**32 - 1),
       st.floats(0.2, math.pi - 0.2).filter(lambda t: abs(math.cos(t)) > 0.05))
@example(1, 9, 0, 1.0)  # a single column: the steering varies along z only
@example(8, 7, 0, 2.5)  # even x, odd z, past broadside
def test_gain_sweep_matches_per_azimuth_steering(nx, nz, seed, theta):
    g, c = random_tx_coupling(nx, nz, seed)
    # a general C has no mirror symmetry, so its gains also tell the
    # zenith theta from pi - theta, which a lattice coupling's cannot
    general = random_coupling(np.random.default_rng(seed), g.n)
    phis = np.linspace(0.0, math.pi, 11)
    for scheme in BeamformingScheme:
        for coupling, dense in ((c, c.values), (c.values, c.values), (general, general.values)):
            if scheme is BeamformingScheme.NO_MC_REFERENCE:
                dense = np.eye(g.n)
            looped = []
            for phi in phis:
                a0 = steering_vector(g, Direction(phi=float(phi), theta=theta))
                looped.append(array_gain(dense, a0, beamforming_vector(scheme, dense, a0)))
            np.testing.assert_allclose(gain_sweep(g, coupling, scheme, theta, phis), looped,
                                       rtol=1e-12)


@PROPERTY
@given(axis_len, axis_len, st.booleans(), st.integers(0, 2**32 - 1))
def test_block_icsi_matches_dense(nx, nz, complex_entries, seed):
    g = lattice(nx, nz, 0.25, 0.25)
    pb = parity_blocks(random_table(np.random.default_rng(seed), nx, nz, complex_entries), g)
    if g.n < 2:
        with pytest.raises(DomainError, match="two elements"):
            icsi(pb)
        with pytest.raises(DomainError, match="two elements"):
            icsi(pb.dense())
    else:
        assert icsi(pb) == pytest.approx(icsi(pb.dense()), rel=1e-12)


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
@example(1, 1, 0, True)  # one element: the (even, even) block alone
def test_lattice_form_matches_one_block_twin(nx, nz, seed, transmit):
    g = lattice(nx, nz, 0.25, 0.3)
    rng = np.random.default_rng(seed)
    table = rng.uniform(-1.0, 1.0, (nx, nz)) + 1j * rng.uniform(-1.0, 1.0, (nx, nz))
    table[0, 0] = 2.0 * g.n * (1.0 + 0.3j)  # Z strictly diagonally dominant
    z = ImpedanceMatrix(parity_blocks(table, g).blocks, g)
    port = complex(rng.uniform(20.0, 400.0), rng.uniform(-100.0, 100.0))
    solve = coupling_tx if transmit else coupling_rx
    c, c1 = solve(z, port), solve(values_only(z), port)
    assert np.abs(c.values - c1.values).max() <= 1e-12 * np.abs(c1.values).max()
    cond = np.linalg.cond(z.values + port * np.eye(g.n))
    assert _shifted_condition(z, port) == pytest.approx(cond, rel=1e-12)
    assert _shifted_condition(values_only(z), port) == pytest.approx(cond, rel=1e-12)
    r0 = correlation_matrix_isotropic(g)
    r01 = ParityBlocks((r0.values,))
    ref = effective_correlation(c1, r01)
    ref_spec = eigen_spectrum(ref, normalize_by_n=False)
    top = ref_spec.values[0]
    # both on the lattice, then the mixed pairs
    for cc, rr in ((c, r0), (c, r01), (c1, r0)):
        r = effective_correlation(cc, rr)
        assert np.abs(r.values - ref.values).max() <= 1e-12 * np.abs(ref.values).max()
        spec = eigen_spectrum(r, normalize_by_n=False)
        np.testing.assert_allclose(spec.values, ref_spec.values, rtol=1e-12, atol=1e-12 * top)
        assert abs(spec.negative_mass - ref_spec.negative_mass) <= 1e-12
        if g.n >= 2:
            assert icsi(r) == pytest.approx(icsi(ref), rel=1e-12)
    if g.n >= 2:
        for m, m1 in ((z, values_only(z)), (c, c1), (r0, r01)):
            assert icsi(m) == pytest.approx(icsi(m1), rel=1e-12)
    phis = np.linspace(0.0, math.pi, 7)
    for scheme in BeamformingScheme:
        np.testing.assert_allclose(gain_sweep(g, c, scheme, 1.0, phis),
                                   gain_sweep(g, c1, scheme, 1.0, phis), rtol=1e-12)


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
@example(1, 1, 0)  # one element: the (even, even) block alone
def test_block_path_checks_hermitian_psd_as_one_block_twin(nx, nz, seed):
    g = lattice(nx, nz, 0.25, 0.3)
    rng = np.random.default_rng(seed)
    table = rng.uniform(-1.0, 1.0, (nx, nz))
    table[0, 0] = 2.0 * g.n  # strictly diagonally dominant: positive definite
    negative = table.copy()
    negative[0, 0] = -1.0  # negative trace: a negative eigenvalue
    # A (1 + j eps) has A - A^H = 2 j eps A, in every block too
    near, far = table * (1.0 + 0.5e-10j), table * (1.0 + 0.5e-7j)
    a = gather_offsets(near, g)
    assert np.abs(a - a.conj().T).max() == pytest.approx(1e-10 * np.abs(a).max(), rel=1e-6)
    expected = np.linalg.eigvalsh(gather_offsets(table, g))[::-1]

    def forms(t):
        return parity_blocks(t, g), ParityBlocks((gather_offsets(t, g),))

    for r in forms(far):
        with pytest.raises(DomainError, match="not Hermitian"):
            eigen_spectrum(r)
    for r in forms(negative):
        with pytest.raises(NumericalError, match="negative eigenvalue mass"):
            eigen_spectrum(r)
    for r in forms(near):
        spec = eigen_spectrum(r, normalize_by_n=False)
        np.testing.assert_allclose(spec.values, expected, rtol=1e-12, atol=1e-12 * expected[0])


def zeroed_coupling(nx, nz, count):
    """A lattice and a transmit coupling whose last ``count`` parity
    blocks are zero (all of them when there are fewer)."""
    g, c = random_tx_coupling(nx, nz, 5)
    blocks = list(c.blocks)
    keep = max(len(blocks) - count, 0)
    blocks[keep:] = [np.zeros_like(b) for b in blocks[keep:]]
    return g, ParityBlocks(tuple(blocks), g)


@pytest.mark.parametrize("sp", [0.5, 0.25, 0.125, 0.0625])
def test_factored_coupling_cases_match_dense_blocks(sp):
    """Both sides of every coupling case of the default stack, each port
    one solve of the factored R0 (``couplings``), at the packaged port, at
    a near short, a near open and a reactive port: eigenvalues within
    rtol 1e-10 plus 1e-12 of the largest, and ICSI within rtol 1e-10, of
    C_b^T R0_b conj(C_b) with C_b the parity blocks of the direct form
    (``coupling_formula``) in the basis built here."""
    cfg = ExperimentConfig.default()
    g = cfg.geometry.build(spacing_x=sp)
    z = impedance_matrix_dipoles(g, cfg.impedance.z_antenna)
    r0 = correlation_matrix_isotropic(g)
    f = factor(r0)
    rank = sum(y.shape[1] for y in f.factors)
    # the rank of an isotropic correlation is set by the aperture, not by N
    assert rank == g.n if sp >= 0.25 else rank < 0.6 * g.n
    for port in (73.1 - 42.5j, 50.0, 300.0, 1e-3, 1e4 + 5j, 20 - 100j):
        for side, r in couplings(z, port, f).items():
            c = coupling_formula(z, port, side == "tx")
            blocks = (p.T @ c @ p for p in parity_bases(g))
            dense = tuple(cb.T @ rb @ cb.conj() for cb, rb in zip(blocks, r0.blocks))
            ref = np.sort(np.abs(np.concatenate([np.linalg.eigvalsh(b) for b in dense])))[::-1]
            got = eigen_spectrum(r, normalize_by_n=False).values
            assert np.all(np.abs(got - ref) <= 1e-10 * ref + 1e-12 * ref[0]), (side, port)
            assert np.count_nonzero(got == 0.0) == g.n - rank
            assert icsi(r) == pytest.approx(icsi(ParityBlocks(dense, g)), rel=1e-10)


def test_factor_of_a_correlation_with_a_negated_block_raises():
    g = make_uniform_grid(2.0, 1.0, 0.25, 0.25, 1.0)
    blocks = list(correlation_matrix_isotropic(g).blocks)
    blocks[1] = -blocks[1]
    with pytest.raises(NumericalError, match="negative eigenvalue mass"):
        factor(ParityBlocks(tuple(blocks), g))


@pytest.mark.parametrize("nx, nz", [(3, 2), (2, 3), (3, 3), (4, 1)])
def test_block_gain_sweep_errors_match_dense(nx, nz):
    phis = [0.0, 1.0]
    g, c = zeroed_coupling(nx, nz, 1)
    with pytest.raises(NumericalError, match="singular coupling matrix"):
        gain_sweep(g, c, BeamformingScheme.DIRECTIVITY_MAX, math.pi / 2, phis)
    g, c = zeroed_coupling(nx, nz, 4)
    for coupling in (c, c.values):
        with pytest.raises(NumericalError, match="singular coupling matrix"):
            gain_sweep(g, coupling, BeamformingScheme.DIRECTIVITY_MAX, math.pi / 2, phis)
        with pytest.raises(NumericalError, match="zero excitation"):
            gain_sweep(g, coupling, BeamformingScheme.PROPOSED_MC_AWARE, math.pi / 2, phis)
    other = lattice(nx, nz, 0.25, 0.35)  # an equal lattice is the same one
    with pytest.raises(DomainError, match="same lattice"):
        gain_sweep(other, c, BeamformingScheme.CONJUGATE_MC_UNAWARE, math.pi / 2, phis)
