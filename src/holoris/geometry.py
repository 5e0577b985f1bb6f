"""Element layouts for dense planar apertures in the xoz plane.

Two constructors are provided: a uniform rectangular grid of isotropic
elements and a stacked layout of vertical half-wave dipoles (rows of
dipoles along z, each row a line of elements along x).  Elements sit at
lattice points with zero y-component; element ordering is row-major
with the x index fastest.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DomainError

_RATIO_TOL = 1e-9
_SQRT1_2 = math.sqrt(0.5)
_CHUNK_BYTES = 1 << 19  # one (N, k) complex array of a row-pass chunk


class ElementKind(Enum):
    ISOTROPIC = "isotropic"
    HALF_WAVE_DIPOLE = "half_wave_dipole"


@dataclass(frozen=True)
class Direction:
    """Far-field direction: azimuth ``phi`` from +x toward +y, zenith
    ``theta`` from +z, both in radians and restricted to [0, pi]."""

    phi: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.phi) and math.isfinite(self.theta)):
            raise DomainError("direction angles must be finite")
        if not (0.0 <= self.phi <= math.pi and 0.0 <= self.theta <= math.pi):
            raise DomainError(
                f"direction angles must lie in [0, pi], got phi={self.phi}, theta={self.theta}"
            )


@dataclass(frozen=True)
class ArrayGeometry:
    """Immutable description of a discretized planar aperture.

    Attributes
    ----------
    wavelength : float
        Carrier wavelength (sets the length unit scale).
    dx, dz : float
        Center-to-center element spacing along x and z.
    lx, lz : float
        Aperture extents.  For dipole layouts ``lz`` is the tip-to-tip
        extent ``nz*wavelength/2 + (nz-1)*gap`` of the half-wave dipoles.
    nx, nz : int
        Element counts per axis; total count is ``nx * nz``.
    element_kind : ElementKind

    Two geometries with equal fields compare equal and hash alike.
    """

    wavelength: float
    dx: float
    dz: float
    lx: float
    lz: float
    nx: int
    nz: int
    element_kind: ElementKind

    @property
    def n(self) -> int:
        return self.nx * self.nz

    @property
    def positions(self) -> np.ndarray:
        """Element positions in the xoz plane (y = 0), (n, 3), x index
        fastest; a new read-only array on each read."""
        pos = np.zeros((self.n, 3))
        pos[:, 0] = np.tile(np.arange(self.nx), self.nz) * self.dx
        pos[:, 2] = np.repeat(np.arange(self.nz), self.nx) * self.dz
        pos.flags.writeable = False
        return pos

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength


def read_only_view(values: np.ndarray) -> np.ndarray:
    """A read-only view of ``values``; the caller's array stays writeable."""
    view = values.view()
    view.flags.writeable = False
    return view


def gather_offsets(table: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """(N, N) matrix whose entry for elements a, b is
    ``table[|ix_a - ix_b|, |iz_a - iz_b|]``.

    ``table`` has shape (nx, nz) and holds one value per index-offset
    magnitude; the result is the symmetric block-Toeplitz-with-Toeplitz-
    blocks (BTTB) matrix it generates on the lattice.
    """
    nx, nz = geom.nx, geom.nz
    if table.shape != (nx, nz):
        raise DomainError(f"offset table shape {table.shape} does not match lattice ({nx}, {nz})")
    offset_x = np.abs(np.subtract.outer(np.arange(nx), np.arange(nx)))
    offset_z = np.abs(np.arange(1 - nz, nz))
    # x-Toeplitz block for each signed z offset dk = -(nz-1)..nz-1
    blocks = table.T[offset_z[:, None, None], offset_x]
    # windows[k1, i1, i2, k2] = blocks[k2 - k1 + nz - 1], a view
    windows = sliding_window_view(blocks, nz, axis=0)[::-1]
    return windows.transpose(0, 1, 3, 2).reshape(nx * nz, nx * nz)


@dataclass(frozen=True, eq=False)
class ParityBlocks:
    """A lattice matrix that commutes with the x and z reversals, held as
    its four (z, x) mirror-parity blocks (Cantoni & Butler 1976), each in
    the orthonormal basis (e_i +/- e_{n-1-i}) / sqrt(2), i < n // 2, of
    both axes, plus the centre e_{n // 2} in the even half of an odd
    axis.  Blocks are ordered (even, even), (even, odd), (odd, even),
    (odd, odd) in (z, x) parity; empty ones are left out.  With no
    lattice (``geom`` None), the one block is the matrix.  This is the
    package's one matrix type: correlations, impedances, couplings and
    effective correlations are all held this way.

    ``blocks`` is a tuple, or the sequence ``parity_blocks`` gathers
    from an offset table, which keeps that table: with ``lazy=True`` it
    gathers a block each time it is read and keeps none; a read
    allocates the block and scratch of a few of its z rows.  ``table``
    is read from that sequence: the (nx, nz) offset table the blocks were
    gathered from, or None for any other blocks.  Blocks made by
    ``gram_blocks`` keep their factors instead: ``factors`` is the tuple
    of (m_b, r_b) arrays Y_b whose Grams Y_b Y_b^H are the blocks, or
    None for any other blocks; such a block is formed only when read,
    and ``rows`` and ``pieces`` never form it.  ``swap``, derived from
    it, marks a square-lattice matrix that also commutes with the
    x <-> z transpose, which maps the (even, odd) block onto (odd, even):
    the table is real, square and exactly symmetric.  ``pieces`` lays
    the blocks out for the eigensolve.

    Blocks that contradict the lattice raise ``DomainError``: a table
    without a lattice or not of shape (nx, nz), a block count other than
    the lattice's non-empty parities (one without a lattice), or a tuple
    block that is not square at its parity size mz * mx.  Other
    sequences, such as those of ``parity_blocks``, are checked by count
    only, since reading a lazy one gathers it.
    """

    blocks: Sequence[np.ndarray]
    geom: ArrayGeometry | None = None
    table: np.ndarray | None = field(init=False)
    factors: tuple | None = field(init=False)
    swap: bool = field(init=False)

    def __post_init__(self):
        g = self.geom
        t = self.blocks.table if isinstance(self.blocks, _TableBlocks) else None
        f = self.blocks.factors if isinstance(self.blocks, _GramBlocks) else None
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "factors", f)
        if t is not None and (g is None or t.shape != (g.nx, g.nz)):
            raise DomainError(f"offset table shape {t.shape} does not match lattice "
                              f"{None if g is None else (g.nx, g.nz)}")
        sizes = [None] if g is None else [mz * mx for _, _, mz, mx in _parities(g)]
        if len(self.blocks) != len(sizes):
            raise DomainError(f"{len(self.blocks)} blocks given for {len(sizes)} parities")
        if isinstance(self.blocks, tuple):
            for b, m in zip(self.blocks, sizes):
                shape = np.shape(b)
                if len(shape) != 2 or shape != (m or shape[0],) * 2:
                    at = "" if m is None else f" at its parity size {m}"
                    raise DomainError(f"matrix must be square{at}, got shape {shape}")
        for y, m in zip(f or (), sizes):
            shape = np.shape(y)
            if len(shape) != 2 or shape[0] != (m or shape[0]):
                at = "" if m is None else f" of {m} rows"
                raise DomainError(f"factor must be a matrix{at}, got shape {shape}")
        object.__setattr__(self, "swap", t is not None and not np.iscomplexobj(t)
                           and t.shape[0] == t.shape[1] and np.array_equal(t, t.T))

    @property
    def n(self) -> int:
        return len((self.factors or self.blocks)[0]) if self.geom is None else self.geom.n

    @cached_property
    def values(self) -> np.ndarray:
        """The (N, N) matrix, read-only, made on first read: gathered
        exactly from the offset table when there is one, otherwise
        assembled from the blocks."""
        return read_only_view(self.dense() if self.table is None
                              else gather_offsets(self.table, self.geom))

    def dense(self) -> np.ndarray:
        """The (N, N) matrix, assembled from the blocks in O(N^2)."""
        return self.blocks[0] if self.geom is None else self.rows(np.arange(self.n))

    def rows(self, points: np.ndarray) -> np.ndarray:
        """The rows of the matrix at lattice points ``points``, (len(points), N),
        assembled from the blocks."""
        g = self.geom
        if g is None:
            return self._block_rows(0, points)
        # a table's blocks have its dtype, so no lazy block is gathered to learn it
        kinds = self.factors or (self.blocks if self.table is None else (self.table,))
        out = np.zeros((len(points), g.n), dtype=np.result_type(*kinds))
        for k, (pz, px, mz, mx) in enumerate(_parities(g)):
            (rz, wz), (rx, wx) = _unmirror(g.nz, pz), _unmirror(g.nx, px)
            # lattice point (iz, ix) takes block row (rz[iz], rx[ix]), z-major
            r = (rz[:, None] * mx + rx).ravel()
            w = (wz[:, None] * wx).ravel()
            part = self._block_rows(k, r[points]).take(r, axis=1)
            part *= w[points, None]
            part *= w
            out += part
        return out

    def _block_rows(self, k: int, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows`` of block k; of a Gram block, Y_b[rows] Y_b^H."""
        if self.factors is None:
            return self.blocks[k].take(rows, axis=0)
        y = self.factors[k]
        return y.take(rows, axis=0) @ y.conj().T

    def quarter(self) -> tuple[np.ndarray, np.ndarray]:
        """One lattice point of each set of mirror images, whose rows the
        reversals permute, and the set's size (1, 2 or 4), or all N at 1."""
        g = self.geom
        if g is None:
            return np.arange(self.n), np.ones(self.n)
        iz, ix = np.arange(g.nz - g.nz // 2), np.arange(g.nx - g.nx // 2)
        weights = np.outer(2 - (2 * iz == g.nz - 1), 2 - (2 * ix == g.nx - 1))
        return (iz[:, None] * g.nx + ix).ravel(), weights.ravel()

    def mirrored_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the ``quarter()`` points of a lattice matrix, and the
        (N, N) positions in them, flattened, of every entry: entry (a, b)
        is entry (R a, R b), where R reverses each axis on which a lies in
        the far half, so R a is a quarter point.  The rows that ``rows``
        assembles are exact mirror images: a reversal flips the signs of
        both weights of an odd-parity term, and leaves its value and the
        order of the sum."""
        g = self.geom
        iz, ix = np.divmod(np.arange(g.n), g.nx)
        rz, rx = g.nz - 1 - iz, g.nx - 1 - ix
        q = np.minimum(iz, rz) * (g.nx - g.nx // 2) + np.minimum(ix, rx)
        bz = np.where((iz > rz)[:, None], rz, iz)
        bx = np.where((ix > rx)[:, None], rx, ix)
        return self.rows(self.quarter()[0]), q[:, None] * g.n + bz * g.nx + bx

    def pieces(self):
        """The matrices whose eigenvalues together are the matrix's, in
        solve order, as (matrix, multiplicity, symmetric): ``symmetric``
        marks a piece exactly symmetric by construction, one gathered
        from a real table or a zero.  They are the blocks, except for
        Gram blocks and under ``swap``.  A Gram block Y_b Y_b^H with
        fewer columns r_b than rows m_b is the r_b x r_b Gram Y_b^H Y_b,
        which has its nonzero eigenvalues, and a 1 x 1 zero counted
        m_b - r_b times.  Under ``swap`` the (even, odd) block counts
        twice and its (odd, even) image is left out, and each diagonal
        block is its ``_swap_halves``, built from the table and never
        gathered whole, the smaller half first (glibc maps a request at
        least as large as any mapped block freed before, and unmaps it
        when freed, so in ascending order no LAPACK copy stays in the
        heap under the next solve).  No piece is held here once the next
        is built, so lazy blocks are read one at a time."""
        if self.factors is not None:
            for y in self.factors:
                m, r = y.shape
                if r < m:
                    yield np.zeros((1, 1)), m - r, True
                if r:
                    yield (y.conj().T @ y if r < m else y @ y.conj().T), 1, False
            return
        real = self.table is not None and not np.iscomplexobj(self.table)
        if not self.swap:
            for k in range(len(self.blocks)):
                yield self.blocks[k], 1, real
            return
        for k, (odd_z, odd_x, m, _) in enumerate(_parities(self.geom)):
            if odd_z != odd_x:
                if odd_x:  # (odd, even) is the swap image of (even, odd)
                    yield self.blocks[k], 2, True
                continue
            anti, sym = _swap_halves(self.table, odd_z)
            if m > 1:
                yield anti, 1, True
            del anti
            yield sym, 1, True
            del sym

    def split_product(self, vz: np.ndarray, vx: np.ndarray) -> list[np.ndarray]:
        """P_b^T v for each block b, in block order, of the lattice vectors
        v[iz * nx + ix, ...] = vz[iz] * vx[ix, ...], without forming v:
        the parity basis is a product of per-axis bases, so each block's
        part is the outer product of the split z and x factors (v itself
        with no lattice)."""
        if self.geom is None:
            return [np.multiply.outer(vz, vx).reshape((-1,) + vx.shape[1:])]
        return [np.multiply.outer(_mirror_split(vz, pz), _mirror_split(vx, px))
                .reshape((mz * mx,) + vx.shape[1:])
                for pz, px, mz, mx in _parities(self.geom)]


def _parities(geom: ArrayGeometry):
    """(z odd, x odd, z size, x size) of each non-empty parity block, in
    block order."""
    for pz in (False, True):
        mz = geom.nz // 2 if pz else geom.nz - geom.nz // 2
        for px in (False, True):
            mx = geom.nx // 2 if px else geom.nx - geom.nx // 2
            if mz * mx:
                yield pz, px, mz, mx


def _mirror_terms(n: int, odd: bool):
    """One n-point offset axis in the even or odd half of its mirror
    basis, whose block entry (r, c) is w_r w_c (T(|r - c|) +/- T(n - 1 - r - c)):
    the near and far offsets, the ufunc that joins their terms, and the
    weights w_r w_c, with w = 1 except 1 / sqrt(2) at the centre of the
    even half of an odd n (None when all are 1)."""
    h = n // 2
    m = h if odd else n - h
    i = np.arange(m)
    w = None
    if m > h:
        w = np.ones(m)
        w[h] = _SQRT1_2
        w = w[:, None] * w
    return np.abs(i[:, None] - i), n - 1 - i[:, None] - i, np.subtract if odd else np.add, w


def _mirror_split(v: np.ndarray, odd: bool) -> np.ndarray:
    """The n-point lattice axis 0 of ``v`` in the even or odd half of its
    mirror basis: (v[i] +/- v[n-1-i]) / sqrt(2), i < n // 2, then the
    centre v[n // 2] in the even half of an odd n."""
    n = len(v)
    h = n // 2
    part = (v[:h] - v[:n - h - 1:-1] if odd else v[:h] + v[:n - h - 1:-1]) * _SQRT1_2
    if not odd and n > 2 * h:
        part = np.concatenate([part, v[h:h + 1]])
    return part


def _unmirror(n: int, odd: bool) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of the split along one n-point axis: point i is w[i] times
    entry r[i] of the even or odd half of the axis's mirror basis, with
    w = 1 / sqrt(2), negated on the far half of the odd basis, except at
    the centre of an odd n (1 in the even half, 0 in the odd one)."""
    h = n // 2
    i = np.arange(n)
    r = np.minimum(i, n - 1 - i)
    w = np.where(odd & (i >= n - h), -_SQRT1_2, _SQRT1_2)
    if n > 2 * h:
        r[h], w[h] = (0, 0.0) if odd else (h, 1.0)
    return r, w


class _TableBlocks(Sequence):
    """The parity blocks of the offset table ``table``, which they keep:
    the blocks ``kept``, gathered before, or each gathered when read."""

    def __init__(self, table: np.ndarray, geom: ArrayGeometry, kept: tuple | None = None):
        self.table, self._parities, self._kept = table, tuple(_parities(geom)), kept

    def __len__(self) -> int:
        return len(self._parities)

    def __getitem__(self, k: int) -> np.ndarray:
        if self._kept is not None:
            return self._kept[k]
        pz, px, mz, mx = self._parities[k]
        near, far, join, w = _mirror_terms(self.table.shape[1], pz)
        # the z axis first, as (rz, cz, x): a table of mz^2 nx entries
        tz = join(self.table.T[near], self.table.T[far])
        if w is not None:
            tz *= w[:, :, None]
        # then x, one z row at a time, into the z-major (rz, rx, cz, cx) block
        near, far, join, w = _mirror_terms(self.table.shape[0], px)
        out = np.empty((mz, mx, mz, mx), tz.dtype)
        for t, row in zip(tz, out):
            row = row.transpose(1, 0, 2)  # (cz, rx, cx), a view
            join(t[:, near], t[:, far], out=row)
            if w is not None:
                row *= w
        return out.reshape(mz * mx, mz * mx)


class _GramBlocks(Sequence):
    """The blocks Y_b Y_b^H of the factors ``factors``, which they keep;
    each block is formed when read."""

    def __init__(self, factors):
        self.factors = tuple(factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __getitem__(self, k: int) -> np.ndarray:
        y = self.factors[k]
        return y @ y.conj().T


def _swap_halves(table: np.ndarray, odd: bool) -> tuple[np.ndarray, np.ndarray]:
    """The swap-antisymmetric and swap-symmetric halves of the (even, even)
    or (odd, odd) parity block of a real, exactly symmetric (n, n) offset
    table, gathered without forming the m^2 x m^2 block B: in the bases
    (e_ac - e_ca) / sqrt(2), a < c, and (e_ac + e_ca) / sqrt(2), a < c,
    and e_aa, ordered as ``np.triu_indices``, where e_ac is the block
    point of z row a and x column c.

    A half entry is ((B[ac, a'c'] + B[ca, c'a']) -/+ (B[ac, c'a'] +
    B[ca, a'c'])) w w', with w = 1 / sqrt(2), or 1 / 2 at a = c.  Each B
    entry depends only on its z pair and its x pair as sets, so it is read
    from the table P of unordered pairs (z pair, x pair), gathered as
    ``_TableBlocks`` gathers B; then each sum of two terms is an entry of
    S = P + P^T, and a half entry is (S[{a, a'}, {c, c'}] -/+ S[{a, c'},
    {c, a'}]) w w'.  S is exactly symmetric, so both halves are, and they
    are bit for bit the halves of the gathered block.  They are filled
    one z row a at a time."""
    near, far, join, w = _mirror_terms(len(table), odd)
    m = len(near)
    a, c = np.triu_indices(m)
    size = len(a)
    pair = np.empty((m, m), np.intp)  # index of each unordered pair {a, c}
    pair[a, c] = pair[c, a] = np.arange(size)
    near, far = near[a, c], far[a, c]
    tz = join(table.T[near], table.T[far])  # z pairs first: (size, n)
    if w is not None:  # pairs holding the centre of the even half of an odd n
        w = w[a, c]
        centre = np.flatnonzero(w != 1.0)
        tz[centre] *= w[centre, None]
    s = np.empty((size, size))
    for k in chunks(size, size):  # then x, a few z pairs at a time
        rows, t = s[k], tz[k]
        join(t.take(near, 1), t.take(far, 1), out=rows)
        if w is not None:
            rows[:, centre] *= w[centre]
    s += s.T
    s = s.ravel()
    w = np.where(a == c, 0.5, _SQRT1_2)
    w_diag, w_off = 0.5 * w, _SQRT1_2 * w  # w w' of the rows (a, a) and (a, c > a)
    strict = np.flatnonzero(a != c)
    by_c, by_a = pair[:, c], pair[:, a] * size
    anti, sym = np.empty((size - m, size - m)), np.empty((size, size))
    # scratch of one z row, reused: the flat S index and the two terms;
    # take's "clip" (the indices are in range) writes out unbuffered
    index = np.empty((m, size), np.intp)
    direct, crossed = np.empty((m, size)), np.empty((m, size))
    row = 0
    for r in range(m):  # rows (r, r..m-1)
        k = m - r
        i, d, x = index[:k], direct[:k], crossed[:k]
        np.add(by_a[r], by_c[r:], out=i)  # S[{r, a'}, {c, c'}], each read along a row of S
        s.take(i, out=d, mode="clip")
        np.add(by_a[r:], by_c[r], out=i)  # S[{c, a'}, {r, c'}]
        s.take(i, out=x, mode="clip")
        out = sym[row:row + k]
        np.add(d, x, out=out)
        out[0] *= w_diag
        out[1:] *= w_off
        out = anti[row - r:row - r + k - 1]
        np.subtract(d[1:], x[1:], out=d[1:])
        np.take(d[1:], strict, 1, out=out, mode="clip")
        out *= _SQRT1_2 * _SQRT1_2
        row += k
    return anti, sym


def parity_blocks(table: np.ndarray, geom: ArrayGeometry, lazy: bool = False) -> ParityBlocks:
    """The mirror-parity blocks of the matrix ``gather_offsets(table,
    geom)``, gathered straight from the (nx, nz) offset table, real or
    complex, without forming the (N, N) matrix; the blocks keep a
    read-only view of the table.  Each block is filled in place one z
    row at a time from the table's z-axis gather (mz^2 nx entries), so
    its build holds nothing else of block size.  With ``lazy`` a block
    is gathered only when read, so a caller that reads each block once
    holds one at a time."""
    table = read_only_view(table)
    blocks = ParityBlocks(_TableBlocks(table, geom), geom)  # checks the table
    return blocks if lazy else ParityBlocks(_TableBlocks(table, geom, tuple(blocks.blocks)), geom)


def gram_blocks(factors, geom: ArrayGeometry | None = None) -> ParityBlocks:
    """The matrix whose parity block b is Y_b Y_b^H, held as the factors
    Y_b, (m_b, r_b) arrays in block order (one (N, r) array with no
    lattice): a PSD matrix of rank at most sum r_b, never formed whole
    by its eigensolve or its rows."""
    return ParityBlocks(_GramBlocks(factors), geom)


def as_blocks(matrix) -> ParityBlocks:
    """Any square matrix as blocks: ``ParityBlocks`` as they are, and an
    array as one block."""
    return matrix if isinstance(matrix, ParityBlocks) else ParityBlocks((np.asarray(matrix),))


def chunks(count: int, n: int) -> list[slice]:
    """Slices of ``count`` azimuths, lattice points or matrix rows, k at
    a time: the largest multiple of 16 whose (n, k) complex array fits
    in 512 KiB, and at least 16; the package's one slicer of row passes.
    A BLAS matrix product gives each column the same bits in any set of
    columns only while the column groups of its kernels, which are
    narrower than 16, start at the same offsets."""
    step = max(16, _CHUNK_BYTES // (16 * n) // 16 * 16)
    return [slice(i, i + step) for i in range(0, count, step)]


def _check_positive(**lengths: float) -> None:
    for name, value in lengths.items():
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{name} must be positive and finite, got {value}")


def require_finite(what: str, *arrays) -> None:
    """Raise ``DomainError`` unless every entry of the arrays is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise DomainError(f"{what} has a non-finite entry")


def _count_from_ratio(aperture: float, spacing: float, label: str) -> int:
    ratio = aperture / spacing
    nearest = round(ratio)
    if nearest < 1 or abs(ratio - nearest) > _RATIO_TOL * max(1.0, abs(ratio)):
        raise ConfigError(
            f"{label} aperture/spacing ratio {ratio} is not integral"
        )
    return int(nearest) + 1


def make_uniform_grid(lx: float, lz: float, dx: float, dz: float,
                      wavelength: float) -> ArrayGeometry:
    """Uniform grid of isotropic elements with elements at both aperture ends,
    so the per-axis count is aperture/spacing + 1."""
    _check_positive(lx=lx, lz=lz, dx=dx, dz=dz, wavelength=wavelength)
    nx = _count_from_ratio(lx, dx, "x")
    nz = _count_from_ratio(lz, dz, "z")
    return ArrayGeometry(
        wavelength=wavelength,
        dx=dx, dz=dz, lx=lx, lz=lz, nx=nx, nz=nz,
        element_kind=ElementKind.ISOTROPIC,
    )


def make_dipole_array(lx: float, dx: float, n_rows: int, gap: float,
                      wavelength: float) -> ArrayGeometry:
    """Stacked rows of vertical half-wave dipoles.

    Each row is a line of dipoles along x with spacing ``dx``; ``n_rows``
    rows are stacked along z with a tip-to-tip gap ``gap`` between
    consecutive dipoles, giving a vertical center-to-center spacing of
    ``wavelength/2 + gap``.  Positions are dipole centers.
    """
    _check_positive(lx=lx, dx=dx, wavelength=wavelength)
    if n_rows < 1:
        raise DomainError(f"n_rows must be >= 1, got {n_rows}")
    if gap < 0.0 or not math.isfinite(gap):
        raise DomainError(f"gap must be >= 0, got {gap}")
    nx = _count_from_ratio(lx, dx, "x")
    nz = int(n_rows)
    dipole_length = wavelength / 2.0
    dz_eff = dipole_length + gap
    lz = nz * dipole_length + (nz - 1) * gap
    return ArrayGeometry(
        wavelength=wavelength,
        dx=dx, dz=dz_eff, lx=lx, lz=lz, nx=nx, nz=nz,
        element_kind=ElementKind.HALF_WAVE_DIPOLE,
    )


def unit_direction(direction: Direction) -> np.ndarray:
    """Unit vector (sin t cos p, sin t sin p, cos t) for a far-field direction."""
    st = math.sin(direction.theta)
    return np.array([
        st * math.cos(direction.phi),
        st * math.sin(direction.phi),
        math.cos(direction.theta),
    ])
