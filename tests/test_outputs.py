"""CSV emission: the exact bytes ``write_csv`` writes, and the column
builders against their per-entry definitions."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from holoris import geometry
from holoris.config import ExperimentConfig
from holoris.correlation import correlation_matrix_isotropic, sinc_table
from holoris.coupling import coupling_tx, impedance_matrix_dipoles
from holoris.geometry import ParityBlocks, make_dipole_array, make_uniform_grid
from holoris.outputs import Gather, Table, eigen_table, grid, matrix_table, write_csv

MIXED = Table(["a", "b c"], [3, 10**11], np.array([-4, 0]), [2.5, 1e-300],
              np.array([1.0 / 3.0, 123456789012.0]), [True, False], [-math.inf, math.inf],
              [-0.0, 0.0])


def test_mixed_columns_bytes(tmp_path):
    path = write_csv(tmp_path / "sub" / "mixed.csv", "fig0 (mixed)",
                     ["s", "i", "n", "x", "y", "flag", "lim", "zero"], MIXED,
                     notes=["first note", "second note"])
    assert path.read_bytes() == (
        b"# target: fig0 (mixed)\n"
        b"# first note\n"
        b"# second note\n"
        b"# columns: s, i, n, x, y, flag, lim, zero\n"
        b"s,i,n,x,y,flag,lim,zero\n"
        b"a,3,-4,2.5,0.333333333333,1,-inf,-0\n"
        b"b c,100000000000,0,1e-300,123456789012,0,inf,0\n"
    )


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16, np.uint64])
def test_numpy_int_columns_write_their_digits(tmp_path, dtype):
    path = write_csv(tmp_path / "n.csv", "t", ["n"], Table(np.array([0, 7, 100], dtype)))
    assert path.read_text().splitlines()[-3:] == ["0", "7", "100"]


def test_empty_rows_write_the_header_only(tmp_path):
    for rows in (Table(), Table([], [])):
        assert len(rows) == 0
        path = write_csv(tmp_path / "empty.csv", "t", ["a", "b"], rows)
        assert path.read_text() == "# target: t\n# columns: a, b\na,b\n"


def test_str_in_a_numeric_column_raises(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(TypeError):
        write_csv(path, "t", ["a", "b"], Table([1.0, "oops"], ["x", "y"]))
    assert not path.exists()


@pytest.mark.parametrize("column", [np.array([1.0, "x"], dtype=object), [1 + 2j], [10**30]])
def test_a_column_without_a_format_raises(column):
    with pytest.raises(TypeError):
        Table(column)


def test_columns_of_different_shapes_raise():
    with pytest.raises(ValueError):
        Table([1.0, 2.0], [1.0])


@given(st.integers(-(10**12) + 1, 10**12 - 1))
@example(10**12 - 1)
@example(-(10**12) + 1)
@example(0)
def test_integer_digits_are_the_float_format_below_ten_to_the_twelve(n):
    assert "%d" % n == "%.12g" % n
    assert "%d" % np.array([n]).tolist()[0] == "%.12g" % n


def _per_cell(rows_of_cells):
    """The lines ``write_csv`` wrote before columns: one %s / %.12g row
    template taken from the first row."""
    template = ",".join("%s" if isinstance(v, str) else "%.12g" for v in rows_of_cells[0])
    return [template % row for row in rows_of_cells]


def _data_lines(path):
    return path.read_text().splitlines()[3:]


def test_grid_axis_columns_are_the_per_cell_text(tmp_path):
    seps = np.linspace(0.0, 3.0, 13)
    corr = sinc_table(13, 13, seps[1], seps[1], 1.0).T
    dz, dx = grid(seps, seps)
    path = write_csv(tmp_path / "g.csv", "t", ["dx", "dz", "c"], Table(dx, dz, corr))
    want = [(seps[j], seps[i], corr[i, j]) for i in range(13) for j in range(13)]
    assert _data_lines(path) == _per_cell(want)


def test_three_axis_grid_runs_in_row_major_order():
    a, b, c = grid([1, 2], [3, 4, 5], [6, 7])
    got = list(zip(*(np.take(col.cells, col.index).ravel().tolist() for col in (a, b, c))))
    assert got == [(i, j, k) for i in [1, 2] for j in [3, 4, 5] for k in [6, 7]]


@pytest.mark.parametrize("build", [
    lambda: correlation_matrix_isotropic(make_uniform_grid(2.0, 1.5, 0.5, 0.25, 1.0)),
    lambda: impedance_matrix_dipoles(make_dipole_array(2.0, 0.25, 3, 0.05, 1.0)),
])
def test_offset_table_matrix_is_the_per_cell_text(tmp_path, build):
    """A table-backed matrix writes its offset table's cells, gathered
    by offset: the text of every entry of its gathered ``values``."""
    m = build()
    assert m.table is not None
    path = write_csv(tmp_path / "m.csv", "t", ["row", "col", "re", "im"], matrix_table(m))
    v = np.asarray(m.values, dtype=complex)
    want = [(i, j, v[i, j].real, v[i, j].imag) for i in range(m.n) for j in range(m.n)]
    assert _data_lines(path) == _per_cell(want)


def test_bytes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    """Every builder's table, written in the default chunks and in
    chunks of 16 rows of the leading axis (the least ``chunks`` gives)."""
    g = make_uniform_grid(6.0, 4.0, 0.25, 0.5, 1.0)
    r0 = correlation_matrix_isotropic(g)
    values = np.sort(np.random.default_rng(3).random(300))[::-1]
    tag = Gather(["evanescent", "propagating"], np.arange(g.n).reshape(g.nx, g.nz) % 3 == 0)
    kx, kz = grid(np.arange(g.nx) / 7.0, np.arange(g.nz) / 3.0)
    ct = _coupling(2.0, 0.25, 3)
    tables = {"m": lambda: matrix_table(r0), "ct": lambda: matrix_table(ct),
              "e": lambda: eigen_table(values),
              "s": lambda: Table(kx, kz, np.cos(np.arange(g.n)).reshape(g.nx, g.nz), tag),
              "c": lambda: Table(["a"] * 40, np.arange(40), np.arange(40) / 9.0)}
    default = {k: write_csv(tmp_path / "a" / k, "t", ["c"], t()).read_bytes()
               for k, t in tables.items()}
    assert all(len(tables[k]()) > 16 for k in tables)
    monkeypatch.setattr(geometry, "_CHUNK_BYTES", 0)
    assert geometry.chunks(40, 3)[0] == slice(0, 16)
    for k, t in tables.items():
        assert write_csv(tmp_path / "b" / k, "t", ["c"], t()).read_bytes() == default[k], k


def _eigen_rows_per_entry(values):
    total = float(values.sum())
    rows, cum = [], 0.0
    for i, v in enumerate(values.tolist()):
        cum += v
        db = 10.0 * math.log10(v) if v > 0.0 else -math.inf
        rows.append((i, v, db, cum / total if total else 0.0))
    return rows


def _columns(table):
    """The cells of a table of plain columns, as row tuples."""
    return list(zip(*(values.ravel().tolist() for values, _ in table._columns)))


@pytest.mark.parametrize("values", [
    np.sort(np.random.default_rng(7).random(200) ** 6)[::-1],
    np.array([4.0, 1e-17, 1e-17, 1e-17, 0.0]),
    np.zeros(3),
])
def test_eigen_table_matches_per_entry_definition(values):
    table = eigen_table(values)
    got = _columns(table)
    want = _eigen_rows_per_entry(values)
    assert len(table) == len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g[0]) is int and g[0] == w[0]
        assert g[1] == w[1]
        # sequential cumulative sum: equal to the bit
        assert g[3] == w[3]
        if math.isinf(w[2]):
            assert g[2] == -math.inf
        else:
            assert g[2] == pytest.approx(w[2], rel=1e-14, abs=1e-14)


def test_eigen_table_of_a_zero_eigenvalue_in_the_csv(tmp_path):
    path = write_csv(tmp_path / "e.csv", "t",
                     ["index", "eigenvalue", "eigenvalue_db", "cumulative_fraction"],
                     eigen_table(np.array([2.0, 0.0])))
    assert path.read_text().splitlines()[-2:] == ["0,2,3.01029995664,1", "1,0,-inf,1"]


def _coupling(lx, dx, rows):
    """A complex lattice matrix with no offset table: a transmit coupling."""
    return coupling_tx(impedance_matrix_dipoles(make_dipole_array(lx, dx, rows, 0.05, 1.0)),
                       50.0 - 20.0j)


@pytest.mark.parametrize("lx, dx, rows", [(2.0, 0.25, 3), (1.75, 0.25, 4), (1.0, 0.5, 1),
                                          (0.5, 0.5, 2)])
def test_mirrored_quarter_rows_are_the_per_cell_text(tmp_path, lx, dx, rows):
    """A lattice matrix with no offset table writes the rows of its
    quarter points, gathered by mirror: the text of every entry of its
    assembled ``values``, on odd and even axes (9 x 3, 8 x 4, 3 x 1 and
    2 x 2 points), in row-major (row, col, re, im) order."""
    m = _coupling(lx, dx, rows)
    assert m.table is None and m.geom.nx * m.geom.nz == m.n
    table = matrix_table(m)
    path = write_csv(tmp_path / "m.csv", "t", ["row", "col", "re", "im"], table)
    v = m.values
    want = [(i, j, v[i, j].real, v[i, j].imag) for i in range(m.n) for j in range(m.n)]
    assert len(table) == m.n * m.n
    assert _data_lines(path) == _per_cell(want)


def test_real_matrix_rows_have_zero_imaginary_part(tmp_path):
    g = make_uniform_grid(1.5, 1.0, 0.5, 0.5, 1.0)
    r0 = correlation_matrix_isotropic(g)
    m = ParityBlocks(tuple(np.array(b) for b in r0.blocks), g)  # no offset table
    path = write_csv(tmp_path / "m.csv", "t", ["row", "col", "re", "im"], matrix_table(m))
    want = [(i, j, m.values[i, j], 0.0) for i in range(m.n) for j in range(m.n)]
    assert _data_lines(path) == _per_cell(want)
    assert all(line.endswith(",0") for line in _data_lines(path))


def test_correlation_runner_writes_in_small_transients(tmp_path):
    """The ``correlation`` runner's traced peak: fig2's 14,641 rows and
    ``matrix_r0.csv``'s 5,184, each written a chunk at a time.  Holding
    every row as a tuple, then every line, then the joined text peaked
    at 4.14 MiB; by columns in chunks it reads 1.18 MiB."""
    from holoris.cli import run_correlation
    cfg = ExperimentConfig.default()
    run_correlation(cfg, tmp_path)  # warm-up: imports and first-call caches
    tracemalloc.start()
    try:
        run_correlation(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "fig2_correlation.csv").read_text().count("\n") == 3 + 121 * 121
    assert peak <= 1.5 * 2**20
