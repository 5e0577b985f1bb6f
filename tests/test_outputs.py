"""CSV emission: the exact bytes ``write_csv`` writes, and the row
builders against their per-entry definitions."""

import math

import numpy as np
import pytest

from holoris.outputs import complex_matrix_rows, eigen_rows, write_csv


def test_mixed_rows_bytes(tmp_path):
    rows = [
        ("a", 3, np.int64(-4), 2.5, np.float64(1.0 / 3.0), True, -math.inf, -0.0),
        ("b c", 10**11, np.int32(0), 1e-300, np.float64(123456789012.0), False, math.inf, 0.0),
    ]
    path = write_csv(tmp_path / "sub" / "mixed.csv", "fig0 (mixed)",
                     ["s", "i", "n", "x", "y", "flag", "lim", "zero"], rows,
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


def test_empty_rows_write_the_header_only(tmp_path):
    path = write_csv(tmp_path / "empty.csv", "t", ["a", "b"], [])
    assert path.read_text() == "# target: t\n# columns: a, b\na,b\n"


def test_str_in_a_numeric_column_raises(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(TypeError):
        write_csv(path, "t", ["a", "b"], [(1.0, "x"), ("oops", "y")])
    assert not path.exists()


def _eigen_rows_per_entry(values):
    total = float(values.sum())
    rows, cum = [], 0.0
    for i, v in enumerate(values.tolist()):
        cum += v
        db = 10.0 * math.log10(v) if v > 0.0 else -math.inf
        rows.append((i, v, db, cum / total if total else 0.0))
    return rows


@pytest.mark.parametrize("values", [
    np.sort(np.random.default_rng(7).random(200) ** 6)[::-1],
    np.array([4.0, 1e-17, 1e-17, 1e-17, 0.0]),
    np.zeros(3),
])
def test_eigen_rows_match_per_entry_definition(values):
    got = eigen_rows(values)
    want = _eigen_rows_per_entry(values)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g[0]) is int and g[0] == w[0]
        assert g[1] == w[1]
        # sequential cumulative sum: equal to the bit
        assert g[3] == w[3]
        if math.isinf(w[2]):
            assert g[2] == -math.inf
        else:
            assert g[2] == pytest.approx(w[2], rel=1e-14, abs=1e-14)


def test_eigen_rows_of_a_zero_eigenvalue_in_the_csv(tmp_path):
    path = write_csv(tmp_path / "e.csv", "t",
                     ["index", "eigenvalue", "eigenvalue_db", "cumulative_fraction"],
                     eigen_rows(np.array([2.0, 0.0])))
    assert path.read_text().splitlines()[-2:] == ["0,2,3.01029995664,1", "1,0,-inf,1"]


@pytest.mark.parametrize("values", [
    np.arange(6.0).reshape(2, 3) - 2.5,
    (np.arange(6.0) - 1j * np.arange(6.0)[::-1]).reshape(3, 2),
])
def test_complex_matrix_rows_match_per_entry_definition(values):
    want = [(i, j, complex(values[i, j]).real, complex(values[i, j]).imag)
            for i in range(values.shape[0]) for j in range(values.shape[1])]
    got = complex_matrix_rows(values)
    assert got == want
    assert all(type(r) is int and type(c) is int for r, c, _, _ in got)


def test_real_matrix_rows_have_zero_imaginary_part(tmp_path):
    path = write_csv(tmp_path / "m.csv", "t", ["row", "col", "re", "im"],
                     complex_matrix_rows(np.array([[1.0, -0.0], [0.25, 2.0]])))
    assert path.read_text().splitlines()[-4:] == ["0,0,1,0", "0,1,-0,0", "1,0,0.25,0", "1,1,2,0"]
