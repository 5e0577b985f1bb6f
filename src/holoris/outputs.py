"""Deterministic CSV and gnuplot-script emission for experiment results.

Every CSV starts with comment lines naming the reference figure or table
it mirrors and the column order.  Rows are held as the columns of a
``Table`` and written a chunk at a time.  A float cell is written with
%.12g, an integer or bool cell as its digits with %d (the digits %.12g
writes for every integer below 10^12, a bool as 1 or 0), and text as it
is, so re-running an experiment reproduces files byte for byte.
"""

from pathlib import Path

import numpy as np

from .geometry import chunks, gather_offsets

_FLOAT_FMT = "%.12g"
_FORMATS = {"U": "%s", "i": "%d", "u": "%d", "b": "%d", "f": _FLOAT_FMT}


class Gather:
    """A column of repeated cells: row r holds ``cells[index.flat[r]]``.
    Each distinct cell is formatted once, and its text gathered."""

    def __init__(self, cells, index):
        self.cells, self.index = cells, index


def _column(cells) -> tuple[np.ndarray, str]:
    """A column's cells as an array, and their format from its dtype;
    ``TypeError`` for any other dtype, and for a sequence that mixes
    text and numbers (numpy would make each number text)."""
    values = np.asarray(cells)
    fmt = _FORMATS.get(values.dtype.kind)
    if fmt is None:
        raise TypeError(f"cannot write a column of dtype {values.dtype}")
    if fmt == "%s" and not isinstance(cells, np.ndarray) \
            and not all(isinstance(v, str) for v in cells):
        raise TypeError("a column mixes text and numbers")
    return values, fmt


class Table:
    """The rows of a CSV held as its columns, in column order.  Each
    column is an array of cells, or a ``Gather`` of repeated ones; all
    have the same shape (a gather's is its index's), and the rows run
    over it in C order.  ``len()`` is the row count.  Rows are formatted
    a chunk of the leading axis at a time, as ``geometry.chunks`` slices
    it for the cells of one leading entry (at about 16 bytes of text a
    cell, some 512 KiB of text a chunk), so no list of every row, line
    or cell text is held."""

    def __init__(self, *columns):
        # (cells, None) for a column of cells, (index, texts) for a gather
        self._columns, formats = [], []
        for col in columns:
            if isinstance(col, Gather):
                cells, fmt = _column(col.cells)
                texts = np.array([fmt % v for v in cells.ravel().tolist()], dtype=object)
                self._columns.append((np.asarray(col.index), texts))
                formats.append("%s")
            else:
                values, fmt = _column(col)
                self._columns.append((values, None))
                formats.append(fmt)
        self._template = ",".join(formats) + "\n"
        shapes = {values.shape for values, _ in self._columns}
        if len(shapes) > 1:
            raise ValueError(f"columns of different shapes {sorted(shapes)}")
        self.shape = shapes.pop() if shapes else (0,)

    def __len__(self) -> int:
        return int(np.prod(self.shape))

    def lines(self):
        """The rows' text, a chunk of newline-ended lines at a time: the
        chunk's cells are laid out row by row in one object array and
        formatted by one ``%`` of the row template repeated per row."""
        if not len(self):
            return
        for k in chunks(self.shape[0], len(self) // self.shape[0] * len(self._columns)):
            cells = np.stack([(values[k] if texts is None else texts.take(values[k])).ravel()
                              for values, texts in self._columns], axis=1, dtype=object)
            yield (self._template * len(cells)) % tuple(cells.ravel().tolist())


def grid(*axes) -> list[Gather]:
    """The axis columns of a row-major grid over ``axes``: column k holds
    ``axes[k][i_k]`` at grid point (i_0, i_1, ...)."""
    shape = tuple(map(len, axes))
    return [Gather(a, np.broadcast_to(i, shape))
            for a, i in zip(axes, np.indices(shape, sparse=True))]


def write_csv(path: Path, target: str, columns: list[str], rows: Table,
              notes: list[str] | None = None) -> Path:
    """Write ``rows``, a ``Table``, below the comment lines and header."""
    head = [f"# target: {target}", *(f"# {note}" for note in notes or []),
            "# columns: " + ", ".join(columns), ",".join(columns)]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write("\n".join(head) + "\n")
        f.writelines(rows.lines())
    return path


def spacing_label(spacing: float) -> str:
    return (_FLOAT_FMT % spacing).replace(".", "p").replace("-", "m")


def impedance_label(prefix: str, z: complex) -> str:
    return f"{prefix}_{spacing_label(z.real)}_{spacing_label(z.imag)}"


def write_gnuplot(path: Path, title: str, lines: list[str]) -> Path:
    body = [
        "# gnuplot script; run with: gnuplot " + path.name,
        "set datafile separator ','",
        "set datafile commentschars '#'",
        f"set title '{title}'",
        "set grid",
    ]
    body.extend(lines)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(body) + "\n")
    return path


def decibels(values) -> np.ndarray:
    """10 log10 of each value, -inf where a value is not positive."""
    return 10.0 * np.log10(values, out=np.full(values.shape, -np.inf), where=values > 0.0)


def matrix_table(matrix) -> Table:
    """Rows (row, col, re, im) of a lattice matrix (``ParityBlocks`` on a
    geometry) in row-major order; im is 0 if it is real.  Each distinct
    cell is formatted once: a matrix gathered from an offset table writes
    that table's cells, gathered by offset, and any other the rows of its
    quarter points, gathered by mirror (``ParityBlocks.mirrored_rows``)."""
    g = matrix.geom
    axis = np.arange(g.n)
    row, col = grid(axis, axis)
    if matrix.table is not None:
        cells = matrix.table
        index = gather_offsets(np.arange(cells.size).reshape(cells.shape), g)
    else:
        cells, index = matrix.mirrored_rows()
    return Table(row, col, Gather(cells.real, index), Gather(cells.imag, index))


def eigen_table(values) -> Table:
    """Rows (index, eigenvalue, eigenvalue_db, cumulative_fraction) of a
    non-increasing eigenvalue array; the cumulative sum runs in order."""
    total = float(values.sum())
    cum = np.cumsum(values) / total if total else np.zeros_like(values)
    return Table(np.arange(values.size), values, decibels(values), cum)
