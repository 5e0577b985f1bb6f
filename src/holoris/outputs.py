"""Deterministic CSV and gnuplot-script emission for experiment results.

Every CSV starts with comment lines naming the reference figure or table
it mirrors and the column order.  Numeric cells are written with %.12g
(an integer below 10^12 as its digits, a bool as 1 or 0), text as it
is, so re-running an experiment reproduces files byte for byte.
"""

from pathlib import Path

import numpy as np

_FLOAT_FMT = "%.12g"


def write_csv(path: Path, target: str, columns: list[str], rows,
              notes: list[str] | None = None) -> Path:
    """Write ``rows``, a sequence of tuples, with one row template taken
    from the first row: %s for a str cell, %.12g for any other."""
    lines = [f"# target: {target}", *(f"# {note}" for note in notes or []),
             "# columns: " + ", ".join(columns), ",".join(columns)]
    if rows:
        template = ",".join("%s" if isinstance(v, str) else _FLOAT_FMT for v in rows[0])
        lines.extend(template % row for row in rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
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


def complex_matrix_rows(values) -> list[tuple]:
    """Rows (row, col, re, im) of a matrix in row-major order; im is 0 if it is real."""
    i, j = np.indices(values.shape)
    return list(zip(i.ravel().tolist(), j.ravel().tolist(),
                    values.real.ravel().tolist(), values.imag.ravel().tolist()))


def eigen_rows(values) -> list[tuple]:
    """Rows (index, eigenvalue, eigenvalue_db, cumulative_fraction) for a
    non-increasing eigenvalue array; the cumulative sum runs in order."""
    total = float(values.sum())
    cum = np.cumsum(values) / total if total else np.zeros_like(values)
    return list(zip(range(values.size), values.tolist(), decibels(values).tolist(),
                    cum.tolist()))
