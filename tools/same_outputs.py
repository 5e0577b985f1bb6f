"""Check that another checkout writes the same outputs as this one, byte
for byte.

Each checkout runs the same cases: ``reproduce-all`` on its packaged
config, and each benchmark workload's subcommands on
``perfbench/workloads.config_for(workload, seed)`` for seeds 0 and 7 (the
workloads of this checkout, one subcommand per case).  Every case is a
fresh ``python -m holoris.cli`` with that checkout's ``src`` on
``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1``, writing into its own
directory (the CLI runs every runner but ``eigen`` on one OpenBLAS
thread itself, so the setting matters only for the fig3 files, and for
a checkout whose CLI does not); its printed path list is kept beside
its outputs.  Every file is then compared byte for byte, the printed
lists included, and each difference and each failed run is named.

With ``--tolerance`` a CSV whose bytes differ is compared instead with
the rule of the output regression test (``tests/test_regression.py``,
which imports it from here): float cells within ``RTOL`` of the other
checkout's value plus ``FLOOR`` times its column's largest magnitude,
dB cells as the linear values they encode, integer and text cells,
comment lines and headers exactly.  Every other file must still match
byte for byte.  Each CSV whose bytes differ but which is within the
tolerance gets a note line: its worst cell as a share of the tolerance,
and the number of cells of each column that became exact 0 here.  Notes
do not count as differences.

Run from the repository root, for example against a second checkout of
the parent commit:

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tools/same_outputs.py ../parent
    python3 tools/same_outputs.py --tolerance ../parent

Exit status: 0 when every output is the same, 1 otherwise.
"""

import argparse
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7)

RTOL = 1e-10
FLOOR = 1e-12
INT_COLUMNS = {"index", "n_elements", "dominant_count", "knee_index", "asymptotic_dof",
               "propagating_count", "row", "col"}
TEXT_COLUMNS = {"tag", "scheme"}
DB_COLUMNS = {"eigenvalue_db"}


def _split(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    comments, header, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header or [], rows


def _linear(name: str, cell: str) -> float:
    value = float(cell)
    return 10.0 ** (value / 10.0) if name in DB_COLUMNS else value


def _float_cells(col: str, got_col: list[str], ref_col: list[str]):
    """A float column's cells as (value, reference, tolerance), dB cells
    as the linear values they encode: the tolerance is RTOL |reference|
    + FLOOR * scale, with ``scale`` the column's largest finite
    reference magnitude."""
    got_v = [_linear(col, c) for c in got_col]
    ref_v = [_linear(col, c) for c in ref_col]
    scale = max((abs(v) for v in ref_v if math.isfinite(v)), default=0.0)
    return [(g, r, RTOL * abs(r) + FLOOR * scale) for g, r in zip(got_v, ref_v)]


def compare_csv(name: str, got: str, ref: str) -> list[str]:
    """One line per column of CSV text ``got`` outside the tolerance of
    ``ref``: ``|value - ref| <= RTOL |ref| + FLOOR * scale``, with
    ``scale`` the column's largest finite reference magnitude."""
    got_comments, got_header, got_rows = _split(got)
    ref_comments, ref_header, ref_rows = _split(ref)
    if (got_comments, got_header) != (ref_comments, ref_header):
        return [f"{name}: comment or header lines differ"]
    if len(got_rows) != len(ref_rows):
        return [f"{name}: {len(got_rows)} rows, reference {len(ref_rows)}"]
    errors = []
    for j, col in enumerate(ref_header):
        got_col = [r[j] for r in got_rows]
        ref_col = [r[j] for r in ref_rows]
        if col in INT_COLUMNS or col in TEXT_COLUMNS:
            bad = [i for i, (g, r) in enumerate(zip(got_col, ref_col)) if g != r]
        else:
            bad = [i for i, (g, r, tol) in enumerate(_float_cells(col, got_col, ref_col))
                   if not (g == r or abs(g - r) <= tol)]
        if bad:
            i = bad[0]
            errors.append(f"{name}:{col}: {len(bad)} rows differ, first at row {i}: "
                          f"{got_col[i]} vs reference {ref_col[i]}")
    return errors


def tolerance_note(name: str, got: str, ref: str) -> str:
    """The note on CSV text ``got`` that ``compare_csv`` passes against
    ``ref``: its worst cell as a share of the tolerance, and the count
    of cells of each float column that are exact 0 in ``got`` but not
    in ``ref``."""
    _, header, got_rows = _split(got)
    _, _, ref_rows = _split(ref)
    worst, at, zeros = 0.0, "", []
    for j, col in enumerate(header):
        if col in INT_COLUMNS or col in TEXT_COLUMNS:
            continue
        cells = _float_cells(col, [r[j] for r in got_rows], [r[j] for r in ref_rows])
        for i, (g, r, tol) in enumerate(cells):
            if g != r and abs(g - r) / tol > worst:
                worst, at = abs(g - r) / tol, f" ({col}, row {i})"
        count = sum(g == 0.0 and r != 0.0 for g, r, _ in cells)
        if count:
            zeros.append(f"{col} {count}")
    return (f"{name}: within tolerance, worst cell {100 * worst:.3g} % of it{at}; "
            f"became exact 0: {', '.join(zeros) or 'none'}")


def tolerance_notes(a: Path, b: Path) -> list[str]:
    """``tolerance_note`` of each CSV, by its path relative to ``a`` and
    ``b``, whose bytes differ but which ``compare_csv`` passes, the one
    in ``a`` against the one in ``b``."""
    notes = []
    for rel in sorted(p.relative_to(a) for p in a.rglob("*.csv")):
        if not (b / rel).is_file():
            continue
        got, ref = (a / rel).read_text(), (b / rel).read_text()
        if got != ref and not compare_csv(str(rel), got, ref):
            notes.append(tolerance_note(str(rel), got, ref))
    return notes


def cases() -> dict[str, tuple[str, dict | None]]:
    """Each case's name: its subcommand and config (None: the packaged one)."""
    # run from source, so no bytecode cache is written under perfbench/
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    out = {"packaged/reproduce-all": ("reproduce-all", None)}
    for name, spec in workloads["WORKLOADS"].items():
        for seed in SEEDS:
            config = workloads["config_for"](name, seed)
            for sub in spec["subcommands"]:
                out[f"{name}-seed{seed}/{sub}"] = (sub, config)
    return out


def run_cases(checkout: Path, work: Path, runs: dict) -> list[str]:
    """Run every case on ``checkout``'s source, each in ``work / name``
    with its outputs in ``out`` and its printed paths in ``stdout.txt``;
    one line per case that did not exit 0."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("HOLORIS_OUT", None)
    failed = []
    for name, (sub, config) in runs.items():
        case = work / name
        case.mkdir(parents=True)
        args = [sys.executable, "-m", "holoris.cli", sub, "--out", "out"]
        if config is not None:
            (case / "config.json").write_text(json.dumps(config))
            args += ["--config", "config.json"]
        result = subprocess.run(args, cwd=case, env=env, capture_output=True, text=True)
        (case / "stdout.txt").write_text(result.stdout)
        if result.returncode != 0:
            failed.append(f"{name}: exit {result.returncode} in {checkout}: "
                          f"{result.stderr.strip()}")
    return failed


def tree_differences(a: Path, b: Path, tolerance: bool = False) -> list[str]:
    """One line per file, by its path relative to ``a`` and ``b``, that
    is in only one of them or whose bytes differ; with ``tolerance``, a
    CSV whose bytes differ gives the lines of ``compare_csv`` against
    the one in ``b``."""
    files = {p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()}
    out = []
    for rel in sorted(files):
        x, y = a / rel, b / rel
        if not y.is_file():
            out.append(f"{rel}: only in {a}")
        elif not x.is_file():
            out.append(f"{rel}: only in {b}")
        elif (bx := x.read_bytes()) == (by := y.read_bytes()):
            continue
        elif tolerance and rel.suffix == ".csv":
            out.extend(compare_csv(str(rel), bx.decode(), by.decode()))
        else:
            at = next((i for i, (u, v) in enumerate(zip(bx, by)) if u != v), min(len(bx), len(by)))
            out.append(f"{rel}: bytes differ from offset {at}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the other checkout's root")
    parser.add_argument("--tolerance", action="store_true",
                        help="compare differing CSVs with the regression tolerance")
    args = parser.parse_args(argv)
    other = args.other.resolve()
    runs = cases()
    with tempfile.TemporaryDirectory() as tmp:
        here, there = Path(tmp, "here"), Path(tmp, "other")
        problems = run_cases(ROOT, here, runs) + run_cases(other, there, runs)
        problems += tree_differences(here, there, args.tolerance)
        notes = tolerance_notes(here, there) if args.tolerance else []
    for line in problems:
        print(line)
    for line in notes:
        print(f"note: {line}")
    print(f"{len(runs)} cases, {len(problems)} differences or failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
