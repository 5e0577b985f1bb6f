"""Output regression: every subcommand, run through ``holoris.cli.main``
on a reduced config, against files recorded earlier under
``tests/data/regression/`` (gzip-compressed).

Float columns match when ``|value - ref| <= RTOL |ref| + FLOOR * scale``,
with ``scale`` the column's largest reference magnitude; the floor
absorbs round-off tails (evanescent spectrum samples, eigenvalues at the
numerical floor).  A dB column is compared as the linear value it
encodes, because the dB value of a round-off eigenvalue is itself
round-off.  Integer and text columns, comment lines and gnuplot scripts
must match exactly.

Re-record only for an intended change of output, naming the subcommands
to re-record (all of them when none is named):

    PYTHONPATH=src python tests/test_regression.py [SUBCOMMAND ...]
"""

import gzip
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from holoris.cli import main

DATA = Path(__file__).resolve().parent / "data" / "regression"
CONFIG = {"sweep": {"eigen_aperture": 4.0, "spacings": [0.5, 0.125]}}
SUBCOMMANDS = ("correlation", "eigen", "spectrum", "gain", "mc-eigen", "icsi")

RTOL = 1e-10
FLOOR = 1e-12
INT_COLUMNS = {"index", "n_elements", "dominant_count", "knee_index", "asymptotic_dof",
               "propagating_count", "row", "col"}
TEXT_COLUMNS = {"tag", "scheme"}
DB_COLUMNS = {"eigenvalue_db"}


def _run(subcommand: str, outdir: Path) -> Path:
    cfg = outdir / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    out = outdir / subcommand
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
    return out


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


def _compare_csv(name: str, got: str, ref: str) -> list[str]:
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
            got_v = [_linear(col, c) for c in got_col]
            ref_v = [_linear(col, c) for c in ref_col]
            scale = max((abs(v) for v in ref_v if math.isfinite(v)), default=0.0)
            bad = [i for i, (g, r) in enumerate(zip(got_v, ref_v))
                   if not (g == r or abs(g - r) <= RTOL * abs(r) + FLOOR * scale)]
        if bad:
            i = bad[0]
            errors.append(f"{name}:{col}: {len(bad)} rows differ, first at row {i}: "
                          f"{got_col[i]} vs reference {ref_col[i]}")
    return errors


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_outputs_match_recorded(subcommand, tmp_path):
    out = _run(subcommand, tmp_path)
    ref_dir = DATA / subcommand
    got_names = sorted(p.name for p in out.iterdir())
    ref_names = sorted(p.name.removesuffix(".gz") for p in ref_dir.iterdir())
    assert got_names == ref_names
    errors = []
    for name in ref_names:
        got = (out / name).read_text()
        ref = gzip.decompress((ref_dir / f"{name}.gz").read_bytes()).decode()
        if name.endswith(".csv"):
            errors.extend(_compare_csv(name, got, ref))
        elif got != ref:
            errors.append(f"{name}: differs")
    assert not errors, "\n".join(errors)


def test_eigen_outputs_match_across_blas_thread_counts(tmp_path):
    """Outputs are byte-identical only for a fixed BLAS build and thread
    count: the eigensolver's round-off depends on the thread count.  At
    one and at two threads, ``eigen`` files still match within the
    regression tolerance (this does not assert that they differ)."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"sweep": {"eigen_aperture": 8.0, "eigen_spacings": [0.5, 0.25]}}))
    src = Path(__file__).resolve().parent.parent / "src"
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "PYTHONPATH": str(src),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-m", "holoris.cli", "eigen", "--config",
                                 str(cfg), "--out", str(out)],
                                capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir()) and len(names) == 4
    errors = []
    for name in names:
        got, ref = ((out / name).read_text() for out in outs)
        if name.endswith(".csv"):
            errors.extend(_compare_csv(name, got, ref))
        elif got != ref:
            errors.append(f"{name}: differs")
    assert not errors, "\n".join(errors)


def record(subcommands=SUBCOMMANDS) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for subcommand in subcommands:
            out = _run(subcommand, Path(tmp))
            dest = DATA / subcommand
            dest.mkdir(parents=True, exist_ok=True)
            for old in dest.iterdir():
                old.unlink()
            for path in sorted(out.iterdir()):
                (dest / f"{path.name}.gz").write_bytes(
                    gzip.compress(path.read_bytes(), mtime=0))


if __name__ == "__main__":
    record(sys.argv[1:] or SUBCOMMANDS)
