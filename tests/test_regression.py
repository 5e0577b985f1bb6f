"""Output regression: every subcommand, run through ``holoris.cli.main``
on a reduced config, against files recorded earlier under
``tests/data/regression/`` (gzip-compressed).

CSVs are compared with the rule of ``tools/same_outputs.py``
(``compare_csv``), which ``--tolerance`` applies there too.  Float
columns match when ``|value - ref| <= RTOL |ref| + FLOOR * scale``, with
``scale`` the column's largest reference magnitude; the floor absorbs
round-off tails (evanescent spectrum samples, eigenvalues at the
numerical floor).  A dB column is compared as the linear value it
encodes, because the dB value of a round-off eigenvalue is itself
round-off.  Integer and text columns, comment lines and gnuplot scripts
must match exactly.

Re-record only for an intended change of output, naming the subcommands
to re-record (all of them when none is named):

    PYTHONPATH=src python tests/test_regression.py [SUBCOMMAND ...]
"""

import gzip
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from holoris import ExperimentConfig
from holoris.cli import main

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

DATA = ROOT / "tests" / "data" / "regression"
CONFIG = {"sweep": {"eigen_aperture": 4.0, "spacings": [0.5, 0.125]}}
SUBCOMMANDS = ("correlation", "eigen", "spectrum", "gain", "mc-eigen", "icsi")


def _run(subcommand: str, outdir: Path, config: dict = CONFIG) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = outdir / "config.json"
    cfg.write_text(json.dumps(config))
    out = outdir / subcommand
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
    return out


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
            errors.extend(same_outputs.compare_csv(name, got, ref))
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
    src = ROOT / "src"
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
            errors.extend(same_outputs.compare_csv(name, got, ref))
        elif got != ref:
            errors.append(f"{name}: differs")
    assert not errors, "\n".join(errors)


def test_outputs_do_not_depend_on_the_unit_of_length(tmp_path):
    """Every length is given in wavelengths, so the wavelength is a unit:
    at 2 it scales every length by a power of two and each file is
    byte-identical to wavelength 1, and at 3 every CSV is within the
    regression tolerance of it, text cells equal and the rank cut-off of
    the factored R0 included, and every other file is identical."""
    outs = {wl: _run("reproduce-all", tmp_path / str(wl),
                     {**CONFIG, "geometry": {"wavelength": wl}})
            for wl in (1.0, 2.0, 3.0)}
    names = sorted(p.name for p in outs[1.0].iterdir())
    assert len(names) > 50
    for wl in (2.0, 3.0):
        assert sorted(p.name for p in outs[wl].iterdir()) == names
    errors = []
    for name in names:
        ref = (outs[1.0] / name).read_text()
        if (outs[2.0] / name).read_text() != ref:
            errors.append(f"{name}: differs at wavelength 2")
        got = (outs[3.0] / name).read_text()
        if name.endswith(".csv"):
            errors.extend(same_outputs.compare_csv(f"{name} at wavelength 3", got, ref))
        elif got != ref:
            errors.append(f"{name}: differs at wavelength 3")
    assert not errors, "\n".join(errors)


def _column(path: Path, name: str) -> list[float]:
    """The float cells of column ``name`` of a CSV written by the CLI."""
    _, header, rows = same_outputs._split(path.read_text())
    j = header.index(name)
    return [float(row[j]) for row in rows]


def test_every_eigen_file_at_one_eighth_wavelength_holds_the_rank_of_r0(tmp_path):
    """At 1/8 wavelength the default stack (N = 264) keeps 152 eigenvalues
    of R0.  The no-coupling case is R0's factor and each coupled case is
    solved from it, so the no_mc file and every coupled fig8, fig9 and
    fig10 file of that spacing hold the same 112 exact zeros."""
    out = _run("mc-eigen", tmp_path)
    files = sorted(out.glob("fig*_dx0p125_*.csv"))
    names = [path.name for path in files]
    assert "fig8_tx_dx0p125_no_mc.csv" in names and "fig9_rx_dx0p125_no_mc.csv" in names
    assert len(files) == 2 * 4 + 2
    for path in files:
        values = _column(path, "eigenvalue")
        assert (len(values), values.count(0.0)) == (264, 112), path.name


def test_proposed_gain_dominates_on_the_fig7_files(tmp_path):
    """By Cauchy-Schwarz the proposed excitation has the largest gain
    over unit-power excitations for the same coupling matrix, so at
    every azimuth of each swept spacing its gain is at least the
    conjugate and directivity-max gains, within 1e-9 relative."""
    out = _run("gain", tmp_path)
    proposed = sorted(out.glob("fig7_gain_dx*_proposed_mc_aware.csv"))
    assert len(proposed) == len(ExperimentConfig.from_dict(CONFIG).sweep.gain_spacings) == 2
    for path in proposed:
        best = _column(path, "gain")
        for other in ("conjugate_mc_unaware", "directivity_max"):
            gains = _column(path.with_name(path.name.replace("proposed_mc_aware", other)),
                            "gain")
            assert len(gains) == len(best) > 1
            assert all(g <= b + 1e-9 * b for g, b in zip(gains, best)), (path.name, other)


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
