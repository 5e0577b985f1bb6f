"""The benchmark's span tracer (``perfbench/spans.py``) wraps holoris
functions by module attribute name.  Running its ``instrument`` here
makes a renamed or removed traced attribute fail the test suite, not
only the traced benchmark run; so does a CSV of any subcommand written
outside the traced ``cli.write_csv``, a ``write_csv`` call whose rows
the tracer cannot count (rows passed by keyword, or not sized), and a
gain sweep, ICSI or R0 build that runs outside the wrapped names."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import collections
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from spans import Tracer, instrument
from holoris import cli, coupling, make_dipole_array

tracer = Tracer()
instrument(tracer)
coupling.impedance_matrix_dipoles(make_dipole_array(1.0, 0.5, 2, 0.02, 1.0))
calls = dict(collections.Counter(span[1] for span in tracer.spans))
writes = {}  # subcommand: (traced write_csv calls, rows)
for sub in cli.SUBCOMMANDS:
    before = (sum(span[1] == "outputs.write_csv" for span in tracer.spans),
              tracer.counts["outputs.rows"])
    assert cli.main([sub, "--config", sys.argv[3], "--out", f"{sys.argv[4]}/{sub}"]) == 0
    writes[sub] = (sum(span[1] == "outputs.write_csv" for span in tracer.spans) - before[0],
                   int(tracer.counts["outputs.rows"] - before[1]))
runs = collections.Counter(span[1] for span in tracer.spans)
print((calls, writes, runs["response.gain_sweep"], runs["analysis.icsi"],
       runs["correlation.correlation_matrix_isotropic"]))
"""

TINY = {"geometry": {"aperture_x": 2.0, "dipole_rows": 4},
        "sweep": {"spacings": [0.5, 0.25], "gain_spacings": [0.5, 0.25],
                  "azimuth_points": 19, "eigen_aperture": 4.0, "eigen_spacings": [0.5, 0.25],
                  "correlation_points": 9}}


def data_lines(path):
    """Rows of a CSV: its lines after the comment lines and the header."""
    return sum(1 for line in path.read_text().splitlines() if not line.startswith("#")) - 1


def test_instrument_wraps_every_traced_attribute(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(config), str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    calls, writes, sweeps, icsis, r0_builds = ast.literal_eval(
        result.stdout.strip().splitlines()[-1])
    # one table build: one Si and one Ci array call each for the echelon
    # and the collinear closed form, all through the wrapped attributes
    assert calls == {"coupling.impedance_matrix_dipoles": 1, "specfun.si_ci": 4}
    # every CSV of every subcommand goes through the traced writer, and
    # the tracer's row count is the number of data lines written
    assert list(writes) == ["correlation", "eigen", "spectrum", "gain", "mc-eigen", "icsi"]
    for sub, (count, rows) in writes.items():
        csvs = list((out / sub).glob("*.csv"))
        assert count == len(csvs) > 0, sub
        assert rows == sum(data_lines(p) for p in csvs) > 0, sub
    # the gain and ICSI kernels run inside the wrapped names: one sweep per
    # scheme and gain spacing, one ICSI call per table cell written
    gain_csvs = list((out / "gain").glob("fig7_gain_dx*.csv"))
    assert sweeps == len(gain_csvs) == 4 * len(TINY["sweep"]["gain_spacings"])
    cells = 0
    for name in ("table1_icsi_tx.csv", "table2_icsi_rx.csv"):
        lines = [line for line in (out / "icsi" / name).read_text().splitlines()
                 if not line.startswith("#")]
        cells += sum(len(line.split(",")) - 1 for line in lines[1:])
    # per spacing and side: no coupling and the three default port impedances;
    # mc-eigen takes no ICSI
    assert icsis == cells == 2 * 4 * len(TINY["sweep"]["spacings"])
    # every R0 goes through the traced constructor: one in correlation, then
    # one per spacing in eigen, mc-eigen and icsi
    sweep = TINY["sweep"]
    assert r0_builds == 1 + len(sweep["eigen_spacings"]) + 2 * len(sweep["spacings"])
