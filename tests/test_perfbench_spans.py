"""The benchmark's span tracer (``perfbench/spans.py``) wraps holoris
functions by module attribute name.  Running its ``instrument`` here
makes a renamed or removed traced attribute fail the test suite, not
only the traced benchmark run; so does a ``write_csv`` call whose rows
the tracer cannot count (rows passed by keyword, or not sized), and so
does a gain sweep or ICSI that runs outside the wrapped names."""

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
assert cli.main(["correlation", "--out", sys.argv[3]]) == 0
rows = int(tracer.counts["outputs.rows"])
for sub in ("gain", "icsi"):
    assert cli.main([sub, "--config", sys.argv[4], "--out", sys.argv[5]]) == 0
runs = collections.Counter(span[1] for span in tracer.spans)
print((calls, rows, runs["response.gain_sweep"], runs["analysis.icsi"]))
"""

TINY = {"geometry": {"aperture_x": 2.0, "dipole_rows": 4},
        "sweep": {"spacings": [0.5, 0.25], "gain_spacings": [0.5, 0.25],
                  "azimuth_points": 19}}


def test_instrument_wraps_every_traced_attribute(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    out = tmp_path / "coupled"
    result = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(tmp_path), str(config), str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    calls, rows, sweeps, icsis = ast.literal_eval(result.stdout.strip().splitlines()[-1])
    # one table build: one Si and one Ci array call each for the echelon
    # and the collinear closed form, all through the wrapped attributes
    assert calls == {"coupling.impedance_matrix_dipoles": 1, "specfun.si_ci": 4}
    # the tracer's row count is the number of data lines written: each CSV
    # has comment lines and one header line before its rows
    csvs = sorted(tmp_path.glob("*.csv"))
    assert [p.name for p in csvs] == ["fig2_correlation.csv", "matrix_r0.csv"]
    written = sum(
        sum(1 for line in p.read_text().splitlines() if not line.startswith("#")) - 1
        for p in csvs)
    assert rows == written > 0
    # the gain and ICSI kernels run inside the wrapped names: one sweep per
    # scheme and gain spacing, one ICSI call per table cell written
    gain_csvs = list(out.glob("fig7_gain_dx*.csv"))
    assert sweeps == len(gain_csvs) == 4 * len(TINY["sweep"]["gain_spacings"])
    cells = 0
    for name in ("table1_icsi_tx.csv", "table2_icsi_rx.csv"):
        lines = [line for line in (out / name).read_text().splitlines()
                 if not line.startswith("#")]
        cells += sum(len(line.split(",")) - 1 for line in lines[1:])
    # per spacing and side: no coupling and the three default port impedances
    assert icsis == cells == 2 * 4 * len(TINY["sweep"]["spacings"])
