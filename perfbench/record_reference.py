"""Record the seed-0 reference fingerprints in ``reference/``.

    python3 perfbench/record_reference.py [workload ...]

Runs each workload once at seed 0 through the CLI and stores, per CSV,
the fingerprint that ``checks.compare_fingerprint`` later compares
against.  Re-record only when an output change is intended.
"""

import json
import shutil
import sys

import checks
import workloads
from run import REFERENCE_DIR, WORK, Runner


def record(workload: str) -> None:
    cfg = workloads.config_for(workload, 0)
    subcommands = workloads.WORKLOADS[workload]["subcommands"]
    rundir = WORK / f"reference-{workload}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    cfg_path = rundir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outdir = rundir / "out"
    res = Runner().child({"mode": "run", "config": str(cfg_path), "outdir": str(outdir),
                          "subcommands": subcommands, "trace": False})
    log = checks.CheckLog()
    parsed = checks.check_outputs(log, outdir, cfg, subcommands)
    if res["exit_codes"] != [0] * len(subcommands) or log.failed:
        raise SystemExit(f"{workload}: outputs fail their checks: {log.failures}")
    files = {name: checks.fingerprint(*parsed[name]) for name in sorted(parsed)}
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    with path.open("w") as fh:
        fh.write('{"config": ' + json.dumps(cfg) + ',\n "files": {\n')
        fh.write(",\n".join(f"  {json.dumps(n)}: {json.dumps(fp)}" for n, fp in files.items()))
        fh.write("\n }}\n")
    shutil.rmtree(rundir)
    print(f"{path}: {len(files)} files")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(workloads.WORKLOADS):
        record(name)
