"""Benchmark of the holoris CLI on three workloads (see DESIGN.md).

    python3 perfbench/run.py --workload paper-default --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; holoris is imported from its
``src`` directory, never from an installed copy.  Each workload is a
closed loop with one client: one fresh interpreter per iteration runs
the workload's subcommands in order through ``holoris.cli.main`` with
the CLI's default flags, and the next iteration starts when it exits.
A new iteration starts while less than ``--seconds`` have passed (at
least two untraced iterations, or one untraced/traced pair), and each
metric is the median over iterations; ``setup_s`` is the median of
``SETUP_SAMPLES`` separate set-up interpreters.  Every iteration's
outputs are checked (files, headers, invariants, byte identity with the
first iteration and, when the config is the recorded one, the reference
in ``reference/``).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of ``spans.py``.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` count output
checks, ``metrics`` maps names to ``{"value", "unit"}``.  Scratch files
go to ``.perfbench-run/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = workloads.ROOT
WORK = ROOT / ".perfbench-run"
REFERENCE_DIR = HERE / "reference"
SETUP_SAMPLES = 24
SETUPS_PER_ROUND = 4
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


class Runner:
    """Starts child interpreters, each waited for, within one deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, request: dict) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(request)],
                cwd=ROOT, stdout=subprocess.PIPE, timeout=remaining, check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child timed out after {exc.timeout:.0f} s") from exc
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"child exited with {proc.returncode}")
        return json.loads(lines[-1])


def source_record() -> dict:
    """Commit (when the checkout is a git work tree) and a digest of src/."""
    commit = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest()}


def load_reference(workload: str, cfg: dict) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    reference = json.loads(path.read_text())
    return reference if reference["config"] == cfg else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload; returns end-to-end and (traced) per-layer
    medians, the check log and the environment record."""
    cfg = workloads.config_for(workload, seed, tiny)
    subcommands = workloads.WORKLOADS[workload]["subcommands"]
    rundir = WORK / f"{workload}-seed{seed}{'-tiny' if tiny else ''}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    cfg_path = rundir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    runner = Runner()
    log = checks.CheckLog()
    reference = load_reference(workload, cfg)

    setups = []

    def setup():
        setups.append(runner.child({"mode": "setup", "config": str(cfg_path),
                                    "env": not setups}))

    first_digest = None
    untraced, traced = [], []

    def iteration(with_trace: bool) -> None:
        nonlocal first_digest
        outdir = rundir / f"out{len(untraced) + len(traced)}"
        res = runner.child({
            "mode": "run", "config": str(cfg_path), "outdir": str(outdir),
            "subcommands": subcommands, "trace": with_trace,
            "spans_path": str(WORK / f"spans-{workload}.jsonl"),
        })
        log.check(all(code == 0 for code in res["exit_codes"]),
                  f"exit codes {res['exit_codes']}")
        digest = checks.digest(outdir) if outdir.is_dir() else {}
        if first_digest is None:
            first_digest = digest
            try:
                parsed = checks.check_outputs(log, outdir, cfg, subcommands)
                if reference is not None:
                    checks.check_reference(log, parsed, reference)
            except (OSError, ValueError, IndexError) as exc:
                log.check(False, f"outputs unreadable: {exc!r}")
        else:
            log.check(digest == first_digest,
                      "outputs differ byte-wise from the first iteration of this seed")
        shutil.rmtree(outdir, ignore_errors=True)
        (traced if with_trace else untraced).append(res)

    start = time.perf_counter()
    plan = [False, True] if trace else [False]
    min_rounds = 1 if trace else 2
    rounds = 0
    # Set-up samples are spread over the run, a few before each
    # iteration, so a slow spell of the machine does not land on all of
    # them; the rest follow the last iteration.
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for _ in range(min(SETUPS_PER_ROUND, setup_samples - len(setups))):
            setup()
        for with_trace in plan:
            iteration(with_trace)
        rounds += 1
    while len(setups) < setup_samples:
        setup()
    shutil.rmtree(rundir, ignore_errors=True)

    def median(rows, key):
        return statistics.median(r[key] for r in rows)

    end_to_end = {
        "wall_s": median(untraced, "wall_s"),
        "setup_s": median(setups, "setup_s"),
        "cpu_s": median(untraced, "cpu_s"),
        "peak_rss_mb": median(untraced, "peak_rss_mb"),
    }
    layers = None
    if traced:
        # median_low keeps counts whole; they repeat exactly anyway.
        layers = {name: (statistics.median_low if LAYER_METRICS[name] in ("count", "bytes")
                         else statistics.median)(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = median(traced, "wall_s") - end_to_end["wall_s"]
    return {
        "workload": workload, "seed": seed, "config_seeded": cfg != workloads.config_for(
            workload, 0, tiny),
        "reference_checked": reference is not None,
        "setup_samples": len(setups),
        "end_to_end": end_to_end, "layers": layers, "log": log,
        "untraced_runs": untraced, "traced_runs": traced,
        "env": {**setups[0]["env"], **source_record()},
    }


def print_summary(result: dict) -> None:
    log = result["log"]
    walls = [r["wall_s"] for r in result["untraced_runs"]]
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{len(walls)} untraced + {len(result['traced_runs'])} traced iterations, "
          f"{result['setup_samples']} set-ups, "
          f"config depends on seed: {result['config_seeded']}, "
          f"reference compared: {result['reference_checked']}")
    print("wall_s per untraced iteration: " + ", ".join(f"{w:.4g}" for w in walls))
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("end_to_end " + " ".join(f"{k}={v:.6g} {END_TO_END_UNITS[k]}"
                                   for k, v in result["end_to_end"].items())
          + f" check_fail_ratio={log.failed / log.attempted:.6g} ratio")
    for failure in log.failures:
        print(f"check failed: {failure}")


def result_object(result: dict, trace: bool) -> dict:
    """The benchmark's last output line: check counts and the metrics."""
    log = result["log"]
    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in result["end_to_end"].items()}
    return {"correct": log.failed == 0, "attempted": log.attempted, "failed": log.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "holoris" / "cli.py").is_file():
        print(f"error: no holoris sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_summary(result)
    print(json.dumps(result_object(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
