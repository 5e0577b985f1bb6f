"""Self-test of the benchmark on a tiny config of each workload.

    python3 perfbench/selftest.py

Takes a few seconds per workload and asserts that

* every end-to-end and per-layer metric in BENCHMARK.json is emitted,
  with the unit given there;
* on every thread, the traced self times plus the wrapper cost taken
  off them add up to the time its top-level spans cover, and on the
  main thread that is the traced ``wall_s`` (tolerance 1e-6 relative
  plus 1 microsecond, for rounding);
* count metrics repeat exactly across two traced runs;
* the predicted zeros hold;
* every output check passes, at seed 0 and at seed 1.
"""

import json
import sys

import workloads
from run import ROOT, result_object, run_workload

COUNT_UNITS = {"count", "bytes", "ratio"}


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-6 * abs(b) + 1e-6


def test_workload(name: str, bench: dict) -> None:
    traced = [run_workload(name, 0, 0.0, True, tiny=True, setup_samples=1) for _ in range(2)]
    plain = run_workload(name, 1, 0.0, False, tiny=True, setup_samples=1)
    for result in traced + [plain]:
        log = result["log"]
        assert log.failed == 0 and log.attempted > 0, (name, log.failures)

    want_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    got = {k: v["unit"] for k, v in result_object(plain, False)["metrics"].items()}
    assert got == want_e2e, (name, got, want_e2e)
    want_layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    layer_sets = [result_object(r, True)["metrics"] for r in traced]
    for metrics in layer_sets:
        assert {k: v["unit"] for k, v in metrics.items()} == want_layers, name

    for result in traced:
        for run in result["traced_runs"]:
            self_sum, top_sum = run["balance"]["main"]
            assert close(self_sum, run["wall_s"]) and close(top_sum, run["wall_s"]), (
                name, self_sum, top_sum, run["wall_s"])
            for self_sum, top_sum in run["balance"]["workers"]:
                assert close(self_sum, top_sum), (name, self_sum, top_sum)

    for key, unit in want_layers.items():
        if unit in COUNT_UNITS and key != "cli.runner_overlap":
            values = [m[key]["value"] for m in layer_sets]
            assert values[0] == values[1], (name, key, values)

    for key in workloads.PREDICTED_ZEROS.get(name, []):
        assert layer_sets[0][key]["value"] == 0, (name, key)
    print(f"{name}: ok ({traced[0]['log'].attempted} checks per run)")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in workloads.WORKLOADS:
        test_workload(name, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
