"""One fresh interpreter of a benchmark run.

Times the set-up (import of ``holoris.cli`` plus loading and validating
the config), then, in ``run`` mode, calls ``holoris.cli.main`` once per
subcommand in order, with the CLI's default flags, and reports wall
time, CPU time and peak RSS.  With ``trace`` set, the layers are wrapped
(see ``spans.py``) and their per-layer metrics are reported as well.

    python3 perfbench/child.py '<json request>'

prints one JSON object as its last line of standard output.
"""

import contextlib
import io
import json
import os
import platform
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _blas_threads():
    """OpenBLAS thread count as the loaded library reports it (read only)."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(cli) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "jobs": cli.build_parser().parse_args(["reproduce-all"]).jobs,
    }


def main() -> None:
    request = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    from holoris import cli
    from holoris.config import ExperimentConfig

    ExperimentConfig.from_file(request["config"])
    setup_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"holoris imported from {cli.__file__}, not from {SRC}")
    result = {"setup_s": setup_s}
    if request["mode"] == "setup":
        if request["env"]:
            result["env"] = environment(cli)
        print(json.dumps(result))
        return

    argv_tail = ["--config", request["config"], "--out", request["outdir"]]
    exit_codes = []

    def body():
        for sub in request["subcommands"]:
            with contextlib.redirect_stdout(io.StringIO()):
                exit_codes.append(cli.main([sub] + argv_tail))

    tracer = None
    if request["trace"]:
        # Imported only here: hashlib would add to an untraced run's RSS.
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if tracer is None:
        body()
        wall_s = time.perf_counter() - t0
    else:
        tracer.run_root(body)
        root = next(s for s in tracer.spans if s[1] == "trace.root")
        wall_s = root[3] - root[2]
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        wall_s=wall_s,
        cpu_s=(usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
        peak_rss_mb=usage1.ru_maxrss / 1024.0,
        exit_codes=exit_codes,
    )
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, wall_s)
        balance = spans.thread_balance(tracer)
        main_id = threading.main_thread().ident
        result["balance"] = {"main": balance.pop(main_id),
                             "workers": [list(v) for v in balance.values()]}
        with open(request["spans_path"], "w") as fh:
            for sid, name, s, e, parent, tid in tracer.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": s, "end": e,
                                     "parent": parent, "thread": tid}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
