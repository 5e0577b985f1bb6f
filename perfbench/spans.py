"""Span tracing of holoris from outside the package.

Each public function a layer exposes is replaced, at the module
attribute where its callers look it up, by a wrapper that records a
span (id, name, start, end, parent id, thread id).  Spans stay in
memory until the run ends.  A span's self time is its duration minus
the durations of its child spans on the same thread; runner threads of
``reproduce-all`` are kept apart, so their time is never subtracted
from the main thread that waits for them.

A wrapper spends some time outside the span it records (stack lookup,
span id, list append, the extra call).  That time lands inside the
parent span.  ``wrapper_cost`` measures it once per process, and each
child span takes it off its parent's self time, so that short, frequent
spans (Si/Ci, beamforming vectors) do not inflate their parents' self
times.  The total taken off is reported as ``trace.wrapper_s``.
"""

import hashlib
import itertools
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

RUNNERS = ("correlation", "eigen", "spectrum", "gain", "mc_eigen", "icsi")

# Per-layer metrics reported by a traced run, with their units.  The
# counts repeat exactly between runs of the same seed.
LAYER_METRICS = {
    "config.load_s": "s",
    **{f"cli.run_{r}.s": "s" for r in RUNNERS},
    "cli.self_s": "s",
    "cli.runner_overlap": "ratio",
    "correlation.correlation_matrix_isotropic.calls": "count",
    "correlation.correlation_matrix_isotropic.s": "s",
    "correlation.correlation_matrix_isotropic.distinct_ratio": "ratio",
    "correlation.entries": "count",
    "coupling.impedance_matrix_dipoles.calls": "count",
    "coupling.impedance_matrix_dipoles.s": "s",
    "coupling.impedance_matrix_dipoles.distinct_ratio": "ratio",
    "coupling.impedance_matrix_isotropic.calls": "count",
    "coupling.impedance_matrix_isotropic.s": "s",
    "coupling.coupling_solve.calls": "count",
    "coupling.coupling_solve.s": "s",
    "coupling.dipole_mutual_impedance.calls": "count",
    "coupling.dipole_mutual_impedance.s": "s",
    "specfun.si_ci.calls": "count",
    "specfun.si_ci.s": "s",
    "spectrum.power_spectrum.calls": "count",
    "spectrum.power_spectrum.s": "s",
    "spectrum.generator_sequence.s": "s",
    "spectrum.grid_points": "count",
    "analysis.eigen_spectrum.calls": "count",
    "analysis.eigen_spectrum.s": "s",
    "analysis.eigen_spectrum.dim_max": "count",
    "analysis.effective_correlation.calls": "count",
    "analysis.effective_correlation.s": "s",
    "analysis.icsi.s": "s",
    "response.gain_sweep.calls": "count",
    "response.gain_sweep.s": "s",
    "response.beamforming_vector.calls": "count",
    "response.beamforming_vector.s": "s",
    "outputs.write_csv.calls": "count",
    "outputs.write_csv.s": "s",
    "outputs.bytes": "bytes",
    "outputs.rows": "count",
    "trace.overhead_s": "s",
    "trace.wrapper_s": "s",
}


class Tracer:
    """In-memory span recorder; wrappers are safe to call from threads."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.root_id = None
        # Seconds one wrapper call spends outside its own span.
        self.call_cost = 0.0
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.maxima: dict[str, int] = defaultdict(int)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one ``name`` span per call; ``observe(args,
        kwargs, result)`` runs after the span closes and returns
        ``(counts, distinct_keys, maxima)`` dicts to accumulate."""
        spans, ids, stack_of, now = self.spans, self._ids, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else self.root_id
            stack.append(sid)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans.append((sid, name, start, end, parent, threading.get_ident()))
            if observe is not None:
                self._record(*observe(args, kwargs, result))
            return result

        return traced

    def _record(self, counts: dict, keys: dict, maxima: dict) -> None:
        with self._lock:
            for k, v in counts.items():
                self.counts[k] += v
            for k, v in keys.items():
                self.keys[k].add(v)
            for k, v in maxima.items():
                self.maxima[k] = max(self.maxima[k], v)

    def run_root(self, body):
        """Run ``body()`` inside the main-thread root span; spans opened
        on a thread with an empty stack take the root as parent."""
        def rooted():
            self.root_id = self._stack()[-1]
            return body()

        try:
            return self.wrap("trace.root", rooted)()
        finally:
            self.root_id = None

    def nested(self) -> list[tuple]:
        """Spans whose parent span is on the same thread."""
        thread_of = {sid: tid for sid, _, _, _, _, tid in self.spans}
        return [span for span in self.spans
                if span[4] is not None and thread_of.get(span[4]) == span[5]]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus same-thread child durations and
        the wrapper cost of each such child."""
        out = {sid: end - start for sid, _, start, end, _, _ in self.spans}
        for _, _, start, end, parent, _ in self.nested():
            out[parent] -= end - start + self.call_cost
        return out


def wrapper_cost(calls: int = 5000, repeats: int = 5) -> float:
    """Median over ``repeats`` of the seconds one wrapped no-op call
    takes outside its own span."""
    costs = []
    for _ in range(repeats):
        probe = Tracer()
        noop = probe.wrap("noop", lambda *args: None)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(0)
        total = time.perf_counter() - t0
        inside = sum(end - start for _, _, start, end, _, _ in probe.spans)
        costs.append((total - inside) / calls)
    return max(0.0, statistics.median(costs))


def _geometry_key(geom, *extra) -> str:
    h = hashlib.sha256(geom.positions.tobytes())
    h.update(repr((geom.element_kind.value, geom.wavelength) + extra).encode())
    return h.hexdigest()


def instrument(tracer: Tracer) -> None:
    """Replace every traced holoris function by its span-recording
    wrapper, for the rest of the process."""
    from holoris import analysis, cli, correlation, coupling, response, spectrum
    from holoris.config import ExperimentConfig

    tracer.call_cost = wrapper_cost()

    def patch(owner, attr, name, observe=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), observe))

    from_file = ExperimentConfig.__dict__["from_file"].__func__
    ExperimentConfig.from_file = classmethod(tracer.wrap("config.load", from_file))

    for key, fn in list(cli.SUBCOMMANDS.items()):
        cli.SUBCOMMANDS[key] = tracer.wrap(f"cli.{fn.__name__}", fn)

    def corr_obs(args, kwargs, result):
        geom = args[0]
        return ({"correlation.entries": geom.n * geom.n},
                {"correlation": _geometry_key(geom)}, {})

    def dipole_obs(args, kwargs, result):
        return {}, {"dipoles": _geometry_key(args[0], result.z_self)}, {}

    def spectrum_obs(args, kwargs, result):
        return {"spectrum.grid_points": result.values.size}, {}, {}

    def eigen_obs(args, kwargs, result):
        return {}, {}, {"analysis.eigen_spectrum.dim_max": len(result.values)}

    def csv_obs(args, kwargs, result):
        return ({"outputs.rows": len(args[3]), "outputs.bytes": Path(result).stat().st_size},
                {}, {})

    patch(correlation, "correlation_matrix_isotropic",
          "correlation.correlation_matrix_isotropic", corr_obs)
    patch(coupling, "impedance_matrix_dipoles", "coupling.impedance_matrix_dipoles", dipole_obs)
    patch(coupling, "impedance_matrix_isotropic", "coupling.impedance_matrix_isotropic")
    patch(coupling, "coupling_tx", "coupling.coupling_solve")
    patch(coupling, "coupling_rx", "coupling.coupling_solve")
    patch(coupling, "dipole_mutual_impedance", "coupling.dipole_mutual_impedance")
    patch(coupling, "Si", "specfun.si_ci")
    patch(coupling, "Ci", "specfun.si_ci")
    patch(spectrum, "generator_sequence", "spectrum.generator_sequence")
    patch(spectrum, "power_spectrum", "spectrum.power_spectrum", spectrum_obs)
    patch(analysis, "eigen_spectrum", "analysis.eigen_spectrum", eigen_obs)
    patch(analysis, "effective_correlation", "analysis.effective_correlation")
    patch(analysis, "icsi", "analysis.icsi")
    patch(response, "gain_sweep", "response.gain_sweep")
    patch(response, "beamforming_vector", "response.beamforming_vector")

    patch(cli, "write_csv", "outputs.write_csv", csv_obs)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but trace.overhead_s)."""
    selfs = tracer.self_times()
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _, _ in tracer.spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
        incl_s[name] += end - start

    def ratio(key, name):
        return len(tracer.keys[key]) / calls[name] if calls[name] else 1.0

    m: dict[str, float] = {"config.load_s": self_s["config.load"]}
    runner_names = [f"cli.run_{r}" for r in RUNNERS]
    for name in runner_names:
        m[f"{name}.s"] = incl_s[name]
    m["cli.self_s"] = sum(self_s[n] for n in runner_names)
    m["cli.runner_overlap"] = sum(incl_s[n] for n in runner_names) / wall_s
    for name in ("correlation.correlation_matrix_isotropic",
                 "coupling.impedance_matrix_dipoles", "coupling.impedance_matrix_isotropic",
                 "coupling.coupling_solve", "coupling.dipole_mutual_impedance",
                 "specfun.si_ci", "spectrum.power_spectrum", "analysis.eigen_spectrum",
                 "analysis.effective_correlation", "response.gain_sweep",
                 "response.beamforming_vector", "outputs.write_csv"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = self_s[name]
    m["correlation.correlation_matrix_isotropic.distinct_ratio"] = ratio(
        "correlation", "correlation.correlation_matrix_isotropic")
    m["coupling.impedance_matrix_dipoles.distinct_ratio"] = ratio(
        "dipoles", "coupling.impedance_matrix_dipoles")
    m["correlation.entries"] = int(tracer.counts["correlation.entries"])
    m["spectrum.generator_sequence.s"] = self_s["spectrum.generator_sequence"]
    m["spectrum.grid_points"] = int(tracer.counts["spectrum.grid_points"])
    m["analysis.eigen_spectrum.dim_max"] = tracer.maxima["analysis.eigen_spectrum.dim_max"]
    m["analysis.icsi.s"] = self_s["analysis.icsi"]
    m["outputs.bytes"] = int(tracer.counts["outputs.bytes"])
    m["outputs.rows"] = int(tracer.counts["outputs.rows"])
    m["trace.wrapper_s"] = tracer.call_cost * len(tracer.nested())
    return m


def thread_balance(tracer: Tracer) -> dict[int, tuple[float, float]]:
    """Per thread: (sum of self times plus the wrapper cost taken off
    them, sum of its top-level span durations).  The two agree when
    every span nests properly."""
    selfs = tracer.self_times()
    nested = {span[0] for span in tracer.nested()}
    out: dict[int, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for sid, _, start, end, _, tid in tracer.spans:
        out[tid][0] += selfs[sid]
        if sid in nested:
            out[tid][0] += tracer.call_cost
        else:
            out[tid][1] += end - start
    return {tid: (a, b) for tid, (a, b) in out.items()}
