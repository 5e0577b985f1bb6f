"""The OpenBLAS thread count each runner of ``cli.run`` sees: one thread
for every runner but ``eigen``, which keeps the caller's count; and the
park of the OpenBLAS worker threads as each runner starts and ends."""

import contextlib
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from holoris import ConfigError, ExperimentConfig, cli
from holoris.cli import run

from test_cli import FAST_CONFIG

BLAS = cli._openblas()
needs_openblas = pytest.mark.skipif(
    BLAS is None, reason="numpy bundles no OpenBLAS whose thread count can be read")
needs_proc = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                reason="the threads of the process cannot be counted")
CALLER = 2  # the caller's count in these tests, so that a pin to one thread shows
CDLL = ctypes.CDLL  # the real loader, for WithoutPark while tests replace it


@pytest.fixture()
def fast_cfg():
    return ExperimentConfig.from_dict(FAST_CONFIG)


@pytest.fixture()
def caller_threads():
    """OpenBLAS set to ``CALLER`` threads for the test, the count before
    it restored after."""
    get, set_, _ = BLAS
    before = get()
    set_(CALLER)
    yield
    set_(before)


def record_counts(monkeypatch, raise_in=None):
    """Replace every runner by one that records the OpenBLAS count it
    sees by name (and raises ``ConfigError`` when it is ``raise_in``)."""
    seen = {}
    for name in cli.SUBCOMMANDS:
        def record(cfg, outdir, name=name, icsi=False):
            seen[name] = BLAS[0]()
            if name == raise_in:
                raise ConfigError(f"{name} failed")
            return [outdir / name]
        monkeypatch.setitem(cli.SUBCOMMANDS, name, record)
    return seen


def expected(name):
    return CALLER if name == "eigen" else 1


def count_runs(monkeypatch):
    """Wrap every runner so that it records the OpenBLAS count it sees,
    in call order, and then runs."""
    seen = []
    for name, fn in list(cli.SUBCOMMANDS.items()):
        def counted(cfg, outdir, fn=fn, **kwargs):
            seen.append(BLAS[0]())
            return fn(cfg, outdir, **kwargs)
        monkeypatch.setitem(cli.SUBCOMMANDS, name, counted)
    return seen


def threads():
    return len(os.listdir("/proc/self/task"))


class WithoutPark:
    """``ctypes.CDLL`` of an OpenBLAS that exports no
    ``blas_thread_shutdown_``."""

    def __init__(self, path):
        self._lib = CDLL(path)

    def __getattr__(self, name):
        if name == "blas_thread_shutdown_":
            raise AttributeError(name)
        return getattr(self._lib, name)


@pytest.fixture()
def lookup_again():
    """``cli._openblas`` looked up again in the test, and after it."""
    cli._openblas.cache_clear()
    yield
    cli._openblas.cache_clear()


class FakeBlas:
    """An ``_openblas()`` result, with every runner replaced, that logs
    in order each count set, each park and each runner's call with the
    count it sees (the runner ``raise_in`` then raises ``ConfigError``)."""

    def __init__(self, monkeypatch, raise_in=None):
        self.count, self.log = CALLER, []
        monkeypatch.setattr(cli, "_openblas", lambda: (self.get, self.set, self.park))
        for name in cli.SUBCOMMANDS:
            def runner(cfg, outdir, name=name, icsi=False):
                self.log.append((name, self.count))
                if name == raise_in:
                    raise ConfigError(f"{name} failed")
                return [outdir / name]
            monkeypatch.setitem(cli.SUBCOMMANDS, name, runner)

    def get(self):
        return self.count

    def set(self, count):
        self.count = count
        self.log.append(("set", count))

    def park(self):
        self.log.append("park")
        return 0


def parked_log(name):
    """``FakeBlas``'s log of the runner ``name``: the count set before the
    park on entry, and restored before the park on exit (a count set
    starts parked workers again)."""
    if name == "eigen":
        return ["park", (name, CALLER), "park"]
    return [("set", 1), "park", (name, 1), ("set", CALLER), "park"]


@pytest.mark.parametrize("subcommand, raise_in", [
    *((name, None) for name in [*cli.SUBCOMMANDS, "reproduce-all"]),
    ("gain", "gain"), ("eigen", "eigen"), ("reproduce-all", "mc-eigen"),
])
def test_park_order(subcommand, raise_in, fast_cfg, tmp_path, monkeypatch):
    fake = FakeBlas(monkeypatch, raise_in)
    # mc-eigen writes the icsi tables, so the icsi runner is not called
    names = ([name for name in cli.SUBCOMMANDS if name != "icsi"]
             if subcommand == "reproduce-all" else [subcommand])
    if raise_in is not None:
        names = names[:names.index(raise_in) + 1]
    with (pytest.raises(ConfigError, match=f"{raise_in} failed") if raise_in
          else contextlib.nullcontext()):
        run(subcommand, fast_cfg, tmp_path)
    assert fake.log == [entry for name in names for entry in parked_log(name)]


@needs_openblas
@pytest.mark.parametrize("subcommand", list(cli.SUBCOMMANDS))
def test_each_runner_alone(subcommand, caller_threads, fast_cfg, tmp_path, monkeypatch):
    seen = record_counts(monkeypatch)
    run(subcommand, fast_cfg, tmp_path)
    assert seen == {subcommand: expected(subcommand)}
    assert BLAS[0]() == CALLER


@needs_openblas
def test_reproduce_all(caller_threads, fast_cfg, tmp_path, monkeypatch):
    seen = record_counts(monkeypatch)
    run("reproduce-all", fast_cfg, tmp_path)
    # mc-eigen writes the icsi tables, so the icsi runner is not called
    assert seen == {name: expected(name) for name in cli.SUBCOMMANDS if name != "icsi"}
    assert BLAS[0]() == CALLER


@needs_openblas
@pytest.mark.parametrize("subcommand", ["gain", "eigen", "reproduce-all"])
def test_count_restored_when_a_runner_raises(subcommand, caller_threads, fast_cfg, tmp_path,
                                             monkeypatch):
    failing = "mc-eigen" if subcommand == "reproduce-all" else subcommand
    seen = record_counts(monkeypatch, raise_in=failing)
    with pytest.raises(ConfigError, match=f"{failing} failed"):
        run(subcommand, fast_cfg, tmp_path)
    assert seen[failing] == expected(failing)
    assert BLAS[0]() == CALLER


@needs_openblas
def test_without_openblas_runs_as_before(caller_threads, fast_cfg, tmp_path, monkeypatch):
    """With the lookup finding nothing, every runner sees the caller's
    count and the files are those of a pinned run."""
    pinned = run("reproduce-all", fast_cfg, tmp_path / "pinned")
    monkeypatch.setattr(cli, "_openblas", lambda: None)
    seen = count_runs(monkeypatch)
    unpinned = run("reproduce-all", fast_cfg, tmp_path / "unpinned")
    assert seen == [CALLER] * (len(cli.SUBCOMMANDS) - 1)
    assert [p.name for p in unpinned] == [p.name for p in pinned]
    for a, b in zip(pinned, unpinned):
        assert a.read_bytes() == b.read_bytes(), a.name


@needs_openblas
def test_without_the_park_pins_only(caller_threads, lookup_again, fast_cfg, tmp_path,
                                    monkeypatch):
    """A library without ``blas_thread_shutdown_`` still pins every runner
    but ``eigen``, and the files are those of a parked run."""
    parked = run("reproduce-all", fast_cfg, tmp_path / "parked")
    monkeypatch.setattr(ctypes, "CDLL", WithoutPark)
    cli._openblas.cache_clear()
    seen = count_runs(monkeypatch)
    pinned = run("reproduce-all", fast_cfg, tmp_path / "pinned")
    assert seen == [expected(name) for name in cli.SUBCOMMANDS if name != "icsi"]
    assert [p.name for p in pinned] == [p.name for p in parked]
    for a, b in zip(parked, pinned):
        assert a.read_bytes() == b.read_bytes(), a.name


@needs_openblas
@needs_proc
@pytest.mark.parametrize("park", [True, False])
def test_a_runner_parks_the_workers(park, caller_threads, lookup_again, fast_cfg, tmp_path,
                                    monkeypatch):
    """After a threaded eigensolve, ``spectrum`` leaves fewer threads, its
    OpenBLAS workers parked, and the next threaded call starts them
    again; a library without the park leaves the workers alive."""
    if not park:
        monkeypatch.setattr(ctypes, "CDLL", WithoutPark)
    a = np.random.default_rng(0).standard_normal((400, 400))
    np.linalg.eigvalsh(a + a.T)
    before = threads()
    run("spectrum", fast_cfg, tmp_path)
    parked = BLAS[0]() - 1 if park else 0  # the caller's thread is no worker
    assert threads() == before - parked
    np.linalg.eigvalsh(a + a.T)
    assert threads() == before


def test_coupling_files_do_not_depend_on_the_thread_count(tmp_path):
    """``mc-eigen`` and ``gain`` on the packaged config at 1/16
    wavelength (N = 520) write the same bytes in the inherited
    environment and with ``OPENBLAS_NUM_THREADS=1``."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"sweep": {"spacings": [0.0625]}}))
    src = Path(__file__).resolve().parent.parent / "src"
    outs = {}
    for label, extra in (("inherited", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        outs[label] = tmp_path / label
        for sub in ("mc-eigen", "gain"):
            result = subprocess.run(
                [sys.executable, "-m", "holoris.cli", sub, "--config", str(cfg),
                 "--out", str(outs[label])],
                capture_output=True, text=True, timeout=300,
                env={**os.environ, "PYTHONPATH": str(src), **extra})
            assert result.returncode == 0, result.stderr
    names = sorted(p.name for p in outs["one"].iterdir())
    assert names == sorted(p.name for p in outs["inherited"].iterdir())
    assert any(name.startswith("fig8_") for name in names)
    differ = [name for name in names
              if (outs["one"] / name).read_bytes() != (outs["inherited"] / name).read_bytes()]
    assert differ == []


def test_threaded_fig3_files_do_not_depend_on_the_park(tmp_path):
    """At ``OPENBLAS_NUM_THREADS=2``, the fig3 files of ``reproduce-all``,
    where ``eigen`` starts the workers that ``correlation`` parked, are
    those of ``eigen`` run alone."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"sweep": {"spacings": [0.5], "gain_spacings": [0.5]}}))
    src = Path(__file__).resolve().parent.parent / "src"
    for sub in ("eigen", "reproduce-all"):
        result = subprocess.run(
            [sys.executable, "-m", "holoris.cli", sub, "--config", str(cfg),
             "--out", str(tmp_path / sub)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "2"})
        assert result.returncode == 0, result.stderr
    names = sorted(p.name for p in (tmp_path / "eigen").iterdir())
    assert len(names) == 5 and all(name.startswith("fig3_") for name in names)
    differ = [name for name in names if (tmp_path / "eigen" / name).read_bytes()
              != (tmp_path / "reproduce-all" / name).read_bytes()]
    assert differ == []
