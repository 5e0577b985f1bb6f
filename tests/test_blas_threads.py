"""The OpenBLAS thread count each runner of ``cli.run`` sees: one thread
for every runner but ``eigen``, which keeps the caller's count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from holoris import ConfigError, ExperimentConfig, cli
from holoris.cli import run

from test_cli import FAST_CONFIG

BLAS = cli._openblas()
needs_openblas = pytest.mark.skipif(
    BLAS is None, reason="numpy bundles no OpenBLAS whose thread count can be read")
CALLER = 2  # the caller's count in these tests, so that a pin to one thread shows


@pytest.fixture()
def fast_cfg():
    return ExperimentConfig.from_dict(FAST_CONFIG)


@pytest.fixture()
def caller_threads():
    """OpenBLAS set to ``CALLER`` threads for the test, the count before
    it restored after."""
    get, set_ = BLAS
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
    seen = []
    for name, fn in list(cli.SUBCOMMANDS.items()):
        def counted(cfg, outdir, fn=fn, **kwargs):
            seen.append(BLAS[0]())
            return fn(cfg, outdir, **kwargs)
        monkeypatch.setitem(cli.SUBCOMMANDS, name, counted)
    unpinned = run("reproduce-all", fast_cfg, tmp_path / "unpinned")
    assert seen == [CALLER] * (len(cli.SUBCOMMANDS) - 1)
    assert [p.name for p in unpinned] == [p.name for p in pinned]
    for a, b in zip(pinned, unpinned):
        assert a.read_bytes() == b.read_bytes(), a.name


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
