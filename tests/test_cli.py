import copy
import dataclasses
import importlib.resources
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holoris import ConfigError, ExperimentConfig, cli, config
from holoris.cli import main, run

FAST_CONFIG = {
    "sweep": {
        "spacings": [0.5],
        "gain_spacings": [0.5],
        "eigen_aperture": 4.0,
        "eigen_spacings": [0.5],
        "azimuth_points": 19,
        "correlation_points": 9,
    }
}


SCHEMA = json.loads((importlib.resources.files("holoris.data") / "config_schema.json").read_text())
SCHEMA_VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)

# values a config edit puts in place: wrong types, out-of-range numbers,
# whole-number floats, short, long and empty lists, objects
EDGE_VALUES = [None, True, "many", 181.0, 2.0, 1.0, 0.0, -0.0, -1.0, 0.5, 1.5, -0.5, 180.5,
               190, 2, 0, -3, [], [50.0], [73.1, 0.0], [1.0, 2.0, 3.0], ["a", 1], {}, {"x": 1}]
EDIT_VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES).map(copy.deepcopy), st.integers(-3, 300), st.floats(),
    st.text(max_size=3), st.lists(st.floats(-100.0, 400.0), max_size=3),
    st.sampled_from(["isotropic", "dipole"]),
)


def config_nodes(cfg, path=()):
    """(path, value) of the root and of every value inside it."""
    yield path, cfg
    items = cfg.items() if isinstance(cfg, dict) else enumerate(cfg) if isinstance(cfg, list) else ()
    for key, value in items:
        yield from config_nodes(value, path + (key,))


def replaced(cfg, path, value):
    """``cfg`` with the value at ``path`` replaced (edited in place)."""
    if not path:
        return value
    parent = cfg
    for part in path[:-1]:
        parent = parent[part]
    parent[path[-1]] = value
    return cfg


def mutated_default_config(data):
    """The default config after 1-4 edits, each drawn from ``data``: set a
    value anywhere (the root too), add keys to an object, grow or shrink
    a list, or drop a key."""
    cfg = config.default_config_dict()
    for _ in range(data.draw(st.integers(1, 4))):
        if not isinstance(cfg, dict):
            break
        edit, kind = data.draw(st.sampled_from(
            [("set", object), ("add", dict), ("resize", list), ("drop", dict)]))
        nodes = [(path, node) for path, node in config_nodes(cfg)
                 if isinstance(node, kind) and (node or edit != "drop")]
        if not nodes:
            continue
        path, node = data.draw(st.sampled_from(nodes))
        if edit == "set":
            cfg = replaced(cfg, path, data.draw(EDIT_VALUES))
        elif edit == "add":
            keys = st.lists(st.sampled_from(["zz", "extra", "geomtry", "Zz", "aa"]),
                            min_size=1, max_size=3, unique=True)
            node.update(dict.fromkeys(data.draw(keys), 1))
        elif edit == "resize" and node and data.draw(st.booleans()):
            node.pop()
        elif edit == "resize":
            node.append(data.draw(EDIT_VALUES))
        else:
            del node[data.draw(st.sampled_from(sorted(node)))]
    return cfg


def best_match(cfg):
    """(path, message) of the error jsonschema reports for ``cfg``, or None."""
    best = jsonschema.exceptions.best_match(SCHEMA_VALIDATOR.iter_errors(cfg))
    return None if best is None else (tuple(best.absolute_path), best.message)


def read_csv(path):
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        parts = line.split(",")
        if header is None:
            header = parts
        else:
            rows.append(parts)
    return header, rows


@pytest.fixture()
def fast_cfg():
    return ExperimentConfig.from_dict(FAST_CONFIG)


class TestConfig:
    def test_default_valid(self):
        cfg = ExperimentConfig.default()
        assert cfg.geometry.aperture_x == 4.0
        assert cfg.impedance.z_antenna == 73.1 + 42.5j
        assert cfg.sweep.spacings == (0.5, 0.25, 0.125)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"geomtry": {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"geometry": {"apertures": 4.0}})

    def test_bad_type_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"sweep": {"azimuth_points": "many"}})

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"geometry": {"spacing_x": -0.5}})

    def test_touching_dipole_rows_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"geometry": {"dipole_rows": 2, "dipole_gap": 0}})
        cfg = ExperimentConfig.from_dict({"geometry": {"dipole_rows": 1, "dipole_gap": 0}})
        assert cfg.geometry.dipole_rows == 1

    def test_bad_r_iso_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"impedance": {"r_iso": [73.1, 5.0]}})

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{ not json ")
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_file(p)
        assert "line" in str(err.value)

    def test_non_finite_numbers_rejected(self, tmp_path):
        # JSON NaN fails no bound of the schema, and Infinity only some
        cfg_path = tmp_path / "cfg.json"
        paths = [path for path, value in config_nodes(config.default_config_dict())
                 if isinstance(value, (int, float)) and not isinstance(value, bool)]
        assert len(paths) > 20
        for path in paths:
            for text in ("NaN", "Infinity", "-Infinity"):
                cfg_path.write_text(json.dumps(
                    replaced(config.default_config_dict(), path, float(text))))
                assert text in cfg_path.read_text()
                where = "/".join(map(str, path))
                with pytest.raises(ConfigError, match=f"config invalid at {where}:"):
                    ExperimentConfig.from_file(cfg_path)

    def test_block_fields_are_the_schema_and_default_keys(self):
        # each block is built from its dataclass fields, so a schema key
        # with no field would be dropped without a word
        defaults = config.default_config_dict()
        blocks = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
        assert list(blocks) == list(SCHEMA["properties"]) == list(defaults)
        for name, cls in blocks.items():
            fields = [f.name for f in dataclasses.fields(cls)]
            ignored = ["formats"] if name == "output" else []  # accepted and ignored
            assert fields + ignored == list(SCHEMA["properties"][name]["properties"])
            assert fields + ignored == list(defaults[name])

    def test_output_formats_key_still_accepted(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**FAST_CONFIG, "output": {"formats": ["csv"]}}))
        assert main(["icsi", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "table1_icsi_tx.csv").exists()

    def test_geometry_build_spacing_override(self):
        cfg = ExperimentConfig.default()
        g = cfg.geometry.build(spacing_x=0.125)
        assert g.n == 264

    def test_packaged_schema_is_valid_and_uses_only_walker_keywords(self):
        jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)
        annotations = {"$schema", "title", "description", "$defs"}
        subschemas = [SCHEMA]
        while subschemas:
            sub = subschemas.pop()
            assert not set(sub) - config._KEYWORDS - annotations, sub
            assert sub.get("additionalProperties", False) is False
            assert sub.get("type", "object") in config._TYPES
            assert sub.get("$ref", "#/$defs/").startswith("#/$defs/")
            subschemas.extend(sub.get("properties", {}).values())
            subschemas.extend(sub.get("$defs", {}).values())
            subschemas.extend([sub["items"]] if "items" in sub else [])

    def test_schema_walker_matches_jsonschema_on_every_single_edit(self):
        for path, _ in config_nodes(config.default_config_dict()):
            for value in EDGE_VALUES:
                cfg = replaced(config.default_config_dict(), path, value)
                assert config._schema_error(cfg) == best_match(cfg), (path, value)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_schema_walker_matches_jsonschema_best_match(self, data):
        cfg = mutated_default_config(data)
        assert config._schema_error(cfg) == best_match(cfg)

    @pytest.mark.parametrize("key, value", [
        ("sweep/azimuth_points", 19), ("sweep/correlation_points", 9), ("geometry/dipole_rows", 8),
    ])
    def test_whole_floats_for_integers_write_the_same_files(self, key, value, tmp_path):
        block, name = key.split("/")
        for form in (value, float(value)):
            cfg = json.loads(json.dumps(FAST_CONFIG))
            cfg.setdefault(block, {})[name] = form
            cfg_path = tmp_path / f"{form!r}.json"
            cfg_path.write_text(json.dumps(cfg))
            assert main(["reproduce-all", "--config", str(cfg_path),
                         "--out", str(tmp_path / repr(form))]) == 0
        names = sorted(p.name for p in (tmp_path / repr(value)).iterdir())
        assert names == sorted(p.name for p in (tmp_path / repr(float(value))).iterdir())
        for n in names:
            assert ((tmp_path / repr(value) / n).read_bytes()
                    == (tmp_path / repr(float(value)) / n).read_bytes()), n

    @pytest.mark.parametrize("data", [
        {"geomtry": {}},
        {"geometry": {"apertures": 4.0}},
        {"geometry": {"spacing_x": -0.5, "dipole_rows": 0}},
        {"sweep": {"azimuth_points": "many", "spacings": "none"}},
        {"impedance": {"model": "patch", "z_source": [50.0]}},
        {"output": {"directory": 3}},
        [],
    ])
    def test_config_error_text_matches_jsonschema_validate(self, data):
        ref = importlib.resources.files("holoris.data") / "config_schema.json"
        with pytest.raises(jsonschema.ValidationError) as old:
            jsonschema.validate(data, json.loads(ref.read_text()))
        path = "/".join(str(p) for p in old.value.absolute_path) or "<root>"
        with pytest.raises(ConfigError) as new:
            ExperimentConfig.from_dict(data)
        assert str(new.value) == f"config invalid at {path}: {old.value.message}"


class TestSubcommands:
    def test_icsi_outputs(self, fast_cfg, tmp_path):
        paths = run("icsi", fast_cfg, tmp_path)
        names = {p.name for p in paths}
        assert names == {"table1_icsi_tx.csv", "table2_icsi_rx.csv"}
        header, rows = read_csv(tmp_path / "table1_icsi_tx.csv")
        assert header[0] == "spacing_wavelengths"
        assert header[1] == "no_mc"
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(0.0495, abs=0.005)
        # matched-source column reproduces the transmit table value
        assert float(rows[0][2]) == pytest.approx(0.0927, abs=0.01)

    def test_gain_no_mc_reference_is_flat(self, fast_cfg, tmp_path):
        run("gain", fast_cfg, tmp_path)
        header, rows = read_csv(tmp_path / "fig7_gain_dx0p5_no_mc_reference.csv")
        assert header == ["phi_deg", "gain", "gain_db"]
        gains = np.array([float(r[1]) for r in rows])
        assert len(gains) == 19
        assert np.allclose(gains, 72.0, rtol=1e-9)

    def test_spectrum_sum_check(self, fast_cfg, tmp_path):
        run("spectrum", fast_cfg, tmp_path)
        header, rows = read_csv(tmp_path / "fig5_sum_check.csv")
        sums = [float(r[header.index("sum_g")]) for r in rows]
        assert all(abs(s - 1.0) <= 1e-9 for s in sums)

    def test_correlation_surface(self, fast_cfg, tmp_path):
        run("correlation", fast_cfg, tmp_path)
        header, rows = read_csv(tmp_path / "fig2_correlation.csv")
        assert len(rows) == 81
        first = rows[0]
        assert float(first[2]) == pytest.approx(1.0)  # zero separation

    def test_eigen_summary(self, fast_cfg, tmp_path):
        run("eigen", fast_cfg, tmp_path)
        header, rows = read_csv(tmp_path / "fig3_summary.csv")
        row = rows[0]
        assert int(row[header.index("n_elements")]) == 81
        assert int(row[header.index("asymptotic_dof")]) == 51

    def test_mc_eigen_files(self, fast_cfg, tmp_path):
        paths = run("mc-eigen", fast_cfg, tmp_path)
        names = {p.name for p in paths}
        assert "fig8_tx_dx0p5_no_mc.csv" in names
        assert "fig9_rx_dx0p5_zl_73p1_m42p5.csv" in names
        assert "fig10_rx_dx0p5_isotropic.csv" in names
        assert {"matrix_z.csv", "matrix_ct.csv", "matrix_cr.csv"} <= names

    def test_matrix_exports_round_trip(self, fast_cfg, tmp_path):
        import holoris
        run("mc-eigen", fast_cfg, tmp_path)
        header, rows = read_csv(tmp_path / "matrix_z.csv")
        assert header == ["row", "col", "re", "im"]
        n = int(math.isqrt(len(rows)))
        assert n * n == len(rows) == 72 * 72
        values = np.array([complex(float(r[2]), float(r[3])) for r in rows])
        z = values.reshape(n, n)
        geom = fast_cfg.geometry.build()
        expected = holoris.impedance_matrix_dipoles(geom).values
        assert np.allclose(z, expected, rtol=1e-10)

    def test_mc_eigen_builds_each_impedance_matrix_once(self, fast_cfg, tmp_path,
                                                        monkeypatch):
        from holoris import coupling
        builds = []
        build = coupling.impedance_matrix_dipoles

        def counting(geom, *args, **kwargs):
            builds.append(geom.n)
            return build(geom, *args, **kwargs)

        monkeypatch.setattr(coupling, "impedance_matrix_dipoles", counting)
        run("mc-eigen", fast_cfg, tmp_path)
        # one per swept spacing, one for the matrix exports
        assert len(builds) == len(fast_cfg.sweep.spacings) + 1 == 2

    @pytest.mark.parametrize("subcommand, assembled", [("gain", 0), ("icsi", 0),
                                                       ("mc-eigen", 2)])
    def test_dense_coupling_assembled_only_for_matrix_exports(
            self, subcommand, assembled, fast_cfg, tmp_path, monkeypatch):
        from holoris import ParityBlocks
        calls = []
        dense = ParityBlocks.dense
        monkeypatch.setattr(ParityBlocks, "dense", lambda self: calls.append(self) or dense(self))
        run(subcommand, fast_cfg, tmp_path)
        # mc-eigen: matrix_ct.csv and matrix_cr.csv need every entry of C
        assert len(calls) == assembled

    def test_eigen_builds_no_dense_correlation_matrix(self, tmp_path, monkeypatch):
        import tracemalloc
        from holoris import cli, correlation
        calls = []
        build = correlation.correlation_matrix_isotropic

        def recording(geom):
            r0 = build(geom)
            calls.append((geom.n, r0.blocks._kept is None))
            return r0

        monkeypatch.setattr(correlation, "correlation_matrix_isotropic", recording)
        cfg = ExperimentConfig.from_dict({"sweep": {"eigen_aperture": 10.0,
                                                    "eigen_spacings": [0.5, 0.25]}})
        n = 41 * 41
        tracemalloc.start()
        try:
            cli.run_eigen(cfg, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one lazy build per eigen spacing, through the traced constructor
        assert calls == [(21 * 21, True), (n, True)]
        # one dense N x N float64 matrix would be n * n * 8 bytes
        assert peak < 0.75 * n * n * 8
        _, rows = read_csv(tmp_path / "fig3_summary.csv")
        assert [int(row[1]) for row in rows] == [21 * 21, n]

    @pytest.mark.parametrize("subcommand", ["mc-eigen", "icsi"])
    def test_coupling_study_gathers_each_r0_block_once_per_spacing(self, subcommand, tmp_path,
                                                                   monkeypatch):
        from holoris import ParityBlocks, correlation
        from holoris.geometry import _TableBlocks

        class RecordingTableBlocks(_TableBlocks):
            def __getitem__(self, k):
                block = super().__getitem__(k)  # past the end: IndexError, no read
                self.reads.append(k)
                return block

        built = []
        build = correlation.correlation_matrix_isotropic

        def recording(geom):
            blocks = RecordingTableBlocks(build(geom).table, geom)
            blocks.reads = []
            built.append(blocks)
            return ParityBlocks(blocks, geom)

        monkeypatch.setattr(correlation, "correlation_matrix_isotropic", recording)
        cfg = ExperimentConfig.from_dict({"sweep": {**FAST_CONFIG["sweep"],
                                                    "spacings": [0.5, 0.25]}})
        run(subcommand, cfg, tmp_path)
        assert len(built) == 2
        assert [b.reads for b in built] == [list(range(len(b))) for b in built]

    def test_coupling_study_solves_no_table_backed_matrix(self, fast_cfg, tmp_path,
                                                          monkeypatch):
        from holoris import analysis
        from holoris.geometry import as_blocks
        backed = []  # whether each call's matrix is table-backed
        for name in ("eigen_spectrum", "icsi"):
            def recording(r, *args, fn=getattr(analysis, name), **kwargs):
                backed.append(as_blocks(r).table is not None)
                return fn(r, *args, **kwargs)
            monkeypatch.setattr(analysis, name, recording)
        cli.run_mc_eigen(fast_cfg, tmp_path, icsi=True)
        # spectra: the no_mc case, three port cases a side and fig10's isotropic
        # case; ICSI cells: the no_mc case and three port cases a side
        assert backed == [False] * ((1 + 2 * 3 + 1) + (1 + 2 * 3))

    def test_correlation_matrix_export(self, fast_cfg, tmp_path):
        run("correlation", fast_cfg, tmp_path)
        header, rows = read_csv(tmp_path / "matrix_r0.csv")
        diag = [float(r[2]) for r in rows if r[0] == r[1]]
        assert len(diag) == 72
        assert all(abs(v - 1.0) < 1e-12 for v in diag)
        assert all(float(r[3]) == 0.0 for r in rows[:200])

    def test_reproduce_all_and_determinism(self, fast_cfg, tmp_path):
        first = run("reproduce-all", fast_cfg, tmp_path / "a")
        again = run("reproduce-all", fast_cfg, tmp_path / "b")
        by_name_a = {p.name: p for p in first}
        by_name_b = {p.name: p for p in again}
        assert set(by_name_a) == set(by_name_b)
        for name, pa in by_name_a.items():
            assert pa.read_bytes() == by_name_b[name].read_bytes(), name

    def test_reproduce_all_runs_in_order_on_calling_thread(self, fast_cfg, tmp_path,
                                                           monkeypatch):
        calls = []
        for name in cli.SUBCOMMANDS:
            def record(cfg, outdir, name=name, icsi=False):
                calls.append((name, threading.get_ident(), icsi))
                return [outdir / name] + ([outdir / "icsi"] if icsi else [])
            monkeypatch.setitem(cli.SUBCOMMANDS, name, record)
        paths = run("reproduce-all", fast_cfg, tmp_path)
        # the mc-eigen runner writes the icsi tables in its own pass, so
        # the icsi runner is not called
        assert list(cli.SUBCOMMANDS)[-2:] == ["mc-eigen", "icsi"]
        assert calls == [(name, threading.get_ident(), name == "mc-eigen")
                         for name in cli.SUBCOMMANDS if name != "icsi"]
        assert paths == [tmp_path / name for name in cli.SUBCOMMANDS]

    def test_reproduce_all_builds_each_coupling_case_once(self, fast_cfg, tmp_path,
                                                          monkeypatch):
        from holoris import ElementKind, analysis, coupling
        counts = {"z": 0, "solve": 0, "effective": 0}
        for owner, attr, key in ((coupling, "impedance_matrix_dipoles", "z"),
                                 (coupling, "coupling_tx", "solve"),
                                 (coupling, "coupling_rx", "solve"),
                                 (analysis, "effective_correlation", "effective")):
            def counted(*args, fn=getattr(owner, attr), key=key, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, attr, counted)
        run("reproduce-all", fast_cfg, tmp_path)
        s, imp = fast_cfg.sweep, fast_cfg.impedance
        assert imp.model == "dipole"
        cases = len(imp.z_source_cases) + len(imp.z_load_cases)
        # fig10: receive solves at matched load for dipole and isotropic
        # elements; the dipole curve is the fig9 case of that load, if any
        fig10 = 0
        if fast_cfg.geometry.element_kind is ElementKind.HALF_WAVE_DIPOLE:
            fig10 = 2 - (imp.z_antenna.conjugate() in imp.z_load_cases)
        assert fig10 == 1
        # per swept spacing, then the matrix exports, then per gain spacing
        assert counts == {
            "z": len(s.spacings) + 1 + len(s.gain_spacings),
            "solve": len(s.spacings) * (cases + fig10) + 2 + len(s.gain_spacings),
            "effective": len(s.spacings) * (cases + fig10),
        }

    def test_reproduce_all_matches_subcommands_run_one_by_one(self, fast_cfg, tmp_path):
        together = run("reproduce-all", fast_cfg, tmp_path / "all")
        apart = [path for name in cli.SUBCOMMANDS for path in run(name, fast_cfg, tmp_path / "one")]
        assert ([p.relative_to(tmp_path / "all") for p in together]
                == [p.relative_to(tmp_path / "one") for p in apart])
        names = sorted(p.name for p in (tmp_path / "all").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "one").iterdir())
        for name in names:
            assert ((tmp_path / "all" / name).read_bytes()
                    == (tmp_path / "one" / name).read_bytes()), name

    def test_unknown_subcommand(self, fast_cfg, tmp_path):
        with pytest.raises(ConfigError):
            run("frobnicate", fast_cfg, tmp_path)


class TestMain:
    def test_exit_code_ok(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(FAST_CONFIG))
        code = main(["icsi", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "table1_icsi_tx.csv" in out

    def test_exit_code_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{\"unknown\": 1}")
        code = main(["icsi", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_exit_code_touching_dipole_stack(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**FAST_CONFIG, "geometry": {
            "element_kind": "half_wave_dipole", "dipole_rows": 2, "dipole_gap": 0}}))
        code = main(["icsi", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "touch" in capsys.readouterr().err
        assert not (tmp_path / "o" / "table1_icsi_tx.csv").exists()

    def test_exit_code_load_cancelling_self_impedance(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**FAST_CONFIG,
                                        "impedance": {"z_load_cases": [[-73.1, -42.5]]}}))
        code = main(["mc-eigen", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "z_load" in capsys.readouterr().err
        assert not (tmp_path / "o" / "fig9_rx_dx0p5_zl_m73p1_m42p5.csv").exists()

    @pytest.mark.parametrize("impedance", [
        {"z_antenna": [0.0, 0.0]},
        # gain reads z_source, mc-eigen and icsi sweep z_source_cases
        {"z_source": [-73.1, -42.5], "z_source_cases": [[-73.1, -42.5]]},
    ], ids=["zero_self_impedance", "source_cancelling_self_impedance"])
    @pytest.mark.parametrize("subcommand", ["gain", "mc-eigen", "icsi"])
    def test_exit_code_undefined_transmit_normalization(self, tmp_path, capsys, subcommand,
                                                        impedance):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**FAST_CONFIG, "impedance": impedance}))
        code = main([subcommand, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: z_self") and "Traceback" not in err

    @pytest.mark.parametrize("subcommand, edit", [
        ("correlation", {"sweep": {"correlation_max_separation": math.nan}}),
        ("mc-eigen", {"geometry": {"spacing_x": math.nan}}),
    ])
    def test_exit_code_non_finite_number(self, tmp_path, capsys, subcommand, edit):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(edit))
        code = main([subcommand, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "is not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # no fig2_correlation.csv of nan rows

    @pytest.mark.parametrize("edit, where", [
        ({"sweep": {"eigen_spacings": [0.7]}}, "sweep/eigen_spacings/0"),
        ({"sweep": {"gain_spacings": [0.5, 0.3]}}, "sweep/gain_spacings/1"),
        ({"sweep": {"spacings": [0.3]}}, "sweep/spacings/0"),
        ({"geometry": {"spacing_x": 0.3}}, "geometry/spacing_x"),
        ({"geometry": {"element_kind": "isotropic", "spacing_z": 0.3},
          "impedance": {"model": "isotropic"}}, "geometry/spacing_z"),
    ])
    def test_exit_code_non_integral_aperture_ratio(self, tmp_path, capsys, edit, where):
        # rejected at load, so no runner writes a file first
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(edit))
        code = main(["reproduce-all", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config invalid at {where}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand, block, key, entries", [
        ("icsi", "sweep", "spacings", [0.5, 0.5]),
        ("gain", "sweep", "gain_spacings", [0.5, 0.5]),
        ("eigen", "sweep", "eigen_spacings", [0.5, 0.5]),
        ("icsi", "impedance", "z_source_cases", [[50, 0], [50, 0]]),
        # two values, one file label: zl_50_0
        ("mc-eigen", "impedance", "z_load_cases", [[50, 0], [50.0000000000001, 0]]),
    ])
    def test_exit_code_duplicate_file_label(self, tmp_path, capsys, subcommand, block, key,
                                            entries):
        # the repeat would overwrite the first entry's CSVs or repeat its ICSI column
        cfg_path = tmp_path / "cfg.json"
        edit = copy.deepcopy(FAST_CONFIG)
        edit.setdefault(block, {})[key] = entries
        cfg_path.write_text(json.dumps(edit))
        code = main([subcommand, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert (f"config invalid at {block}/{key}/1: {entries[1]!r} has the file label "
                "of entry 0") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_spacing_z_of_a_dipole_stack_is_not_checked(self):
        # the stack's vertical spacing is half a wavelength plus the gap
        cfg = ExperimentConfig.from_dict({"geometry": {"spacing_z": 0.3}})
        assert cfg.geometry.build().nz == 8

    def test_jobs_flag_changes_nothing(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(FAST_CONFIG))
        outs = {}
        for label, extra in (("plain", []), ("jobs", ["--jobs", "4"])):
            out = tmp_path / label
            assert main(["reproduce-all", "--config", str(cfg_path), "--out", str(out)]
                        + extra) == 0
            outs[label] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert outs["jobs"] == outs["plain"]
        assert len(outs["plain"]) > 0
        assert cli.build_parser().parse_args(["reproduce-all"]).jobs == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["icsi", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_exit_code_config_not_utf8(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(b"\xff\xfe{")
        assert main(["correlation", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert f"config error: cannot read config {cfg_path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["--out", "env", "config"])
    def test_exit_code_unwritable_output_directory(self, tmp_path, capsys, monkeypatch, via):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        cfg = copy.deepcopy(FAST_CONFIG)
        args = ["correlation", "--config", str(tmp_path / "cfg.json")]
        if via == "--out":
            args += ["--out", str(out)]
        elif via == "env":
            monkeypatch.setenv("HOLORIS_OUT", str(out))
        else:
            monkeypatch.delenv("HOLORIS_OUT", raising=False)
            cfg["output"] = {"directory": str(out)}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write outputs: ") and str(out) in captured.err
        assert captured.out == ""

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(FAST_CONFIG))
        monkeypatch.setenv("HOLORIS_OUT", str(tmp_path / "envout"))
        assert main(["correlation", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "envout" / "fig2_correlation.csv").exists()

    def test_header_comments_name_targets(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(FAST_CONFIG))
        assert main(["icsi", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "table1_icsi_tx.csv").read_text()
        assert text.startswith("# target: table1")


def test_runtime_imports_only_numpy():
    """The package, its CLI and a config load run on numpy alone;
    jsonschema, scipy and mpmath are test oracles, hypothesis and pytest
    test tools."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, holoris, holoris.cli; holoris.ExperimentConfig.default(); "
             "print(sorted(set(m.split('.')[0] for m in sys.modules) & "
             "{'scipy', 'mpmath', 'hypothesis', 'pytest', 'jsonschema', 'referencing', 'rpds'}))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_reproduce_all_imports_only_numpy(tmp_path):
    """A whole ``reproduce-all`` run, on the regression test's reduced
    config, loads no test oracle and no ``numpy.fft``: the wavenumber
    transform is a cosine sum of two matrix products."""
    from test_regression import CONFIG
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; from holoris.cli import main; "
             "assert main(['reproduce-all', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in "
             "{'scipy', 'mpmath', 'jsonschema'} or m.split('.')[:2] == ['numpy', 'fft']))")
    result = subprocess.run([sys.executable, "-c", probe, str(cfg), str(tmp_path / "out")],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"  # after the written paths
