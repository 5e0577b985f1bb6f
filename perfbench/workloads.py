"""Benchmark workloads: the subcommands each one runs, the config it
hands the CLI for a given seed, and the files it must produce.

Seed 0 is the packaged default config with the workload's overrides.
Any other seed redraws physical inputs that change numbers but never a
matrix size, so every seed does the same amount of work:

* port impedances (``z_source``, ``z_load`` and both case lists):
  resistance 20..400 ohm, reactance -100..100 ohm, rounded to 0.1 ohm;
* ``sweep.zenith_deg``: 30..150 degrees, rounded to 0.1 degree;
* ``geometry.dipole_gap``: 0.005..0.1 wavelengths, rounded to 0.001.

``geometry.wavelength`` is never varied: rounding flips rim points of
the wavenumber grid between propagating and evanescent (a 6-wavelength
grid at spacing 1/3 has 109 propagating points at wavelength 1 and 113
at 1.9), so the work would change with the seed.

``large-aperture`` reads none of the redrawn keys (its eigen and
spectrum runners use only the apertures, spacings and wavelength), so
its config and outputs are the same for every seed.
"""

import copy
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = ROOT / "src" / "holoris" / "data" / "default_config.json"

SCHEMES = ("proposed_mc_aware", "conjugate_mc_unaware", "directivity_max",
           "no_mc_reference")

WORKLOADS = {
    "paper-default": {
        "subcommands": ["reproduce-all"],
        "seeded": True,
        "overrides": {},
        "tiny": {"sweep": {"spacings": [0.5], "gain_spacings": [0.5],
                           "eigen_aperture": 4.0, "eigen_spacings": [0.5],
                           "azimuth_points": 19, "correlation_points": 9}},
    },
    "large-aperture": {
        "subcommands": ["eigen", "spectrum"],
        "seeded": False,
        "overrides": {"sweep": {"eigen_aperture": 16.0}},
        "tiny": {"sweep": {"eigen_aperture": 4.0, "eigen_spacings": [0.5, 0.25],
                           "spacings": [0.5]}},
    },
    "dense-coupling": {
        "subcommands": ["mc-eigen", "gain", "icsi"],
        "seeded": True,
        "overrides": {"sweep": {"spacings": [0.25, 0.125, 0.0625],
                                "gain_spacings": [0.125, 0.0625]}},
        "tiny": {"geometry": {"aperture_x": 2.0, "dipole_rows": 4},
                 "sweep": {"spacings": [0.5, 0.25], "gain_spacings": [0.25],
                           "azimuth_points": 19}},
    },
}

# Layers whose call count must be 0 on a workload: the runners it uses
# never reach them, so a change to that layer must read no change there.
PREDICTED_ZEROS = {
    "large-aperture": ["specfun.si_ci.calls", "response.gain_sweep.calls",
                       "coupling.impedance_matrix_dipoles.calls",
                       "coupling.coupling_solve.calls"],
    "dense-coupling": ["spectrum.power_spectrum.calls"],
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict):
            out[key] = _merge(out.get(key, {}), value)
        else:
            out[key] = value
    return out


def _ohms(rng: random.Random) -> list[float]:
    return [round(rng.uniform(20.0, 400.0), 1), round(rng.uniform(-100.0, 100.0), 1)]


def _distinct_ohms(rng: random.Random, count: int) -> list[list[float]]:
    cases: list[list[float]] = []
    while len(cases) < count:
        z = _ohms(rng)
        if z not in cases:
            cases.append(z)
    return cases


def config_for(workload: str, seed: int, tiny: bool = False) -> dict:
    """Full config dict the CLI receives for a workload and seed."""
    spec = WORKLOADS[workload]
    cfg = _merge(json.loads(DEFAULT_CONFIG.read_text()), spec["overrides"])
    if tiny:
        cfg = _merge(cfg, spec["tiny"])
    if seed != 0 and spec["seeded"]:
        rng = random.Random(f"{workload}:{seed}")
        imp = cfg["impedance"]
        imp["z_source_cases"] = _distinct_ohms(rng, len(imp["z_source_cases"]))
        imp["z_load_cases"] = _distinct_ohms(rng, len(imp["z_load_cases"]))
        imp["z_source"] = _ohms(rng)
        imp["z_load"] = _ohms(rng)
        cfg["sweep"]["zenith_deg"] = round(rng.uniform(30.0, 150.0), 1)
        cfg["geometry"]["dipole_gap"] = round(rng.uniform(0.005, 0.1), 3)
    return cfg


def label(value: float) -> str:
    # Mirrors the CLI's file-name encoding (docs/output-formats.md).
    return ("%.12g" % value).replace(".", "p").replace("-", "m")


def _z_label(prefix: str, z) -> str:
    return f"{prefix}_{label(z[0])}_{label(z[1])}"


def dipole_count(cfg: dict, spacing: float) -> int:
    g = cfg["geometry"]
    return (round(g["aperture_x"] / spacing) + 1) * g["dipole_rows"]


def expected_files(cfg: dict, subcommands: list[str]) -> dict[str, list[str]]:
    """Every file the subcommands write, mapped to its CSV header
    (docs/output-formats.md); gnuplot scripts map to an empty list."""
    s, imp = cfg["sweep"], cfg["impedance"]
    eig = ["index", "eigenvalue", "eigenvalue_db", "cumulative_fraction"]
    spec = ["kx_over_kappa", "kz_over_kappa", "g", "tag"]
    mat = ["row", "col", "re", "im"]
    subs = (["correlation", "eigen", "spectrum", "gain", "mc-eigen", "icsi"]
            if "reproduce-all" in subcommands else subcommands)
    files: dict[str, list[str]] = {}
    if "correlation" in subs:
        files["fig2_correlation.csv"] = ["dx_wavelengths", "dz_wavelengths", "correlation"]
        files["fig2_correlation.gp"] = []
        files["matrix_r0.csv"] = mat
    if "eigen" in subs:
        for sp in s["eigen_spacings"]:
            files[f"fig3_eigenvalues_dx{label(sp)}.csv"] = eig
        files["fig3_summary.csv"] = ["spacing_wavelengths", "n_elements", "dominant_count",
                                     "knee_index", "asymptotic_dof"]
        files["fig3_eigenvalues.gp"] = []
    if "spectrum" in subs:
        for sp in s["eigen_spacings"]:
            files[f"fig4_spectrum_dx{label(sp)}.csv"] = spec
        for sp in s["spacings"]:
            files[f"fig5_spectrum_dx{label(sp)}.csv"] = spec
            files[f"fig5_spectrum_dx{label(sp)}.gp"] = []
        files["fig5_sum_check.csv"] = ["spacing_wavelengths", "n_elements", "sum_g",
                                       "propagating_count", "evanescent_fraction"]
    if "gain" in subs:
        for sp in s["gain_spacings"]:
            for scheme in SCHEMES:
                files[f"fig7_gain_dx{label(sp)}_{scheme}.csv"] = ["phi_deg", "gain", "gain_db"]
        files["fig7_summary.csv"] = ["spacing_wavelengths", "scheme", "n_elements",
                                     "max_gain", "max_gain_over_n"]
        files["fig7_gain.gp"] = []
    if "mc-eigen" in subs:
        for sp in s["spacings"]:
            lab = label(sp)
            files[f"fig8_tx_dx{lab}_no_mc.csv"] = eig
            for z in imp["z_source_cases"]:
                files[f"fig8_tx_dx{lab}_{_z_label('zs', z)}.csv"] = eig
            files[f"fig9_rx_dx{lab}_no_mc.csv"] = eig
            for z in imp["z_load_cases"]:
                files[f"fig9_rx_dx{lab}_{_z_label('zl', z)}.csv"] = eig
            if cfg["geometry"]["element_kind"] == "half_wave_dipole":
                files[f"fig10_rx_dx{lab}_dipole.csv"] = eig
                files[f"fig10_rx_dx{lab}_isotropic.csv"] = eig
        for name in ("matrix_z.csv", "matrix_ct.csv", "matrix_cr.csv"):
            files[name] = mat
    if "icsi" in subs:
        files["table1_icsi_tx.csv"] = (["spacing_wavelengths", "no_mc"]
                                       + [_z_label("zs", z) for z in imp["z_source_cases"]])
        files["table2_icsi_rx.csv"] = (["spacing_wavelengths", "no_mc"]
                                       + [_z_label("zl", z) for z in imp["z_load_cases"]])
    return files
