"""Experiment runner.

Subcommands reproduce the reference figure and table data as CSV files
plus standalone gnuplot scripts:

* ``correlation``: pairwise correlation vs element separation (fig2).
* ``eigen``: eigenvalue decay of the normalized correlation matrix for a
  large aperture at several spacings (fig3).
* ``spectrum``: wavenumber-domain power spectra (fig4, fig5).
* ``gain``: transmit array gain vs azimuth for four beamforming schemes
  (fig7).
* ``mc-eigen``: eigenvalue decay of the effective correlation with
  transmit/receive coupling (fig8, fig9, fig10).
* ``icsi``: coupling/correlation strength tables (table1, table2).
* ``reproduce-all``: all of the above, one after another; ``mc-eigen``
  and ``icsi`` share one pass, so each coupling case is built once.

Everything is deterministic: for a fixed BLAS build, re-running a
subcommand rewrites the same bytes.  Every runner but ``eigen`` runs
with numpy's bundled OpenBLAS on one thread, the caller's count restored
after it, so only the ``eigen`` runner's fig3 files depend on the
host's BLAS thread count, in round-off within the regression tolerance.
Each runner also parks the OpenBLAS worker threads when it starts and
when it ends, so no worker spins through a runner it does not serve.
Exit codes: 0 success, 2 configuration error (an unreadable
config file or an unwritable output directory included), 3 numerical
error.
"""

import argparse
import contextlib
import ctypes
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, correlation, coupling, response, spectrum
from .config import ExperimentConfig
from .errors import ConfigError, HolorisError, NumericalError
from .geometry import ElementKind, make_uniform_grid
from .outputs import (Gather, Table, decibels, eigen_table, grid, impedance_label,
                      matrix_table, spacing_label, write_csv, write_gnuplot)

OUTPUT_DIR_ENV = "HOLORIS_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _impedance(geom, imp, model: str):
    if model == "dipole":
        return coupling.impedance_matrix_dipoles(geom, imp.z_antenna)
    return coupling.impedance_matrix_isotropic(geom, imp.r_iso)


def _stack(cfg: ExperimentConfig, spacing: float | None = None):
    """Geometry at x spacing ``spacing`` (the configured one when None) and
    its impedance matrix under the configured model."""
    geom = cfg.geometry.build(spacing_x=spacing)
    return geom, _impedance(geom, cfg.impedance, cfg.impedance.model)


def _square_grid(cfg: ExperimentConfig, aperture: float, spacing: float):
    """Uniform grid of a square aperture, both given in wavelengths."""
    lam = cfg.geometry.wavelength
    return make_uniform_grid(aperture * lam, aperture * lam,
                             spacing * lam, spacing * lam, lam)


def _eigen_csv(path: Path, target: str, spec, note: str) -> Path:
    return write_csv(path, target,
                     ["index", "eigenvalue", "eigenvalue_db", "cumulative_fraction"],
                     eigen_table(spec.values), notes=[note])


def _matrix_csv(outdir: Path, name: str, what: str, matrix, *notes: str) -> Path:
    """``matrix``, of the configured geometry, as (row, col, re, im) rows."""
    geom = matrix.geom
    geometry_note = f"elements: {geom.n}, spacing_x: {geom.dx / geom.wavelength} wavelengths"
    return write_csv(outdir / name, f"matrix export ({what} of the configured geometry)",
                     ["row", "col", "re", "im"], matrix_table(matrix),
                     notes=[geometry_note, *notes])


def run_correlation(cfg: ExperimentConfig, outdir: Path) -> list[Path]:
    s = cfg.sweep
    seps = np.linspace(0.0, s.correlation_max_separation, s.correlation_points)
    # seps[1] is linspace's step; rows of the surface run along dz
    corr = correlation.sinc_table(len(seps), len(seps), seps[1], seps[1], 1.0).T
    dz, dx = grid(seps, seps)
    csv = write_csv(
        outdir / "fig2_correlation.csv",
        "fig2 (spatial correlation vs element separation, isotropic scattering)",
        ["dx_wavelengths", "dz_wavelengths", "correlation"],
        Table(dx, dz, corr),
    )
    gp = write_gnuplot(
        csv.with_suffix(".gp"),
        "Spatial correlation vs element separation",
        ["set xlabel 'dx (wavelengths)'", "set ylabel 'dz (wavelengths)'",
         "set view map", "set pm3d interpolate 2,2",
         f"splot '{csv.name}' using 1:2:3 with pm3d notitle"],
    )
    geom = cfg.geometry.build()
    r0 = correlation.correlation_matrix_isotropic(geom)
    return [csv, gp, _matrix_csv(outdir, "matrix_r0.csv", "correlation matrix", r0)]


def run_eigen(cfg: ExperimentConfig, outdir: Path) -> list[Path]:
    s = cfg.sweep
    paths = []
    series = []
    summary = []
    for sp in s.eigen_spacings:
        geom = _square_grid(cfg, s.eigen_aperture, sp)
        # the solve gathers and holds one block of R0 at a time, so the
        # peak memory of this runner is small beside the other runners'
        spec = analysis.eigen_spectrum(correlation.correlation_matrix_isotropic(geom),
                                       normalize_by_n=True)
        csv = _eigen_csv(
            outdir / f"fig3_eigenvalues_dx{spacing_label(sp)}.csv",
            "fig3 (eigenvalue decay of the normalized correlation matrix)", spec,
            f"aperture: {s.eigen_aperture} wavelengths square, spacing: {sp} wavelengths",
        )
        paths.append(csv)
        series.append(f"'{csv.name}' using 1:2 with lines title 'dx={sp:g}'")
        summary.append((sp, geom.n, spec.dominant_count,
                        -1 if spec.knee_index is None else spec.knee_index,
                        spec.asymptotic_dof))
    paths.append(write_csv(
        outdir / "fig3_summary.csv",
        "fig3 (per-spacing eigenvalue summary)",
        ["spacing_wavelengths", "n_elements", "dominant_count", "knee_index",
         "asymptotic_dof"],
        Table(*zip(*summary)),
        notes=["knee_index is -1 when no knee is detectable"],
    ))
    paths.append(write_gnuplot(
        outdir / "fig3_eigenvalues.gp", "Eigenvalue decay vs index",
        ["set logscale y", "set xlabel 'eigenvalue index'", "set ylabel 'eigenvalue'",
         "plot " + ", ".join(series)],
    ))
    return paths


def _spectrum_csv(outdir: Path, name: str, target: str, geom,
                  notes) -> tuple[Path, spectrum.WavenumberSpectrum]:
    seq = spectrum.generator_sequence(geom)
    spec = spectrum.power_spectrum(seq, geom)
    kx, kz = grid(spec.kx_grid / spec.wavenumber, spec.kz_grid / spec.wavenumber)
    tag = Gather(["evanescent", "propagating"], spec.propagating)
    path = write_csv(outdir / name, target,
                     ["kx_over_kappa", "kz_over_kappa", "g", "tag"],
                     Table(kx, kz, spec.values, tag), notes=notes)
    return path, spec


def run_spectrum(cfg: ExperimentConfig, outdir: Path) -> list[Path]:
    s = cfg.sweep
    paths = []
    for sp in s.eigen_spacings:
        geom = _square_grid(cfg, s.eigen_aperture, sp)
        paths.append(_spectrum_csv(
            outdir, f"fig4_spectrum_dx{spacing_label(sp)}.csv",
            "fig4 (wavenumber-domain power spectrum, large aperture)",
            geom,
            [f"aperture: {s.eigen_aperture} wavelengths, spacing: {sp} wavelengths"],
        )[0])
    fig5 = []
    checks = []
    for sp in s.spacings:
        geom = _square_grid(cfg, cfg.geometry.aperture_x, sp)
        path, spec = _spectrum_csv(
            outdir, f"fig5_spectrum_dx{spacing_label(sp)}.csv",
            "fig5 (wavenumber-domain power spectrum, overview and zoom source)",
            geom,
            [f"aperture: {cfg.geometry.aperture_x} wavelengths, spacing: {sp} wavelengths"],
        )
        fig5.append(path)
        checks.append((sp, geom.n, spec.total, spec.propagating_count,
                       1.0 - spec.propagating_count / spec.values.size))
    paths.extend(fig5)
    paths.append(write_csv(
        outdir / "fig5_sum_check.csv",
        "fig5 (spectrum sum and propagating-point counts per geometry)",
        ["spacing_wavelengths", "n_elements", "sum_g", "propagating_count",
         "evanescent_fraction"],
        Table(*zip(*checks)),
    ))
    for sp, csv in zip(s.spacings, fig5):
        paths.append(write_gnuplot(
            csv.with_suffix(".gp"),
            f"Wavenumber spectrum, dx = {sp:g} wavelengths",
            ["set xlabel 'kx / kappa'", "set ylabel 'kz / kappa'",
             "set view map",
             f"splot '{csv.name}' using 1:2:3 with points pt 5 ps 0.6 palette notitle"],
        ))
    return paths


def run_gain(cfg: ExperimentConfig, outdir: Path) -> list[Path]:
    s = cfg.sweep
    theta = math.radians(s.zenith_deg)
    phis = np.linspace(0.0, math.pi, s.azimuth_points)
    paths = []
    series = []
    summary = []
    proposed = {}  # gains of the proposed scheme by spacing, for the ratio note
    for sp in s.gain_spacings:
        geom, z = _stack(cfg, sp)
        ct = coupling.coupling_tx(z, cfg.impedance.z_source)
        for scheme in response.BeamformingScheme:
            gains = response.gain_sweep(geom, ct, scheme, theta, phis)
            csv = write_csv(
                outdir / f"fig7_gain_dx{spacing_label(sp)}_{scheme.value}.csv",
                "fig7 (transmit array gain vs azimuth)",
                ["phi_deg", "gain", "gain_db"],
                Table(np.degrees(phis), gains, decibels(gains)),
                notes=[f"spacing: {sp} wavelengths, elements: {geom.n}, "
                       f"zenith: {s.zenith_deg} deg, scheme: {scheme.value}"],
            )
            paths.append(csv)
            series.append(f"'{csv.name}' using 1:2 with lines title 'dx={sp:g} {scheme.value}'")
            if scheme is response.BeamformingScheme.PROPOSED_MC_AWARE:
                proposed[sp] = gains
            summary.append((sp, scheme.value, geom.n, float(gains.max()),
                            float(gains.max()) / geom.n))
    notes = []
    if len(s.gain_spacings) >= 2:
        dense = min(s.gain_spacings)
        coarse = max(s.gain_spacings)
        ratio = proposed[dense] / proposed[coarse]
        notes.append(
            f"peak per-azimuth gain ratio dx={dense:g} vs dx={coarse:g} "
            f"(proposed scheme): {float(ratio.max()):.6g}"
        )
    paths.append(write_csv(
        outdir / "fig7_summary.csv",
        "fig7 (per-scheme gain maxima)",
        ["spacing_wavelengths", "scheme", "n_elements", "max_gain", "max_gain_over_n"],
        Table(*zip(*summary)), notes=notes,
    ))
    paths.append(write_gnuplot(
        outdir / "fig7_gain.gp", "Transmit array gain vs azimuth",
        ["set xlabel 'azimuth (deg)'", "set ylabel 'array gain'",
         "plot " + ", ".join(series)],
    ))
    return paths


def _port_solves(z, ports: dict, f=None):
    """Each distinct port of ``ports`` (side -> port list, transmit side
    first) solved once for every side that lists it
    (``coupling.couplings``), yielding ((side, port), matrix): the
    coupling matrix C, or with R0's factor ``f`` the effective
    correlation C^T R0 conj(C).  A port's errors name the transmit side
    when it lists the port."""
    for zp in dict.fromkeys(zp for side_ports in ports.values() for zp in side_ports):
        solved = coupling.couplings(z, zp, f, [side for side in ports if zp in ports[side]])
        yield from (((side, zp), r) for side, r in solved.items())


_SIDES = {  # eigen CSV stem and target, ICSI table file and target
    "tx": ("fig8_tx", "fig8 (transmit effective correlation eigenvalues)",
           "table1_icsi_tx.csv", "table1 (coupling/correlation strength, transmit side)"),
    "rx": ("fig9_rx", "fig9 (receive effective correlation eigenvalues)",
           "table2_icsi_rx.csv", "table2 (coupling/correlation strength, receive side)"),
}


def _coupling_study(cfg: ExperimentConfig, outdir: Path, eigen: bool, icsi: bool) -> list[Path]:
    """One pass over the coupling cases of each swept spacing, as
    effective correlations C^T R0 conj(C).  R0's blocks are each gathered
    once per spacing, by its factor F F^T at its numerical rank.  Each
    distinct case is built once and measured for every side that lists
    it: the no-coupling case, C = I, is the factor itself, and each port
    is one coupling solve of that factor for both sides
    (``_port_solves``).  A case gives its fig8/fig9 eigen spectrum
    (``eigen``) and its table1/table2 ICSI cell (``icsi``) and is freed
    before the next one is built; files and cells then follow each
    side's case order, transmit side first.  fig10 and the matrix
    exports go with ``eigen``."""
    imp = cfg.impedance
    ports = {"tx": imp.z_source_cases, "rx": imp.z_load_cases}
    cases = {side: [(None, "no_mc", "coupling: none")]
             + [(zp, impedance_label(prefix, zp), f"{name}: {zp}") for zp in ports[side]]
             for side, prefix, name in (("tx", "zs", "z_source"), ("rx", "zl", "z_load"))}
    paths, rows = [], {side: [] for side in cases}

    def measure(r):
        return (analysis.eigen_spectrum(r, normalize_by_n=False) if eigen else None,
                analysis.icsi(r) if icsi else None)

    for sp in cfg.sweep.spacings:
        geom, z = _stack(cfg, sp)
        f = analysis.factor(correlation.correlation_matrix_isotropic(geom))
        label = spacing_label(sp)
        note = f"spacing: {sp} wavelengths, elements: {geom.n}"
        # (side, port): (spectrum, ICSI cell); the no-coupling case is both sides' f
        measured = dict.fromkeys([(side, None) for side in ports], measure(f))
        measured.update((key, measure(r)) for key, r in _port_solves(z, ports, f))
        for side, (stem, target, _, _) in _SIDES.items():
            if eigen:
                paths += [_eigen_csv(outdir / f"{stem}_dx{label}_{case}.csv", target,
                                     measured[side, zp][0], f"{note}, {extra}")
                          for zp, case, extra in cases[side]]
            rows[side].append((sp, *(measured[side, zp][1] for zp, _, _ in cases[side])))
        # dipole vs isotropic elements at matched load; the configured
        # model's curve is the fig9 case of that load when there is one
        if eigen and geom.element_kind is ElementKind.HALF_WAVE_DIPOLE:
            for model, load in (("dipole", imp.z_antenna.conjugate()),
                                ("isotropic", imp.r_iso)):
                if model == imp.model and ("rx", load) in measured:
                    spec = measured["rx", load][0]
                else:
                    zm = z if model == imp.model else _impedance(geom, imp, model)
                    spec = analysis.eigen_spectrum(
                        coupling.couplings(zm, load, f, ("rx",))["rx"], normalize_by_n=False)
                paths.append(_eigen_csv(
                    outdir / f"fig10_rx_dx{label}_{model}.csv",
                    "fig10 (receive eigenvalues, dipole vs isotropic elements)",
                    spec, f"{note}, elements: {model}"))
    if eigen:
        paths.extend(_matrix_exports(cfg, outdir))
    if icsi:
        for side, (_, _, name, target) in _SIDES.items():
            columns = ["spacing_wavelengths"] + [case for _, case, _ in cases[side]]
            paths.append(write_csv(outdir / name, target, columns, Table(*zip(*rows[side]))))
    return paths


def run_mc_eigen(cfg: ExperimentConfig, outdir: Path, icsi: bool = False) -> list[Path]:
    """fig8-fig10 and the matrix exports; with ``icsi`` also table1 and
    table2, from the same pass over the coupling cases."""
    return _coupling_study(cfg, outdir, eigen=True, icsi=icsi)


def run_icsi(cfg: ExperimentConfig, outdir: Path) -> list[Path]:
    return _coupling_study(cfg, outdir, eigen=False, icsi=True)


def _matrix_exports(cfg: ExperimentConfig, outdir: Path) -> list[Path]:
    """Impedance and coupling matrices of the configured geometry as
    (row, col, re, im) CSVs; one solve when ``z_source`` equals
    ``z_load``."""
    imp, z = cfg.impedance, _stack(cfg)[1]
    c = dict(_port_solves(z, {"tx": [imp.z_source], "rx": [imp.z_load]}))
    return [
        _matrix_csv(outdir, "matrix_z.csv", "impedance matrix", z, f"z_self: {z.z_self}"),
        _matrix_csv(outdir, "matrix_ct.csv", "transmit coupling matrix",
                    c["tx", imp.z_source], f"z_source: {imp.z_source}"),
        _matrix_csv(outdir, "matrix_cr.csv", "receive coupling matrix",
                    c["rx", imp.z_load], f"z_load: {imp.z_load}"),
    ]


SUBCOMMANDS = {
    "correlation": run_correlation,
    "eigen": run_eigen,
    "spectrum": run_spectrum,
    "gain": run_gain,
    "mc-eigen": run_mc_eigen,
    "icsi": run_icsi,
}


@functools.cache
def _openblas():
    """``get_num_threads``, ``set_num_threads`` and the worker park
    ``blas_thread_shutdown_`` of the OpenBLAS that numpy bundles, or None
    when it bundles none (looked up once, on the first run).  The park
    joins the worker threads, and the next threaded call starts them
    again; a library without it gets a park that does nothing."""
    for path in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            if hasattr(lib, name.format("get")):
                get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                park = getattr(lib, "blas_thread_shutdown_", None)
                if park is None:
                    return get, set_, lambda: 0
                park.argtypes, park.restype = [], ctypes.c_int
                return get, set_, park
    return None


def _blas_threads(subcommand: str) -> contextlib.ExitStack:
    """OpenBLAS on one thread from now until the returned context exits,
    which restores the caller's count, for the runner ``subcommand``,
    with the worker threads parked on entry and again on exit.  An
    OpenBLAS worker busy-waits for about 0.1 s after it starts and after
    each threaded call, and a count set later does not stop it; the park
    does.  The coupling runners make a small BLAS call every few ms, so
    a second thread would spin through them.  The count is set before
    the park, and restored before the last park, since setting a count
    starts parked workers again.  ``eigen`` keeps the caller's count:
    its parity pieces reach thousands of rows, where a threaded
    eigensolve is faster, and its first threaded call starts the
    workers again.  The entry park of the first runner stops the spin
    of the worker that ``import numpy`` starts, and the exit parks keep
    the spin that ``eigen``'s threaded calls leave out of the runners
    after it."""
    restore = contextlib.ExitStack()
    blas = _openblas()
    if blas is not None:
        get, set_, park = blas
        restore.callback(park)
        if subcommand != "eigen":
            restore.callback(set_, get())
            set_(1)
        park()
    return restore


def run(subcommand: str, cfg: ExperimentConfig, outdir: Path) -> list[Path]:
    """Run one subcommand (or all of them, in ``SUBCOMMANDS`` order) and
    return the written paths.

    Each runner sets process-wide OpenBLAS state: the thread count and
    the worker threads (``_blas_threads``).  So no other thread of the
    process may be inside a BLAS call while ``run`` runs."""
    outdir = Path(outdir)

    def call(name: str, **kwargs) -> list[Path]:
        with _blas_threads(name):
            return SUBCOMMANDS[name](cfg, outdir, **kwargs)

    if subcommand == "reproduce-all":
        # mc-eigen writes the icsi tables from its own pass over the coupling cases
        return [path for name in SUBCOMMANDS if name != "icsi"
                for path in (call(name, icsi=True) if name == "mc-eigen" else call(name))]
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    return call(subcommand)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoris",
        description="Reproduce correlation, spectrum, coupling and gain experiments as CSV.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in list(SUBCOMMANDS) + ["reproduce-all"]:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON experiment config (defaults to the packaged setup)")
        p.add_argument("--out", type=Path, default=None,
                       help=f"output directory (default: config value or ${OUTPUT_DIR_ENV})")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored: reproduce-all runs its experiments in order")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = (ExperimentConfig.from_file(args.config) if args.config
               else ExperimentConfig.default())
        outdir = args.out or Path(os.environ.get(OUTPUT_DIR_ENV, "")
                                  or cfg.output.directory)
        paths = run(args.subcommand, cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HolorisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for path in paths:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
