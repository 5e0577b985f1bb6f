"""Checks on the CSVs a workload writes; they decide the benchmark's
``correct`` / ``attempted`` / ``failed`` fields.

Reference outputs are stored as fingerprints (row count, header, every
column's sum, sum of magnitudes and largest magnitude, and 16 evenly
spaced rows) rather than whole files.  Floats match the reference when
``|value - ref| <= RTOL * |ref| + ATOL_SHARE * scale``, with ``scale``
the column's largest magnitude in the reference file; the absolute
floor is needed because near-zero entries (evanescent spectrum samples,
eigenvalues at the numerical floor) carry rounding noise only.
Integer and text columns must match exactly.  The dB columns are
checked against ``10 log10`` of the column they derive from instead.
"""

import hashlib
import math
from pathlib import Path

from workloads import SCHEMES, dipole_count, expected_files, label

RTOL = 1e-8
ATOL_SHARE = 1e-10
SAMPLE_ROWS = 16
INVARIANT_TOL = 1e-9

INT_COLUMNS = {"index", "n_elements", "dominant_count", "knee_index", "asymptotic_dof",
               "propagating_count", "row", "col"}
TEXT_COLUMNS = {"tag", "scheme"}
DERIVED_DB = {"eigenvalue_db": "eigenvalue", "gain_db": "gain"}
EIGEN_HEADER = ["index", "eigenvalue", "eigenvalue_db", "cumulative_fraction"]


class CheckLog:
    """Counts attempted and failed checks, keeping failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
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
    return header or [], rows


def digest(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())}


def _column(header, rows, name) -> list[float]:
    j = header.index(name)
    return [float(r[j]) for r in rows]


def check_outputs(log: CheckLog, outdir: Path, cfg: dict, subcommands: list[str]) -> dict:
    """Check file set, headers and the physical invariants; returns the
    parsed CSVs by file name."""
    files = expected_files(cfg, subcommands)
    present = {p.name for p in outdir.iterdir()}
    log.check(present <= set(files), f"unexpected files {sorted(present - set(files))}")
    parsed = {}
    for name, header in files.items():
        if not log.check(name in present, f"{name}: missing"):
            continue
        if name.endswith(".csv"):
            parsed[name] = read_csv(outdir / name)
            log.check(parsed[name][0] == header,
                      f"{name}: header {parsed[name][0]} != {header}")

    if "fig5_sum_check.csv" in parsed:
        h, rows = parsed["fig5_sum_check.csv"]
        sums = _column(h, rows, "sum_g")
        log.check(bool(sums) and all(abs(v - 1.0) <= INVARIANT_TOL for v in sums),
                  f"fig5_sum_check.csv: sum_g {sums} != 1")

    for name, (h, rows) in parsed.items():
        if h == EIGEN_HEADER:
            last = float(rows[-1][3]) if rows else float("nan")
            log.check(abs(last - 1.0) <= INVARIANT_TOL,
                      f"{name}: cumulative_fraction ends at {last}")

    for sp in cfg["sweep"]["gain_spacings"]:
        names = {scheme: f"fig7_gain_dx{label(sp)}_{scheme}.csv" for scheme in SCHEMES}
        if not all(name in parsed for name in names.values()):
            continue  # not a gain workload, or already failed as missing
        gains = {scheme: _column(*parsed[name], "gain") for scheme, name in names.items()}
        n = dipole_count(cfg, sp)
        ref = gains["no_mc_reference"]
        log.check(all(abs(g - n) <= INVARIANT_TOL * n for g in ref),
                  f"gain dx={sp}: no_mc_reference differs from N={n}")
        best = gains["proposed_mc_aware"]
        for other in ("conjugate_mc_unaware", "directivity_max"):
            log.check(all(b >= o - INVARIANT_TOL * max(1.0, abs(o))
                          for b, o in zip(best, gains[other], strict=True)),
                      f"gain dx={sp}: proposed_mc_aware below {other}")

    tables = [parsed[n] for n in ("table1_icsi_tx.csv", "table2_icsi_rx.csv") if n in parsed]
    if len(tables) == 2:
        for h, rows in tables:
            values = [float(v) for r in rows for v in r[1:]]
            log.check(bool(values) and all(math.isfinite(v) and v >= 0.0 for v in values),
                      "icsi tables: non-finite or negative entry")
        log.check(_column(*tables[0], "no_mc") == _column(*tables[1], "no_mc"),
                  "icsi tables: no_mc columns differ")
    return parsed


def _sample_index(n: int) -> list[int]:
    if n <= SAMPLE_ROWS:
        return list(range(n))
    return sorted({round(i * (n - 1) / (SAMPLE_ROWS - 1)) for i in range(SAMPLE_ROWS)})


def _float_columns(header):
    return [(j, c) for j, c in enumerate(header)
            if c not in INT_COLUMNS and c not in TEXT_COLUMNS and c not in DERIVED_DB]


def fingerprint(header: list[str], rows: list[list[str]]) -> dict:
    idx = _sample_index(len(rows))
    columns = {}
    for j, c in _float_columns(header):
        values = [float(r[j]) for r in rows]
        finite = [v for v in values if math.isfinite(v)]
        columns[c] = {"sum": math.fsum(finite), "abs_sum": math.fsum(abs(v) for v in finite),
                      "scale": max((abs(v) for v in finite), default=0.0),
                      "nonfinite": len(values) - len(finite)}
    return {"rows": len(rows), "header": header, "sample_index": idx,
            "sample": [rows[i] for i in idx], "columns": columns}


def _close(value: float, ref: float, scale: float) -> bool:
    if not (math.isfinite(value) and math.isfinite(ref)):
        return value == ref
    return abs(value - ref) <= RTOL * abs(ref) + ATOL_SHARE * scale


def compare_fingerprint(ref: dict, header: list[str], rows: list[list[str]]) -> list[str]:
    """Differences between a parsed CSV and its reference fingerprint."""
    if header != ref["header"] or len(rows) != ref["rows"]:
        return [f"shape {header}/{len(rows)} != {ref['header']}/{ref['rows']}"]
    problems = []
    cols = ref["columns"]
    for i, ref_row in zip(ref["sample_index"], ref["sample"]):
        row = rows[i]
        for j, c in enumerate(header):
            if c in DERIVED_DB:
                base = float(row[header.index(DERIVED_DB[c])])
                want = 10.0 * math.log10(base) if base > 0 else float("-inf")
                ok = _close(float(row[j]), want, 10.0)
            elif c in cols:
                ok = _close(float(row[j]), float(ref_row[j]), cols[c]["scale"])
            else:
                ok = row[j] == ref_row[j]
            if not ok:
                problems.append(f"row {i} {c}: {row[j]} vs reference {ref_row[j]}")
    for j, c in _float_columns(header):
        values = [float(r[j]) for r in rows]
        finite = [v for v in values if math.isfinite(v)]
        want = cols[c]
        total = math.fsum(finite)
        if (len(values) - len(finite) != want["nonfinite"]
                or abs(total - want["sum"]) > RTOL * want["abs_sum"]
                + ATOL_SHARE * want["scale"] * len(values)):
            problems.append(f"column {c}: sum {total!r} vs reference {want['sum']!r}")
    return problems


def check_reference(log: CheckLog, parsed: dict, reference: dict) -> None:
    for name, ref in sorted(reference["files"].items()):
        if name not in parsed:
            log.check(False, f"{name}: missing for reference comparison")
            continue
        problems = compare_fingerprint(ref, *parsed[name])
        log.check(not problems, f"{name}: differs from reference: {problems[:3]}")
