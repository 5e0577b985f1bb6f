import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from holoris import (DomainError, ParityBlocks, KneeUndefinedError, NumericalError,
                     asymptotic_dof, correlation_matrix_isotropic, coupling_rx,
                     coupling_tx, dominant_count, effective_correlation,
                     eigen_spectrum, icsi, impedance_matrix_dipoles, impedance_matrix_isotropic,
                     knee_index, make_dipole_array, make_uniform_grid,
                     parity_blocks)
from holoris import geometry
from holoris.analysis import factor
from holoris.coupling import couplings
from holoris.correlation import sinc_offset_table

from conftest import Z_MATCH, random_coupling


class TestEffectiveCorrelation:
    def test_identity_coupling_is_noop(self, rng, dipole_correlations):
        r0 = dipole_correlations[0.5]
        c = random_coupling(rng, r0.n, scale=0.0)
        r = effective_correlation(c, r0)
        assert np.allclose(r.values, r0.values, atol=1e-14)

    def test_scaling_squares(self, rng, dipole_correlations):
        r0 = dipole_correlations[0.5]
        c = ParityBlocks((2.0 * random_coupling(rng, r0.n, scale=0.0).values,))
        r = effective_correlation(c, r0)
        assert np.allclose(r.values, 4.0 * r0.values, rtol=1e-12)

    def test_tx_match_raises_top_eigenvalue(self, dipole_correlations,
                                            dipole_impedances):
        r0 = dipole_correlations[0.5]
        ct = coupling_tx(dipole_impedances[0.5], Z_MATCH)
        r = effective_correlation(ct, r0)
        top0 = eigen_spectrum(r0, normalize_by_n=False).values[0]
        top = eigen_spectrum(r, normalize_by_n=False).values[0]
        assert top > top0

    def test_dimension_mismatch(self, rng, dipole_correlations):
        c = random_coupling(rng, 5)
        with pytest.raises(DomainError):
            effective_correlation(c, dipole_correlations[0.5])

    def test_solve_of_a_factored_correlation_is_held_as_its_factor_shapes(
            self, dipole_correlations, dipole_impedances):
        # at 1/8 wavelength R0 is rank-deficient: factors of fewer columns than rows
        r0, z = dipole_correlations[0.125], dipole_impedances[0.125]
        f = factor(r0)
        r = couplings(z, Z_MATCH, f, ("tx",))["tx"]
        assert isinstance(r, ParityBlocks) and r.geom == f.geom
        assert [y.shape for y in r.factors] == [y.shape for y in f.factors]
        assert any(y.shape[1] < y.shape[0] for y in r.factors)
        ref = effective_correlation(coupling_tx(z, Z_MATCH), r0).dense()
        assert np.abs(r.dense() - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("side", ["tx", "rx"], ids=["coupling_tx", "coupling_rx"])
    def test_solve_takes_only_a_factored_correlation_on_its_lattice(
            self, side, dipole_correlations, dipole_impedances):
        r0, z = dipole_correlations[0.5], dipole_impedances[0.5]
        g = r0.geom
        other = make_dipole_array(g.lx, g.dx, g.nz, 0.03, 1.0)  # same N, another gap
        for unfactored in (r0, r0.values):
            with pytest.raises(DomainError, match="held as its factor"):
                couplings(z, Z_MATCH, unfactored, (side,))[side]
        for elsewhere in (factor(dipole_correlations[0.25]), factor(r0.values),
                          factor(correlation_matrix_isotropic(other))):
            with pytest.raises(DomainError, match="same lattice"):
                couplings(z, Z_MATCH, elsewhere, (side,))[side]

    def test_equal_lattices_built_twice_match(self):
        g1, g2 = (make_dipole_array(2.0, 0.5, 4, 0.02, 1.0) for _ in range(2))
        assert g1 is not g2 and g1 == g2
        c = coupling_rx(impedance_matrix_dipoles(g1), 50.0)
        r = effective_correlation(c, correlation_matrix_isotropic(g2))
        same = effective_correlation(c, correlation_matrix_isotropic(g1))
        assert r.geom == g1
        assert all(np.array_equal(a, b) for a, b in zip(r.blocks, same.blocks))

    def test_different_lattices_are_named(self):
        g1 = make_dipole_array(2.0, 0.5, 4, 0.02, 1.0)
        g2 = make_dipole_array(2.0, 0.5, 4, 0.03, 1.0)
        c = coupling_rx(impedance_matrix_dipoles(g1), 50.0)
        with pytest.raises(DomainError, match=r"same lattice, got ArrayGeometry\(.*dz=0\.52.*"
                                              r"ArrayGeometry\(.*dz=0\.53"):
            effective_correlation(c, correlation_matrix_isotropic(g2))

    def test_readme_library_example_assembles_no_dense_coupling(self, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        code = readme.split("## Library example")[1].split("```python\n")[1].split("```")[0]
        assembled = []
        dense = ParityBlocks.dense
        monkeypatch.setattr(ParityBlocks, "dense",
                            lambda self: assembled.append(self) or dense(self))
        names = {}
        exec(code, names)
        # no dense() at all, so none for the coupling C
        assert assembled == []
        assert isinstance(names["r"], ParityBlocks)
        # the figures the example's comments quote
        printed = capsys.readouterr().out.split()
        quoted = re.search(r"# ([\d.]+) -> ([\d.]+)", code).groups()
        assert [f"{float(v):.4f}" for v in printed[:2]] == list(quoted)


class TestEigenSpectrum:
    def test_identity_matrix(self):
        r = ParityBlocks((np.eye(5),))
        spec = eigen_spectrum(r, normalize_by_n=True)
        assert np.allclose(spec.values, 0.2)
        assert spec.knee_index is None

    def test_two_element_closed_form(self):
        g = make_dipole_array(0.25, 0.25, 1, 0.0, 1.0)
        r = correlation_matrix_isotropic(g)
        spec = eigen_spectrum(r, normalize_by_n=True)
        rho = 2 / math.pi
        assert spec.values == pytest.approx([(1 + rho) / 2, (1 - rho) / 2], abs=1e-12)

    def test_sorted_non_increasing(self, dipole_correlations):
        spec = eigen_spectrum(dipole_correlations[0.25])
        assert np.all(np.diff(spec.values) <= 1e-15)

    def test_residual_contract(self, dipole_correlations):
        r = dipole_correlations[0.5]
        w, v = np.linalg.eigh(r.values)
        residual = np.abs(r.values @ v - v * w).max()
        assert residual <= 1e-8 * np.abs(w).max()

    def test_large_aperture_third_wavelength_golden_deciles(self):
        # regression pin for the 12-wavelength, third-wavelength-spacing
        # eigenvalue trace: decile samples frozen from this implementation
        g = make_uniform_grid(12.0, 12.0, 1 / 3, 1 / 3, 1.0)
        spec = eigen_spectrum(correlation_matrix_isotropic(g))
        assert len(spec.values) == 1369
        golden = {0: 0.00474591, 136: 0.00207898, 273: 0.00143791,
                  410: 0.00116992, 547: 0.000272748, 684: 3.01546e-07}
        for idx, want in golden.items():
            assert spec.values[idx] == pytest.approx(want, rel=0.02)
        # beyond the knee the trace is numerically negligible
        assert np.all(np.abs(spec.values[820:]) < 1e-9)

    def test_non_hermitian_rejected(self):
        bad = ParityBlocks((np.array([[1.0, 0.9], [0.1, 1.0]]),))
        with pytest.raises(DomainError):
            eigen_spectrum(bad)

    def test_negative_mass_recorded_and_folded(self):
        r = ParityBlocks((np.diag([2.0, 1.0, -1e-12]),))
        spec = eigen_spectrum(r, normalize_by_n=False)
        assert spec.negative_mass == pytest.approx(5e-13, rel=1e-12)
        assert spec.values == pytest.approx([2.0, 1.0, 1e-12], rel=1e-12)

    def test_negative_mass_is_positive_zero_without_negative_eigenvalues(self):
        g = make_uniform_grid(4.0, 4.0, 0.5, 0.5, 1.0)
        spec = eigen_spectrum(parity_blocks(sinc_offset_table(g), g))
        assert spec.negative_mass == 0.0
        assert math.copysign(1.0, spec.negative_mass) == 1.0

    @pytest.mark.parametrize("empty", [lambda: np.zeros((0, 0)),
                                       lambda: ParityBlocks((np.zeros((0, 0)),))],
                             ids=["array", "correlation_matrix"])
    def test_empty_matrix_rejected(self, empty):
        with pytest.raises(DomainError, match="empty"):
            eigen_spectrum(empty())

    def test_negative_mass_of_receive_coupling_is_round_off(self, dipole_geometries,
                                                            dipole_correlations):
        g, r0 = dipole_geometries[0.125], dipole_correlations[0.125]
        r = effective_correlation(
            coupling_rx(impedance_matrix_isotropic(g, 73.1), 73.1), r0)
        spec = eigen_spectrum(r, normalize_by_n=False)
        assert 0.0 <= spec.negative_mass < 1e-11

    def test_non_psd_rejected(self):
        r = ParityBlocks((np.diag([1.0, 0.5, -1e-6]),))
        with pytest.raises(NumericalError, match="negative eigenvalue mass"):
            eigen_spectrum(r)

    def test_geometry_attaches_dof(self, dipole_correlations):
        spec = eigen_spectrum(dipole_correlations[0.5])
        assert spec.asymptotic_dof == math.ceil(math.pi * 4.0 * 4.14)


class TestAsymptoticDof:
    @pytest.mark.parametrize("aperture,expected", [
        (12.0, 453), (4.0, 51), (1.0, 4),
    ])
    def test_square_apertures(self, aperture, expected):
        g = make_uniform_grid(aperture, aperture, aperture / 2, aperture / 2, 1.0)
        assert asymptotic_dof(g) == expected


class TestKneeIndex:
    def test_synthetic_step(self):
        ev = np.array([1, 1, 1, 1, 1e-6, 1e-12, 1e-18, 1e-24])
        assert knee_index(ev) == 4

    def test_all_equal_undefined(self):
        with pytest.raises(KneeUndefinedError):
            knee_index(np.ones(16))

    def test_too_few_positive(self):
        with pytest.raises(DomainError):
            knee_index(np.array([1, 1, 1, 0, 0, 0, 0, 0], dtype=float))

    def test_increasing_list_rejected(self):
        with pytest.raises(DomainError, match="non-increasing"):
            knee_index(np.arange(1.0, 11.0))

    def test_two_dimensional_list_rejected(self):
        with pytest.raises(DomainError, match="one-dimensional"):
            knee_index(np.geomspace(1.0, 1e-7, 15)[None, :])

    def test_tie_breaks_to_smallest(self):
        # constant log-slope everywhere: all bends are zero, knee at start
        ev = np.geomspace(1.0, 1e-7, 15)
        assert knee_index(ev) == 4

    def test_rx_coupling_shifts_knee_right(self, dipole_correlations,
                                           dipole_impedances):
        for sp in (0.25, 0.125):
            r0 = dipole_correlations[sp]
            cr = coupling_rx(dipole_impedances[sp], Z_MATCH)
            r = effective_correlation(cr, r0)
            k0 = eigen_spectrum(r0).knee_index
            k1 = eigen_spectrum(r).knee_index
            assert k1 > k0


class TestDominantCount:
    def test_threshold_semantics(self):
        ev = np.array([1.0, 0.5, 0.011, 0.009, 1e-6])
        assert dominant_count(ev) == 3

    def test_empty(self):
        assert dominant_count(np.array([])) == 0

    def test_two_dimensional_list_rejected(self):
        with pytest.raises(DomainError, match="one-dimensional"):
            dominant_count(np.ones((3, 3)))


class TestIcsi:
    def test_identity_is_zero(self):
        assert icsi(np.eye(7)) == 0.0

    def test_all_ones_is_one(self):
        assert icsi(np.ones((6, 6))) == pytest.approx(1.0)

    def test_reference_quarter_wavelength(self, dipole_correlations):
        assert icsi(dipole_correlations[0.25]) == pytest.approx(0.0646, abs=0.005)

    def test_zero_diagonal_rejected(self):
        m = np.ones((3, 3))
        m[1, 1] = 0.0
        with pytest.raises(DomainError):
            icsi(m)

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            icsi(np.ones((3, 4)))

    def test_accepts_wrapper_types(self, dipole_impedances):
        v = icsi(dipole_impedances[0.5])
        assert 0.0 < v < 1.0

    def test_row_sums_match_ratio_matrix(self, rng, dipole_correlations, dipole_impedances):
        def ratio_formula(q):  # the per-entry ratio matrix the row sums replace
            mags = np.abs(q)
            n = len(q)
            return float(((mags / np.diag(mags)[:, None]).sum() - n) / (n * (n - 1)))

        matrices = [dipole_correlations[0.25].values, dipole_impedances[0.125].values,
                    effective_correlation(coupling_rx(dipole_impedances[0.25], Z_MATCH),
                                          dipole_correlations[0.25]).values]
        matrices += [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                     for n in (2, 5, 40)]
        for q in matrices:
            assert icsi(q) == pytest.approx(ratio_formula(q), rel=1e-13)

    def test_does_not_depend_on_the_chunk_budget(self, dipole_correlations,
                                                 dipole_impedances, monkeypatch):
        # the quarter rows are read a chunk of points at a time, and the
        # row ratios of all chunks are summed once
        r0, z = dipole_correlations[0.125], dipole_impedances[0.125]
        matrices = [r0, z, effective_correlation(coupling_rx(z, Z_MATCH), r0), z.values]
        whole = [icsi(q) for q in matrices]
        monkeypatch.setattr(geometry, "_CHUNK_BYTES", 1)  # the least: 16 points
        assert len(geometry.chunks(len(z.quarter()[0]), z.n)) == 5  # of 68 points
        assert [icsi(q) for q in matrices] == whole



class TestNonFiniteEntries:
    """A non-finite entry raises DomainError before any solve: the
    eigensolve would give NaN eigenvalues or raise LinAlgError (a NaN
    skew defect passes the Hermitian tolerance), and ICSI would be NaN."""

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_eigen_spectrum_of_values(self, bad):
        m = np.eye(4)
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            eigen_spectrum(ParityBlocks((m,)))

    def test_offset_table(self):
        g = make_uniform_grid(2.0, 2.0, 0.5, 0.5, 1.0)
        t = sinc_offset_table(g)
        t[1, 2] = math.nan
        for fn in (eigen_spectrum, icsi):
            with pytest.raises(DomainError, match="non-finite"):
                fn(parity_blocks(t, g))

    def test_icsi_of_values(self):
        with pytest.raises(DomainError, match="non-finite"):
            icsi([[1, math.nan], [0.5, 1]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("metric", [dominant_count, knee_index])
    def test_eigenvalue_list(self, metric, bad):
        values = [10, 5, 3, bad, 1, 0.5, 0.2, 0.1, 0.05, 0.01]
        with pytest.raises(DomainError, match="non-finite"):
            metric(np.array(values))

class TestOrderingInvariants:
    def test_tx_icsi_ordering_half_wavelength(self, dipole_correlations,
                                              dipole_impedances):
        r0 = dipole_correlations[0.5]
        z = dipole_impedances[0.5]
        vals = {"no_mc": icsi(r0)}
        for zs, name in [(Z_MATCH, "match"), (50.0, "fifty"), (300.0, "three_hundred")]:
            vals[name] = icsi(effective_correlation(coupling_tx(z, zs), r0))
        assert vals["no_mc"] < vals["fifty"] < vals["match"] < vals["three_hundred"]

    def test_rx_icsi_ordering_each_spacing(self, dipole_correlations,
                                           dipole_impedances):
        for sp in (0.5, 0.25, 0.125):
            r0 = dipole_correlations[sp]
            z = dipole_impedances[sp]
            vals = {}
            for zl, name in [(Z_MATCH, "match"), (50.0, "fifty"), (300.0, "three_hundred")]:
                vals[name] = icsi(effective_correlation(coupling_rx(z, zl), r0))
            base = icsi(r0)
            assert vals["three_hundred"] < vals["match"] < vals["fifty"]
            assert all(v > base for v in vals.values())


def test_eigensolves_only_in_analysis():
    """``analysis.eigen_spectrum`` is the one Hermitian-PSD check, so no
    other module calls an ``np.linalg.eig*`` solver."""
    src = Path(__file__).resolve().parent.parent / "src" / "holoris"
    sites = [f"{path.name}:{node.lineno}"
             for path in sorted(src.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr.startswith("eig")
             and ast.unparse(node.value).endswith("linalg")]
    assert sites and all(s.startswith("analysis.py:") for s in sites), sites
