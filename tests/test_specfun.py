import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from holoris import (DomainError, cosine_integral, impedance_matrix_dipoles, make_dipole_array,
                     sine_integral, specfun)
from holoris.specfun import EULER_GAMMA, _e1_continued_fraction, _ein_series

# Independent oracles: adaptive quadrature of the defining integrals and
# arbitrary-precision evaluation via mpmath.


def si_oracle(x):
    val, _ = quad(lambda t: math.sin(t) / t if t else 1.0, 0.0, x, limit=400)
    return val


def ci_oracle(x):
    val, _ = quad(lambda t: (math.cos(t) - 1.0) / t if t else 0.0, 0.0, x, limit=400)
    return EULER_GAMMA + math.log(x) + val


class TestSineIntegral:
    def test_zero(self):
        assert sine_integral(0.0) == 0.0

    def test_asymptote(self):
        assert abs(sine_integral(100.0) - math.pi / 2) < 0.02

    def test_unit_value_against_quadrature(self):
        assert sine_integral(1.0) == pytest.approx(si_oracle(1.0), abs=1e-12)
        # frozen from the quadrature oracle
        assert sine_integral(1.0) == pytest.approx(0.946083070367183, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=200.0, allow_nan=False))
    def test_odd(self, x):
        assert sine_integral(-x) == -sine_integral(x)

    def test_derivative_is_sin_over_x(self):
        hstep = 1e-5
        for x in (0.3, 1.7, 4.0, 5.9, 6.1, 12.0, 40.0):
            fd = (sine_integral(x + hstep) - sine_integral(x - hstep)) / (2 * hstep)
            assert fd == pytest.approx(math.sin(x) / x, abs=1e-6)

    def test_branch_agreement_at_boundary(self):
        series = _ein_series(np.array(6.0)).imag
        cf = math.pi / 2 + _e1_continued_fraction(np.array(6.0)).imag
        assert abs(series - cf) <= 1e-11

    def test_quadrature_agreement_random(self, rng):
        for x in rng.uniform(1e-6, 50.0, size=100):
            assert sine_integral(x) == pytest.approx(si_oracle(x), abs=1e-8)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            sine_integral(math.inf)


class TestCosineIntegral:
    def test_small_x_log_behavior(self):
        x = 1e-6
        assert cosine_integral(x) - (EULER_GAMMA + math.log(x)) == pytest.approx(0.0, abs=1e-9)

    def test_unit_value_against_quadrature(self):
        assert cosine_integral(1.0) == pytest.approx(ci_oracle(1.0), abs=1e-12)
        assert cosine_integral(1.0) == pytest.approx(0.337403922900968, abs=1e-12)

    def test_large_x_bound(self):
        val = cosine_integral(100.0)
        assert abs(val) < 0.011
        assert val == pytest.approx(ci_oracle(100.0), abs=1e-8)

    def test_branch_agreement_at_boundary(self):
        series = EULER_GAMMA + math.log(6.0) - _ein_series(np.array(6.0)).real
        cf = -_e1_continued_fraction(np.array(6.0)).real
        assert abs(series - cf) <= 1e-11

    def test_quadrature_agreement_random(self, rng):
        for x in rng.uniform(1e-3, 50.0, size=100):
            assert cosine_integral(x) == pytest.approx(ci_oracle(x), abs=1e-8)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            cosine_integral(bad)


def test_against_mpmath_high_precision():
    # arbitrary-precision cross-check across both branches, over the
    # range the docstrings state: [1e-8, 1e15], log-spaced
    xs = np.concatenate([np.logspace(-8, 15, 231),
                         [0.25, 1.0, 3.0, 5.999, 6.0, 6.001, 10.0, 31.4, 100.0]])
    assert xs.min() < 6.0 <= xs.max()
    si, ci = sine_integral(xs), cosine_integral(xs)
    for x, s, c in zip(xs, si, ci):
        assert s == pytest.approx(float(mpmath.si(x)), abs=1e-12), x
        assert c == pytest.approx(float(mpmath.ci(x)), abs=1e-12), x


def test_continued_fraction_against_mpmath_on_dipole_table(monkeypatch):
    # the continued-fraction arguments of the N = 520 dipole impedance
    # table (a 4-wavelength, 8-row stack at 1/16 wavelength), each
    # against an arbitrary-precision E1(ix)
    args = []
    monkeypatch.setattr(specfun, "_e1_continued_fraction",
                        lambda x: args.append(np.copy(x)) or _e1_continued_fraction(x))
    impedance_matrix_dipoles(make_dipole_array(4.0, 1 / 16, 8, 0.02, 1.0))
    xs = np.unique(np.concatenate(args))
    assert xs.size > 2000 and xs.min() >= 6.0
    ref = [complex(mpmath.e1(1j * mpmath.mpf(x))) for x in xs]
    assert np.abs(_e1_continued_fraction(xs) - ref).max() <= 1e-15


def test_series_truncation_at_crossover():
    # at x = 6, where the series converges slowest, the first Horner
    # term left out is below 1e-20 of each sum
    x, n = 6.0, specfun._SERIES_TERMS
    ein = _ein_series(np.array(x))
    assert x ** (2 * n + 1) / ((2 * n + 1) * math.factorial(2 * n + 1)) < 1e-20 * ein.imag
    assert x ** (2 * n + 2) / ((2 * n + 2) * math.factorial(2 * n + 2)) < 1e-20 * ein.real


def test_continued_fraction_depth_at_crossover(monkeypatch):
    # at x = 6, where the fraction converges slowest, depth K agrees
    # with depth 2K
    x = np.array([6.0])
    out = _e1_continued_fraction(x)
    monkeypatch.setattr(specfun, "_CF_DEPTH", 2 * specfun._CF_DEPTH)
    deeper = _e1_continued_fraction(x)
    assert abs(out - deeper).max() <= 1e-16 * abs(deeper).max()


class TestArrayInput:
    def test_array_equals_elementwise_scalar_calls(self):
        xs = np.concatenate([np.geomspace(1e-4, 1e4, 13), [6.0]]).reshape(2, 7)
        for fn in (sine_integral, cosine_integral):
            out = fn(xs)
            assert isinstance(out, np.ndarray) and out.shape == xs.shape
            assert np.array_equal(out, [[fn(float(x)) for x in row] for row in xs])
        signed = xs * np.array([[1.0], [-1.0]])
        assert np.array_equal(sine_integral(signed),
                              [[sine_integral(float(x)) for x in row] for row in signed])

    @pytest.mark.parametrize("fn", [sine_integral, cosine_integral])
    @pytest.mark.parametrize("x", [2.5, np.float64(7.5), np.array(2.5), np.array(7.5)])
    def test_scalar_input_returns_float(self, fn, x):
        assert type(fn(x)) is float

    def test_sine_integral_zero_entries(self):
        out = sine_integral(np.array([0.0, 1.0, -1.0]))
        assert out[0] == 0.0 and out[1] == -out[2] == sine_integral(1.0)

    @pytest.mark.parametrize("fn", [sine_integral, cosine_integral])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_one_nonfinite_entry_rejected(self, fn, bad):
        with pytest.raises(DomainError):
            fn(np.array([1.0, bad, 7.0]))

    @pytest.mark.parametrize("bad", [0.0, -2.0])
    def test_cosine_integral_one_nonpositive_entry_rejected(self, bad):
        with pytest.raises(DomainError):
            cosine_integral(np.array([[1.0, 7.0], [bad, 3.0]]))
