"""Sine and cosine integrals for the dipole mutual-impedance closed forms.

``sine_integral`` (Si) and ``cosine_integral`` (Ci) take a float or an
array.  Si and Ci share one kernel, Ci(x) - i Si(x) = -E1(ix) - i pi/2
(Abramowitz & Stegun 5.2.23): for small arguments the Maclaurin series
of Ein(ix) = Cin(x) + i Si(x), as two real Horner polynomials in x^2,
and beyond that the continued fraction of the exponential integral
E1(ix), evaluated backward from a fixed depth.  Both are truncated where
the slowest argument needs it, so every entry takes the same whole-array
steps; the branch point is chosen so both evaluations agree to better
than 1e-11.
"""

import math

import numpy as np

from .errors import DomainError

EULER_GAMMA = 0.577215664901532860606512090082

# Series/continued-fraction crossover.  The alternating Maclaurin series
# still carries ~13 significant digits here.  Both truncations are sized
# at x = 6, where each converges slowest: the first series term left out
# is below 1e-20 of the sum, and the fraction at twice the depth agrees
# to 1e-16.
_SERIES_LIMIT = 6.0
_SERIES_TERMS = 22
_CF_DEPTH = 40

# Si(x) = x P(x^2) and Cin(x) = x^2 Q(x^2), highest power first:
# P_k = (-1)^k / ((2k+1) (2k+1)!), Q_k = (-1)^k / ((2k+2) (2k+2)!).
_SI_POLY = [(-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1))
            for k in reversed(range(_SERIES_TERMS))]
_CIN_POLY = [(-1) ** k / ((2 * k + 2) * math.factorial(2 * k + 2))
             for k in reversed(range(_SERIES_TERMS))]


def sine_integral(x):
    """Sine integral Si(x) = integral of sin(t)/t from 0 to x, elementwise.

    Odd in x.  A float or 0-d input gives a float, an array input an
    array of the same shape.  Checked against mpmath to 1e-12 absolute
    for |x| in [1e-8, 1e15].
    """
    x = _require_finite(x)
    ax = np.abs(x)
    si = np.zeros_like(ax)
    nonzero = ax > 0.0
    si[nonzero] = -_ci_minus_i_si(ax[nonzero]).imag
    return _like_input(np.copysign(si, x))


def cosine_integral(x):
    """Cosine integral Ci(x) = gamma + ln(x) + integral of (cos(t)-1)/t,
    elementwise.

    Defined for x > 0 only (logarithmic singularity at the origin).  A
    float or 0-d input gives a float, an array input an array of the
    same shape.  Checked against mpmath to 1e-12 absolute for x in
    [1e-8, 1e15].
    """
    x = _require_finite(x)
    if np.any(x <= 0.0):
        raise DomainError(f"cosine_integral requires x > 0, got {x.min()}")
    return _like_input(_ci_minus_i_si(x).real)


def _require_finite(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"argument must be finite, got {x[~np.isfinite(x)].flat[0]}")
    return x


def _like_input(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def _ci_minus_i_si(x: np.ndarray) -> np.ndarray:
    """Ci(x) - i Si(x) = -E1(ix) - i pi/2 for x > 0, elementwise; below
    the crossover as gamma + ln(x) - Ein(ix), which keeps small Si(x)
    accurate to its last digits."""
    out = np.empty(x.shape, dtype=complex)
    low = x < _SERIES_LIMIT
    out[low] = EULER_GAMMA + np.log(x[low]) - _ein_series(x[low])
    out[~low] = -_e1_continued_fraction(x[~low]) - 0.5j * math.pi
    return out


def _ein_series(x: np.ndarray) -> np.ndarray:
    """Ein(ix) = Cin(x) + i Si(x) from their Maclaurin series, each a
    real Horner polynomial in x^2: Si(x) = x P(x^2), Cin(x) = x^2 Q(x^2)."""
    y = x * x
    return y * np.polyval(_CIN_POLY, y) + 1j * x * np.polyval(_SI_POLY, y)


def _e1_continued_fraction(x: np.ndarray) -> np.ndarray:
    """E1(ix) for x >= 6 from the continued fraction

        E1(ix) = e^{-ix} / (ix + 1 - 1/(ix + 3 - 4/(ix + 5 - ...)))

    evaluated backward from depth ``_CF_DEPTH``, the same steps for
    every entry.
    """
    z = 1j * x
    t = z + (2 * _CF_DEPTH + 1)
    for i in range(_CF_DEPTH, 0, -1):
        t = z + (2 * i - 1) - i * i / t
    return np.exp(-z) / t
