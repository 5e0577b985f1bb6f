"""Sine and cosine integrals for the dipole mutual-impedance closed forms.

``sine_integral`` (Si) and ``cosine_integral`` (Ci) take a float or an
array.  Si and Ci share one kernel, Ci(x) - i Si(x) = -E1(ix) - i pi/2
(Abramowitz & Stegun 5.2.23): a Maclaurin series of
Ein(ix) = Cin(x) + i Si(x) for small arguments and a complex continued
fraction for the exponential integral E1(ix) beyond that; the branch
point is chosen so both evaluations agree to better than 1e-11.
"""

import math

import numpy as np

from .errors import DomainError

EULER_GAMMA = 0.577215664901532860606512090082

# Series/continued-fraction crossover.  The alternating Maclaurin series
# still carries ~13 significant digits here and the continued fraction
# converges in a few dozen terms.
_SERIES_LIMIT = 6.0
_CF_MAX_ITER = 200
_EPS = 1e-16


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
    """Maclaurin series Ein(ix) = sum -(-ix)^n / (n n!) = Cin(x) + i Si(x)."""
    w = -1j * x
    t = -w  # -(-ix)^n / n!, starting at n = 1
    total = t.copy()
    for n in range(2, 201):
        t = t * w / n
        c = t / n
        total += c
        if np.all(np.abs(c) <= _EPS * np.abs(total)):
            break
    return total


def _e1_continued_fraction(x: np.ndarray) -> np.ndarray:
    """E1(ix) for x >= ~2 via the Lentz continued fraction

        E1(ix) = e^{-ix} / (ix + 1 - 1/(ix + 3 - 4/(ix + 5 - ...)))

    Each entry is written out once its own factor has converged, and
    only the entries still converging are carried on.
    """
    z = 1j * np.ravel(x)
    tiny = 1e-290
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    out = np.empty_like(z)
    lanes = np.arange(z.size)
    for i in range(1, _CF_MAX_ITER):
        a = -float(i * i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h = h * delta
        done = np.abs(delta - 1.0) < 1e-16
        out[lanes[done]] = h[done]
        going = ~done
        lanes, b, c, d, h = lanes[going], b[going], c[going], d[going], h[going]
        if not lanes.size:
            break
    out[lanes] = h
    return (np.exp(-z) * out).reshape(np.shape(x))
