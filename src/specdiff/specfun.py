"""Conical Legendre functions P_{-1/2+it}(x) and the complex special
functions backing them.

Two representations are used, each valid on part of the half-line x >= 1:

* Near x = 1 (``NearOne``): the Gauss hypergeometric form

      P_nu(x) = 2F1(-nu, nu+1; 1; (1-x)/2),   nu = -1/2 + it,

  whose series argument (1-x)/2 stays inside the unit disk for x < 3.

* Away from 1 (``FarBranch``): the sum of two conjugate branches

      P_{-1/2+it}(x) = G(t) (2x)^(-1/2-it) 2F1(1/4+it/2, 3/4+it/2; 1+it; x^-2)
                       + conj-branch,
      G(t) = Gamma(-it) / (sqrt(pi) Gamma(1/2-it)),

  valid for all x > 1, with series argument x^-2.

Both produce a real value for real t and x >= 1.  The two-branch form is
singular term-by-term at t = 0 (Gamma(+-it) poles) although its sum has a
finite limit; the limit is evaluated from the explicit formula

      P_{-1/2}(x) = (2/pi) (2x)^(-1/2) [ F0(z) log(8x) - S(z) ],  z = x^-2,

where F0 = 2F1(1/4, 3/4; 1; z) and S is the term-by-term derivative series
S = sum_n T_n z^n (s_n - H_n), T_n = (1/4)_n (3/4)_n / (n!)^2,
s_n = (1/2) sum_{k<n} [1/(k+1/4) + 1/(k+3/4)], H_n the harmonic number.
For 0 < t below a small switch point the value is interpolated in t^2
between this limit and a direct evaluation (the function is even in t).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "Representation",
    "ConicalEval",
    "ConicalBoundReport",
    "hyp2f1",
    "complex_gamma",
    "conical_p",
    "check_conical_bounds",
    "T_MAX",
]

# Series controls: stop after three consecutive terms below SERIES_RTOL times
# the running sum; hard cap guards divergent parameter choices.
SERIES_CAP = 10_000
SERIES_RTOL = 1e-16
SERIES_Z_MAX = 0.9

# Branch seam: near-one form below, two-branch form at and above.  The seam
# sits mid-way between the validity boundaries x < 3 and x > 1 of the two
# representations, maximizing distance from both.
SEAM_X = 2.0

# Below this t the two-branch form is replaced by the even-in-t interpolation
# through the exact t = 0 limit (avoids the Gamma(+-it) pole cancellation).
T_SWITCH = 1e-3

# Public contract: larger t would need asymptotic expansions.
T_MAX = 16.0

_SQRT_PI = math.sqrt(math.pi)

# Lanczos approximation, g = 7, 9 terms; relative accuracy ~1e-13 on the
# moderate strip once paired with reflection for Re z < 1/2.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


class Representation(Enum):
    NEAR_ONE = "NearOne"
    FAR_BRANCH = "FarBranch"


@dataclass(frozen=True)
class ConicalEval:
    """One evaluation of P_{-1/2+it}(x) with representation provenance.

    ``imag_residual`` is the magnitude of the imaginary part produced by the
    representation before it was discarded; it must stay below 1e-10.
    """

    t: float
    x: float
    value: float
    representation: Representation
    imag_residual: float = 0.0


@dataclass(frozen=True)
class ConicalBoundReport:
    """Empirical suprema for the uniform and Hoelder bounds of the conical
    function over a finite sample set (delta = 1/2 in the Hoelder quotient)."""

    t_max: float
    n_t: int
    n_x: int
    uniform_sup: float        # sup sqrt(x) |P_{-1/2+it}(x)|
    holder_sup: float         # sup |P_t2 - P_t1| / (|t2-t1|^d x^-1/2 (1+log x)^d)
    delta: float = 0.5


def _is_nonpositive_integer(z: complex, tol: float = 1e-12) -> bool:
    zr = round(z.real)
    return zr <= 0 and abs(z - zr) <= tol


def hyp2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric series sum_n (a)_n (b)_n / (c)_n z^n / n!.

    Restricted to |z| <= 0.9 where the plain series is the right tool; the
    iteration stops once three consecutive terms fall below 1e-16 of the
    running sum (robust against an early small term).
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    z = complex(z)
    if _is_nonpositive_integer(c):
        raise DomainError(f"hyp2f1: c={c} is (numerically) a non-positive integer pole")
    if abs(z) > SERIES_Z_MAX:
        raise DomainError(f"hyp2f1: |z|={abs(z):.4f} outside the series regime |z| <= {SERIES_Z_MAX}")
    if z == 0:
        return 1.0 + 0.0j

    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    last_magnitude = 1.0
    small_run = 0
    for n in range(SERIES_CAP):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        magnitude = abs(term)
        if not math.isfinite(magnitude):
            raise ConvergenceError("hyp2f1 series overflowed", last_magnitude)
        last_magnitude = magnitude
        total += term
        if magnitude <= SERIES_RTOL * abs(total):
            small_run += 1
            if small_run == 3:
                return total
        else:
            small_run = 0
    raise ConvergenceError("hyp2f1 series did not converge within the term cap",
                           last_magnitude)


def _sinpi(z: complex) -> complex:
    # sin(pi z) with argument reduction so accuracy survives near integers.
    n = round(z.real)
    r = z - n
    s = cmath.sin(math.pi * r)
    return -s if n % 2 else s


def complex_gamma(z: complex) -> complex:
    """Gamma function for complex argument (Lanczos, reflection for Re z < 1/2).

    Relative accuracy ~1e-13 on the strip |Re z| <= 10, |Im z| <= 10, away
    from the poles at the non-positive integers (guarded to 1e-12).
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise DomainError(f"complex_gamma: z={z} is within 1e-12 of a pole")
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (_sinpi(z) * complex_gamma(1.0 - z))
    zz = z - 1.0
    acc = _LANCZOS[0] + 0.0j
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (zz + 0.5) * cmath.exp(-t) * acc


def _conical_near(t: float, x: float) -> tuple[float, float]:
    nu = -0.5 + 1j * t
    val = hyp2f1(-nu, nu + 1.0, 1.0, (1.0 - x) / 2.0)
    return val.real, abs(val.imag)


def _far_one_branch(t: float, x: float) -> complex:
    pref = complex_gamma(-1j * t) / (_SQRT_PI * complex_gamma(0.5 - 1j * t))
    power = (2.0 * x) ** complex(-0.5, -t)
    series = hyp2f1(0.25 + 0.5j * t, 0.75 + 0.5j * t, 1.0 + 1j * t, x ** -2)
    return pref * power * series


def _far_direct(t: float, x: float) -> tuple[float, float]:
    # Both conjugate branches are evaluated independently; the imaginary
    # leftover measures genuine rounding asymmetry and is reported.
    val = _far_one_branch(t, x) + _far_one_branch(-t, x)
    return val.real, abs(val.imag)


def _far_t_zero(x: float) -> float:
    z = x ** -2
    f0 = 0.0
    s = 0.0
    term = 1.0
    digamma_part = 0.0
    harmonic = 0.0
    for n in range(SERIES_CAP):
        if n > 0:
            term *= (n - 0.75) * (n - 0.25) / (n * n) * z
            digamma_part += 0.5 * (1.0 / (n - 0.75) + 1.0 / (n - 0.25))
            harmonic += 1.0 / n
        f0 += term
        s += term * (digamma_part - harmonic)
        if abs(term) < 1e-18 * abs(f0):
            break
    return (2.0 / math.pi) * (2.0 * x) ** -0.5 * (f0 * math.log(8.0 * x) - s)


def _conical_far(t: float, x: float) -> ConicalEval:
    """The two-branch form; below T_SWITCH, the even-in-t quadratic
    interpolation through the exact t = 0 limit."""
    if t >= T_SWITCH:
        value, resid = _far_direct(t, x)
        return ConicalEval(t, x, value, Representation.FAR_BRANCH, resid)
    p0 = _far_t_zero(x)
    if t == 0.0:
        return ConicalEval(t, x, p0, Representation.FAR_BRANCH, 0.0)
    p1, resid = _far_direct(T_SWITCH, x)
    value = p0 + (t / T_SWITCH) ** 2 * (p1 - p0)
    return ConicalEval(t, x, value, Representation.FAR_BRANCH, resid)


def conical_p(t: float, x: float) -> ConicalEval:
    """Evaluate the conical function P_{-1/2+it}(x) for t >= 0, x >= 1.

    Representation: the hypergeometric near-one form for x below the seam at
    x = 2, the two-branch form at and above it.  The imaginary part produced
    by either formula is recorded and discarded.
    """
    t = float(t)
    x = float(x)
    if not (t >= 0.0):
        raise DomainError(f"conical_p: t={t} must be >= 0")
    if t > T_MAX:
        raise DomainError(f"conical_p: t={t} exceeds the supported range [0, {T_MAX}]")
    if not (x >= 1.0):
        raise DomainError(f"conical_p: x={x} must be >= 1")

    if x == 1.0:
        return ConicalEval(t, x, 1.0, Representation.NEAR_ONE, 0.0)
    if x < SEAM_X:
        value, resid = _conical_near(t, x)
        return ConicalEval(t, x, value, Representation.NEAR_ONE, resid)
    return _conical_far(t, x)


def conical_p_near_one(t: float, x: float) -> ConicalEval:
    """Force the near-one representation (valid for 1 <= x < 3)."""
    if not (1.0 <= x < 3.0):
        raise DomainError(f"near-one representation needs 1 <= x < 3, got x={x}")
    if x == 1.0:
        return ConicalEval(t, x, 1.0, Representation.NEAR_ONE, 0.0)
    value, resid = _conical_near(t, x)
    return ConicalEval(t, x, value, Representation.NEAR_ONE, resid)


def conical_p_far_branch(t: float, x: float) -> ConicalEval:
    """Force the two-branch representation (valid for x > 1)."""
    if not (x > 1.0):
        raise DomainError(f"two-branch representation needs x > 1, got x={x}")
    return _conical_far(t, x)


def check_conical_bounds(t_max: float, x_samples, n_t: int = 9) -> ConicalBoundReport:
    """Empirical suprema for the sqrt(x)-decay bound and the Hoelder-in-t
    bound (exponent 1/2) over the given x samples and an even t grid.

    The suprema are finite by construction; stability is judged by the caller
    comparing reports at two sample resolutions.
    """
    xs = np.asarray(list(x_samples), dtype=float)
    if xs.size == 0:
        raise DomainError("check_conical_bounds: empty sample set")
    if np.any(xs < 1.0):
        raise DomainError("check_conical_bounds: samples must satisfy x >= 1")
    ts = np.linspace(0.0, float(t_max), n_t)

    values = np.empty((n_t, xs.size))
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            values[i, j] = conical_p(t, x).value

    uniform = float(np.max(np.sqrt(xs)[None, :] * np.abs(values)))

    delta = 0.5
    weight = xs ** -0.5 * (1.0 + np.log(xs)) ** delta
    holder = 0.0
    for i1 in range(n_t):
        for i2 in range(i1 + 1, n_t):
            dt = abs(ts[i2] - ts[i1])
            if dt == 0.0:
                continue
            q = np.max(np.abs(values[i2] - values[i1]) / (dt ** delta * weight))
            holder = max(holder, float(q))

    return ConicalBoundReport(
        t_max=float(t_max), n_t=n_t, n_x=int(xs.size),
        uniform_sup=uniform, holder_sup=holder, delta=delta,
    )
