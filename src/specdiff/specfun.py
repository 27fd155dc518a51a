"""Conical Legendre functions P_{-1/2+it}(x) and the hypergeometric series
behind them.

Two representations are used, each valid on part of the half-line x >= 1:

* Near x = 1 (``conical_p_near_one``): the Gauss hypergeometric form

      P_nu(x) = 2F1(-nu, nu+1; 1; (1-x)/2),   nu = -1/2 + it,

  whose series argument (1-x)/2 stays inside the unit disk for x < 3.

* Away from 1 (``conical_p_far_branch``): the sum of two conjugate branches

      P_{-1/2+it}(x) = 2 Re[ G(t) (2x)^(-1/2-it)
                             * 2F1(1/4+it/2, 3/4+it/2; 1+it; x^-2) ],
      G(t) = Gamma(-it) / (sqrt(pi) Gamma(1/2-it)),

  valid for all x > 1, with series argument x^-2.  For real t and x the
  -t branch is the complex conjugate of the +t branch, so only the +t
  branch is evaluated; G(t) takes its Gamma values from scipy.special.

Both produce a real value for real t and x >= 1.  The two-branch form is
singular term-by-term at t = 0 (Gamma(-it) pole) although its sum has a
finite limit; the limit is the closed form (DLMF 14.5.v)

      P_{-1/2}(x) = (2/pi) sqrt(2/(x+1)) K(m),   m = (x-1)/(x+1),

with K the complete elliptic integral of the first kind, evaluated through
scipy's ``ellipkm1`` at 1 - m = 2/(x+1), which avoids forming 1 - m.
For 0 < t below a small switch point the value is interpolated in t^2
between this limit and a direct evaluation (the function is even in t).

Array API.  ``hyp2f1`` and ``conical_values`` take numpy arrays and
broadcast them; a scalar input gives a scalar output.  The series run on
all elements at once with masked convergence: each element stops on its own
rule (three consecutive terms below ``SERIES_RTOL`` times its running sum),
its value is stored at that step, and finished elements are dropped from
the working arrays in batches, once a quarter of them has finished.  So
every element gets, bit for bit, the value it gets when evaluated alone.
A call takes about as many numpy operations per term whatever its width,
so callers pass a whole (t, x) grid in one call, not one call per t.
``conical_values(t, x)`` picks the representation per point and evaluates
G(t) on ``t`` as given, before broadcasting: on a grid
``conical_values(ts[:, None], xs)`` that is one Gamma pair per t, not per
point.  The forced representations ``conical_p_near_one`` and
``conical_p_far_branch`` run the same kernels on every point and return the
same ``(value, imag_residual)`` pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "ConicalBoundReport",
    "hyp2f1",
    "conical_values",
    "conical_p_near_one",
    "conical_p_far_branch",
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

# Points per pass through the series.  A complex work array of this many
# points is 64 kB, so memory stays flat on any grid; the values do not
# depend on it (each point is computed on its own).
_BLOCK = 4096

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class ConicalBoundReport:
    """Empirical suprema for the uniform and Hoelder bounds of the conical
    function over a finite sample set (delta = 1/2 in the Hoelder quotient)."""

    uniform_sup: float        # sup sqrt(x) |P_{-1/2+it}(x)|
    holder_sup: float         # sup |P_t2 - P_t1| / (|t2-t1|^d x^-1/2 (1+log x)^d)


def _near_nonpositive_integer(z: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    zr = np.round(z.real)
    return (zr <= 0) & (np.abs(z - zr) <= tol)


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric series sum_n (a)_n (b)_n / (c)_n z^n / n!,
    elementwise over the broadcast of the arguments.

    Restricted to |z| <= 0.9 where the plain series is the right tool.  Each
    element stops once three consecutive terms fall below 1e-16 of its own
    running sum (robust against an early small term), and its sum is stored
    at that step; elements with z == 0 are exactly 1.  A finished element
    stays in the working arrays, its later terms ignored and unchecked for
    overflow, until a quarter of the working set has finished; then all the
    finished ones are dropped at once, which saves a copy of every working
    array per step on grids where elements finish a few at a time.
    """
    a, b, c = (np.asarray(v, dtype=complex) for v in (a, b, c))
    a, b, c, z = np.broadcast_arrays(a, b, c, np.asarray(z))
    if np.any(_near_nonpositive_integer(c)):
        raise DomainError("hyp2f1: c is (numerically) a non-positive integer pole")
    if np.any(np.abs(z) > SERIES_Z_MAX):
        raise DomainError(f"hyp2f1: |z| outside the series regime |z| <= {SERIES_Z_MAX}")

    # numpy's complex product fuses multiply-adds, so (a+n)(b+n) and
    # (b+n)(a+n) can differ in the last bit; a fixed order of a and b per
    # element keeps the computed value as symmetric as the function.
    swap = (b.real < a.real) | ((b.real == a.real) & (b.imag < a.imag))
    a, b = np.where(swap, b, a), np.where(swap, a, b)

    out = np.ones(z.shape, dtype=complex)
    flat = out.reshape(-1)
    live = np.flatnonzero(z != 0)
    a, b, c, z = (v.reshape(-1)[live] for v in (a, b, c, z))
    total = np.ones(live.size, dtype=complex)
    term = np.ones(live.size, dtype=complex)
    last_magnitude = np.ones(live.size)
    small_run = np.zeros(live.size, dtype=int)
    pending = np.ones(live.size, dtype=bool)
    n_pending = live.size
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(SERIES_CAP):
            if n_pending == 0:
                break
            # Not in place: numpy's in-place complex product takes another
            # path for one-element arrays, and each element must get the same
            # bits alone as in a grid.
            term = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0)) * z)
            magnitude = np.abs(term)
            if not np.isfinite(magnitude).all():
                overflow = ~np.isfinite(magnitude) & pending
                if overflow.any():
                    raise ConvergenceError("hyp2f1 series overflowed",
                                           float(last_magnitude[overflow][0]))
            last_magnitude = magnitude
            total += term
            small_run = np.where(magnitude <= SERIES_RTOL * np.abs(total),
                                 small_run + 1, 0)
            done = small_run == 3
            if done.any():
                done &= pending
                flat[live[done]] = total[done]
                pending &= ~done
                n_pending -= np.count_nonzero(done)
                if 4 * n_pending <= 3 * live.size:
                    live, a, b, c, z, total, term, last_magnitude, small_run = (
                        v[pending] for v in (live, a, b, c, z, total, term,
                                             last_magnitude, small_run))
                    pending = np.ones(live.size, dtype=bool)
    if n_pending:
        raise ConvergenceError("hyp2f1 series did not converge within the term cap",
                               float(np.max(last_magnitude[pending])))
    return out[()]


def _near(t, x):
    """The near-one form, elementwise over the broadcast of t and x."""
    val = hyp2f1(0.5 - 1j * t, 0.5 + 1j * t, 1.0, (1.0 - x) / 2.0)
    return val.real, np.abs(val.imag)


def _prefactor(t: np.ndarray) -> np.ndarray:
    """G(t) = Gamma(-it) / (sqrt(pi) Gamma(1/2-it)) for t > 0."""
    # Imported here: scipy.special costs tens of ms to load and a run that
    # evaluates no conical function has no use for it.
    from scipy.special import gamma
    return gamma(-1j * t) / (_SQRT_PI * gamma(0.5 - 1j * t))


def _far_t_zero(x: np.ndarray) -> np.ndarray:
    """The exact t = 0 limit of the two-branch form, elementwise:
    (2/pi) sqrt(p) K(1 - p) with p = 2/(x+1), from ``ellipkm1(p)``, so that
    1 - p is never formed."""
    from scipy.special import ellipkm1    # loaded lazily, as in _prefactor
    p = 2.0 / (x + 1.0)
    return (2.0 / math.pi) * np.sqrt(p) * ellipkm1(p)


def _far(t: np.ndarray, x: np.ndarray, pref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two-branch form at 1-D points (t, x), given G(t) per point in
    ``pref``; below T_SWITCH, the even-in-t interpolation through the exact
    t = 0 limit.

    For real t and x the -t branch is the complex conjugate of the +t branch
    (its inputs are the conjugates, and the arithmetic is conjugate
    symmetric to the last bit), so only the +t branch is evaluated and the
    value is twice its real part.  The imaginary residual is 0.
    """
    value = np.zeros(t.size)
    direct = t > 0.0
    s = np.maximum(t[direct], T_SWITCH)
    xd = x[direct]
    log2x = np.log(2.0 * xd)
    power = np.exp(-0.5 * log2x - 1j * s * log2x)         # (2x)^(-1/2-is)
    series = hyp2f1(0.25 + 0.5j * s, 0.75 + 0.5j * s, 1.0 + 1j * s, xd ** -2.0)
    value[direct] = 2.0 * (pref[direct] * power * series).real

    small = t < T_SWITCH
    if np.any(small):
        # At t = 0 no direct value was taken: p0 + 0 * (0 - p0) is p0.
        p0 = _far_t_zero(x[small])
        value[small] = p0 + (t[small] / T_SWITCH) ** 2 * (value[small] - p0)
    return value, np.zeros(t.size)


def _conical(t, x, x_ok, message: str, near):
    """The one evaluator behind the public conical functions: values and
    imaginary residuals on the broadcast of t and x, as float arrays.

    It owns the argument rules: t in [0, T_MAX], and x passing the
    representation's domain test ``x_ok(x)``, else DomainError
    (``message``).  ``near(t, x)``, on the broadcast t and x, chooses the
    representation per point: the near-one form where True, the two-branch
    form elsewhere.  G(t) is evaluated once per entry of t as given.  The
    points go through the series in blocks of at most _BLOCK, so the
    working arrays stay small whatever the grid; since every element is
    computed on its own, the blocking does not change a bit of the result.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if not np.all(t >= 0.0):
        raise DomainError("conical function: t must be >= 0")
    if np.any(t > T_MAX):
        raise DomainError(f"conical function: t exceeds the supported range [0, {T_MAX}]")
    if not np.all(x_ok(x)):
        raise DomainError(message)
    shape = np.broadcast_shapes(t.shape, x.shape)
    tb = np.broadcast_to(t, shape)
    xb = np.broadcast_to(x, shape)
    mask = np.broadcast_to(near(tb, xb), shape)
    value = np.empty(shape)
    resid = np.empty(shape)
    idx = np.flatnonzero(mask)
    for start in range(0, idx.size, _BLOCK):
        block = idx[start:start + _BLOCK]
        value.flat[block], resid.flat[block] = _near(tb.flat[block], xb.flat[block])
    idx = np.flatnonzero(~mask)
    if idx.size:
        pref = np.broadcast_to(_prefactor(np.maximum(t, T_SWITCH)), shape)
        for start in range(0, idx.size, _BLOCK):
            block = idx[start:start + _BLOCK]
            value.flat[block], resid.flat[block] = _far(
                tb.flat[block], xb.flat[block], pref.flat[block])
    return value[()], resid[()]


def conical_values(t, x):
    """P_{-1/2+it}(x) and the imaginary residual of its representation,
    elementwise over the broadcast of t (0 <= t <= T_MAX) and x (x >= 1).

    Representation per point: the near-one form for x below the seam at
    x = 2 (x = 1 gives exactly 1), the two-branch form at and above it.
    G(t) is evaluated once per entry of t as given, so pass a grid as
    ``conical_values(ts[:, None], xs)``.  Scalars in, scalars out.
    """
    return _conical(t, x, lambda x: x >= 1.0,
                    "conical function: x must be >= 1",
                    lambda t, x: x < SEAM_X)


def conical_p_near_one(t, x):
    """Force the near-one representation (valid for 1 <= x < 3), elementwise
    over the broadcast of t and x; returns (value, imag_residual) like
    :func:`conical_values`."""
    return _conical(t, x, lambda x: (1.0 <= x) & (x < 3.0),
                    "near-one representation needs 1 <= x < 3",
                    lambda t, x: True)


def conical_p_far_branch(t, x):
    """Force the two-branch representation (valid for x > 1), elementwise
    over the broadcast of t and x; returns (value, imag_residual) like
    :func:`conical_values`."""
    return _conical(t, x, lambda x: x > 1.0,
                    "two-branch representation needs x > 1",
                    lambda t, x: False)


def check_conical_bounds(t_max: float, x_samples, n_t: int = 9) -> ConicalBoundReport:
    """Empirical suprema for the sqrt(x)-decay bound and the Hoelder-in-t
    bound (exponent 1/2) over the given x samples and an even t grid.

    The suprema are finite by construction; stability is judged by the caller
    comparing reports at two sample resolutions.  The Hoelder sup takes one
    row of t at a time against all later rows, so memory stays O(n_t n_x).
    """
    xs = np.asarray(list(x_samples), dtype=float)
    if xs.size == 0:
        raise DomainError("check_conical_bounds: empty sample set")
    if np.any(xs < 1.0):
        raise DomainError("check_conical_bounds: samples must satisfy x >= 1")
    if n_t < 2:
        raise DomainError("check_conical_bounds: the Hoelder quotient needs n_t >= 2")
    ts = np.linspace(0.0, float(t_max), n_t)
    values, _ = conical_values(ts[:, None], xs)

    uniform = float(np.max(np.sqrt(xs)[None, :] * np.abs(values)))

    delta = 0.5
    weight = xs ** -0.5 * (1.0 + np.log(xs)) ** delta
    holder = 0.0
    for i in range(n_t - 1):
        dt = np.abs(ts[i + 1:] - ts[i])
        later = dt > 0.0
        if np.any(later):
            q = (np.abs(values[i + 1:][later] - values[i])
                 / (dt[later, None] ** delta * weight))
            holder = max(holder, float(np.max(q)))

    return ConicalBoundReport(uniform_sup=uniform, holder_sup=holder)
