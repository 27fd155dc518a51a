"""The 2x2 scattering matrix of a decaying 1D potential, by two independent
routes, with eigenphases, band radii, and the spectral-shift accounting that
ties the scattering determinant to eigenvalue counting in a finite box.

Basis convention.  Channels are ordered (right-incoming, left-incoming),
i.e. plane waves e^{-ikx} and e^{+ikx} at infinity, so that

    S = [[t, r_L], [r_R, t]]

with t the (direction-independent) transmission amplitude and r_L, r_R the
two reflection amplitudes.  For a parity-even potential r_L = r_R and the
matrix is symmetric with eigenvalues t +- r, the even/odd eigenphase pair.
V = 0 gives S = I.

Route 1 (``s_matrix_ode``): integrate -u'' + V u = lam u across the support
with a fixed-step RK4 scheme, segmented at the potential's jump points so the
integrator never steps across a discontinuity.  The equation is linear with
real coefficients, so each RK4 step is a real 2x2 transfer matrix; the steps
of a segment are built and multiplied in blocks of fixed size.  The product
of the segments, one forward propagator per energy, fixes both columns of S.

Route 2 (``s_matrix_stationary``): the on-shell formula

    S = I - 2 pi i Z W J (I + T J)^{-1} Z*

with G = |V|^{1/2}, J = sign V, W the quadrature weights, T the
G-sandwiched outgoing free resolvent with kernel i e^{ik|x-y|} / (2k), and
Z the two energy-shell rows (4 pi k)^{-1/2} e^{-i omega k x} G(x),
omega = -1, +1.  The kernel is kinked on the diagonal, so it is integrated
by product integration (Greengard & Rokhlin, CPAM 44, 1991): Chebyshev
panels run between the potential's jumps, and the prefix and suffix parts
e^{ikx} int_{y<x} e^{-iky} f(y) dy and e^{-ikx} int_{y>x} e^{iky} f(y) dy
are integrated exactly for the panel interpolant by a spectral integration
matrix L and by R = 1 w^T - L.  The order is spectral, also across jumps.
Since L + R = 1 w^T, Im T = pi Z* Z W holds entry by entry.  T is not
symmetric, so S is unitary only up to the quadrature error; that is
rounding for the even and the piecewise-constant potentials here at any
node count, and spectrally small otherwise (an asymmetric smooth well:
4e-2 at 16 nodes, 4e-13 at 64).  One dense LU solves I + T J, and LAPACK
gecon estimates the condition number from that LU for the singularity
guard.  ``N_CAP`` bounds the node count, and so both the n x n system's
memory and that of the panel rules, which are built once per order and kept
for the last eight orders: at most 67 MB at the cap, 0.18 MB for the
default ladders.

Spectral shift.  The integer count -(#eig(H) < lam) + (#eig(H0) < lam) on a
Dirichlet box equals -trace(D) exactly but carries O(1) truncation jitter.
For the Birman-Krein comparison the staircases are interpolated linearly at
midpoint convention, one staircase per parity sector of the box (a box that
is not mirror-symmetric is one sector), which removes the jitter and leaves
an O(1/L)-smeared estimate of the spectral shift.  The staircases are read
from ``schrodinger1d.box_levels``: one window of eigenvalues per sector,
which a campaign computes once for all its energies.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lapack

from .errors import ConvergenceError, DomainError, SingularOperatorError, StepSizeError
from .schrodinger1d import (
    BoxDiscretization,
    BoxLevels,
    Potential,
    box_levels,
    count_below,  # noqa: F401  (kept importable from this module by name)
)

__all__ = [
    "ScatteringMatrix",
    "EigenphaseSet",
    "StationaryOperators",
    "s_matrix_ode",
    "s_matrix_stationary",
    "eigenphases",
    "smeared_spectral_shift",
    "birman_krein_value",
]

UNITARITY_TOL_ODE = 1e-8
UNITARITY_TOL_STATIONARY = 1e-6
COND_GUARD = 1e12
REFINE_TARGET, N_START, N_CAP = 1e-4, 16, 1024    # see s_matrix_stationary
_RULE_CACHE = 8                                   # orders N_START ... N_CAP, one to spare
PHASE_TOL = 1e-6                                  # see eigenphases
ODE_SUPPORT_TOL, ODE_STEP = 1e-11, 0.01           # see s_matrix_ode


@dataclass(frozen=True)
class ScatteringMatrix:
    momentum: float
    matrix: np.ndarray
    unitarity_defect: float

    def det(self) -> complex:
        m = self.matrix
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


@dataclass(frozen=True)
class EigenphaseSet:
    """Eigenphases theta_n of S away from 1, with band radii
    kappa_n = |e^{i theta_n} - 1| / 2 = sin(|theta_n|/2), sorted by
    descending kappa."""

    thetas: np.ndarray
    kappas: np.ndarray


@dataclass(frozen=True)
class StationaryOperators:
    nodes: np.ndarray
    weights: np.ndarray
    g_diag: np.ndarray          # |V|^{1/2} at nodes
    j_diag: np.ndarray          # sign V at nodes
    z_rows: np.ndarray          # 2 x n energy-shell rows
    condition_number: float
    # (total nodes, |S - S_previous|) per ladder rung after the first;
    # empty for an explicit node count
    refinement: tuple = ()


# RK4 steps are built and multiplied in blocks of this many, about 160 bytes
# of arrays per step, so a segment's memory does not grow with its length.
_RK4_BLOCK = 1 << 14


def _rk4_segment(potential, lam: float, x0: float, x1: float,
                 step: float) -> np.ndarray:
    """Real 2x2 propagator of (u, u') under RK4 for u'' = (V - lam) u across
    one smooth segment.

    The equation is linear with real coefficients, so each step is a real
    2x2 map M_i: the RK4 stages, applied to the basis columns (1, 0) and
    (0, 1) for a block of ``_RK4_BLOCK`` steps at once, give its columns.
    A block's maps are multiplied pairwise in log2 rounds, the block products
    in order: M_{N-1} ... M_1 M_0.  Stage points are clamped a hair inside
    the segment so that one-sided values are used at jump locations sitting
    on segment ends.
    """
    length = abs(x1 - x0)
    nsteps = max(1, math.ceil(length / step))
    h = (x1 - x0) / nsteps
    lo, hi = min(x0, x1), max(x0, x1)
    eps = 1e-12 * length

    def coefficient(x):
        return np.asarray(potential(np.clip(x, lo + eps, hi - eps)), dtype=float) - lam

    product = None
    for start in range(0, nsteps, _RK4_BLOCK):
        xs = x0 + h * np.arange(start, min(start + _RK4_BLOCK, nsteps))
        block = _rk4_product(h, coefficient(xs), coefficient(xs + h / 2),
                             coefficient(xs + h))
        product = block if product is None else block @ product
    return product


def _rk4_product(h: float, ca, cm, cb) -> np.ndarray:
    """M_{m-1} ... M_0 for the RK4 step maps of u'' = c u whose coefficient
    takes the values ca, cm and cb at the start, middle and end of step i."""
    def rk4_step(u, du):
        k1u, k1d = du, ca * u
        k2u = du + 0.5 * h * k1d
        k2d = cm * (u + 0.5 * h * k1u)
        k3u = du + 0.5 * h * k2d
        k3d = cm * (u + 0.5 * h * k2u)
        k4u = du + h * k3d
        k4d = cb * (u + h * k3u)
        return (u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u),
                du + (h / 6.0) * (k1d + 2 * k2d + 2 * k3d + k4d))

    one, zero = np.ones(ca.size), np.zeros(ca.size)
    maps = np.empty((ca.size, 2, 2))
    maps[:, 0, 0], maps[:, 1, 0] = rk4_step(one, zero)
    maps[:, 0, 1], maps[:, 1, 1] = rk4_step(zero, one)
    while len(maps) > 1:
        pairs = maps[1::2] @ maps[:-1:2]
        maps = np.concatenate([pairs, maps[-1:]]) if len(maps) % 2 else pairs
    return maps[0]


def _segments(potential, x_max: float) -> list[float]:
    """-x_max, the potential's jump points inside (-x_max, x_max) in
    ascending order, and x_max: the ends of the smooth segments."""
    inner = sorted(b for b in potential.breakpoints() if -x_max < b < x_max)
    return [-x_max, *inner, x_max]


def _propagator(potential, lam: float, x_max: float, step: float) -> np.ndarray:
    """Real 2x2 forward propagator of (u, u') from -x_max to x_max: the
    product of the segment propagators between the potential's jump points."""
    points = _segments(potential, x_max)
    m = np.eye(2)
    for a, b in zip(points[:-1], points[1:]):
        m = _rk4_segment(potential, lam, a, b, step) @ m
    return m


def s_matrix_ode(potential: Potential, lam: float) -> ScatteringMatrix:
    """Scattering matrix by plane-wave matching of one RK4 propagator M
    over [-x_max, x_max], x_max = ``potential.effective_support``
    (``ODE_SUPPORT_TOL``), with steps of ``ODE_STEP`` / sqrt(lam + max|V|).

    A potential whose effective support understates its support (|V| above
    1e-10 at +-x_max) is a DomainError: S would miss the rest of it.  A
    unitarity defect above ``UNITARITY_TOL_ODE`` is a StepSizeError.
    """
    if not 0 < lam < math.inf:
        raise DomainError(f"scattering energy must be positive and finite, "
                          f"got {lam}")
    k = math.sqrt(lam)
    x_max = potential.effective_support(ODE_SUPPORT_TOL)
    if abs(potential(x_max)) > 1e-10 or abs(potential(-x_max)) > 1e-10:
        raise DomainError(
            f"{potential.kind}.effective_support({ODE_SUPPORT_TOL:g}) = "
            f"{x_max} understates the support: |V| there exceeds 1e-10")
    step = ODE_STEP / math.sqrt(lam + potential.max_abs())

    (m00, m01), (m10, m11) = _propagator(potential, lam, x_max, step).tolist()
    # In plane-wave amplitudes (e^{-ikx}, e^{ikx}) at -x_max and x_max, M is
    # the transfer matrix T = [[a, b], [conj b, conj a]], det T = det M, and
    # S = [[1, -T12], [T21, det M]] / T11.
    a = 0.5 * cmath.exp(2j * k * x_max) * (m00 + m11 + 1j * (m10 / k - k * m01))
    b = 0.5 * (m00 - m11 + 1j * (m10 / k + k * m01))
    t = 1.0 / a
    s = np.array([[t, -b * t], [b.conjugate() * t, (m00 * m11 - m01 * m10) * t]],
                 dtype=complex)
    defect = float(np.linalg.norm(s.conj().T @ s - np.eye(2)))
    if defect > UNITARITY_TOL_ODE:
        raise StepSizeError(
            f"ODE route unitarity defect {defect:.3e} exceeds "
            f"{UNITARITY_TOL_ODE:.1e} at step {step:.3e}")
    return ScatteringMatrix(k, s, defect)


@functools.lru_cache(maxsize=_RULE_CACHE)
def _chebyshev_rule(m: int):
    """Ascending first-kind Chebyshev nodes on [-1, 1], their Fejer weights
    and the matrix that integrates the interpolant from -1 to each node.

    The rule depends on m alone, so it is built once per order and shared
    by every panel, rung and energy; its arrays are read-only.

    Node values map to Chebyshev coefficients by a cosine transform; the
    antiderivative that vanishes at -1 has coefficients from
    int T_n = T_{n+1} / (2(n+1)) - T_{n-1} / (2(n-1)), and evaluated at 1
    it gives the weights, at the nodes the matrix.  Both are exact for
    polynomials of degree below m.
    """
    theta = math.pi * (np.arange(m, 0, -1) - 0.5) / m
    t = np.cos(np.outer(theta, np.arange(m + 1)))   # T_n at the nodes, n <= m
    c = (2.0 / m) * t[:, :m].T                      # coefficients, T_0's doubled
    anti = np.zeros((m + 1, m))
    anti[1:] = c
    anti[1:m - 1] -= c[2:]
    anti[1:] /= 2.0 * np.arange(1, m + 1)[:, None]
    anti[0] = -((-1.0) ** np.arange(1, m + 1)) @ anti[1:]
    rule = np.cos(theta), anti.sum(axis=0), t @ anti
    for array in rule:
        array.setflags(write=False)
    return rule


_SINGULAR = "I + T J is numerically singular (exceptional energy)"


def _stationary_once(potential: Potential, lam: float, points, orders):
    k = math.sqrt(lam)
    n = sum(orders)
    nodes, weights = np.empty(n), np.empty(n)
    left = np.zeros((n, n))             # integration from -x_max to each node
    i = 0
    for a, b, m in zip(points[:-1], points[1:], orders):
        x, w, s_m = _chebyshev_rule(m)
        h = 0.5 * (b - a)
        nodes[i:i + m] = 0.5 * (a + b) + h * x
        weights[i:i + m] = h * w
        left[i:i + m, :i] = weights[:i]
        left[i:i + m, i:i + m] = h * s_m
        i += m
    v = np.asarray(potential(nodes), dtype=float)
    g = np.sqrt(np.abs(v))
    j_diag = np.sign(v)
    e = np.exp(1j * k * nodes)
    c = 1.0 / math.sqrt(4.0 * math.pi * k)
    z = np.vstack([c * e * g,                   # right-incoming row
                   c * e.conj() * g])           # left-incoming row

    # E L E* + E* R E with R = 1 w^T - L is, entry by entry,
    # e^{-ik(x_i - x_j)} w_j + 2i sin(k(x_i - x_j)) L_ij; assembled in place.
    a = np.outer(e.conj(), e * weights)
    phase = np.subtract.outer(k * nodes, k * nodes)
    left *= np.sin(phase, out=phase)
    left *= 2.0
    a.imag += left
    del phase, left
    a *= ((0.5j / k) * g)[:, None]
    a *= g * j_diag
    a.flat[::n + 1] += 1.0
    anorm = float(np.abs(a).sum(axis=0).max())
    # a.T is A^T in Fortran order, so LAPACK factors it in place; its
    # infinity-norm condition is A's 1-norm condition, and trans=1 solves A.
    lu, piv, info = lapack.zgetrf(a.T, overwrite_a=1)
    if info != 0:
        raise SingularOperatorError(_SINGULAR, math.inf)
    rcond, _ = lapack.zgecon(lu, anorm, norm="I")
    cond = 1.0 / rcond if rcond > 0 else math.inf
    if not cond <= COND_GUARD:
        raise SingularOperatorError(_SINGULAR, cond)

    y, _ = lapack.zgetrs(lu, piv, z.conj().T, trans=1)
    s = np.eye(2, dtype=complex) - 2j * math.pi * (z * (weights * j_diag)) @ y
    ops = StationaryOperators(nodes=nodes, weights=weights, g_diag=g,
                              j_diag=j_diag, z_rows=z, condition_number=cond)
    return s, ops


def s_matrix_stationary(potential: Potential, lam: float,
                        n_nodes: int | None = None,
                        return_operators: bool = False):
    """Scattering matrix from the on-shell stationary formula.

    Chebyshev panels run between the potential's jumps.  ``n_nodes`` is
    the total node count, spread evenly over the panels with at least one
    per panel; it must be an integer in [1, ``N_CAP``] (DomainError).
    Without it each panel's order doubles from ``N_START`` until S moves
    by less than ``REFINE_TARGET``; a rung beyond ``N_CAP`` nodes in total
    raises ConvergenceError.  The operators' ``refinement`` holds the
    ladder's trail.  The cap bounds the memory of the n x n system and of
    the retained panel rules: at most 67 MB at the cap, 0.18 MB for the
    default ladders.
    """
    if not 0 < lam < math.inf:
        raise DomainError(f"scattering energy must be positive and finite, "
                          f"got {lam}")
    if n_nodes is not None and (isinstance(n_nodes, bool)
                                or not isinstance(n_nodes, numbers.Integral)
                                or not 1 <= n_nodes <= N_CAP):
        raise DomainError(f"node count must be an integer in [1, {N_CAP}], "
                          f"got {n_nodes!r}")
    # Truncating where |V| falls below 1e-6 keeps the node counts small for
    # slowly decaying potentials.  What the cut tail moves S by depends on
    # the potential and the energy.  For the reflectionless Poschl-Teller
    # well it grows like 1/k: ||S_ode - S_stat|| is 1.5e-6 at lambda = 0.25,
    # 7.1e-6 at 1e-2, 9.9e-5 at 1e-4, 1.0e-3 (the cross-method tolerance)
    # at 1e-6 and 1.0e-2 at 1e-8.  Over the same energies it stays below
    # 5.6e-7 for the Gaussian bump (-1, 1) and 7.3e-10 for the square well.
    points = _segments(potential, potential.effective_support(1e-6))
    panels = len(points) - 1

    if n_nodes is not None:
        q, r = divmod(int(n_nodes), panels)
        orders = [max(1, q + (p < r)) for p in range(panels)]
        s, ops = _stationary_once(potential, lam, points, orders)
    else:
        m, s, delta, trail = N_START, None, math.inf, []
        while not delta < REFINE_TARGET:
            if m * panels > N_CAP:
                raise ConvergenceError(
                    f"stationary route did not settle within the node cap "
                    f"(the last rung moved S by {delta:.3e} in norm)")
            s_new, ops = _stationary_once(potential, lam, points, [m] * panels)
            if s is not None:
                delta = float(np.linalg.norm(s_new - s))
                trail.append((m * panels, delta))
            s, m = s_new, 2 * m
        ops = replace(ops, refinement=tuple(trail))

    defect = float(np.linalg.norm(s.conj().T @ s - np.eye(2)))
    sm = ScatteringMatrix(math.sqrt(lam), s, defect)
    return (sm, ops) if return_operators else sm


def eigenphases(s: ScatteringMatrix) -> EigenphaseSet:
    """Eigenphases of the unitary S, discarding phases within ``PHASE_TOL``
    of zero (eigenvalue 1 carries no band)."""
    if s.unitarity_defect > max(UNITARITY_TOL_ODE, UNITARITY_TOL_STATIONARY):
        raise DomainError("eigenphases: scattering matrix violates unitarity")
    ev = np.linalg.eigvals(s.matrix)
    thetas = np.angle(ev)
    keep = np.abs(thetas) >= PHASE_TOL
    thetas = thetas[keep]
    kappas = np.abs(np.exp(1j * thetas) - 1.0) / 2.0
    order = np.argsort(kappas)[::-1]
    return EigenphaseSet(thetas=thetas[order], kappas=kappas[order])


def _interp_count(levels_below: int, e_lo: float, e_hi: float, lam: float) -> float:
    # Midpoint convention: the interpolated staircase passes through
    # (e_i, i - 1/2) at the i-th smallest eigenvalue.
    return (levels_below - 0.5) + (lam - e_lo) / (e_hi - e_lo)


def smeared_spectral_shift(potential: Potential, lam: float,
                           box: BoxDiscretization,
                           levels: BoxLevels | None = None) -> float:
    """O(1/L)-smeared spectral shift from linearly interpolated counting
    staircases, one per parity sector of the box (``box_levels``).

    ``levels`` are ``box_levels(box, potential, lo, hi)`` for a window
    holding lam; without them the window [lam, lam] is computed.
    """
    if levels is None:
        levels = box_levels(box, potential, lam, lam)
    n_h = n_0 = 0.0
    for h, h0 in levels.at(lam):
        if not all(map(math.isfinite, h + h0)):
            raise DomainError("level too close to the edge of the box spectrum")
        n_h += _interp_count(*h, lam)
        n_0 += _interp_count(*h0, lam)
    return -(n_h - n_0)


def birman_krein_value(potential: Potential, lam: float, box: BoxDiscretization,
                       s: ScatteringMatrix | None = None,
                       levels: BoxLevels | None = None) -> float:
    """-arg det S(lam) / (2 pi) minus the smeared box spectral shift.

    Modulo 1 this must vanish; its distance to the nearest integer is the
    Birman-Krein residual.  ``s`` and ``levels`` are computed when not given.
    """
    if s is None:
        s = s_matrix_ode(potential, lam)
    xi = smeared_spectral_shift(potential, lam, box, levels)
    return -cmath.phase(s.det()) / (2.0 * math.pi) - xi
