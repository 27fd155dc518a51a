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
of a segment are built at once and multiplied pairwise.  The product of the
segments, one forward propagator per energy, fixes both columns of S.

Route 2 (``s_matrix_stationary``): the on-shell formula

    S = I - 2 pi i Z J (I + T J)^{-1} Z*

with G = |V|^{1/2}, J = sign V, T the G-sandwiched outgoing free resolvent
with kernel i e^{ik|x-y|} / (2k), and Z the two energy-shell rows
(4 pi k)^{-1/2} e^{-i omega k x} G(x), omega = -1, +1.  In symmetrized
quadrature the discrete identity Im T = pi Z* Z holds exactly node by node,
so the discrete S is unitary to rounding regardless of quadrature quality;
accuracy against route 1 is what the node count controls.

The kernel is rank-1 semiseparable in each triangle (Greengard & Rokhlin,
CPAM 44, 1991; Eidelman & Gohberg, IEOT 34, 1999): with ascending nodes,
its action is a prefix and a suffix sum.  Carrying those sums as extra
unknowns embeds (I + T J) y = Z* in a 3n x 3n banded system that one
pivoted band LU solves in O(n), on the same Nystrom matrix, without forming
any n x n array.  The solve is exact algebra on that matrix, so Im T =
pi Z* Z still holds and S stays unitary to rounding; one full-size solve
also serves parity-even potentials, which need no sector split.  The
Gauss-Legendre rule costs O(n^2 / 4) (the eigenvalues of a half-size
tridiagonal, whose square roots are the positive nodes, plus one Newton
step) and depends on n only, so it is built once per node count per
process and kept in a bounded cache; every energy and potential reuses it.
The condition guard uses the exact O(n) 1-norm of I + T J with a
Hager-Higham estimate of the inverse's norm from the same band LU.

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
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import zgbtrf, zgbtrs

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
REFINE_TARGET, N_START, N_CAP = 1e-4, 200, 6400   # see s_matrix_stationary
PHASE_TOL = 1e-6                                  # see eigenphases
_SAFMIN = np.finfo(float).tiny


@dataclass(frozen=True)
class ScatteringMatrix:
    momentum: float
    matrix: np.ndarray
    unitarity_defect: float

    @property
    def symmetry_defect(self) -> float:
        return float(abs(self.matrix[0, 1] - self.matrix[1, 0]))

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


def _rk4_segment(potential, lam: float, x0: float, x1: float,
                 step: float) -> np.ndarray:
    """Real 2x2 propagator of (u, u') under RK4 for u'' = (V - lam) u across
    one smooth segment.

    The equation is linear with real coefficients, so each step is a real
    2x2 map M_i: the RK4 stages, applied to the basis columns (1, 0) and
    (0, 1) for all steps at once, give its columns.  The maps are then
    multiplied pairwise, M_{N-1} ... M_1 M_0 in log2(N) rounds.  Stage
    points are clamped a hair inside the segment so that one-sided values
    are used at jump locations sitting on segment ends.
    """
    length = abs(x1 - x0)
    nsteps = max(1, math.ceil(length / step))
    h = (x1 - x0) / nsteps
    lo, hi = min(x0, x1), max(x0, x1)
    eps = 1e-12 * length
    xs = x0 + h * np.arange(nsteps)

    def coefficient(x):
        return np.asarray(potential(np.clip(x, lo + eps, hi - eps)), dtype=float) - lam
    ca, cm, cb = coefficient(xs), coefficient(xs + h / 2), coefficient(xs + h)

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

    one, zero = np.ones(nsteps), np.zeros(nsteps)
    maps = np.empty((nsteps, 2, 2))
    maps[:, 0, 0], maps[:, 1, 0] = rk4_step(one, zero)
    maps[:, 0, 1], maps[:, 1, 1] = rk4_step(zero, one)
    while len(maps) > 1:
        pairs = maps[1::2] @ maps[:-1:2]
        maps = np.concatenate([pairs, maps[-1:]]) if len(maps) % 2 else pairs
    return maps[0]


def _propagator(potential, lam: float, x_max: float, step: float) -> np.ndarray:
    """Real 2x2 forward propagator of (u, u') from -x_max to x_max: the
    product of the segment propagators between the potential's jump points."""
    inner = sorted(b for b in potential.breakpoints() if -x_max < b < x_max)
    points = [-x_max, *inner, x_max]
    m = np.eye(2)
    for a, b in zip(points[:-1], points[1:]):
        m = _rk4_segment(potential, lam, a, b, step) @ m
    return m


def s_matrix_ode(potential: Potential, lam: float, x_max: float | None = None,
                 step: float | None = None) -> ScatteringMatrix:
    """Scattering matrix by plane-wave matching of one RK4 propagator M
    over [-x_max, x_max]; ``x_max`` must be finite and >= 0 and ``step``
    positive and finite (DomainError)."""
    if not 0 < lam < math.inf:
        raise DomainError(f"scattering energy must be positive and finite, "
                          f"got {lam}")
    k = math.sqrt(lam)
    if x_max is None:
        x_max = potential.effective_support(1e-11)
    if not 0 <= x_max < math.inf:
        raise DomainError(f"x_max must be non-negative and finite, got {x_max}")
    if abs(potential(x_max)) > 1e-10 or abs(potential(-x_max)) > 1e-10:
        raise DomainError(
            f"|V| at +-x_max={x_max} exceeds 1e-10; enlarge the integration range")
    if step is None:
        step = 0.01 / math.sqrt(lam + potential.max_abs())
    if not 0 < step < math.inf:
        raise DomainError(f"step must be positive and finite, got {step}")

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
            f"ODE route unitarity defect {defect:.3e} exceeds {UNITARITY_TOL_ODE:.1e}",
            suggested_step=step / 2.0)
    return ScatteringMatrix(k, s, defect)


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], as read-only
    arrays: the rule depends on n only, so it is built once per node count
    and cached (the ladder from ``N_START`` to ``N_CAP`` uses six counts).

    The nodes are the eigenvalues of the Jacobi matrix (Golub-Welsch),
    polished by one Newton step on P_n; the weights are
    2 / ((1 - x^2) P_n'(x)^2).  The Jacobi matrix has a zero diagonal, so in
    even/odd order it is [[0, B], [B^T, 0]] with B bidiagonal: its nonzero
    eigenvalues are +-sqrt(eig(B^T B)), and B^T B is a tridiagonal of size
    n // 2 whose eigenvalues cost O(n^2 / 4); odd n adds the centre node 0.
    P_n and P_n' come from the three-term recurrence, and P_n' is carried
    to the polished node with the Legendre equation, so no second sweep is
    needed.  The rule is symmetric: only the non-positive half is computed.
    """
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    m = n // 2
    lo = np.zeros(n - m)
    if m:
        odd = np.zeros(m)
        odd[:beta[1::2].size] = beta[1::2]
        sq = eigvalsh_tridiagonal(beta[0::2] ** 2 + odd ** 2,
                                  odd[:m - 1] * beta[2::2],
                                  lapack_driver="sterf")
        lo[:m] = -np.sqrt(sq[::-1])
    p_prev, p = np.ones_like(lo), lo.copy()
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * lo * p - (j - 1) * p_prev) / j
    one_minus_x2 = 1.0 - lo * lo
    dp = n * (p_prev - lo * p) / one_minus_x2
    step = p / dp
    lo = lo - step
    # (1 - x^2) P'' = 2x P' - n(n+1) P
    dp = dp - step * (2.0 * lo * dp - n * (n + 1) * p) / one_minus_x2
    w = 2.0 / ((1.0 - lo * lo) * dp * dp)
    if n % 2:
        lo[-1] = 0.0
    x, w = np.concatenate([lo, -lo[:m][::-1]]), np.concatenate([w, w[:m][::-1]])
    x.flags.writeable = w.flags.writeable = False
    return x, w


# The embedded system orders its unknowns (y_i, p_i, q_i) node by node; each
# equation reaches at most three unknowns away.
_BAND = 3
_SINGULAR = "I + T J is numerically singular (exceptional energy)"


def _embedded_band(nodes, gw, j_diag, k: float) -> np.ndarray:
    """``I + T J`` embedded in a 3n x 3n banded system, in LAPACK ``gbtrf``
    storage (row ``2*_BAND + i - j`` of column ``j`` holds entry (i, j)).

    With ascending nodes and w_j = gw_j J_j y_j, the kernel e^{ik|x_i-x_j|}
    splits into the prefix sums p_i = sum_{j<=i} e^{-ik x_j} w_j and the
    suffix sums q_i = sum_{j>i} e^{ik x_j} w_j, so that

        y_i + (i/2k) gw_i (e^{ik x_i} p_i + e^{-ik x_i} q_i) = b_i,
        p_i - p_{i-1} - e^{-ik x_i} w_i = 0,
        q_i - q_{i+1} - e^{ik x_{i+1}} w_{i+1} = 0.

    Eliminating p and q gives back ``I + T J``, so the y-block of the
    embedded inverse is exactly ``(I + T J)^{-1}`` (Schur complement).
    """
    e = np.exp(1j * k * nodes)
    c = (0.5j / k) * gw
    u = gw * j_diag
    d = 2 * _BAND                       # storage row of the diagonal
    ab = np.zeros((3 * _BAND + 1, 3 * nodes.size), dtype=complex, order="F")
    ab[d] = 1.0
    ab[d - 1, 1::3] = c * e             # y_i row, p_i column
    ab[d - 2, 2::3] = c * e.conj()      # y_i row, q_i column
    ab[d + 1, 0::3] = -e.conj() * u     # p_i row, y_i column
    ab[d + 3, 1:-3:3] = -1.0            # p_{i+1} row, p_i column
    ab[d - 3, 5::3] = -1.0              # q_{i-1} row, q_i column
    ab[d - 1, 3::3] = -(e * u)[1:]      # q_{i-1} row, y_i column
    return ab


def _embedded_solve(lu, piv, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """``(I + T J)^{-1} b``, or ``(I + T J)^{-H} b`` when ``adjoint``, from
    the banded LU of the embedded system."""
    rhs = np.zeros((lu.shape[1],) + b.shape[1:], dtype=complex)
    rhs[0::3] = b
    x, _ = zgbtrs(lu, _BAND, _BAND, rhs, piv, trans=2 if adjoint else 0,
                  overwrite_b=1)
    return x[0::3]


def _inverse_norm1(solve, n: int) -> float:
    """Lower estimate of ``||A^{-1}||_1`` by the deterministic Hager-Higham
    iteration of LAPACK ``lacn2``, as ``gecon`` runs it.  ``solve(b,
    adjoint)`` returns ``A^{-1} b`` or ``A^{-H} b``."""
    def signs(v):
        a = np.abs(v)
        return np.where(a > _SAFMIN, v / np.maximum(a, _SAFMIN), 1.0)

    y = solve(np.full(n, 1.0 / n), False)
    if n == 1:
        return float(abs(y[0]))
    est = float(np.abs(y).sum())
    j = int(np.argmax(np.abs(solve(signs(y), True))))
    for _ in range(4):                  # lacn2 makes at most five iterations
        y = solve(np.eye(1, n, j)[0], False)
        est_old, est = est, float(np.abs(y).sum())
        if est <= est_old:
            break
        x = solve(signs(y), True)
        j_last, j = j, int(np.argmax(np.abs(x)))
        if abs(x[j_last]) == abs(x[j]):
            break
    alt = (-1.0) ** np.arange(n) * (1.0 + np.arange(n) / (n - 1))
    return max(est, 2.0 * float(np.abs(solve(alt, False)).sum()) / (3 * n))


def _condition_guard(solve, anorm: float, n: int) -> float:
    """1-norm condition number of the system ``solve`` inverts, with
    ``anorm`` its exact 1-norm; raises above ``COND_GUARD``."""
    cond = anorm * _inverse_norm1(solve, n)
    if not cond <= COND_GUARD:
        raise SingularOperatorError(_SINGULAR, cond)
    return cond


def _stationary_once(potential: Potential, lam: float, x_max: float, n: int):
    k = math.sqrt(lam)
    xi, wq = _gauss_legendre(n)
    nodes = x_max * xi
    weights = x_max * wq
    v = np.asarray(potential(nodes), dtype=float)
    g = np.sqrt(np.abs(v))
    j_diag = np.sign(v)
    gw = g * np.sqrt(weights)
    c = 1.0 / math.sqrt(4.0 * math.pi * k)
    z = np.vstack([c * np.exp(1j * k * nodes) * gw,      # right-incoming row
                   c * np.exp(-1j * k * nodes) * gw])    # left-incoming row

    lu, piv, info = zgbtrf(_embedded_band(nodes, gw, j_diag, k), _BAND, _BAND,
                           overwrite_ab=1)
    if info != 0:
        raise SingularOperatorError(_SINGULAR, math.inf)
    # |T_ij| = gw_i gw_j / (2k), so the 1-norm of I + T J is exact in O(n).
    aj = np.abs(j_diag) * gw
    anorm = float(np.max(aj * (gw.sum() - gw) / (2.0 * k)
                         + np.abs(1.0 + 0.5j * aj * gw / k)))
    cond = _condition_guard(
        lambda b, adjoint: _embedded_solve(lu, piv, b, adjoint), anorm, n)

    y = _embedded_solve(lu, piv, z.conj().T)
    s = np.eye(2, dtype=complex) - 2j * math.pi * (z * j_diag) @ y
    ops = StationaryOperators(nodes=nodes, weights=weights, g_diag=g,
                              j_diag=j_diag, z_rows=z, condition_number=cond)
    return s, ops


def s_matrix_stationary(potential: Potential, lam: float,
                        n_nodes: int | None = None,
                        return_operators: bool = False):
    """Scattering matrix from the on-shell stationary formula.

    Without an explicit node count the Gauss rule over the potential's
    support is doubled from ``N_START`` nodes until S moves by less than
    ``REFINE_TARGET``; beyond ``N_CAP`` nodes it raises ConvergenceError.
    An explicit ``n_nodes`` must be a positive integer (DomainError).
    """
    if not 0 < lam < math.inf:
        raise DomainError(f"scattering energy must be positive and finite, "
                          f"got {lam}")
    if n_nodes is not None and (isinstance(n_nodes, bool)
                                or not isinstance(n_nodes, numbers.Integral)
                                or n_nodes < 1):
        raise DomainError(f"node count must be a positive integer, got {n_nodes!r}")
    # Truncating where |V| falls below 1e-6 perturbs S by O(1e-6), far below
    # both the refinement target and the cross-method tolerance, and keeps
    # the node counts small for slowly decaying potentials.
    x_max = potential.effective_support(1e-6)

    if n_nodes is not None:
        s, ops = _stationary_once(potential, lam, x_max, int(n_nodes))
    else:
        n = N_START
        s, ops = _stationary_once(potential, lam, x_max, n)
        delta = math.inf
        while True:
            n *= 2
            if n > N_CAP:
                raise ConvergenceError(
                    "stationary route did not settle within the node cap", delta)
            s_new, ops_new = _stationary_once(potential, lam, x_max, n)
            delta = float(np.linalg.norm(s_new - s))
            s, ops = s_new, ops_new
            if delta < REFINE_TARGET:
                break

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
