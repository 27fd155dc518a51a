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

Route 1 (``OdeMatch``): integrate -u'' + V u = lam u across the support with
a fixed-step RK4 scheme, once per incoming direction, and match to plane
waves.  Integration is segmented at the potential's jump points so the
integrator never steps across a discontinuity.

Route 2 (``Stationary``): the on-shell formula

    S = I - 2 pi i Z J (I + T J)^{-1} Z*

with G = |V|^{1/2}, J = sign V, T the G-sandwiched outgoing free resolvent
with kernel i e^{ik|x-y|} / (2k), and Z the two energy-shell rows
(4 pi k)^{-1/2} e^{-i omega k x} G(x), omega = -1, +1.  In symmetrized
quadrature the discrete identity Im T = pi Z* Z holds exactly node by node,
so the discrete S is unitary to rounding regardless of quadrature quality;
accuracy against route 1 is what the node count controls.

Spectral shift.  The integer count -(#eig(H) < lam) + (#eig(H0) < lam) on a
Dirichlet box equals -trace(D) exactly but carries O(1) truncation jitter.
For the Birman-Krein comparison the staircases are interpolated linearly at
midpoint convention (per parity sector when V is even; parity alternates
exactly along the sorted spectrum), which removes the jitter and leaves an
O(1/L)-smeared estimate of the spectral shift.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, DomainError, SingularOperatorError, StepSizeError
from .schrodinger1d import (
    BoxDiscretization,
    Potential,
    check_level_clear,
    count_below,  # noqa: F401  (kept importable from this module by name)
    eigenvalues_by_index,
    free_levels,
    hamiltonian_tridiagonal,
)

__all__ = [
    "Method",
    "ScatteringMatrix",
    "EigenphaseSet",
    "StationaryOperators",
    "s_matrix_ode",
    "s_matrix_stationary",
    "eigenphases",
    "spectral_shift_count",
    "smeared_spectral_shift",
    "birman_krein_value",
    "birman_krein_check",
]

UNITARITY_TOL_ODE = 1e-8
UNITARITY_TOL_STATIONARY = 1e-6
COND_GUARD = 1e12


class Method(Enum):
    ODE_MATCH = "OdeMatch"
    STATIONARY = "Stationary"


@dataclass(frozen=True)
class ScatteringMatrix:
    energy: float
    momentum: float
    matrix: np.ndarray
    method: Method
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

    @property
    def kappa_max(self) -> float:
        return float(self.kappas[0]) if self.kappas.size else 0.0


@dataclass(frozen=True)
class StationaryOperators:
    nodes: np.ndarray
    weights: np.ndarray
    g_diag: np.ndarray          # |V|^{1/2} at nodes
    j_diag: np.ndarray          # sign V at nodes
    t_matrix: np.ndarray        # symmetrized G R0(lam+i0) G
    z_rows: np.ndarray          # 2 x n energy-shell rows
    condition_number: float


def _rk4_segment(potential, lam: float, x0: float, x1: float, step: float,
                 u: complex, du: complex):
    """RK4 for (u, u') with u'' = (V - lam) u across one smooth segment.

    Stage points are clamped a hair inside the segment so that one-sided
    values are used at jump locations sitting on segment ends.
    """
    length = abs(x1 - x0)
    nsteps = max(1, math.ceil(length / step))
    h = (x1 - x0) / nsteps
    lo, hi = min(x0, x1), max(x0, x1)
    eps = 1e-12 * length
    xs = x0 + h * np.arange(nsteps)
    v_a = np.asarray(potential(np.clip(xs, lo + eps, hi - eps)), dtype=float)
    v_m = np.asarray(potential(np.clip(xs + h / 2, lo + eps, hi - eps)), dtype=float)
    v_b = np.asarray(potential(np.clip(xs + h, lo + eps, hi - eps)), dtype=float)
    for i in range(nsteps):
        ca, cm, cb = v_a[i] - lam, v_m[i] - lam, v_b[i] - lam
        k1u, k1d = du, ca * u
        k2u = du + 0.5 * h * k1d
        k2d = cm * (u + 0.5 * h * k1u)
        k3u = du + 0.5 * h * k2d
        k3d = cm * (u + 0.5 * h * k2u)
        k4u = du + h * k3d
        k4d = cb * (u + h * k3u)
        u = u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        du = du + (h / 6.0) * (k1d + 2 * k2d + 2 * k3d + k4d)
    return u, du


def _integrate(potential, lam: float, x_from: float, x_to: float, step: float,
               u: complex, du: complex):
    lo, hi = min(x_from, x_to), max(x_from, x_to)
    inner = [b for b in potential.breakpoints() if lo < b < hi]
    points = [x_from] + sorted(inner, reverse=x_from > x_to) + [x_to]
    for a, b in zip(points[:-1], points[1:]):
        u, du = _rk4_segment(potential, lam, a, b, step, u, du)
    return u, du


def s_matrix_ode(potential: Potential, lam: float, x_max: float | None = None,
                 step: float | None = None) -> ScatteringMatrix:
    """Scattering matrix by plane-wave matching of two RK4 integrations."""
    if lam <= 0:
        raise DomainError(f"scattering energy must be positive, got {lam}")
    k = math.sqrt(lam)
    if x_max is None:
        x_max = potential.effective_support(1e-11)
    if abs(potential(x_max)) > 1e-10 or abs(potential(-x_max)) > 1e-10:
        raise DomainError(
            f"|V| at +-x_max={x_max} exceeds 1e-10; enlarge the integration range")
    if step is None:
        step = 0.01 / math.sqrt(lam + potential.max_abs())

    ik = 1j * k
    # Right-incoming: transmitted plane e^{-ikx} on the left, integrate forward.
    u0 = cmath.exp(ik * x_max)          # e^{-ik(-x_max)}
    u, du = _integrate(potential, lam, -x_max, x_max, step, u0, -ik * u0)
    c_in = 0.5 * (u - du / ik) * cmath.exp(ik * x_max)
    d_out = 0.5 * (u + du / ik) * cmath.exp(-ik * x_max)
    t_r = 1.0 / c_in
    r_r = d_out / c_in
    # Left-incoming: transmitted plane e^{+ikx} on the right, integrate backward.
    u0 = cmath.exp(ik * x_max)
    u, du = _integrate(potential, lam, x_max, -x_max, step, u0, ik * u0)
    a_in = 0.5 * (u + du / ik) * cmath.exp(ik * x_max)
    b_out = 0.5 * (u - du / ik) * cmath.exp(-ik * x_max)
    t_l = 1.0 / a_in
    r_l = b_out / a_in

    s = np.array([[t_r, r_l], [r_r, t_l]], dtype=complex)
    defect = float(np.linalg.norm(s.conj().T @ s - np.eye(2)))
    if defect > UNITARITY_TOL_ODE:
        raise StepSizeError(
            f"ODE route unitarity defect {defect:.3e} exceeds {UNITARITY_TOL_ODE:.1e}",
            suggested_step=step / 2.0)
    return ScatteringMatrix(lam, k, s, Method.ODE_MATCH, defect)


def _solve_with_condition(a: np.ndarray, rhs: np.ndarray):
    """LU solve plus a 1-norm condition estimate from the same factorization
    (a full SVD would dominate the runtime at the node counts used here)."""
    from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve
    lu, piv = lu_factor(a)
    gecon = get_lapack_funcs("gecon", (a,))
    anorm = float(np.linalg.norm(a, 1))
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0 or rcond == 0.0:
        raise SingularOperatorError(
            "I + T J is numerically singular (exceptional energy)", math.inf)
    cond = 1.0 / float(rcond)
    if cond > COND_GUARD:
        raise SingularOperatorError(
            "I + T J is numerically singular (exceptional energy)", cond)
    return lu_solve((lu, piv), rhs), cond


def _scattering_correction(t_mat, j_diag, z):
    """The 2x2 correction 2 pi i Z J (I + T J)^{-1} Z* and the condition
    number of the solved system."""
    a = np.eye(t_mat.shape[0], dtype=complex) + t_mat * j_diag[None, :]
    y, cond = _solve_with_condition(a, z.conj().T)
    return 2j * math.pi * (z * j_diag[None, :]) @ y, cond


def _stationary_once(potential: Potential, lam: float, x_max: float, n: int):
    k = math.sqrt(lam)
    xi, wq = leggauss(n)
    nodes = x_max * xi
    weights = x_max * wq
    v = np.asarray(potential(nodes), dtype=float)
    g = np.sqrt(np.abs(v))
    j_diag = np.sign(v)
    sw = np.sqrt(weights)
    gw = g * sw
    # Outgoing free resolvent kernel i e^{ik|x-y|} / (2k), sandwiched by G
    # and symmetrized by the weights.
    r0 = 1j * np.exp(1j * k * np.abs(nodes[:, None] - nodes[None, :])) / (2.0 * k)
    t_mat = gw[:, None] * r0 * gw[None, :]
    c = 1.0 / math.sqrt(4.0 * math.pi * k)
    z = np.vstack([c * np.exp(1j * k * nodes) * gw,      # right-incoming row
                   c * np.exp(-1j * k * nodes) * gw])    # left-incoming row

    if potential.is_even() and n % 2 == 0:
        # Parity block-diagonalization: with the reflection-symmetric rule,
        # even/odd combinations of mirrored nodes decouple, so two half-size
        # solves reproduce the full correction exactly.
        m = n // 2
        lower = slice(0, m)
        upper_rev = slice(n - 1, m - 1, -1)
        correction = np.zeros((2, 2), dtype=complex)
        cond = 1.0
        for sign in (+1.0, -1.0):
            t_sector = t_mat[upper_rev, :][:, upper_rev] + sign * t_mat[upper_rev, lower]
            z_sector = (z[:, upper_rev] + sign * z[:, lower]) / math.sqrt(2.0)
            corr, cond_sector = _scattering_correction(
                t_sector, j_diag[upper_rev], z_sector)
            correction += corr
            cond = max(cond, cond_sector)
    else:
        correction, cond = _scattering_correction(t_mat, j_diag, z)

    s = np.eye(2, dtype=complex) - correction
    ops = StationaryOperators(nodes=nodes, weights=weights, g_diag=g,
                              j_diag=j_diag, t_matrix=t_mat, z_rows=z,
                              condition_number=cond)
    return s, ops


def s_matrix_stationary(potential: Potential, lam: float,
                        n_nodes: int | None = None,
                        refine_target: float = 1e-4,
                        n_start: int = 200, n_cap: int = 6400,
                        return_operators: bool = False):
    """Scattering matrix from the on-shell stationary formula.

    Without an explicit node count the Gauss rule over the potential's
    support is doubled until S moves by less than ``refine_target``.
    """
    if lam <= 0:
        raise DomainError(f"scattering energy must be positive, got {lam}")
    # Truncating where |V| falls below 1e-6 perturbs S by O(1e-6), far below
    # both the refinement target and the cross-method tolerance, and keeps
    # the dense solves small for slowly decaying potentials.
    x_max = potential.effective_support(1e-6)

    if n_nodes is not None:
        s, ops = _stationary_once(potential, lam, x_max, n_nodes)
    else:
        n = n_start
        s, ops = _stationary_once(potential, lam, x_max, n)
        delta = math.inf
        while True:
            n *= 2
            if n > n_cap:
                raise ConvergenceError(
                    "stationary route did not settle within the node cap", delta)
            s_new, ops_new = _stationary_once(potential, lam, x_max, n)
            delta = float(np.linalg.norm(s_new - s))
            s, ops = s_new, ops_new
            if delta < refine_target:
                break

    defect = float(np.linalg.norm(s.conj().T @ s - np.eye(2)))
    sm = ScatteringMatrix(lam, math.sqrt(lam), s, Method.STATIONARY, defect)
    return (sm, ops) if return_operators else sm


def eigenphases(s: ScatteringMatrix, phase_tol: float = 1e-6) -> EigenphaseSet:
    """Eigenphases of the unitary S, discarding phases within ``phase_tol``
    of zero (eigenvalue 1 carries no band)."""
    if s.unitarity_defect > max(UNITARITY_TOL_ODE, UNITARITY_TOL_STATIONARY):
        raise DomainError("eigenphases: scattering matrix violates unitarity")
    ev = np.linalg.eigvals(s.matrix)
    thetas = np.angle(ev)
    keep = np.abs(thetas) >= phase_tol
    thetas = thetas[keep]
    kappas = np.abs(np.exp(1j * thetas) - 1.0) / 2.0
    order = np.argsort(kappas)[::-1]
    return EigenphaseSet(thetas=thetas[order], kappas=kappas[order])


def spectral_shift_count(potential: Potential, lam: float,
                         box: BoxDiscretization) -> int:
    """Integer spectral-shift estimate -(#eig(H) < lam) + (#eig(H0) < lam);
    equals -trace(D) for the same box by construction."""
    j = check_level_clear(box, potential, lam)
    return -(j - int(np.sum(free_levels(box) < lam)))


def _interp_count(levels_below: int, e_lo: float, e_hi: float, lam: float) -> float:
    # Midpoint convention: the interpolated staircase passes through
    # (e_i, i - 1/2) at the i-th smallest eigenvalue.
    return (levels_below - 0.5) + (lam - e_lo) / (e_hi - e_lo)


def _sector_interp(window: np.ndarray, first_index: int, n_below: int,
                   lam: float) -> float:
    """Sum of per-parity interpolated staircases; ``window`` holds the
    eigenvalues with 0-based indices first_index..first_index+len-1 around
    the level, and parity alternates with the index (even index = even
    eigenfunction)."""
    total = 0.0
    for parity in (0, 1):
        below = [e for i, e in enumerate(window, start=first_index)
                 if i % 2 == parity and e < lam]
        above = [e for i, e in enumerate(window, start=first_index)
                 if i % 2 == parity and e >= lam]
        if not below or not above:
            raise DomainError("sector interpolation window does not bracket the level")
        count = (n_below + 1) // 2 if parity == 0 else n_below // 2
        total += _interp_count(count, below[-1], above[0], lam)
    return total


def smeared_spectral_shift(potential: Potential, lam: float,
                           box: BoxDiscretization) -> float:
    """O(1/L)-smeared spectral shift from linearly interpolated counting
    staircases (per parity sector for even potentials)."""
    diag, off = hamiltonian_tridiagonal(box, potential)
    j = check_level_clear(box, potential, lam, tridiagonal=(diag, off))
    ev0 = free_levels(box)
    j0 = int(np.sum(ev0 < lam))
    if j < 2 or j0 < 2 or j + 1 >= box.n or j0 + 1 >= box.n:
        raise DomainError("level too close to the edge of the box spectrum")

    if potential.is_even():
        window_h = eigenvalues_by_index(diag, off, j - 2, j + 1)
        n_h = _sector_interp(window_h, j - 2, j, lam)
        window_0 = ev0[j0 - 2: j0 + 2]
        n_0 = _sector_interp(window_0, j0 - 2, j0, lam)
    else:
        e_h = eigenvalues_by_index(diag, off, j - 1, j)
        n_h = _interp_count(j, e_h[0], e_h[1], lam)
        n_0 = _interp_count(j0, ev0[j0 - 1], ev0[j0], lam)
    return -(n_h - n_0)


def birman_krein_value(potential: Potential, lam: float, box: BoxDiscretization,
                       s: ScatteringMatrix | None = None) -> float:
    """-arg det S(lam) / (2 pi) minus the smeared box spectral shift.

    Modulo 1 this must vanish; its distance to the nearest integer is the
    Birman-Krein residual.
    """
    if s is None:
        s = s_matrix_ode(potential, lam)
    xi = smeared_spectral_shift(potential, lam, box)
    return -cmath.phase(s.det()) / (2.0 * math.pi) - xi


def birman_krein_check(potential: Potential, lam: float, box: BoxDiscretization,
                       s: ScatteringMatrix | None = None) -> float:
    """Distance of the Birman-Krein combination to the nearest integer."""
    val = birman_krein_value(potential, lam, box, s=s)
    return abs(val - round(val))
