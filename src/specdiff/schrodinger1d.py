"""Finite-box discretizations of the 1D Hamiltonians H0 = -d^2/dx^2 and
H = H0 + V, their spectral projections, and the projection difference.

The box (-L, L) carries Dirichlet walls and a uniform grid of n interior
points with spacing h = 2L/(n+1); H0 is the three-point Laplacian
h^-2 tridiag(-1, 2, -1) whose eigenpairs are known in closed form, and V is
sampled pointwise on the nodes.  Everything stays real symmetric.

Two computational paths coexist:

* a dense path (``build_h0`` / ``build_h`` / ``eigendecompose`` /
  ``spectral_projection`` ...) that materializes n x n matrices and is the
  reference implementation for desk-scale boxes, and
* a tridiagonal path (``hamiltonian_tridiagonal``, ``count_below``,
  ``band_spectra``) that never forms an n x n matrix.  For the spectrum of
  D = P - P0 it uses the exact observation that D vanishes outside
  span(ran P + ran P0), so its nonzero spectrum is that of a matrix of size
  rank(P) + rank(P0); likewise the nonzero spectra of
  M+ = (I-P0) P (I-P0) and M- = P0 (I-P) P0 equal those of
  I_r - C C^T and I_r0 - C^T C for the overlap matrix C = U^T U0.
  The two paths agree to rounding and are cross-checked in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal, eigvalsh_tridiagonal

from .errors import ConvergenceError, DomainError, LevelCollisionError

__all__ = [
    "BoxDiscretization",
    "Potential",
    "SquareWell",
    "PoschlTeller",
    "GaussianBump",
    "SymmetricOperator",
    "EigenData",
    "ProjectionDifference",
    "PairingReport",
    "BandSpectra",
    "build_h0",
    "build_h",
    "eigendecompose",
    "spectral_projection",
    "projection_difference",
    "m_plus_minus",
    "symmetry_pairing_report",
    "hamiltonian_tridiagonal",
    "free_levels",
    "free_vectors",
    "count_below",
    "check_level_clear",
    "eigenpairs_below",
    "band_spectra",
]


@dataclass(frozen=True)
class BoxDiscretization:
    """Dirichlet box (-L, L) with n interior grid points."""

    half_length: float
    n: int

    def __post_init__(self):
        if self.half_length <= 0:
            raise DomainError("box half-length must be positive")
        if self.n < 16:
            raise DomainError("box needs at least 16 grid points")

    @classmethod
    def from_spacing(cls, half_length: float, h: float) -> "BoxDiscretization":
        return cls(half_length, int(round(2.0 * half_length / h)) - 1)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / (self.n + 1)

    @property
    def grid(self) -> np.ndarray:
        return -self.half_length + self.spacing * np.arange(1, self.n + 1)


class Potential:
    """A real potential with power-law (or faster) decay.

    Subclasses provide pointwise evaluation, the decay-envelope data needed
    to truncate integrations, and their jump locations (for integrators that
    must not step across a discontinuity).
    """

    rho: float = 2.0  # decay exponent the envelope check is run at

    def __call__(self, x):
        raise NotImplementedError

    def max_abs(self) -> float:
        raise NotImplementedError

    def effective_support(self, tol: float = 1e-10) -> float:
        """Radius beyond which |V| <= tol."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    def is_even(self) -> bool:
        return True

    @property
    def kind(self) -> str:
        return type(self).__name__

    def decay_constant(self, rho: float | None = None, x_max: float = 100.0,
                       n_samples: int = 4001) -> float:
        """Empirical sup of |V(x)| (1+|x|)^rho over a symmetric sample grid;
        finiteness of this constant is the decay invariant."""
        r = self.rho if rho is None else rho
        if r <= 1.0:
            raise DomainError("decay check requires rho > 1")
        xs = np.linspace(-x_max, x_max, n_samples)
        return float(np.max(np.abs(self(xs)) * (1.0 + np.abs(xs)) ** r))


@dataclass(frozen=True)
class SquareWell(Potential):
    """V(x) = depth for |x| < half_width, 0 outside (depth < 0: attractive)."""

    depth: float = -2.0
    half_width: float = 1.0
    rho: float = 2.0

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        out = np.where(np.abs(xs) < self.half_width, self.depth, 0.0)
        return out if np.ndim(x) else float(out)

    def max_abs(self) -> float:
        return abs(self.depth)

    def effective_support(self, tol: float = 1e-10) -> float:
        return self.half_width

    def breakpoints(self) -> tuple[float, ...]:
        return (-self.half_width, self.half_width)


@dataclass(frozen=True)
class PoschlTeller(Potential):
    """V(x) = -kappa (kappa+1) sech^2 x; reflectionless for integer kappa."""

    strength: int = 1
    rho: float = 2.0

    def __post_init__(self):
        if self.strength < 1:
            raise DomainError("PoschlTeller strength must be a positive integer")

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        out = -self.strength * (self.strength + 1) / np.cosh(xs) ** 2
        return out if np.ndim(x) else float(out)

    def max_abs(self) -> float:
        return float(self.strength * (self.strength + 1))

    def effective_support(self, tol: float = 1e-10) -> float:
        # sech^2 x <= 4 e^{-2x}; solve 4 c e^{-2x} = tol
        c = self.max_abs()
        return 0.5 * math.log(4.0 * c / tol)


@dataclass(frozen=True)
class GaussianBump(Potential):
    """V(x) = amplitude exp(-(x/width)^2)."""

    amplitude: float = -1.0
    width: float = 1.0
    rho: float = 2.0

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        out = self.amplitude * np.exp(-((xs / self.width) ** 2))
        return out if np.ndim(x) else float(out)

    def max_abs(self) -> float:
        return abs(self.amplitude)

    def effective_support(self, tol: float = 1e-10) -> float:
        if abs(self.amplitude) <= tol:
            return self.width
        return self.width * math.sqrt(math.log(abs(self.amplitude) / tol))


@dataclass(frozen=True)
class SymmetricOperator:
    """Dense real symmetric operator with its box metadata."""

    matrix: np.ndarray
    box: BoxDiscretization
    label: str

    def symmetry_defect(self) -> float:
        scale = np.abs(self.matrix).max() or 1.0
        return float(np.abs(self.matrix - self.matrix.T).max() / scale)


@dataclass(frozen=True)
class EigenData:
    """Full spectral decomposition: sorted eigenvalues, orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray

    def residual(self, matrix: np.ndarray) -> float:
        r = matrix @ self.vectors - self.vectors * self.values[None, :]
        return float(np.linalg.norm(r) / max(np.linalg.norm(matrix), 1e-300))

    def orthonormality_defect(self) -> float:
        g = self.vectors.T @ self.vectors
        return float(np.linalg.norm(g - np.eye(g.shape[0])))


@dataclass(frozen=True)
class ProjectionDifference:
    """D = P - P0 at a Fermi level, with its sorted eigenvalues."""

    fermi_level: float
    matrix: np.ndarray
    eigenvalues: np.ndarray


def hamiltonian_tridiagonal(box: BoxDiscretization,
                            potential: Potential | None = None):
    """(diagonal, off-diagonal) arrays of H0 + V on the box grid."""
    h = box.spacing
    diag = np.full(box.n, 2.0 / h ** 2)
    if potential is not None:
        diag = diag + potential(box.grid)
    off = np.full(box.n - 1, -1.0 / h ** 2)
    return diag, off


def _dense_from_tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    m = np.diag(diag)
    idx = np.arange(diag.size - 1)
    m[idx, idx + 1] = off
    m[idx + 1, idx] = off
    return m


def build_h0(box: BoxDiscretization) -> SymmetricOperator:
    """Dense three-point Dirichlet Laplacian h^-2 tridiag(-1, 2, -1)."""
    diag, off = hamiltonian_tridiagonal(box)
    return SymmetricOperator(_dense_from_tridiagonal(diag, off), box, "H0")


def build_h(box: BoxDiscretization, potential: Potential) -> SymmetricOperator:
    """Dense H = H0 + diag(V(x_i))."""
    diag, off = hamiltonian_tridiagonal(box, potential)
    return SymmetricOperator(_dense_from_tridiagonal(diag, off), box,
                             f"H0+{potential.kind}")


def free_levels(box: BoxDiscretization) -> np.ndarray:
    """Closed-form H0 spectrum (2/h^2)(1 - cos(k pi/(n+1))), k = 1..n."""
    h = box.spacing
    k = np.arange(1, box.n + 1)
    return (2.0 / h ** 2) * (1.0 - np.cos(k * np.pi / (box.n + 1)))


def free_vectors(box: BoxDiscretization, count: int) -> np.ndarray:
    """First ``count`` H0 eigenvectors sqrt(2/(n+1)) sin(k pi i/(n+1))."""
    n = box.n
    i = np.arange(1, n + 1)
    k = np.arange(1, count + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(i, k) * np.pi / (n + 1))


def eigendecompose(op: SymmetricOperator) -> EigenData:
    """Full dense symmetric eigendecomposition (LAPACK), validated against
    the residual and orthonormality contracts of EigenData."""
    values, vectors = eigh(op.matrix)
    eig = EigenData(values=values, vectors=vectors)
    resid = eig.residual(op.matrix)
    ortho = eig.orthonormality_defect()
    if resid > 1e-10 or ortho > 1e-10:
        raise ConvergenceError(
            f"eigendecomposition of {op.label} failed its accuracy contract "
            f"(residual {resid:.3e}, orthonormality {ortho:.3e})",
            max(resid, ortho))
    return eig


def spectral_projection(eig: EigenData, fermi_level: float,
                        rel_gap: float = 1e-9) -> np.ndarray:
    """Orthogonal projection onto the eigenvectors below the Fermi level.

    The level must keep a relative distance of at least ``rel_gap`` times the
    spectral scale from every eigenvalue, otherwise membership would be
    numerically ambiguous.
    """
    scale = float(np.abs(eig.values).max())
    gap = np.abs(eig.values - fermi_level)
    j = int(np.argmin(gap))
    if gap[j] < rel_gap * scale:
        raise LevelCollisionError(
            f"fermi level {fermi_level} is within {gap[j]:.3e} of eigenvalue "
            f"{eig.values[j]:.12g}; nudge it by at least half the local spacing")
    sel = eig.vectors[:, eig.values < fermi_level]
    return sel @ sel.T


def projection_difference(p: np.ndarray, p0: np.ndarray,
                          fermi_level: float) -> ProjectionDifference:
    """D = P - P0; its spectrum lives in [-1, 1] (enforced)."""
    _require_projection(p, "P")
    _require_projection(p0, "P0")
    d = p - p0
    ev = np.linalg.eigvalsh(d)
    if ev[0] < -1.0 - 1e-10 or ev[-1] > 1.0 + 1e-10:
        raise DomainError(
            f"projection difference spectrum [{ev[0]:.6g}, {ev[-1]:.6g}] "
            "escapes [-1, 1]; the inputs cannot both be orthogonal projections")
    return ProjectionDifference(fermi_level, d, ev)


def _require_projection(p: np.ndarray, name: str, tol: float = 1e-10):
    if np.abs(p - p.T).max() > tol:
        raise DomainError(f"{name} is not symmetric")
    if np.abs(p @ p - p).max() > tol:
        raise DomainError(f"{name} is not idempotent")


def m_plus_minus(p: np.ndarray, p0: np.ndarray):
    """The compressions M+ = (I-P0) P (I-P0) and M- = P0 (I-P) P0.

    Exact algebra gives D^2 = M+ + M- for D = P - P0, independent of where
    the projections came from.
    """
    _require_projection(p, "P")
    _require_projection(p0, "P0")
    eye = np.eye(p.shape[0])
    q0 = eye - p0
    m_plus = q0 @ p @ q0
    m_minus = p0 @ (eye - p) @ p0
    return m_plus, m_minus


@dataclass(frozen=True)
class PairingReport:
    """Matching of interior D-eigenvalues into (-mu, +mu) pairs."""

    epsilon: float
    pairs: np.ndarray            # shape (k, 2): matched (positive, -negative)
    max_pair_error: float
    unpaired: np.ndarray         # interior eigenvalues without a partner


def symmetry_pairing_report(diff, epsilon: float) -> PairingReport:
    """Pair eigenvalues of D inside (-1+eps, -eps) U (eps, 1-eps) as -mu, +mu.

    On the orthogonal complement of the (+-1)-eigenspaces, D is unitarily
    equivalent to -D, so interior spectrum must be symmetric; leftover
    unpaired values indicate a defect.  Accepts a ProjectionDifference or a
    bare eigenvalue array.
    """
    if not (0.0 < epsilon < 0.5):
        raise DomainError("pairing epsilon must lie in (0, 0.5)")
    ev = diff.eigenvalues if isinstance(diff, ProjectionDifference) \
        else np.asarray(diff, dtype=float)
    pos = np.sort(ev[(ev > epsilon) & (ev < 1.0 - epsilon)])
    neg = np.sort(-ev[(ev < -epsilon) & (ev > -1.0 + epsilon)])
    k = min(pos.size, neg.size)
    pairs = np.column_stack([pos[:k], neg[:k]]) if k else np.empty((0, 2))
    err = float(np.abs(pairs[:, 0] - pairs[:, 1]).max()) if k else 0.0
    unpaired = np.concatenate([pos[k:], neg[k:]])
    return PairingReport(epsilon=epsilon, pairs=pairs, max_pair_error=err,
                         unpaired=unpaired)


def count_below(diag: np.ndarray, off: np.ndarray, level: float) -> int:
    """Number of eigenvalues of the tridiagonal below ``level`` (Sturm count
    via the LDL^T sign recurrence)."""
    count = 0
    t = diag[0] - level
    if t < 0:
        count += 1
    for i in range(1, diag.size):
        denom = t if abs(t) > 1e-300 else math.copysign(1e-300, t if t != 0 else -1.0)
        t = (diag[i] - level) - off[i - 1] ** 2 / denom
        if t < 0:
            count += 1
    return count


def eigenpairs_below(diag: np.ndarray, off: np.ndarray, level: float):
    """All eigenpairs of the tridiagonal below ``level``."""
    lower = float(diag.min() - 2.0 * np.abs(off).max() - 1.0)
    return eigh_tridiagonal(diag, off, select="v", select_range=(lower, level))


def eigenvalues_by_index(diag: np.ndarray, off: np.ndarray, i_lo: int, i_hi: int):
    """Eigenvalues with (0-based) indices i_lo..i_hi of the tridiagonal."""
    i_lo = max(i_lo, 0)
    i_hi = min(i_hi, diag.size - 1)
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(i_lo, i_hi))


@dataclass(frozen=True)
class BandSpectra:
    """Spectra of D, M+, M- for one box, from the rank-reduced computation.

    ``d_nonzero`` carries the spectrum of D on span(ran P + ran P0); D is
    zero on the orthogonal complement, which contributes ``zero_multiplicity``
    exact zeros.  The M+- arrays likewise omit their trivial kernels.
    """

    fermi_level: float
    box: BoxDiscretization
    rank_p: int
    rank_p0: int
    d_nonzero: np.ndarray
    m_plus: np.ndarray
    m_minus: np.ndarray
    zero_multiplicity: int

    @property
    def d_full(self) -> np.ndarray:
        return np.sort(np.concatenate([self.d_nonzero,
                                       np.zeros(self.zero_multiplicity)]))

    @property
    def trace_d(self) -> int:
        return self.rank_p - self.rank_p0


def check_level_clear(box: BoxDiscretization, potential: Potential | None,
                      fermi_level: float, rel_gap: float = 1e-9,
                      tridiagonal=None) -> int:
    """Reject a Fermi level sitting within rel_gap of either box spectrum
    (relative to the spectral scale); counting would be ambiguous there.

    Returns the Sturm count #eig(H) < fermi_level.  ``tridiagonal`` is the
    (diagonal, off-diagonal) pair of H when the caller already holds it.
    """
    diag, off = tridiagonal or hamiltonian_tridiagonal(box, potential)
    ev0 = free_levels(box)
    j = count_below(diag, off, fermi_level)
    nearest = eigenvalues_by_index(diag, off, max(j - 1, 0),
                                   min(j, box.n - 1))
    dist = min(float(np.abs(nearest - fermi_level).min()),
               float(np.abs(ev0 - fermi_level).min()))
    if dist < rel_gap * float(ev0[-1]):
        raise LevelCollisionError(
            f"level collision: lambda={fermi_level} is within {dist:.3e} of a "
            "box eigenvalue; nudge lambda by half the local spacing")
    return j


def band_spectra(box: BoxDiscretization, potential: Potential,
                 fermi_level: float) -> BandSpectra:
    """Spectra of D(lambda), M+, M- without forming any n x n matrix.

    U (H eigenvectors below lambda) and U0 (closed-form H0 eigenvectors
    below lambda) span everything D acts on; the overlap C = U^T U0 then
    yields M+ and M- spectra directly, and a QR basis of [U U0] reduces D.
    """
    diag, off = hamiltonian_tridiagonal(box, potential)
    check_level_clear(box, potential, fermi_level, tridiagonal=(diag, off))
    _, u = eigenpairs_below(diag, off, fermi_level)
    r = u.shape[1]
    r0 = int(np.sum(free_levels(box) < fermi_level))
    u0 = free_vectors(box, r0)

    c = u.T @ u0
    m_plus = np.linalg.eigvalsh(np.eye(r) - c @ c.T) if r else np.empty(0)
    m_minus = np.linalg.eigvalsh(np.eye(r0) - c.T @ c) if r0 else np.empty(0)

    w = np.hstack([u, u0])
    q, _ = np.linalg.qr(w)
    a = q.T @ u
    b = q.T @ u0
    d_small = a @ a.T - b @ b.T
    d_nonzero = np.linalg.eigvalsh(d_small)

    return BandSpectra(
        fermi_level=fermi_level, box=box, rank_p=r, rank_p0=r0,
        d_nonzero=d_nonzero, m_plus=m_plus, m_minus=m_minus,
        zero_multiplicity=box.n - q.shape[1],
    )
