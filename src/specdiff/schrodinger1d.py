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
  ``box_levels``, ``band_spectra``) that never forms an n x n matrix.  It
  reads the spectra of D = P - P0, M+ = (I-P0) P (I-P0) and
  M- = P0 (I-P) P0 off the principal angles theta between ran P and ran P0
  and the index j = rank P - rank P0 (Halmos, "Two subspaces", Trans. AMS
  144, 1969): up to zeros,
  D ~ +-sin theta + sign(j) 1_{|j|} and M+- ~ sin^2 theta + 1_{|j|}, the
  index part in M+ for j > 0 and in M- for j < 0.  The sines come from
  singular values, accurate at small angles where sqrt(1 - cos^2) cancels
  (Knyazev & Argentati, SIAM J. Sci. Comput. 23, 2002).  The angles
  depend on the subspace ran P only, so the tridiagonal path takes an
  orthonormal basis of it (``eigenpairs_below``: inverse iteration per
  group of eigenvalues and one Cholesky QR, at eigenvalues that
  ``box_levels`` solved), not reorthogonalized
  eigenvectors, and per block one compact-WY QR of the larger side plus
  the SVD of its k x k R gives the sines of both sides.  The two paths
  agree to rounding and are cross-checked in the tests.

The tridiagonal path's counts and eigenvalues come from Sturm (LDL^T)
sweeps on a vector of shifts (``_SturmSweep``).  Outside the potential's
floating-point support the rows of a box are bitwise those of the free
Laplacian, so its leading and trailing constant runs are free blocks
tridiag(beta, alpha, beta).  Swept from its wall, such a block's negative
pivots are its closed-form eigenvalues alpha - 2|beta| cos(k pi/(m+1))
below the shift (Chebyshev), and its last pivot is a ratio of sines or of
sinh.  Only the support is swept row by row; the trailing block joins it
through one twisted row, whose inertia adds to the blocks' (Haynsworth).
All wanted eigenvalues are solved at once, by multisection on the count:
each round evaluates one vector of shifts spread over every open bracket.

When the sampled box is mirror-symmetric (max|d_i - d_{n-1-i}| <= 8 eps
max|d| on the diagonal of H), ``band_spectra`` works in parity sectors.  The
reflection J: x -> -x commutes with H and H0, so P, P0 and D split into an
even and an odd block; the principal angles of the pair are the union of
the angles in each block and the index j is the sum of the blocks' indices.
Each block has half of n and about half of rank P, which cuts the O(n k^2)
cost of the Gram matrix, the Cholesky QR and the sine QR about fourfold
and halves the Sturm sweeps' support.  A box that fails the test stays
one block on the same code path.  ``box_levels`` counts in the same blocks:
one eigenvalue window per block serves every energy of a range, and the
window (-inf, lambda] holds every eigenvalue ``band_spectra`` needs, so
each block's eigenvalues are solved once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dgeqrt, dpotrf, dstein

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
    "count_below",
    "BoxLevels",
    "box_levels",
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

    def __call__(self, x):
        raise NotImplementedError

    def max_abs(self) -> float:
        raise NotImplementedError

    def effective_support(self, tol: float = 1e-10) -> float:
        """Radius beyond which |V| <= tol."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class SquareWell(Potential):
    """V(x) = depth for |x| < half_width, 0 outside (depth < 0: attractive)."""

    depth: float = -2.0
    half_width: float = 1.0

    def __post_init__(self):
        if not self.half_width >= 0:
            raise DomainError(f"SquareWell half_width must not be negative, "
                              f"got {self.half_width}")

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

    def __post_init__(self):
        if self.strength < 1:
            raise DomainError("PoschlTeller strength must be a positive integer")

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        # cosh^2 overflows beyond |x| ~ 355; 1/inf = 0 is then the exact limit
        with np.errstate(over="ignore"):
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

    def __post_init__(self):
        if not self.width > 0:
            raise DomainError(f"GaussianBump width must be positive, "
                              f"got {self.width}")

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
    """Dense real symmetric operator with a label for error messages."""

    matrix: np.ndarray
    label: str


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
    """D = P - P0, with its sorted eigenvalues."""

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
    return SymmetricOperator(_dense_from_tridiagonal(diag, off), "H0")


def build_h(box: BoxDiscretization, potential: Potential) -> SymmetricOperator:
    """Dense H = H0 + diag(V(x_i))."""
    diag, off = hamiltonian_tridiagonal(box, potential)
    return SymmetricOperator(_dense_from_tridiagonal(diag, off),
                             f"H0+{potential.kind}")


def free_levels(box: BoxDiscretization) -> np.ndarray:
    """Closed-form H0 spectrum (2/h^2)(1 - cos(k pi/(n+1))), k = 1..n."""
    h = box.spacing
    k = np.arange(1, box.n + 1)
    return (2.0 / h ** 2) * (1.0 - np.cos(k * np.pi / (box.n + 1)))


def _sines(n: int, rows: int, modes: np.ndarray,
           weight: np.ndarray) -> np.ndarray:
    """Rows i = 1..rows of the free modes k in ``modes`` on an n-point box,
    times ``weight[i - 1]``, built in place in one Fortran buffer."""
    out = np.multiply.outer(np.arange(1, rows + 1), modes,
                            out=np.empty((rows, modes.size), order="F"))
    out *= np.pi
    out /= n + 1
    np.sin(out, out=out)
    out *= math.sqrt(2.0 / (n + 1))
    out *= weight[:, None]
    return out


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


LEVEL_GAP = 1e-9   # the level guard's distance, relative to the spectral scale


def spectral_projection(eig: EigenData, fermi_level: float) -> np.ndarray:
    """Orthogonal projection onto the eigenvectors below the Fermi level.

    The level must keep a relative distance of at least ``LEVEL_GAP`` times
    the spectral scale from every eigenvalue, otherwise membership would be
    numerically ambiguous.
    """
    scale = float(np.abs(eig.values).max())
    gap = np.abs(eig.values - fermi_level)
    j = int(np.argmin(gap))
    if gap[j] < LEVEL_GAP * scale:
        raise LevelCollisionError(
            f"fermi level {fermi_level} is within {gap[j]:.3e} of eigenvalue "
            f"{eig.values[j]:.12g}; nudge it by at least half the local spacing")
    sel = eig.vectors[:, eig.values < fermi_level]
    return sel @ sel.T


def projection_difference(p: np.ndarray, p0: np.ndarray) -> ProjectionDifference:
    """D = P - P0; its spectrum lives in [-1, 1] (enforced)."""
    _require_projection(p, "P")
    _require_projection(p0, "P0")
    d = p - p0
    ev = np.linalg.eigvalsh(d)
    if ev[0] < -1.0 - 1e-10 or ev[-1] > 1.0 + 1e-10:
        raise DomainError(
            f"projection difference spectrum [{ev[0]:.6g}, {ev[-1]:.6g}] "
            "escapes [-1, 1]; the inputs cannot both be orthogonal projections")
    return ProjectionDifference(d, ev)


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
    return PairingReport(pairs=pairs, max_pair_error=err, unpaired=unpaired)


# --- Sturm sweeps with closed-form runs ------------------------------------

# Support rows are stepped in blocks of this many rows; the signs of a
# block's pivots are counted once per block.
_BLOCK_ROWS = 64
# A constant run shorter than this many rows is stepped row by row with the
# support.  A closed-form wall step costs about as much as 32 to 40 rows for
# 64 to 256 shifts, 16 rows for 1024 shifts and 250 rows for the one shift
# of ``count_below``.
_MIN_RUN = 48
# Multisection: each bracket gets at least _SECTIONS - 1 points per round
# and the round about _SECTION_POINTS points in all.
_SECTIONS = 8
_SECTION_POINTS = 256
# A bracket closes at eps (max|d| + 2 max|e|) / _NARROWING, below the
# rounding of the shifted diagonal d_i - s (half an ulp of max|d|).
_NARROWING = 64.0
_MAX_ROUNDS = 100


def _run_length(diag: np.ndarray, off: np.ndarray) -> int:
    """The number of rows after row 0 whose (d_i, e_{i-1}) equal (d_0, e_0)
    bit for bit: with row 0 they form a free block swept in closed form."""
    if off.size == 0 or off[0] == 0.0:
        return 0
    same = (diag[1:] == diag[0]) & (off == off[0])
    return same.size if same.all() else int(np.argmin(same))


def _band(shifts: np.ndarray, alpha, beta: float):
    """(shift inside the band (alpha - 2|beta|, alpha + 2|beta|), theta,
    u = (1 - c)/2) per shift, with c = (alpha - s)/(2|beta|) = cos theta
    inside the band.  u and v = (1 + c)/2 are each taken from the shift's
    distance to one band edge, so theta keeps full relative accuracy at
    both edges; outside the band u < 0 or v < 0 and theta is unused.
    alpha may be one value per shift."""
    b = abs(beta)
    u = (shifts - (alpha - 2.0 * b)) / (4.0 * b)     # sin^2(theta/2)
    v = ((alpha + 2.0 * b) - shifts) / (4.0 * b)     # cos^2(theta/2)
    theta = 2.0 * np.arctan2(np.sqrt(np.abs(u)), np.sqrt(np.abs(v)))
    return (u > 0.0) & (v > 0.0), theta, u


def _wall_run(shifts, alpha: float, beta: float, rows: int):
    """The free block tridiag(beta, alpha, beta) - s of ``rows`` rows swept
    from its first row, so with no incoming pivot: (#negative pivots, last
    pivot) per shift.

    With b = |beta| and c = (alpha - s)/(2b), the pivots are
    b U_k(c)/U_{k-1}(c), k = 1..rows (Chebyshev), and the count is the
    number of block eigenvalues alpha - 2b cos(k pi/(rows+1)) below s.
    Inside the band (c = cos theta) that is ceil((rows+1) theta/pi) - 1
    and the last pivot is b sin((rows+1) theta)/sin(rows theta); below it
    (c = cosh mu) no pivot is negative and the last is the same ratio of
    sinh.  U_k(-c) = (-1)^k U_k(c), so the pivots at c < 0 are those at -c
    negated: a shift above the band centre is swept as its mirror image
    about -alpha, whose angle pi - theta keeps full relative accuracy at
    the upper band edge.
    """
    b = abs(beta)
    flip = shifts > alpha
    inside, theta, u = _band(np.where(flip, -shifts, shifts),
                             np.where(flip, -alpha, alpha), beta)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        phase = (rows + 1) * theta
        turns = np.ceil(phase / math.pi)
        last = phase - (turns - 1.0) * math.pi
        # Rounding can put last outside (0, pi].  At or below 0 that
        # multiple of pi is the next row's, and the last pivot a positive
        # zero; above pi it is pi.  So the last pivot is never 0, and it is
        # negative exactly when the count takes in the last row.
        low = last <= 0.0
        turns -= low
        last = np.minimum(np.where(low, last + math.pi, last), math.pi)
        mu = 2.0 * np.arcsinh(np.sqrt(-u))
        sinh_ratio = np.where(mu == 0.0, (rows + 1) / rows, np.exp(mu) * (
            np.expm1(-2.0 * (rows + 1) * mu) / np.expm1(-2.0 * rows * mu)))
        pivot = b * np.where(inside, np.sin(last) / np.sin(last - theta),
                             sinh_ratio)
    count = np.where(inside, turns - 1.0, 0.0).astype(np.int64)
    return np.where(flip, rows - count, count), np.where(flip, -pivot, pivot)


def _support_step(t, shifts, diag: np.ndarray, e2: np.ndarray):
    """The pivots t <- (d_i - s) - e_i^2/t one row at a time:
    (#negative pivots, last pivot) per shift.  A zero pivot makes the next
    one -inf and the one after it finite again."""
    neg = np.zeros(shifts.size, dtype=np.int64)
    if not diag.size:
        return neg, t
    if shifts.size == 1:
        # One shift: Python floats cost less per row than two numpy calls.
        s, x, count = float(shifts[0]), float(t[0]), 0
        for d, sq in zip(diag.tolist(), e2.tolist()):
            a = (d - s) + 0.0
            x = a - (sq / x if x else math.copysign(math.inf, x)) if sq else a
            count += x < 0.0
        neg[0] = count
        return neg, np.array([x])
    block = np.empty((min(diag.size, _BLOCK_ROWS), shifts.size))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, diag.size, _BLOCK_ROWS):
            a = np.subtract.outer(diag[start:start + _BLOCK_ROWS], shifts)
            a += 0.0   # -0.0 + 0.0 is +0.0: a zero pivot is positive
            for row, a_row, sq in zip(block, a,
                                      e2[start:start + _BLOCK_ROWS].tolist()):
                if sq == 0.0:
                    row[:] = a_row
                else:
                    np.divide(sq, t, out=row)
                    np.subtract(a_row, row, out=row)
                t = row
            neg += np.count_nonzero(block[:a.shape[0]] < 0.0, axis=0)
    return neg, t.copy()


class _SturmSweep:
    """Sturm counts and eigenvalues of one symmetric tridiagonal T.

    The leading run (rows 0..lead, equal to row 0 bit for bit) and the
    trailing run (the last ``trail`` rows, equal to the last row) are free
    blocks, each swept from its wall (``_wall_run``): its negative pivots
    are its closed-form eigenvalues below s.  The support between them is
    swept row by row (``_support_step``) from the leading block's last
    pivot, and the trailing block's top pivot u joins the support's last
    row r as the Schur term -e_r^2/u.  This twisted factorization of T - s
    has the inertia of T - s (Sylvester), so its negative pivots number the
    eigenvalues below s.  With no support row between the blocks the twist
    row is the leading block's last.  A run shorter than ``_MIN_RUN`` rows
    joins the support.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        n = diag.size
        lead = _run_length(diag, off)
        lead = lead if lead >= _MIN_RUN else 0
        trail = min(_run_length(diag[::-1], off[::-1]), n - 1 - lead)
        trail = trail if trail >= _MIN_RUN else 0
        self.lead, self.trail = lead, trail
        self.first = float(diag[0])
        self.lead_entries = (self.first, float(off[0])) if lead else None
        self.trail_entries = ((float(diag[-1]), float(off[-1])) if trail
                              else None)
        self.support = (diag[lead + 1:n - trail], off[lead:n - 1 - trail] ** 2)
        radius = np.zeros(n)
        radius[:-1] += np.abs(off)
        radius[1:] += np.abs(off)
        self.bounds = (float((diag - radius).min()),
                       float((diag + radius).max()))
        self.tol = np.finfo(float).eps * float(
            np.abs(diag).max() + 2.0 * np.abs(off).max(initial=0.0))

    def count(self, shifts) -> np.ndarray:
        """The number of eigenvalues below each shift."""
        shifts = np.asarray(shifts, dtype=float)
        if self.lead:
            neg, t = _wall_run(shifts, *self.lead_entries, self.lead + 1)
        else:
            t = self.first - shifts + 0.0      # a zero pivot is +0.0: positive
            neg = (t < 0.0).astype(np.int64)
        c, t = _support_step(t, shifts, *self.support)
        neg += c
        if self.trail:
            c, u = _wall_run(shifts, *self.trail_entries, self.trail)
            # the twist: the support's last pivot t gains -e^2/u (u != 0)
            neg += c + (t - self.trail_entries[1] ** 2 / u < 0.0) - (t < 0.0)
        return neg

    def eigenvalues(self, first: int, last: int) -> np.ndarray:
        """The eigenvalues with 0-based indices first..last, ascending.

        Every bracket starts as the Gershgorin interval.  Each round
        multisects the distinct brackets (wanted indices that are not yet
        isolated share theirs) and keeps, per index j, the last point with
        count <= j and the first with count > j.  A bracket closes at
        eps (max|d| + 2 max|e|) / _NARROWING, or at 4 eps times its ends'
        magnitude if that is wider, and its midpoint is returned.
        """
        want = np.arange(first, last + 1)
        pad = 4.0 * self.tol + 1e-300
        lo = np.full(want.size, self.bounds[0] - pad)
        hi = np.full(want.size, self.bounds[1] + pad)
        eps = np.finfo(float).eps
        for _ in range(_MAX_ROUNDS):
            active = np.flatnonzero(hi - lo > np.maximum(
                self.tol / _NARROWING,
                4.0 * eps * np.maximum(np.abs(lo), np.abs(hi))))
            if not active.size:
                return np.sort(0.5 * (lo + hi))
            ulo, head, inv = np.unique(lo[active], return_index=True,
                                       return_inverse=True)
            uhi = hi[active][head]
            parts = max(_SECTIONS, _SECTION_POINTS // ulo.size)
            grid = ulo[:, None] + (uhi - ulo)[:, None] * (
                np.arange(1, parts) / parts)
            counts = self.count(grid.ravel()).reshape(grid.shape)[inv]
            grid = grid[inv]
            below = np.count_nonzero(counts <= want[active, None], axis=1)
            r = np.flatnonzero(below > 0)
            lo[active[r]] = grid[r, below[r] - 1]
            r = np.flatnonzero(below < grid.shape[1])
            hi[active[r]] = grid[r, below[r]]
        raise ConvergenceError(
            f"eigenvalue brackets did not close in {_MAX_ROUNDS} rounds",
            float((hi - lo).max()))


def count_below(diag: np.ndarray, off: np.ndarray, level: float) -> int:
    """Number of eigenvalues of the tridiagonal below ``level``: the
    negative pivots of the (Sturm) sweep of T - level, in which each
    constant run of the tridiagonal counts its own closed-form eigenvalues
    below the level (``_SturmSweep``).

    The count is that of T - level perturbed by rounding of about
    eps (max|d| + 2 max|e|), so a level that close to an eigenvalue may
    count it on either side; the level guard (``BoxLevels.at``) keeps
    levels ``LEVEL_GAP`` of the spectral scale away from the box's
    eigenvalues.
    """
    return int(_SturmSweep(diag, off).count([level])[0])


def eigenpairs_below(diag: np.ndarray, off: np.ndarray, values: np.ndarray):
    """The k lowest eigenvalues ``values`` of the tridiagonal (ascending)
    and an orthonormal basis of their invariant subspace, as an n x k
    Fortran array.

    The values are the caller's, as a ``box_levels`` window holds them: one
    vectorized solve on the Sturm sweep, to eps (max|d| + 2 max|e|) / 64.
    This function builds the basis only, by inverse iteration (LAPACK
    stein) at those values, called once per group of eigenvalues; a group
    ends wherever consecutive eigenvalues lie at least
    sqrt(eps) (max|d| + 2 max|e|) apart.  Vectors of different groups then
    overlap by at most eps ||T|| / gap <= sqrt(eps), and that overlap lies
    inside the subspace.  So U is orthonormal up to O(sqrt(eps)), and one
    Cholesky QR (R = chol(U^T U), U <- U R^-1 in place), whose loss of
    orthogonality is about eps cond(U)^2 (Fukaya et al., "CholeskyQR2",
    2014), makes the columns orthonormal without leaving the subspace.  Only
    the subspace is specified: a column is an eigenvector up to a mixing of
    that order.  Inverse iteration that does not converge, or a Gram matrix
    that is not numerically positive definite, raises ConvergenceError.
    """
    n, k = diag.size, values.size
    basis = np.empty((n, k), order="F")
    if k == 0:
        return values, basis
    tol = math.sqrt(np.finfo(float).eps) * float(
        np.abs(diag).max() + 2.0 * np.abs(off).max())
    cuts = np.concatenate([[0], np.flatnonzero(np.diff(values) >= tol) + 1, [k]])
    iblock = np.ones(n, dtype=np.int32)
    isplit = np.zeros(n, dtype=np.int32)
    isplit[0] = n
    for a, b in zip(cuts[:-1], cuts[1:]):
        basis[:, a:b], info = dstein(diag, off, values[a:b], iblock, isplit)
        if info > 0:
            raise ConvergenceError(
                f"inverse iteration left {info} of the eigenvectors "
                f"{a}..{b - 1} unconverged", math.nan)
    chol, info = dpotrf(basis.T @ basis)
    if info > 0:
        raise ConvergenceError(
            f"Cholesky QR: the Gram matrix of the {k} inverse-iteration "
            f"vectors is not positive definite at order {info}", math.nan)
    return values, dtrsm(1.0, chol, basis, side=1, overwrite_b=1)


def eigenvalues_by_index(diag: np.ndarray, off: np.ndarray, i_lo: int, i_hi: int):
    """Eigenvalues with (0-based) indices i_lo..i_hi of the tridiagonal,
    from one vectorized solve on the Sturm sweep (``_SturmSweep``)."""
    i_lo = max(i_lo, 0)
    i_hi = min(i_hi, diag.size - 1)
    return _SturmSweep(diag, off).eigenvalues(i_lo, i_hi)


@dataclass(frozen=True)
class BandSpectra:
    """Spectra of D, M+, M- for one box, from the principal angles.

    ``d_nonzero`` holds +-sin theta and the index values sign(j) on
    ran P + ran P0; D is zero on its complement, which contributes
    ``zero_multiplicity`` exact zeros.  ``m_plus`` and ``m_minus`` hold the
    squared sines seen from ran P and ran P0, without their trivial kernels.
    All arrays ascend.  For a mirror-symmetric box they merge the even and
    odd parity sectors, whose angles are disjoint parts of the same set and
    whose ranks add up to ``rank_p`` and ``rank_p0``.
    """

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


class _Sector(NamedTuple):
    """One reflection block of a tridiagonal on n nodes, in the orthonormal
    basis (e_i +- e_{n-1-i})/sqrt(2), i < n//2, plus e_centre for odd n.

    ``modes`` are the 1-based numbers k of the free modes the block holds,
    ascending: every k for a single block, the odd k for the even block and
    the even k for the odd one.  ``weight`` scales the left-half rows of a
    full-grid vector into sector coordinates (sqrt 2, the centre row 1).
    """

    diag: np.ndarray
    off: np.ndarray
    modes: np.ndarray
    weight: np.ndarray


def _mirror_sectors(diag: np.ndarray, off: np.ndarray) -> list[_Sector]:
    """The even and odd blocks of a tridiagonal that commutes with the
    reflection i -> n-1-i; any other tridiagonal is a single block.

    Mirror symmetry means max|d_i - d_{n-1-i}| <= 8 eps max|d| (and the
    same for the off-diagonal).  The blocks are built from the left half,
    so a mismatch that small stays inside the eigensolver's backward error.
    """
    n = diag.size
    tol = 8.0 * np.finfo(float).eps * float(np.abs(diag).max())
    if (np.abs(diag - diag[::-1]).max() > tol
            or np.abs(off - off[::-1]).max() > tol):
        return [_Sector(diag, off, np.arange(1, n + 1), np.ones(n))]
    m = n // 2
    root2 = math.sqrt(2.0)
    odd_k, even_k = np.arange(1, n + 1, 2), np.arange(2, n + 1, 2)
    if n % 2:
        # Odd vectors vanish at the centre node m (a Dirichlet wall); even
        # ones reach it through the coupling sqrt(2) e.
        even_off = off[:m].copy()
        even_off[-1] *= root2
        weight = np.full(m + 1, root2)
        weight[-1] = 1.0
        return [_Sector(diag[:m + 1], even_off, odd_k, weight),
                _Sector(diag[:m], off[:m - 1], even_k, np.full(m, root2))]
    # Even n: the coupling e across the middle folds onto the last diagonal.
    e = off[m - 1]
    even_diag, odd_diag = diag[:m].copy(), diag[:m].copy()
    even_diag[-1] += e
    odd_diag[-1] -= e
    weight = np.full(m, root2)
    return [_Sector(even_diag, off[:m - 1], odd_k, weight),
            _Sector(odd_diag, off[:m - 1], even_k, weight)]


class _SectorLevels(NamedTuple):
    """One parity sector with the levels a window needs: the H eigenvalues
    with sector indices first, first + 1, ..., and all the sector's
    closed-form H0 levels."""

    sector: _Sector
    first: int
    values: np.ndarray
    free: np.ndarray


def _neighbours(values: np.ndarray, first: int, lam: float):
    """(#levels below lam, the nearest level below it, the nearest at or
    above it) for ascending ``values`` whose first has index ``first``;
    -inf and +inf stand where the spectrum ends."""
    i = int(np.searchsorted(values, lam))
    below = float(values[i - 1]) if i else -math.inf
    above = float(values[i]) if i < values.size else math.inf
    return first + i, below, above


@dataclass(frozen=True)
class BoxLevels:
    """The box levels that counting needs at every energy in [lo, hi], per
    parity sector (see ``box_levels``); ``scale`` is the top free level,
    the spectral scale of the level guard."""

    lo: float
    hi: float
    scale: float
    sectors: tuple

    def at(self, lam: float) -> list:
        """Per sector, the ``_neighbours`` triples of H and of H0 at lam.

        Raises DomainError outside [lo, hi], where the window could miscount,
        and LevelCollisionError within LEVEL_GAP * scale of a level of either
        box spectrum, where counting would be ambiguous.
        """
        if not self.lo <= lam <= self.hi:
            raise DomainError(f"level {lam} lies outside the window "
                              f"[{self.lo}, {self.hi}] of the box levels")
        out = [(_neighbours(s.values, s.first, lam), _neighbours(s.free, 0, lam))
               for s in self.sectors]
        dist = min(abs(x - lam) for h, h0 in out for x in h[1:] + h0[1:])
        if dist < LEVEL_GAP * self.scale:
            raise LevelCollisionError(
                f"level collision: lambda={lam} is within {dist:.3e} of a "
                "box eigenvalue; nudge lambda by half the local spacing")
        return out


def box_levels(box: BoxDiscretization, potential: Potential | None,
               lo: float, hi: float) -> BoxLevels:
    """The levels of H and H0 that counting at any energy in [lo, hi] needs,
    from one eigenvalue window per parity sector.

    Per sector of ``_mirror_sectors`` (a box that is not mirror-symmetric is
    one sector), the Sturm counts a = #eig < lo and b = #eig < hi pick the
    indices a-1..b: the last eigenvalue below lo to the first at or above
    hi, computed by one vectorized solve on the sector's Sturm sweep
    (``eigenvalues_by_index``).  lo = -inf gives a = 0, so the window
    (-inf, hi] holds every eigenvalue below hi.  The sector's H0 levels are
    its free modes in closed form.  A sector may end inside the window; its
    neighbours there are infinite.
    """
    if not lo <= hi:
        raise DomainError(f"empty level window [{lo}, {hi}]")
    diag, off = hamiltonian_tridiagonal(box, potential)
    free = free_levels(box)
    levels = []
    for sector in _mirror_sectors(diag, off):
        a = count_below(sector.diag, sector.off, lo)
        b = a if hi == lo else count_below(sector.diag, sector.off, hi)
        first = max(a - 1, 0)
        levels.append(_SectorLevels(
            sector, first, eigenvalues_by_index(sector.diag, sector.off, first, b),
            free[sector.modes - 1]))
    return BoxLevels(lo, hi, float(free[-1]), tuple(levels))


# Block size of the compact-WY QR, LAPACK's usual geqrf block.
_QR_BLOCK = 32


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values (descending) of a tall Fortran array, overwritten:
    a compact-WY QR (LAPACK geqrt) in place, then the SVD of the k x k R.
    The blocked geqrt runs at GEMM speed where the QR inside gesdd does not."""
    m, k = a.shape
    if k == 0:
        return np.empty(0)
    qr, _, _ = dgeqrt(min(_QR_BLOCK, m, k), a, overwrite_a=1)
    return np.linalg.svd(np.triu(qr[:k]), compute_uv=False)


def _sector_sines(u: np.ndarray, u0: np.ndarray):
    """The sines s+ of (I-P0) U and s- of (I-P) U0 for orthonormal U, U0.

    Off {0, 1} the two sides have the same singular values, and the side
    with more columns has |j| = |rank P - rank P0| more values at 1.  So the
    singular values of that side give both: the other side is the same
    values without the |j| largest.  The side is formed in place of U or U0
    (both Fortran arrays) and overwritten by its QR (``_singular_values``).
    """
    c = u.T @ u0
    j = u.shape[1] - u0.shape[1]
    if j >= 0:
        u -= u0 @ c.T
        s = _singular_values(u)
        return s, s[j:]
    u0 -= u @ c
    s = _singular_values(u0)
    return s[-j:], s


def band_spectra(box: BoxDiscretization, potential: Potential,
                 fermi_level: float) -> BandSpectra:
    """Spectra of D(lambda), M+, M- without forming any n x n matrix.

    U (``eigenpairs_below``) and U0 (closed-form H0 eigenvectors below
    lambda) are orthonormal bases of ran P and ran P0; the principal angles
    depend on the subspaces only, so U need not consist of eigenvectors.
    The singular values of (I-P0) U and (I-P) U0 are the principal-angle
    sines seen from either side, the index values 1 included on the larger
    side; one QR and a k x k SVD per sector give both (``_sector_sines``).

    A mirror-symmetric box (max|d_i - d_{n-1-i}| <= 8 eps max|d|, see
    ``_mirror_sectors``) is reduced once per parity sector, each of half
    the size: the reflection commutes with H and H0, so P, P0 and D are
    block diagonal, the principal angles are the union of the sectors'
    angles, and the ranks and the index add.  The odd free modes k are
    even, the even ones odd.

    The window (-inf, lambda] of ``box_levels`` gives the level guard, the
    sectors and, per sector, the counts k and k0 of H and H0 levels below
    lambda and the k eigenvalues, each sector solved once: its lowest k
    window values go to ``eigenpairs_below`` and its first k0 free modes
    to U0.
    """
    levels = box_levels(box, potential, -math.inf, fermi_level)
    r, r0, s_plus, s_minus = 0, 0, [], []
    for window, ((k, _, _), (k0, _, _)) in zip(levels.sectors,
                                               levels.at(fermi_level)):
        sector = window.sector
        _, u = eigenpairs_below(sector.diag, sector.off, window.values[:k])
        u0 = _sines(box.n, sector.diag.size, sector.modes[:k0], sector.weight)
        plus, minus = _sector_sines(u, u0)
        s_plus.append(plus)
        s_minus.append(minus)
        r, r0 = r + k, r0 + k0
        del u, u0  # free this sector's blocks before the next one's
    s_plus, s_minus = np.concatenate(s_plus), np.concatenate(s_minus)

    return BandSpectra(
        rank_p=r, rank_p0=r0,
        d_nonzero=np.sort(np.concatenate([s_plus, -s_minus])),
        m_plus=np.sort(s_plus ** 2), m_minus=np.sort(s_minus ** 2),
        zero_multiplicity=box.n - r - r0,
    )
