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
  orthonormal basis of it (inverse iteration per group of eigenvalues and
  one Cholesky QR, ``eigenpairs_below``), not reorthogonalized
  eigenvectors, and one SVD per block gives the sines of both sides.  The
  two paths agree to rounding and are cross-checked in the tests.

When the sampled box is mirror-symmetric (max|d_i - d_{n-1-i}| <= 8 eps
max|d| on the diagonal of H), ``band_spectra`` works in parity sectors.  The
reflection J: x -> -x commutes with H and H0, so P, P0 and D split into an
even and an odd block; the principal angles of the pair are the union of
the angles in each block and the index j is the sum of the blocks' indices.
Each block has half of n and about half of rank P, which cuts the O(n k^2)
cost of the Gram matrix, the Cholesky QR and the sine SVD about fourfold
and halves the bisection.  A box that fails the test stays one block on the
same code path.  ``box_levels`` counts in the same blocks: one eigenvalue
window per block serves every energy of a range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh, eigvalsh_tridiagonal
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dstein

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
    "BoxLevels",
    "box_levels",
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
    return _sines(box.n, box.n, np.arange(1, count + 1))


def _sines(n: int, rows: int, modes: np.ndarray) -> np.ndarray:
    """Rows i = 1..rows of the free modes k in ``modes`` on an n-point box."""
    i = np.arange(1, rows + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(i, modes) * np.pi / (n + 1))


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
    """The eigenvalues of the tridiagonal below ``level`` (ascending) and an
    orthonormal basis of their invariant subspace, as an n x k Fortran array.

    The values come from bisection (LAPACK stebz).  The basis comes from
    inverse iteration (LAPACK stein), called once per group of eigenvalues;
    a group ends wherever consecutive eigenvalues lie at least
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
    n = diag.size
    lower = float(diag.min() - 2.0 * np.abs(off).max() - 1.0)
    values = eigvalsh_tridiagonal(diag, off, select="v",
                                  select_range=(lower, level))
    k = values.size
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
    """Eigenvalues with (0-based) indices i_lo..i_hi of the tridiagonal."""
    i_lo = max(i_lo, 0)
    i_hi = min(i_hi, diag.size - 1)
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(i_lo, i_hi))


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


class _Sector(NamedTuple):
    """One reflection block of a tridiagonal on n nodes, in the orthonormal
    basis (e_i +- e_{n-1-i})/sqrt(2), i < n//2, plus e_centre for odd n.

    It holds the free modes k = first_mode, first_mode + step, ... with
    step the number of sectors; ``weight`` scales the left-half rows of a
    full-grid vector into sector coordinates (sqrt 2, the centre row 1).
    """

    diag: np.ndarray
    off: np.ndarray
    first_mode: int
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
        return [_Sector(diag, off, 1, np.ones(n))]
    m = n // 2
    root2 = math.sqrt(2.0)
    if n % 2:
        # Odd vectors vanish at the centre node m (a Dirichlet wall); even
        # ones reach it through the coupling sqrt(2) e.
        even_off = off[:m].copy()
        even_off[-1] *= root2
        weight = np.full(m + 1, root2)
        weight[-1] = 1.0
        return [_Sector(diag[:m + 1], even_off, 1, weight),
                _Sector(diag[:m], off[:m - 1], 2, np.full(m, root2))]
    # Even n: the coupling e across the middle folds onto the last diagonal.
    e = off[m - 1]
    even_diag, odd_diag = diag[:m].copy(), diag[:m].copy()
    even_diag[-1] += e
    odd_diag[-1] -= e
    weight = np.full(m, root2)
    return [_Sector(even_diag, off[:m - 1], 1, weight),
            _Sector(odd_diag, off[:m - 1], 2, weight)]


class _SectorLevels(NamedTuple):
    """The levels of one parity sector that a window needs: the H
    eigenvalues with sector indices first, first + 1, ..., and all the
    sector's closed-form H0 levels."""

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

    def at(self, lam: float, rel_gap: float = 1e-9) -> list:
        """Per sector, the ``_neighbours`` triples of H and of H0 at lam.

        Raises DomainError outside [lo, hi], where the window could miscount,
        and LevelCollisionError within rel_gap * scale of a level of either
        box spectrum, where counting would be ambiguous.
        """
        if not self.lo <= lam <= self.hi:
            raise DomainError(f"level {lam} lies outside the window "
                              f"[{self.lo}, {self.hi}] of the box levels")
        out = [(_neighbours(s.values, s.first, lam), _neighbours(s.free, 0, lam))
               for s in self.sectors]
        dist = min(abs(x - lam) for h, h0 in out for x in h[1:] + h0[1:])
        if dist < rel_gap * self.scale:
            raise LevelCollisionError(
                f"level collision: lambda={lam} is within {dist:.3e} of a "
                "box eigenvalue; nudge lambda by half the local spacing")
        return out

    def count(self, lam: float, rel_gap: float = 1e-9) -> int:
        """The Sturm count #eig(H) < lam, after the level guard."""
        return sum(h[0] for h, _ in self.at(lam, rel_gap))


def box_levels(box: BoxDiscretization, potential: Potential | None,
               lo: float, hi: float) -> BoxLevels:
    """The levels of H and H0 that counting at any energy in [lo, hi] needs,
    from one eigenvalue window per parity sector.

    Per sector of ``_mirror_sectors`` (a box that is not mirror-symmetric is
    one sector), the Sturm counts a = #eig < lo and b = #eig < hi pick the
    indices a-1..b: the last eigenvalue below lo to the first at or above
    hi, computed by one bisection.  The sector's H0 levels are its free
    modes in closed form.  A sector may end inside the window; its
    neighbours there are infinite.
    """
    if not lo <= hi:
        raise DomainError(f"empty level window [{lo}, {hi}]")
    diag, off = hamiltonian_tridiagonal(box, potential)
    free = free_levels(box)
    sectors = _mirror_sectors(diag, off)
    levels = []
    for sector in sectors:
        a = count_below(sector.diag, sector.off, lo)
        b = a if hi == lo else count_below(sector.diag, sector.off, hi)
        first = max(a - 1, 0)
        levels.append(_SectorLevels(
            first, eigenvalues_by_index(sector.diag, sector.off, first, b),
            free[sector.first_mode - 1::len(sectors)]))
    return BoxLevels(lo, hi, float(free[-1]), tuple(levels))


def check_level_clear(box: BoxDiscretization, potential: Potential | None,
                      fermi_level: float, rel_gap: float = 1e-9) -> int:
    """Reject a Fermi level sitting within rel_gap of either box spectrum
    (relative to the spectral scale); counting would be ambiguous there.

    Returns the Sturm count #eig(H) < fermi_level.  This is the lo = hi
    case of ``box_levels``.
    """
    return box_levels(box, potential, fermi_level, fermi_level).count(
        fermi_level, rel_gap)


def _sector_sines(u: np.ndarray, u0: np.ndarray):
    """The sines s+ of (I-P0) U and s- of (I-P) U0 for orthonormal U, U0.

    Off {0, 1} the two sides have the same singular values, and the side
    with more columns has |j| = |rank P - rank P0| more values at 1.  So one
    SVD, of that side, gives both: the other side is the same values without
    the |j| largest.  The side is formed in place of U or U0.
    """
    c = u.T @ u0
    j = u.shape[1] - u0.shape[1]
    if j >= 0:
        u -= u0 @ c.T
        s = np.linalg.svd(u, compute_uv=False)
        return s, s[j:]
    u0 -= u @ c
    s = np.linalg.svd(u0, compute_uv=False)
    return s[-j:], s


def band_spectra(box: BoxDiscretization, potential: Potential,
                 fermi_level: float) -> BandSpectra:
    """Spectra of D(lambda), M+, M- without forming any n x n matrix.

    U (``eigenpairs_below``) and U0 (closed-form H0 eigenvectors below
    lambda) are orthonormal bases of ran P and ran P0; the principal angles
    depend on the subspaces only, so U need not consist of eigenvectors.
    The singular values of (I-P0) U and (I-P) U0 are the principal-angle
    sines seen from either side, the index values 1 included on the larger
    side; one SVD per sector gives both (``_sector_sines``).

    A mirror-symmetric box (max|d_i - d_{n-1-i}| <= 8 eps max|d|, see
    ``_mirror_sectors``) is reduced once per parity sector, each of half
    the size: the reflection commutes with H and H0, so P, P0 and D are
    block diagonal, the principal angles are the union of the sectors'
    angles, and the ranks and the index add.  The odd free modes k are
    even, the even ones odd.  The level guard reads the same sectors.
    """
    check_level_clear(box, potential, fermi_level)
    diag, off = hamiltonian_tridiagonal(box, potential)
    r0 = int(np.sum(free_levels(box) < fermi_level))
    sectors = _mirror_sectors(diag, off)
    r, s_plus, s_minus = 0, [], []
    for sector in sectors:
        _, u = eigenpairs_below(sector.diag, sector.off, fermi_level)
        modes = np.arange(sector.first_mode, r0 + 1, len(sectors))
        u0 = sector.weight[:, None] * _sines(box.n, sector.diag.size, modes)
        plus, minus = _sector_sines(u, u0)
        s_plus.append(plus)
        s_minus.append(minus)
        r += u.shape[1]
    s_plus, s_minus = np.concatenate(s_plus), np.concatenate(s_minus)

    return BandSpectra(
        fermi_level=fermi_level, box=box, rank_p=r, rank_p0=r0,
        d_nonzero=np.sort(np.concatenate([s_plus, -s_minus])),
        m_plus=np.sort(s_plus ** 2), m_minus=np.sort(s_minus ** 2),
        zero_multiplicity=box.n - r - r0,
    )
