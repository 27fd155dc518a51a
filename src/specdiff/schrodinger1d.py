"""Finite-box discretizations of the 1D Hamiltonians H0 = -d^2/dx^2 and
H = H0 + V, and the spectra of their projection difference.

The box (-L, L) carries Dirichlet walls and a uniform grid of n interior
points with spacing h = 2L/(n+1); H0 is the three-point Laplacian
h^-2 tridiag(-1, 2, -1) whose eigenpairs are known in closed form, and V is
sampled pointwise on the nodes.  Everything stays real symmetric, and no
n x n matrix is formed: the box layer (``hamiltonian_tridiagonal``,
``count_below``, ``box_levels``, ``band_spectra``) works on the tridiagonal.
It reads the spectra of D = P - P0, M+ = (I-P0) P (I-P0) and
M- = P0 (I-P) P0 off the principal angles theta between ran P and ran P0
and the index j = rank P - rank P0 (Halmos, "Two subspaces", Trans. AMS
144, 1969): up to zeros,
D ~ +-sin theta + sign(j) 1_{|j|} and M+- ~ sin^2 theta + 1_{|j|}, the
index part in M+ for j > 0 and in M- for j < 0.  The sines come from
singular values, accurate at small angles where sqrt(1 - cos^2) cancels
(Knyazev & Argentati, SIAM J. Sci. Comput. 23, 2002).  The angles depend
on the subspace ran P only, so the box layer takes an orthonormal basis of
it (``eigenpairs_below``, at eigenvalues that ``box_levels`` solved), not
reorthogonalized eigenvectors: where the block has a free run from a wall,
each vector is written in closed form on the runs (sin, or sinh below the
band) and stepped by the three-term recurrence over the support only,
joined at one twisted row; inverse iteration (LAPACK stein) per group of
eigenvalues builds the rest, and one Cholesky QR makes them orthonormal.
The sines on the runs and in U0 come from angle-addition tables.  Per block
one in-place GEMM forms the larger side, (I-P0) U or (I-P) U0, and one
compact-WY QR of it plus the SVD of its k x k R gives the sines of both
sides.  The tests check the box layer against dense n x n projections from
a full eigendecomposition.

The box layer's counts and eigenvalues come from Sturm (LDL^T) sweeps on
a vector of shifts (``SturmSweep``), one per sector and call, built once
and shared by ``count_below``, ``eigenvalues_by_index`` and
``eigenpairs_below``, which read the runs off it.  Outside the potential's
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
from scipy.linalg.blas import dgemm, dtrmm
from scipy.linalg.lapack import dgeqrt, dpotrf, dstein, dtrtri

from .errors import ConvergenceError, DomainError, LevelCollisionError

__all__ = [
    "BoxDiscretization",
    "Potential",
    "SquareWell",
    "PoschlTeller",
    "GaussianBump",
    "BandSpectra",
    "hamiltonian_tridiagonal",
    "free_levels",
    "SturmSweep",
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
        if not 0 < self.half_length < math.inf:
            raise DomainError(f"box half-length must be positive and finite, "
                              f"got {self.half_length}")
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


def hamiltonian_tridiagonal(box: BoxDiscretization,
                            potential: Potential | None = None):
    """(diagonal, off-diagonal) arrays of H0 + V on the box grid."""
    h = box.spacing
    diag = np.full(box.n, 2.0 / h ** 2)
    if potential is not None:
        diag = diag + potential(box.grid)
    off = np.full(box.n - 1, -1.0 / h ** 2)
    return diag, off


def free_levels(box: BoxDiscretization) -> np.ndarray:
    """Closed-form H0 spectrum (2/h^2)(1 - cos(k pi/(n+1))), k = 1..n."""
    h = box.spacing
    k = np.arange(1, box.n + 1)
    return (2.0 / h ** 2) * (1.0 - np.cos(k * np.pi / (box.n + 1)))


# Sine tables are written by angle addition in blocks of this many rows.
_SINE_ROWS = 128


def _add_angles(out: np.ndarray, coarse, fine) -> None:
    """out[b B + r] <- sin a_b cos c_r + cos a_b sin c_r = sin(a_b + c_r),
    B = _SINE_ROWS, from the tables coarse = (sin a, cos a), one row per
    block, and fine = (sin c, cos c), Fortran arrays laid out like a block
    of the Fortran basis; a caller may fold factors into them.  Two
    multiplies and an add per entry replace a libm sin, many times dearer."""
    (sin_a, cos_a), (sin_c, cos_c) = coarse, fine
    tmp = np.empty_like(sin_c)
    for b, start in enumerate(range(0, out.shape[0], _SINE_ROWS)):
        block = out[start:start + _SINE_ROWS]
        m = block.shape[0]
        np.multiply(cos_c[:m], sin_a[b], out=block)
        np.multiply(sin_c[:m], cos_a[b], out=tmp[:m])
        block += tmp[:m]


def _half_turns(rows: np.ndarray, modes: np.ndarray, n1: int):
    """(sin, cos) of pi i k / n1 for rows i and columns k, Fortran arrays.
    The exact integer i k mod 2 n1 is h half turns plus a with |a| <= n1/2,
    so the rounded angle pi a / n1 is off by at most about 2 ulps of pi/2,
    and (-1)^h is the sign of both."""
    t = np.asfortranarray(np.multiply.outer(rows, modes)) % (2 * n1)
    turns = (2 * t + n1) // (2 * n1)
    angle = (math.pi / n1) * (t - turns * n1)
    sign = np.where(turns == 1, -1.0, 1.0)
    return sign * np.sin(angle), sign * np.cos(angle)


def _sines(n: int, rows: int, modes: np.ndarray,
           weight: np.ndarray) -> np.ndarray:
    """Rows i = 1..rows of the free modes k in ``modes`` on an n-point box,
    sqrt(2/(n+1)) sin(pi i k/(n+1)) weight[i - 1], as one Fortran array,
    each entry within a few ulps: angle addition (``_add_angles``) over
    i = c + r with exact phases (``_half_turns``), sqrt(2/(n+1)) weight[0]
    folded into the coarse tables; only rows of other weights are rescaled."""
    out = np.empty((rows, modes.size), order="F")
    sin_a, cos_a = _half_turns(np.arange(1, rows + 1, _SINE_ROWS), modes, n + 1)
    scale = math.sqrt(2.0 / (n + 1)) * weight[0]
    _add_angles(out, (scale * sin_a, scale * cos_a),
                _half_turns(np.arange(min(rows, _SINE_ROWS)), modes, n + 1))
    other = np.flatnonzero(weight != weight[0])
    out[other] *= (weight[other] / weight[0])[:, None]
    return out


# --- Sturm sweeps with closed-form runs ------------------------------------

# Support rows are stepped in blocks of this many rows; the signs of a
# block's pivots are counted once per block.
_BLOCK_ROWS = 64
# A constant run shorter than this many rows is stepped row by row with the
# support.  A closed-form wall step costs about as much as 32 to 40 rows for
# 64 to 256 shifts, 16 rows for 1024 shifts and 250 rows for the one shift
# of ``count_below``.
_MIN_RUN = 48
# Multisection: the first round puts _SECTION_POINTS - 1 points in the
# Gershgorin interval, every later round _SECTIONS - 1 in each open bracket.
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
    """Each shift s against the band (alpha - 2b, alpha + 2b), b = |beta|,
    of a free block tridiag(beta, alpha, beta): (flip, inside, theta, mu).

    Its pivots and rows are Chebyshev U_k(c), c = (alpha - s)/(2b), and
    U_k(-c) = (-1)^k U_k(c): a shift above the band centre (``flip``) is
    read as its mirror image -s about -alpha, so c >= 0.  Inside the band
    c = cos theta, with u = sin^2(theta/2) and v = cos^2(theta/2) each from
    the distance to one band edge, so theta (and pi - theta, mirrored) keeps
    full relative accuracy at both edges.  Below it c = cosh mu; mu is 0
    inside the band, and theta is unused outside it."""
    flip = shifts > alpha
    shifts = np.where(flip, -shifts, shifts)
    alpha = np.where(flip, -alpha, alpha)
    b = abs(beta)
    u = (shifts - (alpha - 2.0 * b)) / (4.0 * b)     # sin^2(theta/2)
    v = ((alpha + 2.0 * b) - shifts) / (4.0 * b)     # cos^2(theta/2)
    theta = 2.0 * np.arctan2(np.sqrt(np.abs(u)), np.sqrt(np.abs(v)))
    mu = 2.0 * np.arcsinh(np.sqrt(np.maximum(-u, 0.0)))
    return flip, (u > 0.0) & (v > 0.0), theta, mu


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
    sinh.  A shift above the band centre is swept mirrored (``_band``): its
    pivots are those of the mirror image negated, and its count the rows
    the mirror image leaves positive.
    """
    b = abs(beta)
    flip, inside, theta, mu = _band(shifts, alpha, beta)
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


class SturmSweep:
    """Sturm counts and eigenvalues of one symmetric tridiagonal T (``diag``,
    ``off``), with its runs and ``scale`` = max|d| + 2 max|e|: one per box
    sector, shared by its counts, eigenvalues and eigenvectors.

    The leading run (rows 0..lead, equal to row 0 bit for bit) and the
    trailing run (the last ``trail`` rows, equal to the last row and
    disjoint from the leading run) are free blocks, each swept from its
    wall (``_wall_run``): its negative pivots are its closed-form
    eigenvalues below s.  The support between them is swept row by row
    (``_support_step``) from the leading block's last pivot, and the
    trailing block's top pivot u joins the support's last row r as the
    Schur term -e_r^2/u.  This twisted factorization of T - s has the
    inertia of T - s (Sylvester), so its negative pivots number the
    eigenvalues below s.  With no support row between the blocks the twist
    row is the leading block's last.  A run shorter than ``_MIN_RUN`` rows
    counts as 0 and joins the support.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        n = diag.size
        self.diag, self.off = diag, off
        lead = _run_length(diag, off)
        lead = lead if lead >= _MIN_RUN else 0
        trail = min(_run_length(diag[::-1], off[::-1]), n - 1 - lead)
        trail = trail if trail >= _MIN_RUN else 0
        self.lead, self.trail = lead, trail
        self.lead_entries = (float(diag[0]), float(off[0])) if lead else None
        self.trail_entries = ((float(diag[-1]), float(off[-1])) if trail
                              else None)
        self.support = (diag[lead + 1:n - trail], off[lead:n - 1 - trail] ** 2)
        radius = np.zeros(n)
        radius[:-1] += np.abs(off)
        radius[1:] += np.abs(off)
        self.bounds = (float((diag - radius).min()),
                       float((diag + radius).max()))
        self.scale = float(np.abs(diag).max()
                           + 2.0 * np.abs(off).max(initial=0.0))
        self.tol = np.finfo(float).eps * self.scale

    def count(self, shifts) -> np.ndarray:
        """The number of eigenvalues below each shift."""
        shifts = np.asarray(shifts, dtype=float)
        if self.lead:
            neg, t = _wall_run(shifts, *self.lead_entries, self.lead + 1)
        else:
            t = self.diag[0] - shifts + 0.0    # a zero pivot is +0.0: positive
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
        count <= j and the first with count > j.  The first round, where
        every index shares the Gershgorin bracket, puts _SECTION_POINTS - 1
        points in it, and every later round _SECTIONS - 1 points in each
        bracket, so a bracket's path depends on its index only: an
        eigenvalue is the same to the last bit whichever other indices the
        call asks for.  A bracket closes at eps (max|d| + 2 max|e|) /
        _NARROWING, or at 4 eps times its ends' magnitude if that is wider,
        and its midpoint is returned.  An index below 0 or past the last
        raises DomainError.
        """
        if first < 0 or last >= self.diag.size:
            raise DomainError(f"eigenvalue indices {first}..{last} outside "
                              f"0..{self.diag.size - 1}")
        want = np.arange(first, last + 1)
        pad = 4.0 * self.tol + 1e-300
        lo = np.full(want.size, self.bounds[0] - pad)
        hi = np.full(want.size, self.bounds[1] + pad)
        eps = np.finfo(float).eps
        for rounds in range(_MAX_ROUNDS):
            active = np.flatnonzero(hi - lo > np.maximum(
                self.tol / _NARROWING,
                4.0 * eps * np.maximum(np.abs(lo), np.abs(hi))))
            if not active.size:
                return np.sort(0.5 * (lo + hi))
            ulo, head, inv = np.unique(lo[active], return_index=True,
                                       return_inverse=True)
            uhi = hi[active][head]
            parts = _SECTIONS if rounds else _SECTION_POINTS
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


def count_below(sweep: SturmSweep, level: float) -> int:
    """Number of eigenvalues of the sweep's tridiagonal T below ``level``:
    the negative pivots of the (Sturm) sweep of T - level, in which each
    constant run of T counts its own closed-form eigenvalues below the
    level (``SturmSweep``).

    The count is that of T - level perturbed by rounding of about
    eps (max|d| + 2 max|e|), so a level that close to an eigenvalue may
    count it on either side; the level guard (``BoxLevels.at``) keeps
    levels ``LEVEL_GAP`` of the spectral scale away from the box's
    eigenvalues.
    """
    return int(sweep.count([level])[0])


class _Wall(NamedTuple):
    """The solution from a wall (z_0 = 0) of the free rows
    beta z_{i-1} + (alpha - s) z_i + beta z_{i+1} = 0 of a run of ``rows``
    rows, i = 1..rows counted from the wall, for ascending shifts s.

    That is U_{i-1}(c) with c = (s - alpha)/(2 beta) (Chebyshev), up to a
    factor per shift: sin(i theta) inside the band, with theta from
    ``_band``; below it sinh(i mu)/sinh(rows mu), 1 at the run's end, and
    i/rows at mu = 0.  A shift above the band centre is taken mirrored
    (``_band``), and its rows alternate in sign wherever c < 0.  The shifts
    inside the band, and those with c < 0, are each one run of columns
    (``band``, ``alt``).
    """

    rows: int
    angle: np.ndarray   # theta inside the band, mu outside it
    band: slice
    alt: slice


def _wall(values: np.ndarray, alpha: float, beta: float, rows: int) -> _Wall:
    flip, inside, theta, mu = _band(values, alpha, beta)

    def run(mask):
        i = np.flatnonzero(mask)
        return slice(i[0], i[-1] + 1) if i.size else slice(0, 0)
    return _Wall(rows, np.where(inside, theta, mu), run(inside),
                 run(flip != (beta > 0.0)))


def _wall_rows(wall: _Wall, out: np.ndarray, first: int, factor=1.0) -> None:
    """out[j] <- ``factor`` (a scalar or one per column) times the run's row
    first + j (counted from 1 at the wall), in place; ``out`` may be any
    view, such as rows of the Fortran basis, read backwards or not.  The
    band columns sin(i theta) come from angle addition (``_add_angles``)
    with i = c + r, the factor folded into the coarse tables."""
    i = np.arange(first, first + out.shape[0])
    band, rows, theta = wall.band, wall.rows, wall.angle[wall.band]
    factor = np.broadcast_to(factor, wall.angle.shape)
    phase = np.multiply.outer(i[::_SINE_ROWS], theta)
    fine = np.asfortranarray(np.multiply.outer(
        np.arange(min(i.size, _SINE_ROWS)), theta))
    _add_angles(out[:, band], (factor[band] * np.sin(phase),
                               factor[band] * np.cos(phase)),
                (np.sin(fine), np.cos(fine)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for part in (slice(0, band.start), slice(band.stop, None)):
            mu = wall.angle[part]
            x, top = i[:, None] * mu, rows * mu
            out[:, part] = np.where(mu > 0.0, np.exp(x - top) * (
                np.expm1(-2.0 * x) / np.expm1(-2.0 * top)), i[:, None] / rows
            ) * factor[part]
    out[first % 2::2, wall.alt] *= -1.0   # the rows i even


# Below this product of rows and angle the run's sum of squares is taken
# from its leading term, whose relative error (rows angle)^2 / 5 is then
# below the rounding of the closed form's cancelling terms.
_SMALL_PHASE = 1e-4


def _wall_squares(wall: _Wall) -> np.ndarray:
    """The sum over the run's rows of z^2, per shift, in closed form:
    rows/2 - sin(rows theta) cos((rows+1) theta) / (2 sin theta) inside the
    band, and sum sinh^2(i mu) / sinh^2(rows mu) below it; both tend to
    (rows+1)(2 rows+1)/(6 rows) times theta^2 rows^2 resp. 1."""
    m, x = wall.rows, wall.angle
    band = np.zeros(x.size, dtype=bool)
    band[wall.band] = True
    phase = m * x
    poly = (m + 1.0) * (2.0 * m + 1.0) / (6.0 * m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sines = 0.5 * m - np.sin(phase) * np.cos(phase + x) / (2.0 * np.sin(x))
        drop = -np.expm1(-2.0 * phase)
        sinhs = (np.exp(x) * (1.0 + np.exp(-2.0 * (phase + x)))
                 / (2.0 * np.sinh(x) * drop)
                 - 2.0 * m * np.exp(-2.0 * phase) / drop ** 2)
    return np.where(phase < _SMALL_PHASE, np.where(band, phase ** 2, 1.0) * poly,
                    np.where(band, sines, sinhs))


def _twisted_columns(sweep: SturmSweep, values: np.ndarray,
                     basis: np.ndarray | None = None):
    """Vectors z, one per value, with (T - s) z = 0 on every row but one:
    (each column's residual ||(T - s) z|| / ||z||, its Rayleigh-quotient
    step z^T (T - s) z / ||z||^2).  With ``basis`` given, the unit vectors
    are written into it.

    The leading run's rows 0..p-1 (p = lead + 1) hold the wall solution f
    (``_Wall``) and the trailing run's last q = trail rows the one counted
    from the far wall, g; a side with no run starts from its wall row,
    set to 1.  The three-term recurrence, vectorized over the values, steps
    f forward and g backward over the support rows between them.  Each
    column joins f on rows <= r to (f_r/g_r) g on rows > r, which leaves
    only row r unsolved, at the row r (from the leading run's last row to
    the support's last) where the residual
    |e_{r-1} f_{r-1} g_r + (d_r - s) f_r g_r + e_r f_r g_{r+1}|
        / sqrt(g_r^2 sum_{i<=r} f_i^2 + f_r^2 sum_{i>r} g_i^2)
    is smallest: the twisted factorization of T - s with twist index r
    (Dhillon & Parlett, SIAM J. Matrix Anal. Appl. 25, 2004), where one
    f and one g serve every r.  The runs' sums of squares are closed forms
    (``_wall_squares``), so only the support is stepped, and the runs are
    written only into ``basis``.  The runs solve their rows exactly, so the
    Rayleigh quotient's numerator is the sum over the support rows and
    their two neighbours.  A column that overflowed reads NaN.
    """
    diag, off, lead, trail = sweep.diag, sweep.off, sweep.lead, sweep.trail
    n, k = diag.size, values.size
    q = trail if trail else 1
    p = min(lead + 1, n - q) if lead else 1
    # f and g on rows p-2 .. n-q+1, a row outside the box a zero wall, side
    # by side with g upside down, so that one loop steps both
    m = n - q - p + 4
    x = np.zeros((m, 2 * k))
    f, g = x[:, :k], x[::-1, k:]
    head = tail = np.ones(k)
    if lead:
        front = _wall(values, *sweep.lead_entries, p)
        _wall_rows(front, f[:2], p - 1)
        head = _wall_squares(front)
    else:
        f[1] = 1.0
    if trail:
        back = _wall(values, *sweep.trail_entries, q)
        _wall_rows(back, g[:-3:-1], q - 1)
        tail = _wall_squares(back)
    else:
        g[-2] = 1.0
    e = np.concatenate([[0.0], off, [0.0]])   # e[i + 1] = e_i
    a = np.subtract.outer(diag[p - 1:n - q + 1], values)   # rows p-1 .. n-q
    cols = np.arange(k)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # Row i solved for its next entry: f_{i+1} = (-a_i/e_i) f_i
        # + (-e_{i-1}/e_i) f_{i-1} forward, and the mirror image backward;
        # step t of x takes f from row p-2+t and g from row n-q+1-t.
        up, down = e[p:n - q + 2], e[p - 1:n - q + 1]
        now = np.concatenate([a / -up[:, None], a[::-1] / -down[::-1, None]],
                             axis=1)
        # one ratio per row and side, broadcast over the values
        prev = np.stack([down / -up, (up / -down)[::-1]], axis=1)[:, :, None]
        sides = x.reshape(m, 2, k)
        tmp = np.empty((2, k))
        for t in range(1, m - 2):
            np.multiply(now[t - 1], x[t], out=x[t + 1])
            np.multiply(prev[t - 1], sides[t - 1], out=tmp)
            sides[t + 1] += tmp
        # the twist rows r = p-1 .. n-q-1, at t = 1 .. m-3
        fr, gr = f[1:-2], g[1:-2]
        w = (gr * (e[p - 1:n - q, None] * f[:-3] + a[:-1] * fr)
             + e[p:n - q + 1, None] * fr * g[2:-1])
        before = np.cumsum(np.concatenate([head[None], f[2:-2] ** 2]), axis=0)
        after = np.cumsum(np.concatenate(
            [tail[None], g[-3:1:-1] ** 2]), axis=0)[::-1]
        resid = np.abs(w) / np.sqrt(gr ** 2 * before + fr ** 2 * after)
        resid[np.isnan(resid)] = math.inf
        r = np.argmin(resid, axis=0)
        scale = fr[r, cols] / gr[r, cols]
        norm = np.sqrt(before[r, cols] + scale ** 2 * after[r, cols])
        # The joined z on rows p-2 .. n-q+1 and its Rayleigh quotient.  The
        # recurrence rounded d_i - s to a_i, which its residual in terms of
        # a would not see, so the residual is formed as T z - s z.
        z = np.where(np.arange(m)[:, None] <= r + 1, f, scale * g)
        z /= norm
        mid = z[1:-1]
        step = np.sum(mid * ((diag[p - 1:n - q + 1, None] * mid
                              + e[p - 1:n - q + 1, None] * z[:-2]
                              + e[p:n - q + 2, None] * z[2:]) - values * mid),
                      axis=0)
        if basis is not None:
            if lead:
                _wall_rows(front, basis[:p], 1, 1.0 / norm)
            else:
                basis[0] = 1.0 / norm
            basis[p:n - q] = z[2:-2]
            if trail:
                _wall_rows(back, basis[n - q:][::-1], 1, scale / norm)
            else:
                basis[-1] = scale / norm
    return np.where(np.isfinite(norm), resid[r, cols], math.nan), step


def eigenpairs_below(sweep: SturmSweep, values: np.ndarray):
    """The k lowest eigenvalues ``values`` of the sweep's tridiagonal
    (ascending) and an orthonormal basis of their invariant subspace, as an
    n x k Fortran array.

    The values are the caller's, as a ``box_levels`` window holds them: one
    vectorized solve on the same sweep, to eps (max|d| + 2 max|e|) / 64.
    This function builds the basis only.  The values fall into groups that
    end wherever consecutive eigenvalues lie at least
    sqrt(eps) (max|d| + 2 max|e|) apart.  Where the sweep has a free run
    from a wall, each value that is a group of its own gets its vector
    in closed form on the runs, joined across the support at one twisted
    row (``_twisted_columns``).  A single twisted solve carries the value's
    error (up to about 1e-13 here) into the vector, divided by the gap to
    the other eigenvalues, so the vectors are built twice: the first pass
    gives each value's Rayleigh-quotient step from the support alone, and
    the second builds the vectors at the stepped values.  Every other
    group, and every column whose residual exceeds n eps (max|d| + 2 max|e|)
    or that overflowed, takes inverse iteration (LAPACK stein), called once
    per group.  Vectors of different groups then overlap by at most their
    residual over the gap sqrt(eps) (max|d| + 2 max|e|), below n sqrt(eps),
    and that overlap lies inside the subspace.  So U is well conditioned,
    and one Cholesky QR (R = chol(U^T U), U <- U R^-1 in place), whose loss
    of orthogonality is about eps cond(U)^2 (Fukaya et al., "CholeskyQR2",
    2014), makes the columns orthonormal without leaving the subspace.  Only
    the subspace is specified: a column is an eigenvector up to a mixing of
    that order.  Inverse iteration that does not converge, or a Gram matrix
    that is not numerically positive definite, raises ConvergenceError.
    """
    diag, off = sweep.diag, sweep.off
    n, k = diag.size, values.size
    basis = np.empty((n, k), order="F")
    if k == 0:
        return values, basis
    eps = np.finfo(float).eps
    cuts = np.concatenate([[0], np.flatnonzero(
        np.diff(values) >= math.sqrt(eps) * sweep.scale) + 1, [k]])
    solved = np.zeros(k, dtype=bool)
    if sweep.lead or sweep.trail:
        tol = n * eps * sweep.scale
        resid, step = _twisted_columns(sweep, values)
        resid, _ = _twisted_columns(sweep, values + np.where(
            resid <= tol, step, 0.0), basis)
        solved = resid <= tol
    iblock = np.ones(n, dtype=np.int32)
    isplit = np.zeros(n, dtype=np.int32)
    isplit[0] = n
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a == 1 and solved[a]:
            continue
        basis[:, a:b], info = dstein(diag, off, values[a:b], iblock, isplit)
        if info > 0:
            raise ConvergenceError(
                f"inverse iteration left {info} of the eigenvectors "
                f"{a}..{b - 1} unconverged", math.nan)
    chol, info = dpotrf(basis.T @ basis)
    if info > 0:
        raise ConvergenceError(
            f"Cholesky QR: the Gram matrix of the {k} basis vectors is not "
            f"positive definite at order {info}", math.nan)
    # U R^-1 as U times the triangular inverse, in place.  R is as well
    # conditioned as U, so the explicit inverse costs no accuracy, and at
    # n x k = 20000 x 128 on one OpenBLAS thread trtri + trmm take 0.010 s
    # against 0.025 s for trsm.
    rinv, _ = dtrtri(chol, overwrite_c=1)
    return values, dtrmm(1.0, rinv, basis, side=1, overwrite_b=1)


def eigenvalues_by_index(sweep: SturmSweep, i_lo: int, i_hi: int):
    """Eigenvalues with (0-based) indices i_lo..i_hi of the sweep's
    tridiagonal, i_hi clipped to the last, from one vectorized solve on the
    sweep (``SturmSweep.eigenvalues``); i_lo < 0 raises DomainError."""
    return sweep.eigenvalues(i_lo, min(i_hi, sweep.diag.size - 1))


@dataclass(frozen=True)
class BandSpectra:
    """Spectra of D, M+, M- for one box, from the principal angles.

    ``d_nonzero`` holds +-sin theta and the index values sign(j) on
    ran P + ran P0; D is zero on its complement, which contributes
    ``zero_multiplicity`` exact zeros; d_nonzero.size + zero_multiplicity
    = n.  Past rank_p + rank_p0 = n, ran P and ran P0 meet in at least the
    excess, where each direction is one zero of D but a sine 0 on each
    side, so d_nonzero drops the excess of values nearest 0 and
    zero_multiplicity is 0.  ``m_plus`` and ``m_minus`` hold the squared
    sines seen from ran P and ran P0, without their trivial kernels.
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
    basis (e_i +- e_{n-1-i})/sqrt(2), i < n//2, plus e_centre for odd n, as
    its Sturm sweep; a ``box_levels`` window adds the H eigenvalues
    ``values`` with sector indices first, first + 1, ..., and all the
    sector's closed-form H0 levels ``free``.

    ``modes`` are the 1-based numbers k of the free modes the block holds,
    ascending: every k for a single block, the odd k for the even block and
    the even k for the odd one.  ``weight`` scales the left-half rows of a
    full-grid vector into sector coordinates (sqrt 2, the centre row 1).
    """

    sweep: SturmSweep
    modes: np.ndarray
    weight: np.ndarray
    first: int = 0
    values: np.ndarray | None = None
    free: np.ndarray | None = None


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
        return [_Sector(SturmSweep(diag, off), np.arange(n) + 1, np.ones(n))]
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
        return [_Sector(SturmSweep(diag[:m + 1], even_off), odd_k, weight),
                _Sector(SturmSweep(diag[:m], off[:m - 1]), even_k, weight[:m])]
    # Even n: the coupling e across the middle folds onto the last diagonal.
    e = off[m - 1]
    even_diag, odd_diag = diag[:m].copy(), diag[:m].copy()
    even_diag[-1] += e
    odd_diag[-1] -= e
    weight = np.full(m, root2)
    return [_Sector(SturmSweep(even_diag, off[:m - 1]), odd_k, weight),
            _Sector(SturmSweep(odd_diag, off[:m - 1]), even_k, weight)]


def _neighbours(values: np.ndarray, first: int, lam: float):
    """(#levels below lam, the nearest level below it, the nearest at or
    above it) for ascending ``values`` whose first has index ``first``;
    -inf and +inf stand where the spectrum ends."""
    i = int(np.searchsorted(values, lam))
    below = float(values[i - 1]) if i else -math.inf
    above = float(values[i]) if i < values.size else math.inf
    return first + i, below, above


LEVEL_GAP = 1e-9   # the level guard's distance, relative to the spectral scale


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
    hi, computed by one vectorized solve (``eigenvalues_by_index``); the
    counts and the solve share the sector's sweep, kept for the basis.
    lo = -inf gives a = 0, so the window (-inf, hi] holds every eigenvalue
    below hi.  The sector's H0 levels are its free modes in closed form.  A
    sector may end inside the window; its neighbours there are infinite.
    """
    if not lo <= hi:
        raise DomainError(f"empty level window [{lo}, {hi}]")
    diag, off = hamiltonian_tridiagonal(box, potential)
    free = free_levels(box)
    levels = []
    for sector in _mirror_sectors(diag, off):
        a = count_below(sector.sweep, lo)
        b = a if hi == lo else count_below(sector.sweep, hi)
        first = max(a - 1, 0)
        levels.append(sector._replace(
            first=first, values=eigenvalues_by_index(sector.sweep, first, b),
            free=free[sector.modes - 1]))
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


# Free modes per block of U0 in ``_sector_sines``, whose peak is U and one
# such block; blocks of 16 took 10-18% longer at L = 400, h = 0.02.
_MODE_BLOCK = 32


def _sector_sines(u: np.ndarray, n: int, modes: np.ndarray,
                  weight: np.ndarray):
    """The sines s+ of (I-P0) U and s- of (I-P) U0 for an orthonormal U (a
    Fortran array) and U0, the sector's free modes ``modes`` (``_sines``).

    (I-P0) U is formed in place of U by block modified Gram-Schmidt
    (Stewart, SIAM J. Sci. Comput. 31, 2008): for each block B of
    _MODE_BLOCK modes of U0, U <- U - B (U^T B)^T by one dgemm with
    beta = 1.  Each block is built when it is needed and dropped before the
    next, so U0 never exists whole, and U is overwritten by its QR
    (``_singular_values``).  Off {0, 1} the two sides have the same
    singular values, and the side with more columns has |j| =
    |rank P - rank P0| more values at 1.  So s- is s+ without its j largest
    for j >= 0, and s+ with |j| exact ones added for j < 0.
    """
    j = u.shape[1] - modes.size
    if u.shape[1]:   # dgemm takes no empty operand
        for start in range(0, modes.size, _MODE_BLOCK):
            block = _sines(n, u.shape[0], modes[start:start + _MODE_BLOCK],
                           weight)
            c = dgemm(1.0, u, block, trans_a=1)
            u = dgemm(-1.0, block, c, 1.0, u, trans_b=1, overwrite_c=1)
            del block
    s = _singular_values(u)
    return (s, s[j:]) if j >= 0 else (s, np.concatenate([np.ones(-j), s]))


def band_spectra(box: BoxDiscretization, potential: Potential,
                 fermi_level: float) -> BandSpectra:
    """Spectra of D(lambda), M+, M- without forming any n x n matrix.

    U (``eigenpairs_below``) and U0 (closed-form H0 eigenvectors below
    lambda) are orthonormal bases of ran P and ran P0; the principal angles
    depend on the subspaces only, so U need not consist of eigenvectors.
    The singular values of (I-P0) U and (I-P) U0 are the principal-angle
    sines seen from either side, the index values 1 included on the larger
    side.  Per sector, (I-P0) U is formed in place of U with U0 built a
    block of modes at a time, so the sector's peak is U and one block;
    one QR and a k x k SVD of it give both sides (``_sector_sines``).

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
    to ``_sector_sines``.
    """
    levels = box_levels(box, potential, -math.inf, fermi_level)
    r, r0, s_plus, s_minus = 0, 0, [], []
    for sector, ((k, _, _), (k0, _, _)) in zip(levels.sectors,
                                               levels.at(fermi_level)):
        _, u = eigenpairs_below(sector.sweep, sector.values[:k])
        plus, minus = _sector_sines(u, box.n, sector.modes[:k0],
                                    sector.weight)
        s_plus.append(plus)
        s_minus.append(minus)
        r, r0 = r + k, r0 + k0
        del u  # free this sector's basis before the next one's
    s_plus, s_minus = np.concatenate(s_plus), np.concatenate(s_minus)
    # past r + r0 = n, one sine 0 goes per direction in ran P and ran P0
    d = np.sort(np.concatenate([s_plus, -s_minus]))
    return BandSpectra(
        rank_p=r, rank_p0=r0,
        d_nonzero=np.delete(d, np.argsort(np.abs(d))[:max(r + r0 - box.n, 0)]),
        m_plus=np.sort(s_plus ** 2), m_minus=np.sort(s_minus ** 2),
        zero_multiplicity=max(box.n - r - r0, 0),
    )
