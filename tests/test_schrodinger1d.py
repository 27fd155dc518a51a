"""Tests for the box Hamiltonians and the spectra of their projection
difference.

Oracles: the closed-form Dirichlet Laplacian spectrum, the textbook
square-well bound-state count (matching equations solved by bisection), the
known reflectionless-potential ground state, dense n x n projections from a
full LAPACK eigendecomposition (``dense.py``) cross-checking the box layer's
band spectra, eigenvectors by inverse iteration in long double (and, on
sectors with no free run, LAPACK stein) with one sine SVD per side
cross-checking its invariant-subspace basis and one-SVD reduction, and the
row-by-row Sturm recurrence and LAPACK bisection (stebz) cross-checking the
closed-form Sturm sweep's counts and eigenvalues, and the Cauchy-like
overlaps of a rank-one update of H0 cross-checking M+- from eigenvalues
alone.
"""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.linalg.lapack import dstein

from specdiff import schrodinger1d
from specdiff.errors import ConvergenceError, DomainError, LevelCollisionError
from specdiff.schrodinger1d import (
    BoxDiscretization,
    GaussianBump,
    PoschlTeller,
    SquareWell,
    SturmSweep,
    _mirror_sectors,
    _sines,
    band_spectra,
    box_levels,
    count_below,
    eigenpairs_below,
    free_levels,
    hamiltonian_tridiagonal,
)

from dense import compressions, dense_tridiagonal, projection_below
from potentials import ShiftedWell, SkewedGaussian


def values_below(sweep, level):
    """The eigenvalues below ``level`` as a ``box_levels`` window solves
    them: the Sturm count, then one solve by index, on one sweep."""
    return schrodinger1d.eigenvalues_by_index(
        sweep, 0, count_below(sweep, level) - 1)


def dirichlet_spectrum(box):
    h = box.spacing
    k = np.arange(1, box.n + 1)
    return (2.0 / h ** 2) * (1.0 - np.cos(k * np.pi / (box.n + 1)))


def square_well_bound_count(depth, half_width):
    """Count bound states from the transcendental matching equations,
    each root located by bisection on its monotone branch."""
    z0 = half_width * math.sqrt(-depth)

    def bisect(f, lo, hi):
        flo, fhi = f(lo), f(hi)
        if flo * fhi > 0:
            return None
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    count = 0
    # even branches: z tan z = sqrt(z0^2 - z^2) on (m pi, m pi + pi/2)
    m = 0
    while m * math.pi < z0:
        lo = m * math.pi + 1e-12
        hi = min(m * math.pi + math.pi / 2 - 1e-12, z0 - 1e-12)
        if hi > lo and bisect(lambda z: z * math.tan(z) - math.sqrt(max(z0 ** 2 - z ** 2, 0.0)),
                              lo, hi) is not None:
            count += 1
        m += 1
    # odd branches: -z cot z = sqrt(z0^2 - z^2) on (m pi + pi/2, (m+1) pi)
    m = 0
    while m * math.pi + math.pi / 2 < z0:
        lo = m * math.pi + math.pi / 2 + 1e-12
        hi = min((m + 1) * math.pi - 1e-12, z0 - 1e-12)
        if hi > lo and bisect(lambda z: -z / math.tan(z) - math.sqrt(max(z0 ** 2 - z ** 2, 0.0)),
                              lo, hi) is not None:
            count += 1
        m += 1
    return count


class TestBox:
    def test_spacing_and_grid(self):
        box = BoxDiscretization.from_spacing(10.0, 0.02)
        assert box.n == 999
        assert abs(box.spacing - 0.02) < 1e-12
        assert abs(box.grid[0] + 10.0 - 0.02) < 1e-12
        assert abs(box.grid[-1] - 10.0 + 0.02) < 1e-12

    def test_invariants(self):
        with pytest.raises(DomainError):
            BoxDiscretization(10.0, 8)
        with pytest.raises(DomainError):
            BoxDiscretization(-1.0, 100)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match=str(bad)):
                BoxDiscretization(bad, 99)


class TestHamiltonians:
    def test_h0_closed_form_spectrum(self):
        box = BoxDiscretization(5.0, 120)
        ev = np.linalg.eigvalsh(dense_tridiagonal(*hamiltonian_tridiagonal(box)))
        want = np.sort(dirichlet_spectrum(box))
        assert np.abs(ev - want).max() <= 1e-10 * want.max()

    def test_h0_ground_state_continuum_limit(self):
        box = BoxDiscretization(20.0, 2000)
        e0 = free_levels(box)[0]
        want = (math.pi / 40.0) ** 2
        assert abs(e0 - want) <= 0.01 * want

    def test_h0_symmetric_exactly(self):
        box = BoxDiscretization(3.0, 64)
        m = dense_tridiagonal(*hamiltonian_tridiagonal(box))
        assert np.array_equal(m, m.T)

    def test_h_with_zero_potential_matches_h0(self):
        box = BoxDiscretization(3.0, 64)
        for h, h0 in zip(hamiltonian_tridiagonal(box, GaussianBump(amplitude=0.0)),
                         hamiltonian_tridiagonal(box)):
            assert np.array_equal(h, h0)

    def test_poschl_teller_bound_state(self):
        box = BoxDiscretization(20.0, 2000)
        diag, off = hamiltonian_tridiagonal(box, PoschlTeller(strength=1))
        vals = values_below(SturmSweep(diag, off), 0.0)
        assert vals.size == 1
        assert abs(vals[0] + 1.0) <= 0.02

    @pytest.mark.parametrize("depth,half_width", [(-0.5, 1.0), (-2.0, 1.0),
                                                  (-8.0, 1.5), (-20.0, 1.0)])
    def test_square_well_bound_count(self, depth, half_width):
        box = BoxDiscretization(20.0, 2000)
        diag, off = hamiltonian_tridiagonal(box, SquareWell(depth, half_width))
        got = count_below(SturmSweep(diag, off), -1e-9)
        assert got == square_well_bound_count(depth, half_width)

    def test_poschl_teller_samples_large_box_silently(self):
        # cosh(x)^2 overflows beyond |x| ~ 355; the sample there is exactly 0
        box = BoxDiscretization.from_spacing(400.0, 0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = PoschlTeller(1)(box.grid)
        with np.errstate(over="ignore"):
            want = -2.0 / np.cosh(box.grid) ** 2
        assert np.array_equal(got, want)
        assert got[0] == got[-1] == 0.0


class TestDenseOracle:
    def test_laplacian_closed_form(self):
        # H0's projection below a level is onto the free sines below it.
        box = BoxDiscretization(4.0, 80)
        h0 = dense_tridiagonal(*hamiltonian_tridiagonal(box))
        want = np.sort(dirichlet_spectrum(box))
        u0 = _sines(box.n, box.n, np.arange(1, 11), np.ones(box.n))
        p0 = projection_below(h0, 0.5 * (want[9] + want[10]))
        assert np.abs(p0 - u0 @ u0.T).max() <= 1e-12


class TestProjections:
    def _matrix(self, n=24, seed=4):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        return a, np.linalg.eigvalsh(a)

    def test_projection_extremes(self):
        a, values = self._matrix()
        below = projection_below(a, values[0] - 1.0)
        assert np.abs(below).max() == 0.0
        above = projection_below(a, values[-1] + 1.0)
        assert np.abs(above - np.eye(a.shape[0])).max() <= 1e-12

    def test_projection_trace_counts(self):
        a, values = self._matrix()
        p = projection_below(a, 0.5 * (values[9] + values[10]))
        assert abs(np.trace(p) - 10.0) <= 1e-10
        assert np.abs(p @ p - p).max() <= 1e-10


class TestTridiagonalPath:
    def test_sturm_count_matches_closed_form(self):
        box = BoxDiscretization(8.0, 400)
        sweep = SturmSweep(*hamiltonian_tridiagonal(box))
        levels = free_levels(box)
        rng = np.random.default_rng(9)
        for lam in rng.uniform(0.1, 30.0, size=12):
            assert count_below(sweep, lam) == int(np.sum(levels < lam))

    def test_level_guard_returns_sturm_count_or_raises_typed(self):
        box = BoxDiscretization(8.0, 400)
        well = SquareWell(-2.0, 1.0)
        sweep = SturmSweep(*hamiltonian_tridiagonal(box, well))
        lam = 3.3
        assert sum(h[0] for h, _ in box_levels(box, well, lam, lam).at(lam)) \
            == count_below(sweep, lam)
        collision = float(free_levels(box)[5])
        with pytest.raises(LevelCollisionError):
            box_levels(box, well, collision, collision).at(collision)

    def test_free_sines_are_eigenvectors(self):
        box = BoxDiscretization(8.0, 200)
        diag, off = hamiltonian_tridiagonal(box)
        h = dense_tridiagonal(diag, off)
        u = _sines(box.n, box.n, np.arange(1, 8), np.ones(box.n))
        levels = free_levels(box)[:7]
        resid = np.linalg.norm(h @ u - u * levels[None, :])
        assert resid <= 1e-9 * np.abs(diag).max()
        assert np.abs(u.T @ u - np.eye(7)).max() <= 1e-12

    # One box per case of the index j = rank P - rank P0, plus P = P0
    # (every principal angle zero), rank P0 = 0, and rank P = rank P0 = 0;
    # then one box per shape of the sector split: no mirror symmetry (one
    # sector), even n (no centre node), and a diagonal that is mirror
    # symmetric only to 1 ulp.  At lambda = 1500 each sector holds about 75
    # free modes, three blocks of U0, for j > 0 and j < 0; a barrier over
    # the whole box gives rank P = 0 < rank P0.
    @pytest.mark.parametrize("potential, lam, index, half_length, h", [
        (SquareWell(-2.0, 1.0), 1.0, 1, 6.0, 0.02),
        (SquareWell(2.0, 1.0), 1.0, -1, 6.0, 0.02),
        (SquareWell(2.0, 1.0), 3.0, 0, 6.0, 0.02),
        (GaussianBump(amplitude=0.0), 1.0, 0, 6.0, 0.02),
        (SquareWell(-2.0, 1.0), 0.01, 1, 6.0, 0.02),
        (SquareWell(2.0, 1.0), 0.01, 0, 6.0, 0.02),
        (ShiftedWell(center=0.7), 1.0, 1, 6.0, 0.02),
        (SquareWell(-2.0, 1.0), 1.0, 1, 6.01, 0.02),
        (PoschlTeller(1), 1.0, 0, 8.0, 0.05),
        (SkewedGaussian(), 1.0, 1, 10.0, 0.05),
        (SquareWell(-400.0, 1.0), 1500.0, 4, 6.0, 0.02),
        (SquareWell(400.0, 1.0), 1500.0, -3, 6.0, 0.02),
        (SquareWell(10.0, 10.0), 1.0, -3, 6.0, 0.02),
    ], ids=["j_plus", "j_minus", "j_zero", "p_equals_p0", "rank_p0_zero",
            "both_ranks_zero", "one_sector", "even_n", "ulp_mirror",
            "skewed_gaussian", "j_plus_blocks", "j_minus_blocks",
            "rank_p_zero"])
    def test_band_spectra_matches_dense_path(self, potential, lam, index,
                                             half_length, h):
        box = BoxDiscretization.from_spacing(half_length, h)
        spectra = band_spectra(box, potential, lam)

        p = projection_below(dense_tridiagonal(
            *hamiltonian_tridiagonal(box, potential)), lam)
        p0 = projection_below(dense_tridiagonal(*hamiltonian_tridiagonal(box)),
                              lam)
        d_dense = np.linalg.eigvalsh(p - p0)
        assert np.abs(np.sort(spectra.d_full) - np.sort(d_dense)).max() <= 1e-10

        for small, dense in zip((spectra.m_plus, spectra.m_minus),
                                compressions(p, p0)):
            got = np.sort(small)[::-1]
            want = np.sort(np.linalg.eigvalsh(dense))[::-1]
            # dense spectrum carries extra exact zeros; compare the head
            assert np.abs(got - want[:got.size]).max(initial=0.0) <= 1e-10

        assert spectra.trace_d == round(np.trace(p - p0)) == index
        assert abs(spectra.d_full.sum() - spectra.trace_d) <= 1e-10

    # Past rank P + rank P0 = n the ranges meet: n = 399 with ranks 200 + 200
    # at lambda = 801.3, 232 + 232 at 1000.3 and 335 + 335 at 1500.7.
    @pytest.mark.parametrize("potential", [SquareWell(),
                                           GaussianBump(-1.0, 1.0)],
                             ids=["square_well", "gaussian"])
    @pytest.mark.parametrize("lam", [801.3, 1000.3, 1500.7])
    def test_ranks_past_n_match_dense_path(self, potential, lam):
        box = BoxDiscretization.from_spacing(10.0, 0.05)
        spectra = band_spectra(box, potential, lam)
        assert spectra.rank_p + spectra.rank_p0 > box.n
        assert spectra.d_nonzero.size + spectra.zero_multiplicity == box.n
        p = projection_below(dense_tridiagonal(
            *hamiltonian_tridiagonal(box, potential)), lam)
        p0 = projection_below(dense_tridiagonal(*hamiltonian_tridiagonal(box)),
                              lam)
        assert np.abs(spectra.d_full - np.linalg.eigvalsh(p - p0)).max() \
            <= 1e-12

    @pytest.mark.parametrize("potential", [SquareWell(-2.0, 1.0),
                                           PoschlTeller(1),
                                           GaussianBump(-1.0, 1.0)],
                             ids=["square_well", "poschl_teller", "gaussian"])
    def test_two_sectors_match_one_sector(self, potential, monkeypatch):
        box = BoxDiscretization.from_spacing(50.0, 0.02)
        split = band_spectra(box, potential, 1.0)
        monkeypatch.setattr(
            schrodinger1d, "_mirror_sectors",
            lambda diag, off: [schrodinger1d._Sector(
                SturmSweep(diag, off), np.arange(1, diag.size + 1),
                np.ones(diag.size))])
        whole = band_spectra(box, potential, 1.0)
        assert (split.rank_p, split.rank_p0, split.zero_multiplicity) == \
            (whole.rank_p, whole.rank_p0, whole.zero_multiplicity)
        for a, b in ((split.d_nonzero, whole.d_nonzero),
                     (split.m_plus, whole.m_plus),
                     (split.m_minus, whole.m_minus)):
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-11

    def test_interior_pairing_on_benchmark_box(self):
        box = BoxDiscretization.from_spacing(100.0, 0.05)
        spectra = band_spectra(box, SquareWell(-2.0, 1.0), 1.0)
        # Inside (-0.95, -0.05) U (0.05, 0.95) the eigenvalues of D come in
        # pairs -mu, +mu.
        d = spectra.d_full
        pos = np.sort(d[(d > 0.05) & (d < 0.95)])
        neg = np.sort(-d[(d < -0.05) & (d > -0.95)])
        assert pos.size == neg.size > 0
        assert np.abs(pos - neg).max() <= 1e-8


class TestMirrorSectors:
    @pytest.mark.parametrize("potential", [SquareWell(-2.0, 1.0),
                                           PoschlTeller(1),
                                           GaussianBump(-1.0, 1.0)],
                             ids=["square_well", "poschl_teller", "gaussian"])
    @pytest.mark.parametrize("half_length, h", [(8.0, 0.05), (6.01, 0.02),
                                                (400.0, 0.05)])
    def test_even_potentials_split(self, potential, half_length, h):
        box = BoxDiscretization.from_spacing(half_length, h)
        diag, off = hamiltonian_tridiagonal(box, potential)
        sectors = _mirror_sectors(diag, off)
        assert len(sectors) == 2
        assert sum(s.sweep.diag.size for s in sectors) == box.n

    def test_asymmetric_boxes_stay_whole(self):
        box = BoxDiscretization.from_spacing(8.0, 0.05)
        diag, off = hamiltonian_tridiagonal(box, ShiftedWell(center=0.7))
        (sector,) = _mirror_sectors(diag, off)
        assert np.array_equal(sector.modes, np.arange(1, box.n + 1))
        diag, off = hamiltonian_tridiagonal(box, SquareWell(-2.0, 1.0))
        diag[37] += 1e-6
        assert len(_mirror_sectors(diag, off)) == 1

    @pytest.mark.parametrize("n", [99, 100])
    def test_sector_spectra_are_the_box_spectrum(self, n):
        box = BoxDiscretization(5.0, n)
        diag, off = hamiltonian_tridiagonal(box, SquareWell(-2.0, 1.0))
        sectors = _mirror_sectors(diag, off)
        union = np.sort(np.concatenate([
            eigvalsh_tridiagonal(s.sweep.diag, s.sweep.off) for s in sectors]))
        want = eigvalsh_tridiagonal(diag, off)
        assert np.abs(union - want).max() <= 1e-12 * np.abs(want).max()
        # Each sector of H0 holds its free modes: the odd k in the even
        # sector, the even k in the odd one.
        free = free_levels(box)
        for sector, first in zip(_mirror_sectors(*hamiltonian_tridiagonal(box)),
                                 (1, 2)):
            assert np.array_equal(sector.modes,
                                  np.arange(first, box.n + 1, 2))
            got = eigvalsh_tridiagonal(sector.sweep.diag, sector.sweep.off)
            assert np.abs(got - free[sector.modes - 1]).max() <= \
                1e-12 * free[-1]


def eigenvalue_tol(diag, off):
    """Agreement bound between two backward-stable eigenvalue solvers:
    4 eps (max|d| + 2 max|e|)."""
    return 4.0 * np.finfo(float).eps * (np.abs(diag).max()
                                        + 2.0 * np.abs(off).max())


def eigenvectors_below(diag, off, level):
    """Eigenvalues below ``level`` and their reorthogonalized eigenvectors
    (LAPACK stebz and stein through eigh_tridiagonal).

    stebz bisects to its own limit (an absolute tolerance of the smallest
    normal number leaves its relative stop of two ulps): at its default
    tolerance, eps times the 1-norm of T, its values on the h = 0.02 boxes
    below lie up to 1.1e-12 from the eigenvalues of the same matrix
    bisected in long double, and stein's vectors move with their shifts.
    """
    lower = float(diag.min() - 2.0 * np.abs(off).max() - 1.0)
    return eigh_tridiagonal(diag, off, select="v", select_range=(lower, level),
                            tol=np.finfo(float).tiny)


def eigenvectors_at(diag, off, values):
    """Reorthogonalized eigenvectors at the given eigenvalues: one LAPACK
    stein call for all of them, as eigh_tridiagonal makes after stebz."""
    n = diag.size
    isplit = np.zeros(n, dtype=np.int32)
    isplit[0] = n
    vectors, info = dstein(diag, off, values, np.ones(n, dtype=np.int32),
                           isplit)
    assert info == 0
    return vectors


def long_double_eigenvectors(diag, off, values):
    """Eigenvectors at the given (distinct) eigenvalues by two steps of
    inverse iteration in long double from a seeded random start, one
    LDL^T factorization of T - s per value, vectorized over the values.

    A shift within 1e-13 of its eigenvalue and 1e-3 of the others leaves
    1e-10 of the other eigenvectors after one step and 1e-20 after two, so
    the vectors are the eigenvectors of T to long double's rounding
    (eps 1.1e-19 on x86), whatever the shifts' last bits."""
    ld = np.longdouble
    d, e, s = diag.astype(ld), off.astype(ld), values.astype(ld)
    pivots = np.empty((d.size, s.size), dtype=ld)
    pivots[0] = d[0] - s
    for i in range(1, d.size):
        pivots[i] = (d[i] - s) - e[i - 1] ** 2 / pivots[i - 1]
    x = np.random.default_rng(0).standard_normal(pivots.shape).astype(ld)
    for _ in range(2):
        for i in range(1, d.size):
            x[i] -= e[i - 1] / pivots[i - 1] * x[i - 1]
        x /= pivots
        for i in range(d.size - 2, -1, -1):
            x[i] -= e[i] / pivots[i] * x[i + 1]
        x /= np.sqrt(np.sum(x * x, axis=0))
    return x.astype(float)


def reference_band_spectra(box, potential, lam, vectors_at):
    """The box reduction on the vectors ``vectors_at(diag, off, values)``
    at each sector's eigenvalues below lam (``values_below``),
    orthonormalized by QR, with one sine SVD per side and sector:
    (rank P, rank P0, d_nonzero, m_plus, m_minus)."""
    diag, off = hamiltonian_tridiagonal(box, potential)
    r0 = int(np.sum(free_levels(box) < lam))
    sectors = _mirror_sectors(diag, off)
    r, s_plus, s_minus = 0, [], []
    for first_mode, sector in enumerate(sectors, start=1):
        values = values_below(sector.sweep, lam)
        u, _ = np.linalg.qr(vectors_at(sector.sweep.diag, sector.sweep.off,
                                       values))
        modes = np.arange(first_mode, r0 + 1, len(sectors))
        rows = sector.sweep.diag.size
        u0 = sector.weight[:, None] * _sines(box.n, rows, modes, np.ones(rows))
        c = u.T @ u0
        s_plus.append(np.linalg.svd(u - u0 @ c.T, compute_uv=False))
        s_minus.append(np.linalg.svd(u0 - u @ c, compute_uv=False))
        r += u.shape[1]
    s_plus, s_minus = np.concatenate(s_plus), np.concatenate(s_minus)
    return (r, r0, np.sort(np.concatenate([s_plus, -s_minus])),
            np.sort(s_plus ** 2), np.sort(s_minus ** 2))


def subspace_sines(u, v):
    """Sines of the principal angles from ran u to ran v (both orthonormal)."""
    return np.linalg.svd(u - v @ (v.T @ u), compute_uv=False)


def assert_same_spectra(spectra, reference, tol):
    r, r0, d, mp, mm = reference
    assert (spectra.rank_p, spectra.rank_p0) == (r, r0)
    for got, want in ((spectra.d_nonzero, d), (spectra.m_plus, mp),
                      (spectra.m_minus, mm)):
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= tol


def count_stein_columns(monkeypatch):
    """Patch stein to record the number of vectors of each call."""
    columns = []
    stein = schrodinger1d.dstein

    def counted(d, e, w, iblock, isplit):
        columns.append(w.size)
        return stein(d, e, w, iblock, isplit)
    monkeypatch.setattr(schrodinger1d, "dstein", counted)
    return columns


class TestInvariantSubspaceBasis:
    @pytest.mark.parametrize("potential", [SquareWell(-2.0, 1.0),
                                           PoschlTeller(1),
                                           GaussianBump(-1.0, 1.0),
                                           ShiftedWell(center=0.7)],
                             ids=["square_well", "poschl_teller", "gaussian",
                                  "shifted_well"])
    @pytest.mark.parametrize("half_length", [50.0, 100.0])
    def test_matches_long_double_eigenvectors(self, potential, half_length):
        box = BoxDiscretization.from_spacing(half_length, 0.02)
        spectra = band_spectra(box, potential, 1.0)
        oracle = []

        def vectors_at(diag, off, values):
            oracle.append(long_double_eigenvectors(diag, off, values))
            return oracle[-1]
        assert_same_spectra(spectra, reference_band_spectra(
            box, potential, 1.0, vectors_at), 1e-12)

        diag, off = hamiltonian_tridiagonal(box, potential)
        for sector, vectors in zip(_mirror_sectors(diag, off), oracle):
            sweep = sector.sweep
            values, basis = eigenpairs_below(sweep, values_below(sweep, 1.0))
            want_values, _ = eigenvectors_below(sweep.diag, sweep.off, 1.0)
            assert values.shape == want_values.shape
            assert np.abs(values - want_values).max() <= eigenvalue_tol(
                sweep.diag, sweep.off)
            k = values.size
            assert np.abs(basis.T @ basis - np.eye(k)).max() <= 1e-14
            # The oracle is the eigenvectors themselves, not vectors that
            # follow the shifts' last bits as stein's do (shifts moved by
            # 3e-13 move those by up to 1.3e-12), so it bounds the error.
            assert subspace_sines(basis, vectors).max() <= 1e-12

    def test_run_free_sector_matches_stein(self, monkeypatch):
        # No sector of this box has a free run, so every column is stein's.
        box = BoxDiscretization.from_spacing(20.0, 0.05)
        columns = count_stein_columns(monkeypatch)
        diag, off = hamiltonian_tridiagonal(box, GaussianBump(-1.0, 10.0))
        for sector in _mirror_sectors(diag, off):
            sweep = sector.sweep
            assert (sweep.lead, sweep.trail) == (0, 0)
            values = values_below(sweep, 1.0)
            columns.clear()
            _, basis = eigenpairs_below(sweep, values)
            assert values.size > 0 and sum(columns) == values.size
            vectors = eigenvectors_at(sweep.diag, sweep.off, values)
            assert subspace_sines(basis, vectors).max() <= 1e-12

    @pytest.mark.parametrize("coupling", [1e-14, 1e-10, 1e-6])
    def test_numerically_equal_pairs(self, coupling):
        # Two copies of one tridiagonal joined by a weak coupling: every
        # eigenvalue comes as a pair closer than the grouping tolerance.
        rng = np.random.default_rng(3)
        d = rng.standard_normal(150)
        e = rng.uniform(0.5, 1.5, 149)
        diag = np.concatenate([d, d])
        off = np.concatenate([e, [coupling], e])
        single = eigvalsh_tridiagonal(d, e)
        i = 40 + int(np.argmax(np.diff(single[40:80])))
        level = 0.5 * (single[i] + single[i + 1])
        sweep = SturmSweep(diag, off)
        values, basis = eigenpairs_below(sweep, values_below(sweep, level))
        assert values.size == 2 * (i + 1)
        assert np.abs(basis.T @ basis - np.eye(values.size)).max() <= 1e-14
        want_values, vectors = eigh(dense_tridiagonal(diag, off))
        assert np.abs(values - want_values[:values.size]).max() <= 1e-13
        assert subspace_sines(basis, vectors[:, :values.size]).max() <= 1e-12

    def test_unconverged_inverse_iteration_raises_typed(self, monkeypatch):
        calls = []

        def unconverged(d, e, w, iblock, isplit):
            calls.append(w.size)
            return np.zeros((d.size, w.size)), 1
        monkeypatch.setattr(schrodinger1d, "dstein", unconverged)
        sweep = SturmSweep(*hamiltonian_tridiagonal(BoxDiscretization(5.0, 99),
                                                    SquareWell(-2.0, 1.0)))
        with pytest.raises(ConvergenceError):
            eigenpairs_below(sweep, values_below(sweep, 1.0))
        assert calls

    def test_singular_gram_matrix_raises_typed(self, monkeypatch):
        calls = []

        def parallel(d, e, w, iblock, isplit):
            calls.append(w.size)
            return np.ones((d.size, w.size)), 0
        monkeypatch.setattr(schrodinger1d, "dstein", parallel)
        box = BoxDiscretization(5.0, 99)
        with pytest.raises(ConvergenceError):
            band_spectra(box, SquareWell(-2.0, 1.0), 1.0)
        assert calls

    def test_singular_closed_form_gram_matrix_raises_typed(self,
                                                           monkeypatch):
        def parallel(sweep, values, basis=None):
            if basis is not None:
                basis[:] = 1.0
            return np.zeros(values.size), np.zeros(values.size)

        def no_stein(*args):
            raise AssertionError("a closed-form column went to stein")
        monkeypatch.setattr(schrodinger1d, "_twisted_columns", parallel)
        monkeypatch.setattr(schrodinger1d, "dstein", no_stein)
        sweep = SturmSweep(*hamiltonian_tridiagonal(
            BoxDiscretization.from_spacing(20.0, 0.05), ShiftedWell(center=0.7)))
        with pytest.raises(ConvergenceError):
            eigenpairs_below(sweep, values_below(sweep, 1.0))

    def test_value_at_the_band_bottom(self, monkeypatch):
        # tridiag(-1, 2, -1) with last diagonal 63/64 has the eigenvalue 0,
        # the leading run's band bottom (mu = 0), with eigenvector i + 1.
        diag = np.full(64, 2.0)
        diag[-1] = 63.0 / 64.0
        off = np.full(63, -1.0)
        columns = count_stein_columns(monkeypatch)
        values, basis = eigenpairs_below(SturmSweep(diag, off),
                                         np.array([0.0]))
        want = np.arange(1.0, 65.0)
        assert columns == []
        assert np.all(np.isfinite(basis))
        assert np.abs(basis[:, 0] - want / np.linalg.norm(want)).max() <= 1e-15


class TestClosedFormBasis:
    """``eigenpairs_below`` builds every column of a sector with a free run
    in closed form, but for groups of numerically equal values (at
    L = 800 the lowest levels above 0 lie closer than sqrt(eps) ||T||);
    the reduction on it matches the one on stein's vectors at the same
    values."""

    @pytest.mark.parametrize("potential, half_length", [
        (SquareWell(50.0, 5.0), 20.0),
        (SquareWell(5000.0, 1.0), 20.0),
        (ShiftedWell(center=0.7), 20.0),
        (ShiftedWell(center=3.0), 20.0),
        (PoschlTeller(4), 20.0),
        (GaussianBump(5.0, 2.0), 20.0),
        (SquareWell(-2.0, 1.0), 800.0),
    ], ids=["barrier", "tall_barrier", "shifted_well", "off_centre_well",
            "poschl_teller_4", "gaussian_barrier", "square_well_l800"])
    def test_matches_stein_basis(self, monkeypatch, potential, half_length):
        box = BoxDiscretization.from_spacing(half_length, 0.05)
        columns = count_stein_columns(monkeypatch)
        spectra = band_spectra(box, potential, 1.0)
        assert all(size > 1 for size in columns)
        assert_same_spectra(spectra, reference_band_spectra(
            box, potential, 1.0, eigenvectors_at), 1e-11)

    @pytest.mark.parametrize("half_length", [50.0, 100.0, 200.0, 400.0])
    def test_benchmark_boxes_take_no_stein(self, monkeypatch, half_length):
        columns = count_stein_columns(monkeypatch)
        spectra = band_spectra(BoxDiscretization.from_spacing(half_length, 0.02),
                               SquareWell(-2.0, 1.0), 1.0)
        assert spectra.rank_p > 0 and columns == []

    # numpy reports its buffers to tracemalloc.  A sector's U takes
    # n k 8 / 4 bytes.  At L = 100, h = 0.02 a sector's U0 is one block of
    # modes, and the peak is 0.63 to 0.65 of n k 8 (0.86 to 0.87 when
    # (I - P0) U took an n x k temporary).  At L = 400, h = 0.05 (n =
    # 15,999) it is four blocks, and the peak is 0.34 of n k 8 (0.56 when a
    # sector's U0 was built whole).
    @pytest.mark.parametrize("potential, half_length, h, bound", [
        (SquareWell(-2.0, 1.0), 100.0, 0.02, 0.7),
        (GaussianBump(-1.0, 1.0), 100.0, 0.02, 0.7),
        (SquareWell(-2.0, 1.0), 400.0, 0.05, 0.4),
        (SquareWell(2.0), 400.0, 0.05, 0.4),
    ], ids=["square_well", "gaussian", "well_u0_blocks", "barrier_u0_blocks"])
    def test_peak_memory_is_bounded(self, potential, half_length, h, bound):
        box = BoxDiscretization.from_spacing(half_length, h)
        band_spectra(box, potential, 1.0)
        tracemalloc.start()
        try:
            spectra = band_spectra(box, potential, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spectra.rank_p > 50
        assert peak <= bound * box.n * spectra.rank_p * 8


class TestCentreNodeOracle:
    """A well of half-width h/4 samples the centre node c of an odd box
    only, so H = H0 + v e_c e_c^T.  The odd sector is then H0's (P = P0),
    and the even sector a rank-one update of H0 on the odd modes k, whose
    centre entries are a_k = sqrt(2/(n+1)) (-1)^((k-1)/2).  Its
    eigenvector at lambda_j has the overlaps C_kj = a_k c_j / (mu_k -
    lambda_j) with the free modes (a Cauchy-like matrix, c_j normalizing
    column j), so s+ are the singular values of C's rows with mu_k above
    the Fermi level: an oracle from eigenvalues alone, beyond desk scale
    (n = 15,999 at L = 400)."""

    @pytest.mark.parametrize("depth", [-2.0, -40.0])
    @pytest.mark.parametrize("half_length", [50.0, 100.0, 200.0, 400.0])
    def test_m_pm_match_the_cauchy_overlaps(self, depth, half_length):
        h, lam = 0.05, 1.0
        box = BoxDiscretization.from_spacing(half_length, h)
        pot = SquareWell(depth=depth, half_width=h / 4)
        n = box.n
        assert n % 2 and np.count_nonzero(pot(box.grid)) == 1
        k = np.arange(1, n + 1, 2)
        a = math.sqrt(2.0 / (n + 1)) * np.where((k - 1) // 2 % 2, -1.0, 1.0)
        mu = free_levels(box)
        mu_odd, mu_even = mu[::2], mu[1::2]   # the odd and even modes k
        even = box_levels(box, pot, -math.inf, lam).sectors[0]
        lj = even.values[even.values < lam]
        gap = mu_odd[:, None] - lj
        c = np.sum((a[:, None] / gap) ** 2, axis=0) ** -0.5
        s = np.linalg.svd((a[:, None] * c / gap)[mu_odd > lam],
                          compute_uv=False)
        j = lj.size - np.count_nonzero(mu_odd < lam)
        sq = np.sort(s ** 2)
        zeros = np.zeros(np.count_nonzero(mu_even < lam))
        assert j == (1 if (depth, half_length) == (-40.0, 400.0) else 0)
        spectra = band_spectra(box, pot, lam)
        want_plus = np.sort(np.concatenate([sq, zeros]))
        want_minus = np.sort(np.concatenate([sq[:sq.size - j], zeros]))
        assert spectra.m_plus.size == want_plus.size
        assert spectra.m_minus.size == want_minus.size
        assert np.abs(spectra.m_plus - want_plus).max() <= 1e-11
        assert np.abs(spectra.m_minus - want_minus).max() <= 1e-11


def wall_rows_reference(wall, first, rows):
    """The run's rows first .. first + rows - 1 with one libm sine per
    entry, and the sinh columns and the sign as ``_Wall`` states them."""
    i = np.arange(first, first + rows, dtype=float)
    x = np.multiply.outer(i, wall.angle)
    x[:, wall.band] = np.sin(x[:, wall.band])
    with np.errstate(divide="ignore", invalid="ignore"):
        for part in (slice(0, wall.band.start), slice(wall.band.stop, None)):
            mu, top = wall.angle[part], wall.rows * wall.angle[part]
            x[:, part] = np.where(mu > 0.0, np.exp(x[:, part] - top) * (
                np.expm1(-2.0 * x[:, part]) / np.expm1(-2.0 * top)),
                i[:, None] / wall.rows)
    x[first % 2::2, wall.alt] *= -1.0   # the rows i even
    return x


class TestSineTables:
    """The run rows and U0 come from angle-addition tables: U0 against
    mpmath, and the run rows against one libm sine per entry."""

    def test_free_sines_match_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        # the even sector of the L = 400, h = 0.02 box: rows i = 1..20000,
        # odd modes, weight sqrt 2 but 1 on the centre row
        n, rows = 39999, 20000
        rng = np.random.default_rng(23)
        modes = np.sort(rng.choice(np.arange(1, n + 1, 2), 48, replace=False))
        weight = np.full(rows, math.sqrt(2.0))
        weight[-1] = 1.0
        u0 = _sines(n, rows, modes, weight)
        i = np.concatenate([rng.integers(0, rows, 1999), [rows - 1]])
        j = rng.integers(0, modes.size, i.size)
        root = math.sqrt(2.0 / (n + 1))
        with mpmath.workdps(30):
            want = [float(mpmath.sinpi(mpmath.mpf(int(a + 1) * int(modes[b]))
                                       / (n + 1))) for a, b in zip(i, j)]
        err = np.abs(u0[i, j] / (root * weight[i]) - want)
        assert err.max() <= 2e-15

    @pytest.mark.parametrize("beta", [-400.0, 400.0], ids=["beta_neg",
                                                           "beta_pos"])
    @pytest.mark.parametrize("rows, first, reverse", [
        (300, 1, False), (300, 1, True), (0, 299, False), (1, 299, False),
        (2, 299, False), (2, 299, True), (128, 7, False)],
        ids=["300", "300_reversed", "0", "1", "2", "2_reversed", "128"])
    def test_wall_rows_match_libm(self, beta, rows, first, reverse):
        # band 0..1600 about alpha = 800: the columns below 0 take sinh,
        # 0 the linear rows i/rows, and the values past 800 the mirrored
        # shift, whose rows alternate in sign for beta < 0
        values = np.array([-5.0, -1e-3, 0.0, 1e-9, 0.5, 100.0, 700.0, 900.0,
                           1500.0, 1599.999, 1601.0, 1700.0])
        wall = schrodinger1d._wall(values, 800.0, beta, 300)
        assert wall.band == slice(3, 10)
        assert wall.alt == (slice(7, 12) if beta < 0 else slice(0, 7))
        factor = np.linspace(0.5, 2.0, values.size)
        want = wall_rows_reference(wall, first, rows)
        buf = np.full((rows, values.size), np.nan, order="F")
        out = buf[::-1] if reverse else buf
        schrodinger1d._wall_rows(wall, out, first)
        band = wall.band
        phase = np.abs(np.multiply.outer(np.arange(first, first + rows),
                                         wall.angle[band]))
        eps = np.finfo(float).eps
        assert np.all(np.abs(out[:, band] - want[:, band])
                      <= 4.0 * eps * (1.0 + phase))
        for part in (slice(0, band.start), slice(band.stop, None)):
            assert np.array_equal(out[:, part], want[:, part])
        schrodinger1d._wall_rows(wall, out, first, factor)
        assert np.all(np.abs(out[:, band] - factor[band] * want[:, band])
                      <= 4.0 * eps * factor[band] * (1.0 + phase))
        for part in (slice(0, band.start), slice(band.stop, None)):
            assert np.array_equal(out[:, part], want[:, part] * factor[part])


class TestOneSolvePerSector:
    """``band_spectra`` reads each sector's eigenvalues off one window
    (-inf, lambda] of ``box_levels``; ``eigenpairs_below`` only builds the
    basis.  Each sector's Sturm sweep, and with it the scan for its runs,
    is built once per call and shared by the counts, the solve and the
    basis."""

    BOX = BoxDiscretization.from_spacing(20.0, 0.05)
    SECTORS = pytest.mark.parametrize("potential, sectors", [
        (SquareWell(-2.0, 1.0), 2), (ShiftedWell(center=0.7), 1)],
        ids=["square_well", "shifted_well"])

    @SECTORS
    def test_one_multisection_per_sector(self, monkeypatch, potential,
                                         sectors):
        solves = []
        solve = SturmSweep.eigenvalues

        def counted(sweep, first, last):
            solves.append(first)
            return solve(sweep, first, last)
        monkeypatch.setattr(SturmSweep, "eigenvalues", counted)
        spectra = band_spectra(self.BOX, potential, 1.0)
        assert solves == [0] * sectors
        assert spectra.rank_p > 0

    @SECTORS
    @pytest.mark.parametrize("call", ["band_spectra", "box_levels",
                                      "smeared_spectral_shift"])
    def test_one_sweep_per_sector(self, monkeypatch, potential, sectors,
                                  call):
        from specdiff import scattering
        built, scanned = [], []
        init, run_length = SturmSweep.__init__, schrodinger1d._run_length

        def counted_init(sweep, diag, off):
            built.append(diag.size)
            init(sweep, diag, off)

        def counted_scan(diag, off):
            scanned.append(diag.size)
            return run_length(diag, off)
        monkeypatch.setattr(SturmSweep, "__init__", counted_init)
        monkeypatch.setattr(schrodinger1d, "_run_length", counted_scan)
        {"band_spectra": lambda: band_spectra(self.BOX, potential, 1.0),
         "box_levels": lambda: box_levels(self.BOX, potential, 0.5, 2.2),
         "smeared_spectral_shift": lambda: scattering.smeared_spectral_shift(
             potential, 1.01, self.BOX)}[call]()
        assert len(built) == sectors
        # a scan of the runs reads from both walls: two _run_length calls
        assert len(scanned) == 2 * sectors

    def test_basis_builds_no_new_sweep(self, monkeypatch):
        sweep = SturmSweep(*hamiltonian_tridiagonal(self.BOX,
                                                    SquareWell(-2.0, 1.0)))
        values = values_below(sweep, 1.0)

        def no_sweep(*args):
            raise AssertionError("eigenpairs_below built a Sturm sweep")
        monkeypatch.setattr(SturmSweep, "__init__", no_sweep)
        monkeypatch.setattr(schrodinger1d, "_run_length", no_sweep)
        got, basis = eigenpairs_below(sweep, values)
        assert got is values
        assert basis.shape == (sweep.diag.size, values.size)

    # A sector with a leading run, one with no run, and a box that is one
    # sector with both runs.
    @pytest.mark.parametrize("potential, runs", [
        (SquareWell(-2.0, 1.0), (True, False)),
        (GaussianBump(-1.0, 10.0), (False, False)),
        (ShiftedWell(center=0.7), (True, True)),
    ], ids=["square_well_sector", "wide_gaussian_sector", "shifted_well_box"])
    def test_count_below_minus_infinity_is_zero(self, potential, runs):
        sweep = _mirror_sectors(*hamiltonian_tridiagonal(self.BOX,
                                                         potential))[0].sweep
        assert (sweep.lead > 0, sweep.trail > 0) == runs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert count_below(sweep, -math.inf) == 0


def sturm_count_loop(diag, off, level):
    """The LDL^T sign recurrence of T - level, row by row: the oracle for
    ``count_below``.  Returns (#negative pivots, last pivot).

    A pivot of magnitude at most 1e-300 divides as +-1e-300 of its own
    sign, and a zero of either sign as +1e-300: a zero pivot is counted as
    positive and the next one as negative, so the pair adds one negative
    pivot, as the inertia of T - level requires.  (The row loop used before
    the closed-form sweep divided by -1e-300 at an exact zero, which lost
    that negative pivot: 19 instead of 20 for a 40-point free Laplacian at
    its band centre.)
    """
    diag = [float(x) for x in diag]
    off = [float(x) for x in off]
    count = 0
    t = diag[0] - level
    if t < 0:
        count += 1
    for i in range(1, len(diag)):
        if abs(t) > 1e-300:
            denom = t
        else:
            denom = math.copysign(1e-300, t) if t else 1e-300
        t = (diag[i] - level) - off[i - 1] ** 2 / denom
        if t < 0:
            count += 1
    return count, t


def run_shifts(diag, off):
    """Shifts that probe each constant run's band (below, inside, exactly at
    both edges, above) and zero pivots: s = d_0 makes the first pivot 0,
    and s = alpha -+ b makes the second pivot of a run that starts its
    matrix 0 (b - b^2/b).  Runs of any length count here."""
    sweep = every_run_sweep(diag, off)
    shifts = [diag[0], diag[-1]]
    for entries in (sweep.lead_entries, sweep.trail_entries):
        if entries is None:
            continue
        alpha, b = entries[0], abs(entries[1])
        lo_edge, hi_edge = alpha - 2.0 * b, alpha + 2.0 * b
        shifts += [lo_edge - 1.0, lo_edge, np.nextafter(lo_edge, -np.inf),
                   np.nextafter(lo_edge, np.inf), lo_edge + 1e-9 * b,
                   alpha - 1.5 * b, alpha - b, alpha, alpha + b,
                   alpha + 0.3 * b, hi_edge, np.nextafter(hi_edge, np.inf),
                   np.nextafter(hi_edge, -np.inf), hi_edge + 1.0]
    return np.array(shifts, dtype=float)


def every_run_sweep(diag, off):
    """The Sturm sweep with every constant run, however short, stepped in
    closed form."""
    with mock.patch.object(schrodinger1d, "_MIN_RUN", 1):
        return SturmSweep(diag, off)


def with_runs(lead, trail, rng, support=7):
    """A tridiagonal whose leading and trailing runs take ``lead`` and
    ``trail`` rows after their first row, around a random support."""
    diag = np.concatenate([np.full(lead + 1, 2.0), rng.normal(size=support),
                           np.full(trail + 1, 2.5)])
    off = np.concatenate([np.full(lead, -1.0),
                          rng.uniform(-1.5, -0.5, support + 1),
                          np.full(trail, 0.7)])
    return diag, off


def kernel_cases():
    """(name, diag, off): box sectors of odd and even n, a box with two
    runs, a random tridiagonal with no run, runs of 0, 1 and 2 rows, and
    long runs that meet across a support of two, one or no rows."""
    cases = []
    # Poschl-Teller's samples reach the diagonal's last bit out to |x| ~ 16
    for potential, half_length, h in ((SquareWell(-2.0, 1.0), 6.0, 0.02),
                                      (PoschlTeller(1), 20.0, 0.05),
                                      (GaussianBump(-1.0, 1.0), 6.0, 0.02)):
        for half_length in (half_length, half_length + h / 2):
            box = BoxDiscretization.from_spacing(half_length, h)
            for k, sector in enumerate(_mirror_sectors(
                    *hamiltonian_tridiagonal(box, potential))):
                cases.append((f"{potential.kind}-n{box.n}-sector{k}",
                              sector.sweep.diag, sector.sweep.off))
    box = BoxDiscretization.from_spacing(6.0, 0.02)
    cases.append(("shifted_well", *hamiltonian_tridiagonal(
        box, ShiftedWell(center=0.7))))
    rng = np.random.default_rng(5)
    cases.append(("no_run", rng.normal(size=60), rng.uniform(0.5, 1.5, 59)))
    for lead in (0, 1, 2):
        for trail in (0, 1, 2):
            cases.append((f"runs_{lead}_{trail}",
                          *with_runs(lead, trail, rng)))
    # With no random row the twist row is the trailing block's first row;
    # with one diagonal throughout the support is empty and the twist row
    # is the leading block's last.
    for support, (lead, trail) in ((0, (60, 50)), (1, (48, 48))):
        cases.append((f"junction_{support}",
                      *with_runs(lead, trail, rng, support=support)))
    cases.append(("junction_shared", np.full(111, 2.0),
                  np.concatenate([np.full(60, -1.0), np.full(50, 0.7)])))
    return cases


KERNEL_CASES = kernel_cases()


class TestSturmKernel:
    """The closed-form sweep against the row-by-row recurrence and against
    LAPACK bisection (stebz, through ``eigvalsh_tridiagonal`` with a
    selection)."""

    def test_runs_are_found(self):
        sweeps = {name: (SturmSweep(d, e),
                         every_run_sweep(d, e))
                  for name, d, e in KERNEL_CASES}
        for lead in (0, 1, 2):
            for trail in (0, 1, 2):
                default, every = sweeps[f"runs_{lead}_{trail}"]
                assert (every.lead, every.trail) == (lead, trail)
                # runs this short are cheaper row by row
                assert (default.lead, default.trail) == (0, 0)
        for sweep in sweeps["no_run"]:
            assert (sweep.lead, sweep.trail) == (0, 0)
        for name, runs in (("junction_0", (60, 50)), ("junction_1", (48, 48)),
                           ("junction_shared", (60, 50))):
            for sweep in sweeps[name]:
                assert (sweep.lead, sweep.trail) == runs
        shifted = sweeps["shifted_well"][0]
        assert shifted.lead > 200 and shifted.trail > 200
        for name, (default, every) in sweeps.items():
            if "sector" in name:
                assert every.lead > 20
                assert default.lead == (every.lead if every.lead
                                        >= schrodinger1d._MIN_RUN else 0)

    @pytest.mark.parametrize("min_run", [1, schrodinger1d._MIN_RUN])
    @pytest.mark.parametrize("name, diag, off", KERNEL_CASES,
                             ids=[c[0] for c in KERNEL_CASES])
    def test_counts_match_row_recurrence(self, monkeypatch, name, diag, off,
                                         min_run):
        rng = np.random.default_rng(11)
        shifts = np.concatenate([
            run_shifts(diag, off),
            rng.uniform(diag.min() - 3.0, diag.max() + 3.0, 25),
            rng.uniform(-3.0, 4.0, 25)])
        monkeypatch.setattr(schrodinger1d, "_MIN_RUN", min_run)
        sweep = SturmSweep(diag, off)
        got = sweep.count(shifts)
        checked = 0
        for s, count in zip(shifts, got):
            want, last = sturm_count_loop(diag, off, s)
            if last == 0.0:
                continue   # s is an eigenvalue to the last bit
            assert count == want, s
            if min_run > 1:
                assert count_below(sweep, s) == want, s
            checked += 1
        assert checked >= shifts.size - 2

    @pytest.mark.parametrize("rows", [1, 2, 48, 1000])
    def test_wall_run_counts_the_block_eigenvalues(self, rows):
        # alpha -+ 2|beta| are exact, so s = alpha is the band centre to the
        # last bit, and 2|beta| cos(pi/2) ~ 1e-16 |beta| is below half an
        # ulp of alpha: an odd block's middle eigenvalue is alpha itself.
        for alpha, beta in ((2.5, 0.7), (-40.0, -3.0)):
            b = abs(beta)
            lo, hi = alpha - 2.0 * b, alpha + 2.0 * b
            shifts = np.array([lo - 1.0, lo, np.nextafter(lo, -np.inf),
                               np.nextafter(lo, np.inf), alpha, hi,
                               np.nextafter(hi, -np.inf),
                               np.nextafter(hi, np.inf), hi + 1.0])
            count, pivot = schrodinger1d._wall_run(shifts, alpha, beta, rows)
            levels = alpha - 2.0 * b * np.cos(
                np.pi * np.arange(1, rows + 1) / (rows + 1))
            for s, c, p in zip(shifts, count, pivot):
                assert c == np.count_nonzero(levels < s), s
                _, want = sturm_count_loop(np.full(rows, alpha),
                                           np.full(rows - 1, beta), s)
                if s != alpha:
                    assert abs(p - want) <= 1e-12 * abs(want), s
                elif rows % 2:
                    assert abs(p) <= 1e-12 * b    # exactly 0
                else:
                    assert abs(p) >= 1e10 * b     # exactly infinite

    def test_wall_run_pivot_sign_matches_its_count(self):
        # At the block's own eigenvalues the last pivot is 0 up to rounding
        # and the count may take either side of it; the last row adds to
        # the count exactly when the last pivot is negative, so the rows
        # after the block count consistently.  (2/h^2, -1/h^2) at h = 0.02
        # is a box's free block.
        for alpha, beta in ((2.5, 0.7), (5000.0, -2500.0)):
            b = abs(beta)
            for rows in range(2, 80):
                levels = alpha - 2.0 * b * np.cos(
                    np.pi * np.arange(1, rows + 1) / (rows + 1))
                shifts = np.concatenate([levels, np.nextafter(levels, np.inf),
                                         np.nextafter(levels, -np.inf)])
                count, pivot = schrodinger1d._wall_run(shifts, alpha, beta,
                                                       rows)
                before, _ = schrodinger1d._wall_run(shifts, alpha, beta,
                                                    rows - 1)
                np.testing.assert_array_equal(count - before, pivot < 0.0)

    @pytest.mark.parametrize("name, diag, off", KERNEL_CASES[:8],
                             ids=[c[0] for c in KERNEL_CASES[:8]])
    def test_count_near_an_eigenvalue(self, name, diag, off):
        # A level a few ulps from an eigenvalue may count it on either
        # side; from eigenvalue_tol on, the count is the recurrence's.
        n = diag.size
        away = eigenvalue_tol(diag, off)
        sweep = SturmSweep(diag, off)
        for j in (0, n // 3, n - 1):
            lam = float(eigvalsh_tridiagonal(diag, off, select="i",
                                             select_range=(j, j),
                                             tol=np.finfo(float).tiny)[0])
            near = lam
            for _ in range(4):
                near = np.nextafter(near, np.inf)
                for level in (near, 2.0 * lam - near):
                    assert count_below(sweep, level) in (j, j + 1)
            for level, want in ((lam - away, j), (lam + away, j + 1)):
                assert sturm_count_loop(diag, off, level)[0] == want
                assert count_below(sweep, level) == want

    def test_zero_pivot_counts_the_inertia(self):
        # The free Laplacian at its band centre: the first pivot is 0 and
        # half of the spectrum lies below.
        diag, off = np.full(40, 2.0), np.full(39, -1.0)
        assert sturm_count_loop(diag, off, 2.0)[0] == 20
        assert count_below(SturmSweep(diag, off), 2.0) == 20
        assert np.count_nonzero(eigvalsh_tridiagonal(diag, off) < 2.0) == 20

    @pytest.mark.parametrize("name, diag, off", KERNEL_CASES,
                             ids=[c[0] for c in KERNEL_CASES])
    def test_eigenvalues_match_bisection(self, name, diag, off):
        n = diag.size
        tol = eigenvalue_tol(diag, off)
        sweep = SturmSweep(diag, off)
        for i_lo, i_hi in ((0, min(n, 40) - 1),
                           (n // 3, min(n // 3 + 9, n - 1)), (n - 5, n - 1)):
            got = schrodinger1d.eigenvalues_by_index(sweep, i_lo, i_hi)
            want = eigvalsh_tridiagonal(diag, off, select="i",
                                        select_range=(i_lo, i_hi))
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= tol
        level = float(eigvalsh_tridiagonal(diag, off, select="i",
                                           select_range=(n // 4, n // 4))[0])
        level += 1e-6 * (abs(level) + 1.0)
        values = values_below(sweep, level)
        lower = float(diag.min() - 2.0 * np.abs(off).max() - 1.0)
        want = eigvalsh_tridiagonal(diag, off, select="v",
                                    select_range=(lower, level))
        assert values.shape == want.shape
        assert np.abs(values - want).max() <= tol

    @pytest.mark.parametrize("name, diag, off", KERNEL_CASES[:4],
                             ids=[c[0] for c in KERNEL_CASES[:4]])
    def test_eigenvalues_match_long_double_bisection(self, name, diag, off):
        # The same matrix bisected with long-double pivots: the sweep's
        # values sit well inside the eps (max|d| + 2 max|e|) that stebz's
        # default tolerance leaves.
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("long double is no wider than double here")
        d, e2 = diag.astype(np.longdouble), off.astype(np.longdouble) ** 2
        want = np.arange(12)
        radius = 2.0 * np.abs(off).max()
        lo = np.full(want.size, np.longdouble(diag.min() - radius))
        hi = np.full(want.size, np.longdouble(diag.max() + radius))
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            t = d[0] - mid
            count = (t < 0).astype(int)
            with np.errstate(divide="ignore", invalid="ignore"):
                for d_i, sq in zip(d[1:], e2):
                    t = (d_i - mid) - sq / t
                    count += t < 0
            above = count > want
            lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
        got = schrodinger1d.eigenvalues_by_index(SturmSweep(diag, off), 0,
                                                 want.size - 1)
        exact = (0.5 * (lo + hi)).astype(float)
        assert np.abs(got - exact).max() <= eigenvalue_tol(diag, off) / 16

    @pytest.mark.parametrize("potential", [SquareWell(-2.0, 1.0),
                                           PoschlTeller(1),
                                           GaussianBump(-1.0, 1.0)],
                             ids=["square_well", "poschl_teller", "gaussian"])
    def test_eigenvalues_do_not_depend_on_the_window(self, potential):
        # An eigenvalue is a function of the tridiagonal and its index: the
        # same bits whichever other indices the call asks for.
        box = BoxDiscretization.from_spacing(50.0, 0.02)
        for sector in _mirror_sectors(*hamiltonian_tridiagonal(box, potential)):
            sweep = sector.sweep
            wide = schrodinger1d.eigenvalues_by_index(sweep, 0, 40)
            assert np.array_equal(
                schrodinger1d.eigenvalues_by_index(sweep, 10, 30), wide[10:31])
            for j in (0, 5, 20, 33):
                assert schrodinger1d.eigenvalues_by_index(sweep, j, j)[0] == \
                    wide[j]

    def test_double_eigenvalues(self):
        # Two equal free chains joined by a zero coupling: every eigenvalue
        # is exactly double, so no count isolates one.
        diag = np.full(40, 2.0)
        off = np.concatenate([np.full(19, -1.0), [0.0], np.full(19, -1.0)])
        got = schrodinger1d.eigenvalues_by_index(SturmSweep(diag, off), 0, 39)
        want = eigvalsh_tridiagonal(diag, off, select="i",
                                    select_range=(0, 39))
        assert np.abs(got - want).max() <= eigenvalue_tol(diag, off)

    def test_unclosed_brackets_raise_typed(self, monkeypatch):
        monkeypatch.setattr(schrodinger1d, "_MAX_ROUNDS", 2)
        diag, off = KERNEL_CASES[0][1:]
        with pytest.raises(ConvergenceError):
            schrodinger1d.eigenvalues_by_index(SturmSweep(diag, off), 0, 9)

    def test_indices_outside_the_spectrum_raise_typed(self):
        # No count is ever <= -1, so index -1's bracket would close on the
        # Gershgorin end (-3.5e-15 on this free Laplacian) and pass for an
        # eigenvalue.
        sweep = SturmSweep(np.full(40, 2.0), np.full(39, -1.0))
        with pytest.raises(DomainError):
            schrodinger1d.eigenvalues_by_index(sweep, -1, 1)
        for first, last in ((-1, 1), (-1, -1), (0, 40)):
            with pytest.raises(DomainError):
                sweep.eigenvalues(first, last)
        assert schrodinger1d.eigenvalues_by_index(sweep, 0, 1).size == 2

    def test_scattering_keeps_count_below(self):
        # perfbench's selftest reads this import by name
        from specdiff import scattering
        assert scattering.count_below is schrodinger1d.count_below

