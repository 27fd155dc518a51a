"""Tests for the box Hamiltonians, projections, and the two-projection
algebra.

Oracles: the closed-form Dirichlet Laplacian spectrum, the textbook
square-well bound-state count (matching equations solved by bisection), the
known reflectionless-potential ground state, and brute-force dense linear
algebra cross-checking the rank-reduced band-spectra path.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh, eigvalsh_tridiagonal

from specdiff import schrodinger1d
from specdiff.errors import DomainError, LevelCollisionError
from specdiff.schrodinger1d import (
    BoxDiscretization,
    GaussianBump,
    PoschlTeller,
    SquareWell,
    _mirror_sectors,
    band_spectra,
    build_h,
    build_h0,
    check_level_clear,
    count_below,
    eigendecompose,
    eigenpairs_below,
    free_levels,
    free_vectors,
    hamiltonian_tridiagonal,
    m_plus_minus,
    projection_difference,
    spectral_projection,
    symmetry_pairing_report,
)

from potentials import ShiftedWell


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


class TestHamiltonians:
    def test_h0_closed_form_spectrum(self):
        box = BoxDiscretization(5.0, 120)
        ev = np.linalg.eigvalsh(build_h0(box).matrix)
        want = np.sort(dirichlet_spectrum(box))
        assert np.abs(ev - want).max() <= 1e-10 * want.max()

    def test_h0_ground_state_continuum_limit(self):
        box = BoxDiscretization(20.0, 2000)
        e0 = free_levels(box)[0]
        want = (math.pi / 40.0) ** 2
        assert abs(e0 - want) <= 0.01 * want

    def test_h0_symmetric_exactly(self):
        box = BoxDiscretization(3.0, 64)
        m = build_h0(box).matrix
        assert np.array_equal(m, m.T)

    def test_h_with_zero_potential_matches_h0(self):
        box = BoxDiscretization(3.0, 64)
        h = build_h(box, GaussianBump(amplitude=0.0)).matrix
        assert np.array_equal(h, build_h0(box).matrix)

    def test_poschl_teller_bound_state(self):
        box = BoxDiscretization(20.0, 2000)
        diag, off = hamiltonian_tridiagonal(box, PoschlTeller(strength=1))
        vals, _ = eigenpairs_below(diag, off, 0.0)
        assert vals.size == 1
        assert abs(vals[0] + 1.0) <= 0.02

    @pytest.mark.parametrize("depth,half_width", [(-0.5, 1.0), (-2.0, 1.0),
                                                  (-8.0, 1.5), (-20.0, 1.0)])
    def test_square_well_bound_count(self, depth, half_width):
        box = BoxDiscretization(20.0, 2000)
        diag, off = hamiltonian_tridiagonal(box, SquareWell(depth, half_width))
        got = count_below(diag, off, -1e-9)
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


class TestEigendecompose:
    def test_laplacian_closed_form(self):
        box = BoxDiscretization(4.0, 80)
        op = build_h0(box)
        eig = eigendecompose(op)
        want = np.sort(dirichlet_spectrum(box))
        assert np.abs(eig.values - want).max() <= 1e-10 * want.max()
        assert eig.residual(op.matrix) <= 1e-10
        assert eig.orthonormality_defect() <= 1e-10

    def test_diagonal_matrix(self):
        box = BoxDiscretization(1.0, 16)
        d = np.arange(16.0)
        from specdiff.schrodinger1d import SymmetricOperator
        eig = eigendecompose(SymmetricOperator(np.diag(d), box, "diag"))
        assert np.abs(eig.values - d).max() == 0.0

    def test_cross_solver_agreement(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((50, 50))
        a = 0.5 * (a + a.T)
        box = BoxDiscretization(1.0, 50)
        from specdiff.schrodinger1d import SymmetricOperator
        eig = eigendecompose(SymmetricOperator(a, box, "rand"))
        vals2 = np.linalg.eigvalsh(a)
        assert np.abs(eig.values - vals2).max() <= 1e-9 * np.abs(vals2).max()


class TestProjections:
    def _eigendata(self, n=24, seed=4):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        box = BoxDiscretization(1.0, n)
        from specdiff.schrodinger1d import SymmetricOperator
        return eigendecompose(SymmetricOperator(a, box, "rand")), a

    def test_projection_extremes(self):
        eig, a = self._eigendata()
        below = spectral_projection(eig, eig.values[0] - 1.0)
        assert np.abs(below).max() == 0.0
        above = spectral_projection(eig, eig.values[-1] + 1.0)
        assert np.abs(above - np.eye(a.shape[0])).max() <= 1e-12

    def test_projection_trace_counts(self):
        eig, _ = self._eigendata()
        level = 0.5 * (eig.values[9] + eig.values[10])
        p = spectral_projection(eig, level)
        assert abs(np.trace(p) - 10.0) <= 1e-10
        assert np.abs(p @ p - p).max() <= 1e-10

    def test_level_collision_rejected(self):
        eig, _ = self._eigendata()
        with pytest.raises(LevelCollisionError) as err:
            spectral_projection(eig, eig.values[3])
        assert f"{eig.values[3]:.12g}" in str(err.value)

    def test_difference_of_equal_projections_is_zero(self):
        eig, _ = self._eigendata()
        level = 0.5 * (eig.values[4] + eig.values[5])
        p = spectral_projection(eig, level)
        d = projection_difference(p, p, level)
        assert np.abs(d.matrix).max() == 0.0

    def test_zero_potential_difference_is_zero(self):
        box = BoxDiscretization(5.0, 100)
        eig0 = eigendecompose(build_h0(box))
        eig1 = eigendecompose(build_h(box, GaussianBump(amplitude=0.0)))
        level = 1.0
        d = projection_difference(spectral_projection(eig1, level),
                                  spectral_projection(eig0, level), level)
        assert np.abs(d.eigenvalues).max() <= 1e-10

    def test_rotated_rank_one_angles(self):
        for phi in (0.2, 0.7, 1.2):
            c, s = math.cos(phi), math.sin(phi)
            r = np.array([[c, -s], [s, c]])
            p0 = np.diag([1.0, 0.0])
            p = r @ p0 @ r.T
            d = projection_difference(p, p0, 0.0)
            want = np.array([-abs(s), abs(s)])
            assert np.abs(np.sort(d.eigenvalues) - want).max() <= 1e-12


class TestTwoProjectionAlgebra:
    def _random_projections(self, dim, r1, r2, seed):
        rng = np.random.default_rng(seed)
        q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        return q1[:, :r1] @ q1[:, :r1].T, q2[:, :r2] @ q2[:, :r2].T

    def test_dsquared_identity(self):
        p, p0 = self._random_projections(50, 10, 17, seed=1)
        d = p - p0
        mp, mm = m_plus_minus(p, p0)
        assert np.linalg.norm(d @ d - (mp + mm)) <= 1e-12

    def test_equal_projections_give_zero(self):
        p, _ = self._random_projections(30, 8, 8, seed=2)
        mp, mm = m_plus_minus(p, p)
        assert np.abs(mp).max() <= 1e-12
        assert np.abs(mm).max() <= 1e-12

    def test_compressions_are_psd_contractions(self):
        p, p0 = self._random_projections(40, 12, 9, seed=3)
        for m in m_plus_minus(p, p0):
            ev = np.linalg.eigvalsh(m)
            assert ev[0] >= -1e-12
            assert ev[-1] <= 1.0 + 1e-12

    def test_pairing_on_rotation_toy(self):
        phi = 0.9
        c, s = math.cos(phi), math.sin(phi)
        r = np.array([[c, -s], [s, c]])
        p0 = np.diag([1.0, 0.0])
        d = projection_difference(r @ p0 @ r.T, p0, 0.0)
        rep = symmetry_pairing_report(d, 0.05)
        assert rep.pairs.shape == (1, 2)
        assert rep.max_pair_error <= 1e-12
        assert rep.unpaired.size == 0

    def test_pairing_on_zero_difference(self):
        p, _ = self._random_projections(20, 6, 6, seed=5)
        d = projection_difference(p, p, 0.0)
        rep = symmetry_pairing_report(d, 0.05)
        assert rep.pairs.shape[0] == 0
        assert rep.unpaired.size == 0

    def test_pairing_epsilon_guard(self):
        with pytest.raises(DomainError):
            symmetry_pairing_report(np.array([0.5, -0.5]), 0.7)


class TestTridiagonalPath:
    def test_sturm_count_matches_closed_form(self):
        box = BoxDiscretization(8.0, 400)
        diag, off = hamiltonian_tridiagonal(box)
        levels = free_levels(box)
        rng = np.random.default_rng(9)
        for lam in rng.uniform(0.1, 30.0, size=12):
            assert count_below(diag, off, lam) == int(np.sum(levels < lam))

    def test_level_guard_returns_sturm_count_or_raises_typed(self):
        box = BoxDiscretization(8.0, 400)
        well = SquareWell(-2.0, 1.0)
        diag, off = hamiltonian_tridiagonal(box, well)
        lam = 3.3
        assert check_level_clear(box, well, lam) == count_below(diag, off, lam)
        with pytest.raises(LevelCollisionError):
            check_level_clear(box, well, float(free_levels(box)[5]))

    def test_free_vectors_are_eigenvectors(self):
        box = BoxDiscretization(8.0, 200)
        diag, off = hamiltonian_tridiagonal(box)
        h = np.diag(diag)
        idx = np.arange(box.n - 1)
        h[idx, idx + 1] = off
        h[idx + 1, idx] = off
        u = free_vectors(box, 7)
        levels = free_levels(box)[:7]
        resid = np.linalg.norm(h @ u - u * levels[None, :])
        assert resid <= 1e-9 * np.abs(diag).max()
        assert np.abs(u.T @ u - np.eye(7)).max() <= 1e-12

    # One box per case of the index j = rank P - rank P0, plus P = P0
    # (every principal angle zero), rank P0 = 0, and rank P = rank P0 = 0;
    # then one box per shape of the sector split: no mirror symmetry (one
    # sector), even n (no centre node), and a diagonal that is mirror
    # symmetric only to 1 ulp.
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
    ], ids=["j_plus", "j_minus", "j_zero", "p_equals_p0", "rank_p0_zero",
            "both_ranks_zero", "one_sector", "even_n", "ulp_mirror"])
    def test_band_spectra_matches_dense_path(self, potential, lam, index,
                                             half_length, h):
        box = BoxDiscretization.from_spacing(half_length, h)
        spectra = band_spectra(box, potential, lam)

        eig0 = eigendecompose(build_h0(box))
        eig1 = eigendecompose(build_h(box, potential))
        p = spectral_projection(eig1, lam)
        p0 = spectral_projection(eig0, lam)
        d_dense = np.linalg.eigvalsh(p - p0)
        assert np.abs(np.sort(spectra.d_full) - np.sort(d_dense)).max() <= 1e-10

        mp, mm = m_plus_minus(p, p0)
        for small, dense in ((spectra.m_plus, mp), (spectra.m_minus, mm)):
            got = np.sort(small)[::-1]
            want = np.sort(np.linalg.eigvalsh(dense))[::-1]
            # dense spectrum carries extra exact zeros; compare the head
            assert np.abs(got - want[:got.size]).max(initial=0.0) <= 1e-10

        assert spectra.trace_d == round(np.trace(p - p0)) == index
        assert abs(spectra.d_full.sum() - spectra.trace_d) <= 1e-10

    @pytest.mark.parametrize("potential", [SquareWell(-2.0, 1.0),
                                           PoschlTeller(1),
                                           GaussianBump(-1.0, 1.0)],
                             ids=["square_well", "poschl_teller", "gaussian"])
    def test_two_sectors_match_one_sector(self, potential, monkeypatch):
        box = BoxDiscretization.from_spacing(50.0, 0.02)
        split = band_spectra(box, potential, 1.0)
        monkeypatch.setattr(
            schrodinger1d, "_mirror_sectors",
            lambda diag, off: [schrodinger1d._Sector(diag, off, 1,
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
        rep = symmetry_pairing_report(spectra.d_full, 0.05)
        assert rep.unpaired.size == 0
        assert rep.max_pair_error <= 1e-8


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
        assert sum(s.diag.size for s in sectors) == box.n

    def test_asymmetric_boxes_stay_whole(self):
        box = BoxDiscretization.from_spacing(8.0, 0.05)
        diag, off = hamiltonian_tridiagonal(box, ShiftedWell(center=0.7))
        assert len(_mirror_sectors(diag, off)) == 1
        diag, off = hamiltonian_tridiagonal(box, SquareWell(-2.0, 1.0))
        diag[37] += 1e-6
        assert len(_mirror_sectors(diag, off)) == 1

    @pytest.mark.parametrize("n", [99, 100])
    def test_sector_spectra_are_the_box_spectrum(self, n):
        box = BoxDiscretization(5.0, n)
        diag, off = hamiltonian_tridiagonal(box, SquareWell(-2.0, 1.0))
        sectors = _mirror_sectors(diag, off)
        assert [s.first_mode for s in sectors] == [1, 2]
        union = np.sort(np.concatenate([eigvalsh_tridiagonal(s.diag, s.off)
                                        for s in sectors]))
        want = eigvalsh_tridiagonal(diag, off)
        assert np.abs(union - want).max() <= 1e-12 * np.abs(want).max()
