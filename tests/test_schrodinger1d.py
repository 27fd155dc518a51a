"""Tests for the box Hamiltonians, projections, and the two-projection
algebra.

Oracles: the closed-form Dirichlet Laplacian spectrum, the textbook
square-well bound-state count (matching equations solved by bisection), the
known reflectionless-potential ground state, and brute-force dense linear
algebra cross-checking the rank-reduced band-spectra path.
"""

import math

import numpy as np
import pytest
from scipy.linalg import eigh

from specdiff.errors import DomainError, LevelCollisionError
from specdiff.schrodinger1d import (
    BoxDiscretization,
    GaussianBump,
    PoschlTeller,
    SquareWell,
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

    def test_potential_decay_constants(self):
        assert SquareWell(-2.0, 1.0).decay_constant() <= 2.0 * 4.0
        assert PoschlTeller(1).decay_constant(rho=3.0) < math.inf
        with pytest.raises(DomainError):
            GaussianBump().decay_constant(rho=0.5)


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
        assert check_level_clear(box, well, lam, tridiagonal=(diag, off)) == \
            count_below(diag, off, lam)
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

    def test_band_spectra_matches_dense_path(self):
        box = BoxDiscretization.from_spacing(6.0, 0.02)
        well = SquareWell(-2.0, 1.0)
        lam = 1.0
        spectra = band_spectra(box, well, lam)

        eig0 = eigendecompose(build_h0(box))
        eig1 = eigendecompose(build_h(box, well))
        p = spectral_projection(eig1, lam)
        p0 = spectral_projection(eig0, lam)
        d_dense = np.linalg.eigvalsh(p - p0)
        assert np.abs(np.sort(spectra.d_full) - np.sort(d_dense)).max() <= 1e-10

        mp, mm = m_plus_minus(p, p0)
        for small, dense in ((spectra.m_plus, mp), (spectra.m_minus, mm)):
            got = np.sort(small)[::-1]
            want = np.sort(np.linalg.eigvalsh(dense))[::-1]
            # dense spectrum carries extra exact zeros; compare the head
            assert np.abs(got - want[:got.size]).max() <= 1e-10

        assert spectra.trace_d == round(np.trace(p - p0))

    def test_interior_pairing_on_benchmark_box(self):
        box = BoxDiscretization.from_spacing(100.0, 0.05)
        spectra = band_spectra(box, SquareWell(-2.0, 1.0), 1.0)
        rep = symmetry_pairing_report(spectra.d_full, 0.05)
        assert rep.unpaired.size == 0
        assert rep.max_pair_error <= 1e-8
