"""Tests for the scattering layer.

Oracles: the square-well scattering matrix from a directly solved 4x4
plane-wave matching system (independent of both library routes), the
closed-form reflectionless transmission (k+i)/(k-i) of the unit
Poschl-Teller well, the analytic first Born term, and eigenvalue counting
against the closed-form free spectrum.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from specdiff.errors import DomainError, LevelCollisionError
from specdiff.scattering import (
    Method,
    birman_krein_check,
    birman_krein_value,
    eigenphases,
    s_matrix_ode,
    s_matrix_stationary,
    smeared_spectral_shift,
    spectral_shift_count,
)
from specdiff.schrodinger1d import (
    BoxDiscretization,
    GaussianBump,
    PoschlTeller,
    Potential,
    SquareWell,
)


@dataclass(frozen=True)
class ShiftedWell(Potential):
    """Square well centered at an arbitrary point; used to pin the channel
    ordering conventions, which parity-even benchmarks cannot distinguish."""

    depth: float = -2.0
    half_width: float = 1.0
    center: float = 0.0
    rho: float = 2.0

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        out = np.where(np.abs(xs - self.center) < self.half_width, self.depth, 0.0)
        return out if np.ndim(x) else float(out)

    def max_abs(self):
        return abs(self.depth)

    def effective_support(self, tol=1e-10):
        return abs(self.center) + self.half_width

    def breakpoints(self):
        return (self.center - self.half_width, self.center + self.half_width)

    def is_even(self):
        return self.center == 0.0


def matching_oracle(depth, half_width, lam, center=0.0):
    """S = [[t, rL],[rR, t]] for a (possibly shifted) square well by solving
    the continuity equations of u and u' at both edges."""
    k = math.sqrt(lam)
    q = cmath.sqrt(lam - depth)
    lo, hi = center - half_width, center + half_width

    def solve(direction):
        # direction +1: incident e^{ikx} from the left; -1: e^{-ikx} from right
        if direction == +1:
            inc, ref, trans = (lambda x: cmath.exp(1j * k * x),
                               lambda x: cmath.exp(-1j * k * x),
                               lambda x: cmath.exp(1j * k * x))
            edge_in, edge_out = lo, hi
        else:
            inc, ref, trans = (lambda x: cmath.exp(-1j * k * x),
                               lambda x: cmath.exp(1j * k * x),
                               lambda x: cmath.exp(-1j * k * x))
            edge_in, edge_out = hi, lo
        dk = 1j * k * direction
        dq = 1j * q
        rows = np.array([
            [-ref(edge_in), cmath.exp(dq * edge_in), cmath.exp(-dq * edge_in), 0.0],
            [dk * ref(edge_in), dq * cmath.exp(dq * edge_in),
             -dq * cmath.exp(-dq * edge_in), 0.0],
            [0.0, cmath.exp(dq * edge_out), cmath.exp(-dq * edge_out), -trans(edge_out)],
            [0.0, dq * cmath.exp(dq * edge_out), -dq * cmath.exp(-dq * edge_out),
             -dk * trans(edge_out)],
        ], dtype=complex)
        rhs = np.array([inc(edge_in), dk * inc(edge_in), 0.0, 0.0], dtype=complex)
        r, _, _, t = np.linalg.solve(rows, rhs)
        return t, r

    t_left, r_left = solve(+1)
    t_right, r_right = solve(-1)
    assert abs(t_left - t_right) < 1e-12
    return np.array([[t_right, r_left], [r_right, t_left]])


def pt_transmission(k):
    return (k + 1j) / (k - 1j)


class TestOdeRoute:
    def test_free_potential_gives_identity(self):
        s = s_matrix_ode(GaussianBump(amplitude=0.0), 1.0)
        assert np.abs(s.matrix - np.eye(2)).max() <= 1e-9

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_square_well_against_matching_oracle(self, lam):
        s = s_matrix_ode(SquareWell(-2.0, 1.0), lam)
        want = matching_oracle(-2.0, 1.0, lam)
        assert np.abs(s.matrix - want).max() <= 1e-8
        assert s.unitarity_defect <= 1e-8
        assert s.symmetry_defect <= 1e-8

    def test_shifted_well_pins_channel_order(self):
        lam, d = 1.3, 0.6
        s = s_matrix_ode(ShiftedWell(center=d), lam)
        want = matching_oracle(-2.0, 1.0, lam, center=d)
        assert np.abs(s.matrix - want).max() <= 1e-8
        # reflections really differ for a shifted well
        assert abs(want[0, 1] - want[1, 0]) > 1e-3

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_poschl_teller_reflectionless(self, lam):
        s = s_matrix_ode(PoschlTeller(1), lam)
        k = math.sqrt(lam)
        assert abs(s.matrix[0, 1]) <= 1e-8
        assert abs(s.matrix[1, 0]) <= 1e-8
        assert abs(s.matrix[0, 0] - pt_transmission(k)) <= 1e-8

    def test_energy_guard(self):
        with pytest.raises(DomainError):
            s_matrix_ode(SquareWell(), 0.0)

    def test_support_guard(self):
        with pytest.raises(DomainError):
            s_matrix_ode(PoschlTeller(1), 1.0, x_max=3.0)

    def test_coarse_step_raises_refinement_error(self):
        from specdiff.errors import StepSizeError
        with pytest.raises(StepSizeError) as err:
            s_matrix_ode(SquareWell(-2.0, 1.0), 1.0, step=0.5)
        assert err.value.suggested_step == pytest.approx(0.25)


class TestStationaryRoute:
    def test_free_potential_gives_identity(self):
        s = s_matrix_stationary(GaussianBump(amplitude=0.0), 1.0, n_nodes=64)
        assert np.abs(s.matrix - np.eye(2)).max() <= 1e-12

    def test_unitary_to_rounding(self):
        # Discrete energy-shell rows satisfy Im T = pi Z* Z exactly, so
        # unitarity holds far below the contracted 1e-6.
        for pot, lam in ((SquareWell(-2.0, 1.0), 1.0), (PoschlTeller(1), 0.5)):
            s = s_matrix_stationary(pot, lam, n_nodes=300)
            assert s.unitarity_defect <= 1e-12

    def test_square_well_cross_method(self):
        s_stat = s_matrix_stationary(SquareWell(-2.0, 1.0), 1.0, n_nodes=600)
        want = matching_oracle(-2.0, 1.0, 1.0)
        assert np.abs(s_stat.matrix - want).max() <= 1e-3

    def test_auto_refinement_reaches_cross_method_tolerance(self):
        for pot, lam in ((SquareWell(-2.0, 1.0), 2.0), (PoschlTeller(1), 1.0)):
            s_stat = s_matrix_stationary(pot, lam)
            s_ode = s_matrix_ode(pot, lam)
            assert np.linalg.norm(s_stat.matrix - s_ode.matrix) <= 1e-3

    def test_first_born_term_centered(self):
        eps, lam = 1e-3, 1.0
        k = math.sqrt(lam)
        s = s_matrix_stationary(SquareWell(-2.0 * eps, 1.0), lam, n_nodes=400)
        i0 = -2.0 * eps * 2.0           # integral of V
        i2k = -2.0 * eps * math.sin(2.0 * k) / k
        born = np.eye(2) - (1j / (2 * k)) * np.array([[i0, i2k], [i2k, i0]])
        assert np.linalg.norm(s.matrix - born) <= 1e-4

    def test_first_born_term_shifted_quadratic_bound(self):
        # The remainder beyond the first Born term is bounded by C eps^2 with
        # one C across couplings; the asymmetric well also pins the channel
        # ordering, since the two off-diagonal Born entries differ there.
        lam, d = 1.0, 0.7
        k = math.sqrt(lam)

        def born_error(eps):
            s = s_matrix_stationary(ShiftedWell(depth=-2.0 * eps, center=d),
                                    lam, n_nodes=800)
            def ft(kk):
                if kk == 0.0:
                    return -2.0 * eps * 2.0
                return -2.0 * eps * cmath.exp(-1j * kk * d) * 2.0 * math.sin(kk) / kk
            born = np.eye(2) - (1j / (2 * k)) * np.array(
                [[ft(0.0), ft(-2 * k)], [ft(2 * k), ft(0.0)]])
            assert abs(born[0, 1] - born[1, 0]) > 1e-4 * eps / 1e-3
            return np.linalg.norm(s.matrix - born)

        c_bound = 50.0
        for eps in (2e-3, 1e-3):
            assert born_error(eps) <= c_bound * eps ** 2

    def test_method_tag(self):
        s = s_matrix_stationary(SquareWell(), 1.0, n_nodes=200)
        assert s.method is Method.STATIONARY

    def test_singular_system_guard(self):
        from specdiff.errors import SingularOperatorError
        from specdiff.scattering import _solve_with_condition
        near_singular = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], dtype=complex)
        with pytest.raises(SingularOperatorError) as err:
            _solve_with_condition(near_singular, np.eye(2, dtype=complex))
        assert err.value.cond > 1e12

    def test_energy_shell_identity(self):
        # Im T = pi Z* Z holds node by node for the symmetrized rule; this is
        # what makes the discrete S unitary regardless of quadrature quality.
        _, ops = s_matrix_stationary(SquareWell(-2.0, 1.0), 1.3, n_nodes=150,
                                     return_operators=True)
        lhs = ops.t_matrix.imag
        rhs = math.pi * (ops.z_rows.conj().T @ ops.z_rows).real
        assert np.abs(lhs - rhs).max() <= 1e-14
        assert ops.condition_number < 1e3


class TestEigenphases:
    def test_identity_gives_empty_set(self):
        s = s_matrix_stationary(GaussianBump(amplitude=0.0), 1.0, n_nodes=64)
        phases = eigenphases(s)
        assert phases.thetas.size == 0
        assert phases.kappa_max == 0.0

    def test_diagonal_phase_example(self):
        from specdiff.scattering import ScatteringMatrix
        s = ScatteringMatrix(1.0, 1.0,
                             np.diag([cmath.exp(1j * math.pi / 2), 1.0]),
                             Method.STATIONARY, 0.0)
        phases = eigenphases(s, phase_tol=1e-6)
        assert phases.thetas.size == 1
        assert abs(phases.thetas[0] - math.pi / 2) <= 1e-14
        assert abs(phases.kappas[0] - math.sin(math.pi / 4)) <= 1e-14

    def test_reflectionless_kappas_coincide(self):
        s = s_matrix_ode(PoschlTeller(1), 1.0)
        phases = eigenphases(s)
        assert phases.kappas.size == 2
        assert abs(phases.kappas[0] - phases.kappas[1]) <= 1e-8

    def test_kappa_arithmetic_identity(self):
        s = s_matrix_ode(SquareWell(-2.0, 1.0), 1.0)
        phases = eigenphases(s)
        want = np.sin(np.abs(phases.thetas) / 2.0)
        assert np.abs(phases.kappas - want).max() <= 1e-14


class TestHoelderContinuity:
    def test_quotient_stable_and_unitary_across_band(self):
        pot = SquareWell(-2.0, 1.0)

        def quotient_sup(n_grid):
            lams = np.linspace(0.25, 4.0, n_grid)
            mats = []
            for lam in lams:
                s = s_matrix_ode(pot, lam)
                assert s.unitarity_defect <= 1e-8
                assert s.symmetry_defect <= 1e-8
                mats.append(s.matrix)
            sup = 0.0
            for (l1, m1), (l2, m2) in zip(zip(lams, mats), zip(lams[1:], mats[1:])):
                sup = max(sup, np.linalg.norm(m2 - m1) / math.sqrt(l2 - l1))
            return sup

        c_coarse = quotient_sup(12)
        c_fine = quotient_sup(24)
        assert np.isfinite(c_fine)
        assert c_fine <= 2.0 * c_coarse

    def test_stationary_unitary_at_band_ends(self):
        for pot in (SquareWell(-2.0, 1.0), PoschlTeller(1)):
            for lam in (0.25, 4.0):
                s = s_matrix_stationary(pot, lam, n_nodes=400)
                assert s.unitarity_defect <= 1e-6


class TestSpectralShift:
    def test_zero_potential(self):
        box = BoxDiscretization.from_spacing(40.0, 0.05)
        assert spectral_shift_count(GaussianBump(amplitude=0.0), 1.0, box) == 0
        assert abs(smeared_spectral_shift(GaussianBump(amplitude=0.0), 1.0, box)) <= 1e-10

    def test_counting_equals_minus_trace_d(self):
        from specdiff.schrodinger1d import band_spectra
        box = BoxDiscretization.from_spacing(30.0, 0.05)
        well = SquareWell(-2.0, 1.0)
        lam = 1.0
        assert spectral_shift_count(well, lam, box) == -band_spectra(box, well, lam).trace_d

    def test_bound_state_registers_below_threshold(self):
        # Between the bound-state energy and the continuum threshold only
        # the bound state separates the two counting functions.
        well = SquareWell(-2.0, 1.0)
        box = BoxDiscretization.from_spacing(150.0, 0.02)
        assert spectral_shift_count(well, -0.5, box) == -1

    def test_low_energy_staircase_near_smeared_value(self):
        # Just above threshold the integer staircase sits within unit
        # distance of the smeared estimate (their difference is the
        # interpolation correction, bounded by one level).
        well = SquareWell(-2.0, 1.0)
        lam = 0.02
        box = BoxDiscretization.from_spacing(150.0, 0.02)
        count = spectral_shift_count(well, lam, box)
        smeared = smeared_spectral_shift(well, lam, box)
        assert abs(count - smeared) < 1.0
        # and the smeared value obeys the determinant identity mod 1
        s = matching_oracle(-2.0, 1.0, lam)
        delta_total = cmath.phase(np.linalg.det(s)) / 2.0
        diff = smeared + delta_total / math.pi
        assert abs(diff - round(diff)) <= 0.05

    def test_smeared_shift_tracks_scattering_phase(self):
        well = SquareWell(-2.0, 1.0)
        box = BoxDiscretization.from_spacing(150.0, 0.02)
        for lam in (0.7, 1.3):
            s = matching_oracle(-2.0, 1.0, lam)
            delta_total = cmath.phase(np.linalg.det(s)) / 2.0
            got = smeared_spectral_shift(well, lam, box)
            # mod 1 the smeared count reproduces -delta/pi
            diff = got + delta_total / math.pi
            assert abs(diff - round(diff)) <= 0.05

    def test_level_collision_guard(self):
        from specdiff.schrodinger1d import free_levels
        box = BoxDiscretization.from_spacing(40.0, 0.05)
        lam = float(free_levels(box)[30])
        with pytest.raises(LevelCollisionError):
            spectral_shift_count(GaussianBump(amplitude=0.0), lam, box)
        with pytest.raises(LevelCollisionError):
            smeared_spectral_shift(GaussianBump(amplitude=0.0), lam, box)


class TestBirmanKrein:
    def test_zero_potential_residual_zero(self):
        box = BoxDiscretization.from_spacing(40.0, 0.05)
        assert birman_krein_check(GaussianBump(amplitude=0.0), 1.0, box) <= 1e-9

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_square_well_residual(self, lam):
        box = BoxDiscretization.from_spacing(200.0, 0.02)
        r = birman_krein_check(SquareWell(-2.0, 1.0), lam, box)
        assert r <= 0.05

    def test_value_continuity_over_grid(self):
        box = BoxDiscretization.from_spacing(60.0, 0.02)
        lams = np.linspace(0.8, 1.4, 7)
        vals = [birman_krein_value(SquareWell(-2.0, 1.0), lam, box) for lam in lams]
        unwrapped = [vals[0]]
        for v in vals[1:]:
            unwrapped.append(v + round(unwrapped[-1] - v))
        assert np.abs(np.diff(unwrapped)).max() <= 0.2
