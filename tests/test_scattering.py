"""Tests for the scattering layer.

Oracles: the square-well scattering matrix from a directly solved 4x4
plane-wave matching system (independent of both library routes), the
closed-form reflectionless transmission (k+i)/(k-i) of the unit
Poschl-Teller well, the analytic first Born term, the stationary system
rebuilt densely from the Chebyshev rule (its S, energy-shell identity and
exact condition number), monomials for the rule, eigenvalue counting
against the closed-form free spectrum, the scalar RK4 step loop for the
propagator product, and the full-box spectrum with parity alternation for
windowed counting.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from specdiff import scattering
from specdiff.errors import (ConvergenceError, DomainError, LevelCollisionError,
                             SingularOperatorError)
from specdiff.scattering import (
    N_CAP,
    REFINE_TARGET,
    _chebyshev_rule,
    _rk4_segment,
    birman_krein_value,
    eigenphases,
    s_matrix_ode,
    s_matrix_stationary,
    smeared_spectral_shift,
)
from specdiff.schrodinger1d import (
    BoxDiscretization,
    GaussianBump,
    PoschlTeller,
    SquareWell,
    _mirror_sectors,
    box_levels,
    free_levels,
    hamiltonian_tridiagonal,
)

from potentials import ShiftedWell, SkewedGaussian


class UnderReportedWell(PoschlTeller):
    """A Poschl-Teller well whose effective support is reported too small."""

    def effective_support(self, tol=1e-10):
        return 3.0


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


def dense_t_matrix(potential, ops, lam):
    """T = (i/2k) G (E L E* + E* R E) G with R = 1 w^T - L, rebuilt densely
    from the Chebyshev rule on the route's panels; the route's nodes and
    weights must be the rule's."""
    k = math.sqrt(lam)
    points = scattering._segments(potential, potential.effective_support(1e-6))
    n = ops.nodes.size
    left = np.zeros((n, n))
    i = 0
    for a, b in zip(points[:-1], points[1:]):
        m = int(np.count_nonzero((ops.nodes > a) & (ops.nodes < b)))
        x, w, s_m = _chebyshev_rule(m)
        h = (b - a) / 2
        assert np.abs(ops.nodes[i:i + m] - ((a + b) / 2 + h * x)).max() <= 1e-13
        assert np.abs(ops.weights[i:i + m] - h * w).max() <= 1e-15
        left[i:i + m, :i] = ops.weights[:i]
        left[i:i + m, i:i + m] = h * s_m
        i += m
    assert i == n
    e = np.diag(np.exp(1j * k * ops.nodes))
    right = np.outer(np.ones(n), ops.weights) - left
    kernel = e @ left @ e.conj() + e.conj() @ right @ e
    return (0.5j / k) * ops.g_diag[:, None] * kernel * ops.g_diag[None, :]


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
        assert abs(s.matrix[0, 1] - s.matrix[1, 0]) <= 1e-8

    @pytest.mark.parametrize("lam", [0.3, 1.3, 3.0])
    def test_shifted_well_pins_channel_order(self, lam):
        d = 0.6
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
        # |V(3)| = 2 sech^2(3) ~ 0.02: a support reported at 3 cuts V off.
        with pytest.raises(DomainError, match="understates the support"):
            s_matrix_ode(UnderReportedWell(1), 1.0)

    def test_range_covers_a_far_support(self):
        # The well sits on [2, 4]; integrating over [-1, 1] alone would
        # miss it and give S ~ I (|S12| ~ 5e-15).
        s = s_matrix_ode(ShiftedWell(center=3.0), 1.3)
        want = matching_oracle(-2.0, 1.0, 1.3, center=3.0)
        assert np.abs(s.matrix - want).max() <= 1e-8
        assert abs(abs(s.matrix[0, 1]) - 0.222) <= 1e-3

    def test_zero_width_gives_identity(self):
        s = s_matrix_ode(SquareWell(-2.0, 0.0), 1.0)
        assert np.abs(s.matrix - np.eye(2)).max() <= 1e-15

    @pytest.mark.parametrize("potential, x_max, segments", [
        (GaussianBump(), None, 1),
        (SquareWell(-2.0, 1.0), None, 1),      # jumps at +-x_max
        (SquareWell(-2.0, 1.0), 3.0, 3),
        (ShiftedWell(center=0.6), None, 2),    # one jump at x_max
        (ShiftedWell(center=0.6), 3.0, 3),
    ], ids=["gaussian", "square_well", "square_well_wide", "shifted_well",
            "shifted_well_wide"])
    def test_one_integration_per_energy(self, monkeypatch, potential, x_max,
                                        segments):
        # One propagator over [-x_max, x_max]: one RK4 product per smooth
        # segment, the inner breakpoints plus one, in ascending order.  A
        # range wider than the support is the propagator's own argument.
        calls = []

        def counted(*args):
            calls.append(args[2:4])
            return _rk4_segment(*args)
        monkeypatch.setattr(scattering, "_rk4_segment", counted)
        if x_max is None:
            s_matrix_ode(potential, 1.3)
        else:
            scattering._propagator(potential, 1.3, x_max, 0.01)
        assert len(calls) == segments
        assert all(a < b for a, b in calls)

    def test_coarse_step_raises_refinement_error(self, monkeypatch):
        from specdiff.errors import StepSizeError
        # step = ODE_STEP / sqrt(lam + max|V|) = 0.5 at lam = 1, |V| = 2
        monkeypatch.setattr(scattering, "ODE_STEP", 0.5 * math.sqrt(3.0))
        with pytest.raises(StepSizeError, match="unitarity defect"):
            s_matrix_ode(SquareWell(-2.0, 1.0), 1.0)


def rk4_loop(potential, lam, x0, x1, step, u, du):
    """(u, u') at x1 from its value at x0, one RK4 step at a time: the
    scalar step loop, the oracle of the propagator product."""
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


def propagator_loop(potential, lam, x_max, step):
    """The forward propagator over [-x_max, x_max] column by column: each
    basis vector carried by the step loop across the smooth segments."""
    inner = sorted(b for b in potential.breakpoints() if -x_max < b < x_max)
    points = [-x_max] + inner + [x_max]
    m = np.empty((2, 2))
    for j, y in enumerate([(1.0, 0.0), (0.0, 1.0)]):
        for a, b in zip(points[:-1], points[1:]):
            y = rk4_loop(potential, lam, a, b, step, *y)
        m[:, j] = y
    return m


class TestRk4Product:
    """The propagator product against the scalar RK4 step loop."""

    @pytest.mark.parametrize("potential, lam", [
        (SquareWell(-2.0, 1.0), 1.0),
        (ShiftedWell(center=0.7), 1.3),
        (PoschlTeller(1), 0.8),
        (GaussianBump(), 1.5),
        # A barrier above the energy: solutions grow and decay under it.
        (GaussianBump(amplitude=1.0), 0.5),
    ], ids=["square_well", "shifted_well", "poschl_teller", "gaussian",
            "barrier"])
    def test_s_matrix_matches_step_loop(self, monkeypatch, potential, lam):
        got = s_matrix_ode(potential, lam)
        monkeypatch.setattr(scattering, "_propagator", propagator_loop)
        want = s_matrix_ode(potential, lam)
        assert np.abs(got.matrix - want.matrix).max() <= 1e-13
        # |S*S - I| moves by at most about 2 |dS|.
        assert abs(got.unitarity_defect - want.unitarity_defect) <= 4e-13

    @pytest.mark.parametrize("x1", [0.004, -0.004, 0.021, 0.037])
    def test_short_segments_match_step_loop(self, x1):
        # 0.004 is shorter than one step (N = 1); 0.021 and 0.037 take
        # N = 3 and 4, an odd and an even product.
        barrier, y = GaussianBump(amplitude=1.0), (0.3 + 0.2j, -1.1j)
        m = _rk4_segment(barrier, 0.5, 0.0, x1, 0.01)
        want = rk4_loop(barrier, 0.5, 0.0, x1, 0.01, *y)
        assert np.abs(m @ np.array(y) - np.array(want)).max() <= 1e-15

    @pytest.mark.parametrize("block, x1", [(1, 0.037), (2, 0.037), (3, 0.037),
                                           (7, 1.0), (64, -1.0)])
    def test_blocked_product_matches_step_loop(self, monkeypatch, block, x1):
        # 4 steps in blocks of 1, 2 and 3 (a short last block); 100 steps
        # in 15 blocks of 7 and 2 of 64, either direction.
        monkeypatch.setattr(scattering, "_RK4_BLOCK", block)
        barrier, y = GaussianBump(amplitude=1.0), (0.3 + 0.2j, -1.1j)
        m = _rk4_segment(barrier, 0.5, 0.0, x1, 0.01)
        want = rk4_loop(barrier, 0.5, 0.0, x1, 0.01, *y)
        assert np.abs(m @ np.array(y) - np.array(want)).max() <= 1e-14

    def test_peak_memory_does_not_grow_with_support(self):
        # A Gaussian of width 1000 takes 1.4 million RK4 steps at lam = 1,
        # about 230 MB of numpy buffers if all were built at once.
        pot = GaussianBump(-1.0, 1000.0)
        tracemalloc.start()
        try:
            s = s_matrix_ode(pot, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.unitarity_defect <= 1e-8
        assert peak <= 8e6


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

    @pytest.mark.parametrize("n_nodes", [0, -3, 2.5, True, N_CAP + 1])
    def test_node_count_must_be_a_positive_integer(self, monkeypatch, n_nodes):
        def build(*args):
            raise AssertionError("system built before the node count was refused")
        monkeypatch.setattr(scattering, "_stationary_once", build)
        with pytest.raises(DomainError, match="node count"):
            s_matrix_stationary(SquareWell(-2.0, 1.0), 1.0, n_nodes=n_nodes)

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

    def test_singular_system_guard(self, monkeypatch):
        monkeypatch.setattr(scattering, "COND_GUARD", 1.5)
        with pytest.raises(SingularOperatorError) as err:
            s_matrix_stationary(SquareWell(-2.0, 1.0), 1.0, n_nodes=32)
        assert err.value.cond > 1.5

    def test_energy_shell_identity(self):
        # Im T = pi Z* Z W holds entry by entry because L + R = 1 w^T.
        lam, pot = 1.3, ShiftedWell(center=0.7)
        _, ops = s_matrix_stationary(pot, lam, n_nodes=150, return_operators=True)
        lhs = dense_t_matrix(pot, ops, lam).imag
        rhs = math.pi * (ops.z_rows.conj().T @ ops.z_rows).real * ops.weights
        assert np.abs(lhs - rhs).max() <= 1e-14
        assert ops.condition_number < 1e3

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.0, 4.0])
    def test_closed_forms_on_default_ladder(self, lam):
        for pot, center in ((SquareWell(-2.0, 1.0), 0.0),
                            (ShiftedWell(center=0.7), 0.7)):
            s = s_matrix_stationary(pot, lam)
            want = matching_oracle(-2.0, 1.0, lam, center)
            assert np.abs(s.matrix - want).max() <= 1e-12
            assert s.unitarity_defect <= 1e-12
        # limited by the 1e-6 support truncation
        s = s_matrix_stationary(PoschlTeller(1), lam)
        want = pt_transmission(math.sqrt(lam)) * np.eye(2)
        assert np.abs(s.matrix - want).max() <= 2e-6
        assert s.unitarity_defect <= 1e-12

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_asymmetric_smooth_potential(self, lam):
        # Neither even nor piecewise constant: T is not symmetric, so S is
        # unitary only to the quadrature error, which the ladder settles.
        s_stat = s_matrix_stationary(SkewedGaussian(), lam)
        s_ode = s_matrix_ode(SkewedGaussian(), lam)
        assert s_stat.unitarity_defect <= 1e-12
        # limited by the 1e-6 support truncation (3e-8 to 9e-8 here)
        assert np.abs(s_stat.matrix - s_ode.matrix).max() <= 1e-6
        assert abs(s_stat.matrix[0, 1]) > 0.05     # not reflectionless

    @pytest.mark.parametrize("pot", [GaussianBump(width=10.0),
                                     GaussianBump(width=30.0),
                                     SquareWell(half_width=20.0),
                                     PoschlTeller(4)], ids=repr)
    def test_wide_potentials_settle(self, pot):
        for lam in (1.0, 4.0):
            s_stat = s_matrix_stationary(pot, lam)
            s_ode = s_matrix_ode(pot, lam)
            assert np.linalg.norm(s_stat.matrix - s_ode.matrix) <= 1e-5

    @pytest.mark.parametrize("pot, lams, nodes", [
        (SquareWell(), (0.25, 1.3, 4.0), 32),
        (GaussianBump(), (0.25, 1.1, 2.0), 64),
        (PoschlTeller(1), (0.25, 1.1, 2.0), 128),
    ], ids=["square_well", "gaussian", "poschl_teller"])
    def test_final_node_counts(self, pot, lams, nodes):
        # The benchmark's scatter workload assumes that its seeded energies
        # leave the ladder's final rung, and so the work per pass, fixed.
        for lam in lams:
            _, ops = s_matrix_stationary(pot, lam, return_operators=True)
            assert ops.nodes.size == nodes

    @pytest.mark.parametrize("pot, trail", [
        (SquareWell(), (32,)),
        (PoschlTeller(1), (32, 64, 128)),
    ], ids=["square_well", "poschl_teller"])
    def test_refinement_trail(self, pot, trail):
        s, ops = s_matrix_stationary(pot, 1.0, return_operators=True)
        assert tuple(n for n, _ in ops.refinement) == trail
        assert ops.refinement[-1][1] < REFINE_TARGET
        assert all(d >= REFINE_TARGET for _, d in ops.refinement[:-1])
        _, fixed = s_matrix_stationary(pot, 1.0, n_nodes=trail[-1],
                                       return_operators=True)
        assert fixed.refinement == ()

    def test_node_cap_names_the_last_change_of_s(self, monkeypatch):
        # Capped at 64 nodes, the ladder stops after the rung whose trail
        # entry is (64, ||S_64 - S_32||) and says so.
        _, ops = s_matrix_stationary(PoschlTeller(1), 1.0,
                                     return_operators=True)
        moved = dict(ops.refinement)[64]
        monkeypatch.setattr(scattering, "N_CAP", 64)
        with pytest.raises(ConvergenceError) as err:
            s_matrix_stationary(PoschlTeller(1), 1.0)
        assert str(err.value) == (
            "stationary route did not settle within the node cap "
            f"(the last rung moved S by {moved:.3e} in norm)")
        assert math.isnan(err.value.last_term)

    def test_truncation_floor_grows_like_one_over_k(self):
        # Cutting the reflectionless well where |V| < 1e-6 perturbs S by
        # about 1e-6 / k at low energy: 9.9e-5 at lambda = 1e-4 and 1.0e-3
        # at 1e-6, where it reaches the two routes' 1e-3 agreement.
        pot = PoschlTeller(1)
        errs = [np.linalg.norm(s_matrix_ode(pot, lam).matrix
                               - s_matrix_stationary(pot, lam).matrix)
                for lam in (1e-4, 1e-6)]
        assert 8e-5 <= errs[0] <= 1.2e-4
        assert 8e-4 <= errs[1] <= 1.2e-3


ORACLE_POTENTIALS = {
    "square_well": SquareWell(-2.0, 1.0),
    "poschl_teller": PoschlTeller(1),
    "gaussian": GaussianBump(-1.0, 1.0),
    "zero": GaussianBump(amplitude=0.0),
    # not even, and its support leaves J = 0 on the panel left of -0.3
    "shifted_well": ShiftedWell(center=0.7),
}


class TestStationaryDenseOracle:
    """S and the condition number against I + T J rebuilt densely from the
    Chebyshev rule on the same panels."""

    @pytest.mark.parametrize("n", [17, 64])
    @pytest.mark.parametrize("name", sorted(ORACLE_POTENTIALS))
    def test_matches_dense_path(self, name, n):
        pot = ORACLE_POTENTIALS[name]
        for lam in (0.5, 2.0):
            s, ops = s_matrix_stationary(pot, lam, n_nodes=n,
                                         return_operators=True)
            assert ops.nodes.size == n
            a = np.eye(n) + dense_t_matrix(pot, ops, lam) * ops.j_diag[None, :]
            y = np.linalg.solve(a, ops.z_rows.conj().T)
            s_dense = np.eye(2) - 2j * math.pi * (
                ops.z_rows * (ops.weights * ops.j_diag)) @ y
            assert np.abs(s.matrix - s_dense).max() <= 1e-12
            exact = np.linalg.norm(a, 1) * np.linalg.norm(np.linalg.inv(a), 1)
            assert exact / 10 <= ops.condition_number <= exact * (1 + 1e-12)


class TestChebyshevRule:
    @pytest.mark.parametrize("m", [1, 2, 16, 17, 128])
    def test_integrates_monomials_exactly(self, m):
        x, w, s_m = _chebyshev_rule(m)
        assert np.all(np.diff(x) > 0) and -1 < x[0] and x[-1] < 1
        for d in range(m):
            exact = (1 - (-1.0) ** (d + 1)) / (d + 1)
            assert abs(w @ x ** d - exact) <= 1e-14
            exact = (x ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
            assert np.abs(s_m @ x ** d - exact).max() <= 1e-14

    def test_one_shared_read_only_rule(self):
        rule = _chebyshev_rule(16)
        assert _chebyshev_rule(16) is rule
        for array in rule:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("pot, lam, n_nodes", [
        *((pot, lam, None) for pot in (SquareWell(), GaussianBump(),
                                       PoschlTeller(1))
          for lam in (0.5, 1.3)),
        (ShiftedWell(center=3.0), 1.0, None),   # two panels
        (ShiftedWell(center=3.0), 1.0, 51),     # orders 26 and 25
        (SquareWell(), 1.0, 50),
    ], ids=repr)
    def test_cached_rule_changes_no_bit(self, pot, lam, n_nodes):
        _chebyshev_rule.cache_clear()
        cold, warm = (s_matrix_stationary(pot, lam, n_nodes=n_nodes,
                                          return_operators=True)
                      for _ in range(2))
        assert np.array_equal(cold[0].matrix, warm[0].matrix)
        for name in ("nodes", "weights"):
            assert np.array_equal(getattr(cold[1], name), getattr(warm[1], name))
        assert cold[1].condition_number == warm[1].condition_number

    def test_second_energy_builds_no_rule(self):
        _chebyshev_rule.cache_clear()
        s_matrix_stationary(PoschlTeller(1), 0.5)
        misses = _chebyshev_rule.cache_info().misses
        s_matrix_stationary(PoschlTeller(1), 1.3)
        assert _chebyshev_rule.cache_info().misses == misses

    def test_retained_rules_stay_bounded(self):
        for n in range(1, 41):
            s_matrix_stationary(SquareWell(), 1.0, n_nodes=n)
        assert _chebyshev_rule.cache_info().currsize <= 8
        # The default ladders keep the orders 16 to 128, about 0.18 MB.
        _chebyshev_rule.cache_clear()
        tracemalloc.start()
        try:
            for pot in (SquareWell(), GaussianBump(), PoschlTeller(1)):
                s_matrix_stationary(pot, 1.0)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 0.25e6


class TestEigenphases:
    def test_identity_gives_empty_set(self):
        s = s_matrix_stationary(GaussianBump(amplitude=0.0), 1.0, n_nodes=64)
        phases = eigenphases(s)
        assert phases.thetas.size == 0
        assert phases.kappas.size == 0

    def test_diagonal_phase_example(self):
        from specdiff.scattering import ScatteringMatrix
        s = ScatteringMatrix(1.0, np.diag([cmath.exp(1j * math.pi / 2), 1.0]),
                             0.0)
        phases = eigenphases(s)
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

    @pytest.mark.parametrize("n", [8, 16])
    def test_refuses_non_unitary_matrix(self, n):
        # SkewedGaussian's T is not symmetric, so S is unitary only to the
        # quadrature error: 6.7e-3 at 8 nodes, 4.4e-2 at 16.
        s = s_matrix_stationary(SkewedGaussian(), 1.0, n_nodes=n)
        assert s.unitarity_defect > 1e-3
        with pytest.raises(DomainError, match="violates unitarity"):
            eigenphases(s)

    def test_accepts_settled_matrix(self):
        # At 64 nodes the defect is 1.8e-11, and the phases are the ODE
        # route's to the stationary route's support truncation.
        s = s_matrix_stationary(SkewedGaussian(), 1.0, n_nodes=64)
        assert s.unitarity_defect <= 1e-10
        got = eigenphases(s).kappas
        want = eigenphases(s_matrix_ode(SkewedGaussian(), 1.0)).kappas
        assert got.shape == want.shape == (2,)
        assert np.abs(got - want).max() <= 1e-6


class TestHoelderContinuity:
    def test_quotient_stable_and_unitary_across_band(self):
        pot = SquareWell(-2.0, 1.0)

        def quotient_sup(n_grid):
            lams = np.linspace(0.25, 4.0, n_grid)
            mats = []
            for lam in lams:
                s = s_matrix_ode(pot, lam)
                assert s.unitarity_defect <= 1e-8
                assert abs(s.matrix[0, 1] - s.matrix[1, 0]) <= 1e-8
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


def integer_shift(potential, lam, box):
    """-(#eig(H) < lam) + (#eig(H0) < lam), summed over the box's sectors."""
    return -sum(h[0] - h0[0]
                for h, h0 in box_levels(box, potential, lam, lam).at(lam))


class TestSpectralShift:
    def test_zero_potential(self):
        box = BoxDiscretization.from_spacing(40.0, 0.05)
        assert integer_shift(GaussianBump(amplitude=0.0), 1.0, box) == 0
        assert abs(smeared_spectral_shift(GaussianBump(amplitude=0.0), 1.0, box)) <= 1e-10

    def test_counting_equals_minus_trace_d(self):
        from specdiff.schrodinger1d import band_spectra
        box = BoxDiscretization.from_spacing(30.0, 0.05)
        well = SquareWell(-2.0, 1.0)
        lam = 1.0
        assert integer_shift(well, lam, box) == -band_spectra(box, well, lam).trace_d

    def test_bound_state_registers_below_threshold(self):
        # Between the bound-state energy and the continuum threshold only
        # the bound state separates the two counting functions.
        well = SquareWell(-2.0, 1.0)
        box = BoxDiscretization.from_spacing(150.0, 0.02)
        assert integer_shift(well, -0.5, box) == -1

    def test_low_energy_staircase_near_smeared_value(self):
        # Just above threshold the integer staircase sits within unit
        # distance of the smeared estimate (their difference is the
        # interpolation correction, bounded by one level).
        well = SquareWell(-2.0, 1.0)
        lam = 0.02
        box = BoxDiscretization.from_spacing(150.0, 0.02)
        count = integer_shift(well, lam, box)
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
        box = BoxDiscretization.from_spacing(40.0, 0.05)
        lam = float(free_levels(box)[30])
        with pytest.raises(LevelCollisionError):
            integer_shift(GaussianBump(amplitude=0.0), lam, box)
        with pytest.raises(LevelCollisionError):
            smeared_spectral_shift(GaussianBump(amplitude=0.0), lam, box)


def alternation_shift(ev, ev0, lam, sectors):
    """Smeared spectral shift from the full sorted spectra ``ev`` (H) and
    ``ev0`` (H0): with two sectors, parity alternates along each sorted
    spectrum, so the sector staircases are the even- and odd-indexed
    levels."""
    def staircase(levels):
        total = 0.0
        for sub in (levels[0::2], levels[1::2]) if sectors == 2 else (levels,):
            j = int(np.sum(sub < lam))
            total += (j - 0.5) + (lam - sub[j - 1]) / (sub[j] - sub[j - 1])
        return total
    return -(staircase(ev) - staircase(ev0))


class TestWindowedCounting:
    """Staircases read from one window of box levels, against the full-box
    spectrum and against the single-energy path."""

    BOX = BoxDiscretization.from_spacing(50.0, 0.02)
    GRID = np.linspace(0.5, 2.0, 20)

    @pytest.mark.parametrize("potential, sectors", [
        (SquareWell(-2.0, 1.0), 2), (PoschlTeller(1), 2), (GaussianBump(), 2),
        (ShiftedWell(center=0.7), 1),
    ], ids=["square_well", "poschl_teller", "gaussian", "shifted_well"])
    def test_window_matches_full_spectrum_and_single_energy(self, potential,
                                                            sectors):
        box = self.BOX
        diag, off = hamiltonian_tridiagonal(box, potential)
        assert len(_mirror_sectors(diag, off)) == sectors
        ev = eigvalsh_tridiagonal(diag, off)
        ev0 = free_levels(box)
        levels = box_levels(box, potential, self.GRID[0], self.GRID[-1])
        for lam in self.GRID:
            got = smeared_spectral_shift(potential, lam, box, levels)
            assert abs(got - alternation_shift(ev, ev0, lam, sectors)) <= 1e-9
            # an eigenvalue does not depend on the window that solved it
            assert got == smeared_spectral_shift(potential, lam, box)
            assert sum(h[0] for h, _ in levels.at(lam)) == \
                int(np.sum(ev < lam))

    def test_level_inside_window_collides(self):
        well = SquareWell(-2.0, 1.0)
        levels = box_levels(self.BOX, well, 0.5, 2.0)
        diag, off = hamiltonian_tridiagonal(self.BOX, well)
        ev = eigvalsh_tridiagonal(diag, off)
        for level in (free_levels(self.BOX), ev):
            lam = float(level[np.searchsorted(level, 1.0)])
            with pytest.raises(LevelCollisionError):
                smeared_spectral_shift(well, lam, self.BOX, levels)

    @pytest.mark.parametrize("lam", [0.45, 2.05])
    def test_level_outside_window_raises(self, lam):
        well = SquareWell(-2.0, 1.0)
        levels = box_levels(self.BOX, well, 0.5, 2.0)
        with pytest.raises(DomainError, match="outside the window") as err:
            smeared_spectral_shift(well, lam, self.BOX, levels)
        assert type(err.value) is DomainError
        with pytest.raises(DomainError, match="outside the window"):
            levels.at(lam)


def nearest_integer_distance(value):
    return abs(value - round(value))


class TestBirmanKrein:
    def test_zero_potential_residual_zero(self):
        box = BoxDiscretization.from_spacing(40.0, 0.05)
        val = birman_krein_value(GaussianBump(amplitude=0.0), 1.0, box)
        assert nearest_integer_distance(val) <= 1e-9

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_square_well_residual(self, lam):
        box = BoxDiscretization.from_spacing(200.0, 0.02)
        val = birman_krein_value(SquareWell(-2.0, 1.0), lam, box)
        assert nearest_integer_distance(val) <= 0.05

    def test_value_continuity_over_grid(self):
        box = BoxDiscretization.from_spacing(60.0, 0.02)
        lams = np.linspace(0.8, 1.4, 7)
        vals = [birman_krein_value(SquareWell(-2.0, 1.0), lam, box) for lam in lams]
        unwrapped = [vals[0]]
        for v in vals[1:]:
            unwrapped.append(v + round(unwrapped[-1] - v))
        assert np.abs(np.diff(unwrapped)).max() <= 0.2
