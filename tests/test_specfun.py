"""Tests for the special-function layer.

Oracles used here are independent of the implementation paths they check:
a plain fixed-length series loop for the hypergeometric function, mpmath's
gamma function for the two-branch prefactor, and quadrature of the
Mehler-Dirichlet integral and mpmath's Legendre function for the conical
function.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import specdiff
from specdiff.errors import ConvergenceError, DomainError
from specdiff.specfun import (
    SERIES_CAP,
    SERIES_RTOL,
    check_conical_bounds,
    conical_p_far_branch,
    conical_p_near_one,
    conical_values,
    hyp2f1,
    _prefactor,
)

LOG2 = math.log(2.0)


def series_oracle(a, b, c, z, terms=200):
    """Plain partial sum of the hypergeometric series, no stopping logic."""
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for n in range(terms):
        total += term
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
    return total


def stopping_step(a, b, c, z):
    """The term index at which the series stops: the third consecutive
    term below SERIES_RTOL of the running sum (Python complex arithmetic,
    so it may differ from the numpy kernel's count by a step)."""
    total, term, run = 1.0 + 0.0j, 1.0 + 0.0j, 0
    for n in range(SERIES_CAP):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        run = run + 1 if abs(term) <= SERIES_RTOL * abs(total) else 0
        if run == 3:
            return n
    raise AssertionError("no stop within the term cap")


class TestHyp2f1:
    def test_at_zero_is_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            c = 0.5 + rng.random() * 3.0
            assert hyp2f1(a, b, c, 0.0) == 1.0

    def test_log_closed_form(self):
        # 2F1(1,1;2;z) = -log(1-z)/z; at z = 1/2 this is 2 log 2.
        val = hyp2f1(1.0, 1.0, 2.0, 0.5)
        assert abs(val - 2.0 * LOG2) < 1e-14
        assert abs(val - series_oracle(1.0, 1.0, 2.0, 0.5)) < 1e-14

    def test_against_series_oracle_complex(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            a = rng.standard_normal() + 1j * rng.standard_normal()
            b = rng.standard_normal() + 1j * rng.standard_normal()
            c = 1.0 + rng.random() * 2.0 + 1j * rng.standard_normal() * 0.5
            z = (rng.random() * 0.6) * np.exp(2j * np.pi * rng.random())
            got = hyp2f1(a, b, c, z)
            want = series_oracle(a, b, c, z, terms=300)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_symmetry_in_first_two_arguments(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal() + 1j * rng.standard_normal()
            b = rng.standard_normal() + 1j * rng.standard_normal()
            c = 1.5 + rng.random()
            z = rng.random() * 0.8 - 0.4
            assert hyp2f1(a, b, c, z) == hyp2f1(b, a, c, z)

    def test_c_pole_rejected(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 0.0, 0.3)
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, -2.0 + 1e-14j, 0.3)

    def test_z_outside_series_regime_rejected(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, 0.95)

    def test_nonconvergence_carries_last_term(self):
        with pytest.raises(ConvergenceError) as err:
            hyp2f1(5000.0, 2000.0, 1.5, 0.9)
        assert err.value.last_term > 0

    def test_terminating_series(self):
        # a = -3 terminates; closed form (1-z)^3 at b = c.
        z = 0.4
        assert abs(hyp2f1(-3.0, 2.5, 2.5, z) - (1 - z) ** 3) < 1e-14


def mehler_dirichlet_oracle(t, x):
    """P_{-1/2+it}(cosh alpha) = (sqrt2/pi) int_0^alpha cos(ts)/sqrt(cosh a - cosh s) ds,
    with the endpoint square-root removed by s = alpha - v^2."""
    alpha = math.acosh(x)

    def integrand(v):
        s = alpha - v * v
        return 2.0 * v * math.cos(t * s) / math.sqrt(math.cosh(alpha) - math.cosh(s))

    val, err = quad(integrand, 0.0, math.sqrt(alpha), limit=200, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return math.sqrt(2.0) / math.pi * val


class TestConical:
    def test_equals_one_at_argument_one(self):
        for t in (0.0, 0.5, 1.0, 4.0, 16.0):
            value, _ = conical_values(t, 1.0)
            assert value == 1.0
            assert value == conical_p_near_one(t, 1.0)[0]

    def test_mehler_dirichlet_oracle_t0(self):
        got, _ = conical_values(0.0, 3.0)
        assert got == conical_p_far_branch(0.0, 3.0)[0]
        assert abs(got - mehler_dirichlet_oracle(0.0, 3.0)) <= 1e-9

    def test_mehler_dirichlet_oracle_positive_t(self):
        for t, x in ((0.5, 2.5), (1.0, 4.0), (2.0, 1.5)):
            got, _ = conical_values(t, x)
            assert abs(got - mehler_dirichlet_oracle(t, x)) <= 1e-9

    def test_representation_pair_on_overlap(self):
        near, _ = conical_p_near_one(1.0, 2.0)
        far, _ = conical_p_far_branch(1.0, 2.0)
        assert abs(near - far) <= 1e-8

    def test_seam_grid_consistency(self):
        worst = 0.0
        for t in (0.0, 0.5, 1.0, 2.0):
            for x in np.linspace(1.2, 2.8, 17):
                worst = max(worst, abs(conical_p_near_one(t, x)[0]
                                       - conical_p_far_branch(t, x)[0]))
        assert worst <= 1e-8

    def test_branch_imag_residual_small(self):
        worst = 0.0
        for t in (0.0, 0.3, 1.0, 2.0, 8.0):
            for x in (2.0, 3.0, 10.0, 1e3):
                worst = max(worst, conical_values(t, x)[1])
        assert worst <= 1e-10

    def test_far_branch_imag_residual_is_zero_on_seam_grid(self):
        # The two-branch form takes twice the real part of one of its two
        # conjugate branches, so it has no imaginary part to report:
        # SpecfunAudit's branch_realness verdict only sees the near-one form.
        ts = np.linspace(0.0, 16.0, 161)
        xs = np.linspace(1.2, 2.8, 50)
        _, far_imag = conical_p_far_branch(ts[:, None], xs)
        assert np.array_equal(far_imag, np.zeros((ts.size, xs.size)))

    def test_small_t_path_accuracy(self):
        # Below the switch the value is interpolated in t^2; check it against
        # the quadrature oracle, which knows nothing of the branch split.
        for t, x in ((5e-4, 2.5), (1e-4, 2.0), (8e-4, 6.0)):
            got, _ = conical_values(t, x)
            assert abs(got - mehler_dirichlet_oracle(t, x)) <= 1e-9

    def test_decay_ratio_small_t(self):
        # At t = 0 the function is positive and monotone, so a quadrupling of
        # x halves it up to a slowly-decaying log correction (within 20%
        # multiplicatively from x around 150 on).
        for x in (200.0, 400.0, 1600.0):
            ratio = conical_values(0.0, 4.0 * x)[0] / conical_values(0.0, x)[0]
            assert 0.8 * 0.5 <= ratio <= 1.2 * 0.5

    def test_decay_envelope_oscillatory_t(self):
        # For t > 0 the function oscillates in log x under a x^{-1/2}
        # envelope; compare suprema of sqrt(x)|P| over two wide log-windows.
        for t in (0.5, 1.0, 2.0):
            def envelope(x_lo, x_hi):
                xs = np.geomspace(x_lo, x_hi, 48)
                return max(math.sqrt(x) * abs(conical_values(t, x)[0]) for x in xs)

            e1 = envelope(1e2, 1e4)
            e2 = envelope(1e4, 1e6)
            assert 0.7 <= e2 / e1 <= 1.43

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            conical_values(-0.1, 2.0)
        with pytest.raises(DomainError):
            conical_values(17.0, 2.0)
        with pytest.raises(DomainError):
            conical_values(1.0, 0.99)
        with pytest.raises(DomainError):
            conical_p_near_one(1.0, 3.5)
        with pytest.raises(DomainError):
            conical_p_far_branch(1.0, 1.0)

    def test_high_t_branches_agree(self):
        near, _ = conical_p_near_one(16.0, 1.5)
        far, _ = conical_p_far_branch(16.0, 1.5)
        assert abs(near - far) <= 1e-8


def mpmath_weighted_error(ts, xs):
    """max sqrt(x) |P_{-1/2+it}(x) - Re P_{-1/2+it}(x)| over the grid ts x xs,
    the first from one array call, the second from mpmath's Legendre function
    of type 3 (the x > 1 branch)."""
    mpmath = pytest.importorskip("mpmath")
    ts = np.asarray(ts, dtype=float)
    xs = np.asarray(xs, dtype=float)
    got, _ = conical_values(ts[:, None], xs)
    worst = 0.0
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            want = float(mpmath.re(mpmath.legenp(-0.5 + 1j * float(t), 0,
                                                 float(x), type=3)))
            worst = max(worst, math.sqrt(x) * abs(got[i, j] - want))
    return worst


class TestConicalMpmath:
    def test_prefactor(self):
        # G(t) = Gamma(-it) / (sqrt(pi) Gamma(1/2 - it)) on the t range the
        # two-branch form evaluates it, T_SWITCH to T_MAX.
        mpmath = pytest.importorskip("mpmath")
        ts = np.union1d(np.geomspace(1e-3, 16.0, 60), np.linspace(0.25, 16.0, 64))
        got = _prefactor(ts)
        worst = 0.0
        with mpmath.workdps(40):
            for t, g in zip(ts, got):
                it = 1j * mpmath.mpf(float(t))
                want = mpmath.gamma(-it) / (mpmath.sqrt(mpmath.pi)
                                            * mpmath.gamma(0.5 - it))
                worst = max(worst, float(abs(mpmath.mpc(g) - want) / abs(want)))
        assert worst <= 1e-13

    def test_t_zero_limit(self):
        # The exact t = 0 limit of the two-branch form, relative to mpmath,
        # out to x = 1e8 where K(m) at m = (x-1)/(x+1) nears its log
        # singularity.
        mpmath = pytest.importorskip("mpmath")
        xs = np.geomspace(1.2, 1e8, 97)
        got, _ = conical_p_far_branch(0.0, xs)
        worst = 0.0
        with mpmath.workdps(40):
            for x, g in zip(xs, got):
                want = mpmath.re(mpmath.legenp(-0.5, 0, mpmath.mpf(float(x)), type=3))
                worst = max(worst, float(abs(g - want) / abs(want)))
        assert worst <= 2e-15

    def test_campaign_domain(self):
        xs = np.union1d(np.linspace(1.0, 3.0, 41), np.geomspace(3.0, 1e4, 40))
        assert mpmath_weighted_error(np.linspace(0.0, 3.0, 13), xs) <= 1e-12

    def test_far_branch_whole_t_range(self):
        # x >= 2, t = 0 (the exact limit) and t in [T_SWITCH, T_MAX].
        ts = [0.0, 1e-3, 0.3, 1.7, 4.2, 7.5, 11.0, 16.0]
        assert mpmath_weighted_error(ts, np.geomspace(2.0, 1e4, 12)) <= 1e-12

    def test_near_one_up_to_t8(self):
        ts = [0.0, 1e-3, 0.9, 2.6, 5.0, 8.0]
        assert mpmath_weighted_error(ts, np.linspace(1.0, 1.99, 12)) <= 1e-12

    def test_below_t_switch(self):
        # The t^2 interpolation through the t = 0 limit (ROADMAP item 4)
        # is off by about 1.3e-10 here; the bound records that, not 1e-12.
        ts = [1e-5, 2e-4, 6e-4, 9.9e-4]
        assert mpmath_weighted_error(ts, np.geomspace(2.0, 1e4, 12)) <= 5e-10

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 4: the fixed seam at x = 2 leaves the near-one series "
        "in cancellation at large t"))
    def test_large_t_below_seam(self):
        assert mpmath_weighted_error([16.0], [1.95]) <= 1e-12


def holder_sup_oracle(ts, xs, values, delta=0.5):
    """The Hoelder quotient sup over every pair of t rows, one pair at a time."""
    weight = xs ** -0.5 * (1.0 + np.log(xs)) ** delta
    holder = 0.0
    for i1 in range(len(ts)):
        for i2 in range(i1 + 1, len(ts)):
            dt = abs(ts[i2] - ts[i1])
            if dt == 0.0:
                continue
            q = np.max(np.abs(values[i2] - values[i1]) / (dt ** delta * weight))
            holder = max(holder, float(q))
    return holder


class TestArrayKernels:
    # t = 0 (limit series), below and at T_SWITCH, up to T_MAX; x = 1, the
    # slow near-one points 1.2 and 1.9, the seam and fast far points.
    TS = np.array([0.0, 5e-4, 1e-3, 0.5, 3.0, 8.0, 16.0])
    XS = np.array([1.0, 1.2, 1.9, 2.0, 2.5, 40.0, 1e4])

    def test_grid_elements_equal_lone_elements(self):
        value, resid = conical_values(self.TS[:, None], self.XS)
        assert value.shape == resid.shape == (self.TS.size, self.XS.size)
        for i, t in enumerate(self.TS):
            for j, x in enumerate(self.XS):
                v, r = conical_values(t, x)
                assert v == value[i, j] and r == resid[i, j]

    def test_elements_independent_across_blocks(self):
        # More points than one pass through the series takes.
        ts = np.linspace(0.0, 3.0, 41)
        xs = np.geomspace(1.0, 1e4, 120)
        value, _ = conical_values(ts[:, None], xs)
        for i, j in ((0, 0), (7, 3), (20, 60), (33, 100), (40, 119)):
            assert conical_values(ts[i], xs[j])[0] == value[i, j]

    def test_hyp2f1_elements_independent(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        z = rng.uniform(-0.85, 0.85, 30)
        z[[4, 11]] = [0.0, 1e-9]
        grid = hyp2f1(a, b, 1.5, z)
        for k in range(30):
            assert hyp2f1(a[k], b[k], 1.5, z[k]) == grid[k]

    def test_forced_forms_equal_conical_values(self):
        # A grid on both sides of the seam at x = 2: each forced form gives
        # the bits conical_values gives where it picks that form, and each
        # element of a forced grid call the bits of its lone call.
        ts = np.array([0.0, 5e-4, 1e-3, 0.5, 2.0, 16.0])
        xs = np.array([1.0, 1.2, 1.9, 2.0, 2.5, 2.8])
        value, resid = conical_values(ts[:, None], xs)
        near, near_imag = conical_p_near_one(ts[:, None], xs)
        far, far_imag = conical_p_far_branch(ts[:, None], xs[1:])
        below = xs < 2.0
        assert np.array_equal(near[:, below], value[:, below])
        assert np.array_equal(near_imag[:, below], resid[:, below])
        assert np.array_equal(far[:, ~below[1:]], value[:, ~below])
        assert np.array_equal(far_imag[:, ~below[1:]], resid[:, ~below])
        for i, t in enumerate(ts):
            for j, x in enumerate(xs):
                v, r = conical_p_near_one(t, x)
                assert np.ndim(v) == 0 and v == near[i, j] and r == near_imag[i, j]
                if x > 1.0:
                    v, r = conical_p_far_branch(t, x)
                    assert np.ndim(v) == 0
                    assert v == far[i, j - 1] and r == far_imag[i, j - 1]

    def test_scalar_in_scalar_out(self):
        assert np.ndim(hyp2f1(1.0, 1.0, 2.0, 0.5)) == 0
        value, resid = conical_values(1.0, 3.0)
        assert np.ndim(value) == 0 and np.ndim(resid) == 0

    def test_zero_argument_elements_are_exactly_one(self):
        val = hyp2f1([0.3 + 1j, 2.0, -1.5j], 1.5, 2.5, [0.0, 0.4, 0.0])
        assert val[0] == 1.0 and val[2] == 1.0 and val[1] != 1.0

    def test_one_bad_element_raises(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, [2.0, 1.5, -3.0], 0.3)
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, [0.1, 0.95, 0.2])
        with pytest.raises(DomainError):
            conical_values([0.5, -1e-3], 2.0)
        with pytest.raises(DomainError):
            conical_values([0.5, 16.5], 2.0)
        with pytest.raises(DomainError):
            conical_values(1.0, [3.0, 0.999, 1e3])
        with pytest.raises(DomainError):
            conical_p_near_one(1.0, [1.5, 3.0])
        with pytest.raises(DomainError):
            conical_p_far_branch(1.0, [1.0, 2.0])

    def test_mixed_convergence_elements_equal_lone_elements(self):
        # Elements that stop after a few terms beside elements that need
        # hundreds: finished elements stay in the working arrays until a
        # quarter of them has finished, and no element's bits may notice.
        rng = np.random.default_rng(25)
        ts = rng.permutation(np.linspace(0.0, 16.0, 120))
        zs = np.geomspace(1e-6, 0.9, 120) * np.where(np.arange(120) % 2, 1.0, -1.0)
        a, b = 0.5 - 1j * ts, 0.5 + 1j * ts
        steps = np.array([stopping_step(ak, bk, 1.0, zk)
                          for ak, bk, zk in zip(a, b, zs)])
        assert steps.min() <= 8 and steps.max() >= 300
        # On most steps where elements finish, they are under a quarter of
        # the unfinished ones, so the working arrays are not compacted then.
        finish_steps, finished = np.unique(steps, return_counts=True)
        unfinished = np.array([np.sum(steps >= n) for n in finish_steps])
        assert np.mean(4 * finished < unfinished) > 0.8
        grid = hyp2f1(a, b, 1.0, zs)
        for k in range(ts.size):
            assert hyp2f1(a[k], b[k], 1.0, zs[k]) == grid[k]

    def test_overflow_in_one_element_of_many_raises(self):
        z = np.full(500, 0.5)
        a = np.full(500, 1.5 + 0.5j)
        a[250] = 1e200
        with pytest.raises(ConvergenceError) as err:
            hyp2f1(a, a, 1.5, z)
        with pytest.raises(ConvergenceError) as lone:
            hyp2f1(a[250], a[250], 1.5, z[250])
        assert err.value.last_term == lone.value.last_term

    def test_finished_element_that_would_overflow_later_does_not_raise(self):
        # b = -1 ends the series after one term; the factor (a+n)(b+n) of
        # a = 1e307 overflows some twenty steps later, while the slow
        # elements still run and the finished one is not yet dropped.
        a = np.concatenate([[1e307], np.full(9, 0.5 - 8j)])
        b = np.concatenate([[-1.0], np.full(9, 0.5 + 8j)])
        z = np.concatenate([[0.5], np.full(9, -0.9)])
        grid = hyp2f1(a, b, 1.5, z)
        assert grid[0] == hyp2f1(1e307, -1.0, 1.5, 0.5)
        assert grid[0] == 1.0 - 1e307 / 3.0
        assert grid[1] == hyp2f1(a[1], b[1], 1.5, z[1])

    def test_nonconvergence_in_array_carries_last_term(self):
        with pytest.raises(ConvergenceError) as err:
            hyp2f1([1.0, 5000.0], [1.0, 2000.0], 1.5, [0.5, 0.9])
        assert err.value.last_term > 0

    def test_row_loop_holder_matches_pair_loop(self):
        ts = np.linspace(0.0, 3.0, 30)
        xs = np.geomspace(1.0, 1e4, 40)
        values, _ = conical_values(ts[:, None], xs)
        rep = check_conical_bounds(3.0, xs, n_t=30)
        want = holder_sup_oracle(ts, xs, values)
        assert abs(rep.holder_sup - want) <= 1e-14 * want
        assert rep.uniform_sup == float(np.max(np.sqrt(xs) * np.abs(values)))


class TestBoundReport:
    def test_report_finite_and_stable(self):
        # The Hoelder-quotient sup is attained near a t-separation of order
        # 2/log(x_max); the t grid must resolve that scale before the
        # estimate stabilizes, hence the fine grids here.
        rep1 = check_conical_bounds(3.0, np.geomspace(1.0, 1e4, 120), n_t=62)
        rep2 = check_conical_bounds(3.0, np.geomspace(1.0, 1e4, 240), n_t=124)
        assert np.isfinite(rep1.uniform_sup) and np.isfinite(rep1.holder_sup)
        assert abs(rep2.uniform_sup - rep1.uniform_sup) <= 0.05 * rep1.uniform_sup
        assert abs(rep2.holder_sup - rep1.holder_sup) <= 0.05 * rep1.holder_sup

    def test_single_sample_at_one(self):
        rep = check_conical_bounds(2.0, [1.0], n_t=4)
        assert rep.uniform_sup == 1.0

    def test_empty_samples_rejected(self):
        with pytest.raises(DomainError):
            check_conical_bounds(1.0, [])

    def test_samples_below_one_rejected(self):
        with pytest.raises(DomainError):
            check_conical_bounds(1.0, [0.5, 2.0])


def test_import_leaves_scipy_special_unloaded():
    # _prefactor imports scipy.special itself; loading the package must not.
    src = os.path.dirname(os.path.dirname(os.path.abspath(specdiff.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, specdiff, specdiff.acceptance; "
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
