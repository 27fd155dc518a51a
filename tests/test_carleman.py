"""Tests for the kernel-operator layer.

Quadrature oracles: scipy adaptive quadrature for the partial-fraction
identity behind the squared kernel, matrix squaring for the operator-square
consistency, and brute-force outer products for the model spectrum.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from specdiff.carleman import (
    KernelKind,
    Scheme,
    carleman_squared,
    composite_graded_grid,
    gamma_matrix,
    gauss_legendre_grid,
    half_carleman,
    mehler_eigenfunction,
    mehler_residual,
    model_operator,
)
from specdiff.errors import ContractViolationError, DomainError


class TestGrids:
    def test_gauss_legendre_invariants(self):
        g = gauss_legendre_grid(2.5, 64)
        assert abs(g.weights.sum() - 2.5) <= 1e-12 * 2.5
        assert np.all(np.diff(g.nodes) > 0)
        assert 0 < g.nodes[0] and g.nodes[-1] < 2.5

    def test_graded_invariants(self):
        g = composite_graded_grid(1.0, panels=20, order=10)
        assert g.n == 200
        assert abs(g.weights.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] > 0
        # the mesh really grades geometrically toward 0
        assert g.nodes[0] < 2.0 ** -19

    def test_graded_divisibility_guard(self):
        with pytest.raises(DomainError):
            half_carleman(1.0, 405, scheme=Scheme.COMPOSITE_GRADED)

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            composite_graded_grid(1.0, panels=1)
        with pytest.raises(DomainError):
            composite_graded_grid(-1.0)
        with pytest.raises(DomainError):
            half_carleman(1.0, 3)


class TestHalfCarleman:
    def test_matrix_symmetric_exactly(self):
        op = half_carleman(1.0, 60)
        assert np.array_equal(op.matrix, op.matrix.T)

    def test_spectrum_in_unit_interval(self):
        for a in (0.5, 1.0, 4.0):
            for n, scheme in ((100, Scheme.GAUSS_LEGENDRE),
                              (400, Scheme.GAUSS_LEGENDRE),
                              (400, Scheme.COMPOSITE_GRADED)):
                ev = half_carleman(a, n, scheme=scheme).eigenvalues()
                assert ev[0] >= -1e-8
                assert ev[-1] <= 1.0 + 1e-8

    def test_scale_invariance_entrywise(self):
        # The kernel is homogeneous of degree -1, so rescaling the interval
        # is a unitary change of variables: spectra agree entry by entry.
        for scheme in (Scheme.GAUSS_LEGENDRE, Scheme.COMPOSITE_GRADED):
            e1 = half_carleman(1.0, 200, scheme=scheme).eigenvalues()
            e2 = half_carleman(2.0, 200, scheme=scheme).eigenvalues()
            assert np.abs(e1 - e2).max() <= 1e-6

    def test_graded_mesh_reaches_top_of_band(self):
        ev = half_carleman(1.0, 400, scheme=Scheme.COMPOSITE_GRADED).eigenvalues()
        assert ev[-1] >= 0.95


class TestCarlemanSquared:
    def test_diagonal_closed_form(self):
        a = 1.3
        op = carleman_squared(a, 50)
        x = op.grid.nodes
        want = a / (x * (x + a)) / math.pi ** 2
        got = np.diag(op.matrix) / op.grid.weights
        assert np.abs(got - want).max() <= 1e-12 * want.max()
        # continuity of the off-diagonal form into the diagonal, at x = a
        eps = 1e-7
        off = math.log((a + eps) * 2 * a / (a * (2 * a + eps))) / eps / math.pi ** 2
        assert abs(off - 1.0 / (2 * a) / math.pi ** 2) <= 1e-6

    def test_offdiagonal_against_quadrature(self):
        a = 1.0
        rng = np.random.default_rng(2)
        for _ in range(20):
            x, y = rng.uniform(0.05, a, size=2)
            if abs(x - y) < 1e-3:
                continue
            want, err = quad(lambda s: 1.0 / ((x + s) * (y + s)), 0.0, a,
                             epsabs=1e-13, epsrel=1e-13)
            assert err < 1e-12
            got = math.log(y * (x + a) / (x * (y + a))) / (y - x)
            assert abs(got - want) <= 1e-10

    def test_operator_square_consistency(self):
        # The closed-form kernel and the square of the discretized operator
        # agree where the mesh resolves; the matrix-norm difference is pinned
        # to the x, y -> 0 corner (the closed form blows up like 1/x there)
        # and decays slowly, while the spectra agree much faster.
        mat_errs, eig_errs = [], []
        for n in (200, 400):
            sq = carleman_squared(1.0, n, scheme=Scheme.COMPOSITE_GRADED)
            half = half_carleman(1.0, n, scheme=Scheme.COMPOSITE_GRADED)
            diff = np.linalg.norm(sq.matrix - half.matrix @ half.matrix)
            mat_errs.append(diff / np.linalg.norm(sq.matrix))
            e1 = np.linalg.eigvalsh(sq.matrix)
            e2 = np.sort(np.linalg.eigvalsh(half.matrix) ** 2)
            eig_errs.append(np.abs(e1 - e2).max())
        assert eig_errs[-1] <= 1e-2
        assert eig_errs[1] < eig_errs[0]
        assert mat_errs[1] < mat_errs[0]

    def test_kind_tag(self):
        assert carleman_squared(1.0, 20).kind is KernelKind.CARLEMAN_SQUARED

    def test_positive_semidefinite(self):
        for scheme in (Scheme.GAUSS_LEGENDRE, Scheme.COMPOSITE_GRADED):
            ev = carleman_squared(1.0, 200, scheme=scheme).eigenvalues()
            assert ev[0] >= -1e-10
            assert ev[-1] <= 1.0 + 1e-10


class TestMehler:
    def test_value_at_right_endpoint_formula(self):
        # f_t(a) = P(1)/a = 1/a; realized through the same evaluation path.
        a = 2.0
        from specdiff.specfun import conical_p
        assert conical_p(1.0, a / a).value / a == 1.0 / a

    def test_eigenvalue_decays_in_t(self):
        assert 1.0 / math.cosh(math.pi * 4.0) <= 1e-5

    def test_residual_on_graded_mesh(self):
        a = 1.0
        xs = np.linspace(0.2, 0.8, 9)
        grid = composite_graded_grid(a, panels=40, order=10)
        for t in (0.5, 1.0):
            r = mehler_residual(a, t, grid, xs)
            assert r.max() <= 1e-3

    def test_residual_decreases_under_panel_refinement(self):
        a, t = 1.0, 2.0
        xs = np.linspace(0.2, 0.8, 9)
        resids = [mehler_residual(a, t, composite_graded_grid(a, panels=p, order=10), xs).max()
                  for p in (20, 40, 80)]
        assert resids[0] <= 1e-3
        assert resids[1] <= resids[0] * 1.1
        assert resids[2] <= resids[1] * 1.1

    def test_t_domain_guard(self):
        grid = composite_graded_grid(1.0, panels=10, order=4)
        with pytest.raises(DomainError):
            mehler_eigenfunction(1.0, 0.0, grid)
        with pytest.raises(DomainError):
            mehler_eigenfunction(1.0, 17.0, grid)


class TestGammaMatrix:
    def test_identity_scattering_gives_zero(self):
        g = gamma_matrix(np.eye(2, dtype=complex))
        assert np.abs(g.matrix).max() == 0.0
        assert np.all(g.kappa_sq == 0.0)

    def test_minus_identity_gives_identity(self):
        g = gamma_matrix(-np.eye(3, dtype=complex))
        assert np.abs(g.matrix - np.eye(3)).max() <= 1e-15
        assert np.abs(g.kappa_sq - 1.0).max() <= 1e-15

    def test_diagonal_phases(self):
        s0 = np.diag(np.exp(1j * np.array([math.pi / 3, math.pi / 2])))
        g = gamma_matrix(s0)
        assert np.abs(np.sort(g.kappa_sq) - np.array([0.25, 0.5])).max() <= 1e-14

    def test_two_factorizations_agree(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        thetas = rng.uniform(-math.pi, math.pi, 4)
        s0 = q @ np.diag(np.exp(1j * thetas)) @ q.T      # symmetric unitary
        g = gamma_matrix(s0)
        alt = 0.25 * (s0 - np.eye(4)) @ (s0.conj().T - np.eye(4))
        assert np.abs(g.matrix - alt.real).max() <= 1e-12
        assert np.abs(alt.imag).max() <= 1e-12
        want = np.sort(np.sin(thetas / 2.0) ** 2)
        assert np.abs(np.sort(g.kappa_sq) - want).max() <= 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(ContractViolationError):
            gamma_matrix(np.eye(2) * 1.5)


class TestModelOperator:
    def test_zero_factor_gives_zero_operator(self):
        csq = carleman_squared(1.0, 30)
        g = gamma_matrix(np.eye(2, dtype=complex))
        model = model_operator(csq, g)
        assert np.abs(model.matrix).max() == 0.0

    def test_product_spectrum_identity(self):
        csq = carleman_squared(1.0, 40)
        s0 = np.diag(np.exp(1j * np.array([math.pi / 3, math.pi / 2])))
        g = gamma_matrix(s0)
        model = model_operator(csq, g)
        got = np.sort(model.eigenvalues())
        mu = np.linalg.eigvalsh(csq.matrix)
        want = np.sort(np.outer(mu, g.kappa_sq).ravel())
        assert np.abs(got - want).max() <= 1e-10

    def test_top_eigenvalue_is_product_of_maxima(self):
        csq = carleman_squared(1.0, 40)
        g = gamma_matrix(np.diag(np.exp(1j * np.array([2.0, 0.7]))))
        model = model_operator(csq, g)
        top = model.eigenvalues()[-1]
        want = np.linalg.eigvalsh(csq.matrix)[-1] * g.kappa_sq.max()
        assert abs(top - want) <= 1e-12

    def test_wrong_factor_kind_rejected(self):
        half = half_carleman(1.0, 20)
        g = gamma_matrix(np.eye(2, dtype=complex))
        with pytest.raises(ContractViolationError):
            model_operator(half, g)

