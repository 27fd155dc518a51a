"""Kernel operators on (0, a): the half-Carleman operator, its square, and
the model operator built from a scattering matrix.

All integral operators are discretized in symmetrized Nystroem form

    A_ij = sqrt(w_i) K(x_i, x_j) sqrt(w_j)

so the matrix is exactly symmetric whenever the kernel is, and its spectrum
approximates the operator's spectrum in L^2(0, a).

Kernels:
    half-Carleman      K(x, y) = 1 / (pi (x + y)),       spectrum in [0, 1]
    its square         K(x, y) = (1/pi^2) log(y(x+a) / (x(y+a))) / (y - x)
                       (diagonal limit (1/pi^2) a / (x (x+a)))
    model              kron(C^2, G) for a PSD factor G built from a unitary.

The kernel builders take the quadrature grid from the caller: a single
Gauss-Legendre rule (``gauss_legendre_grid``) or a geometrically graded
composite Gauss mesh toward 0 (``composite_graded_grid``).

Eigenfunctions: f_t(u) = P_{-1/2+it}(a/u) / u satisfies
(1/pi) int_0^a f_t(v) / (x + v) dv = f_t(x) / cosh(pi t), the generalized
eigenfunction relation of the half-Carleman operator at eigenvalue
1/cosh(pi t).  Since f_t(u) ~ u^{-1/2} log u near 0, quadrature for this
relation uses the graded mesh.  ``mehler_residual`` takes a scalar t or an
array of t; an array goes through the conical series in one pass, one row
of residuals per t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError
from .specfun import T_MAX, conical_values

__all__ = [
    "QuadratureGrid",
    "KernelKind",
    "KernelOperator",
    "GammaMatrix",
    "gauss_legendre_grid",
    "composite_graded_grid",
    "half_carleman",
    "carleman_squared",
    "mehler_residual",
    "gamma_matrix",
    "model_operator",
]


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights on (0, a); weights sum to a, nodes strictly inside."""

    a: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.a <= 0:
            raise DomainError(f"grid endpoint a={self.a} must be positive")
        if abs(self.weights.sum() - self.a) > 1e-12 * self.a:
            raise DomainError("quadrature weights do not sum to the interval length")
        if np.any(np.diff(self.nodes) <= 0):
            raise DomainError("quadrature nodes must be strictly increasing")
        if self.nodes[0] <= 0 or self.nodes[-1] >= self.a:
            raise DomainError("quadrature nodes must lie strictly inside (0, a)")

    @property
    def n(self) -> int:
        return self.nodes.size


def gauss_legendre_grid(a: float, n: int) -> QuadratureGrid:
    if n < 4:
        raise DomainError("gauss_legendre_grid needs n >= 4")
    xi, w = leggauss(n)
    return QuadratureGrid(a, a * (xi + 1.0) / 2.0, a * w / 2.0)


def composite_graded_grid(a: float, panels: int = 20,
                          order: int = 10) -> QuadratureGrid:
    """Geometrically graded composite Gauss mesh with the finest panels
    accumulating at 0: panel edges a 2^-j, and the closing panel
    [0, a 2^-(panels-1)] absorbs the endpoint singularity."""
    if panels < 2 or order < 2:
        raise DomainError("graded grid needs panels >= 2 and order >= 2")
    edges = [0.0] + [a * 0.5 ** j for j in range(panels - 1, -1, -1)]
    xi, w = leggauss(order)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = (hi - lo) / 2.0
        nodes.append(half * (xi + 1.0) + lo)
        weights.append(half * w)
    return QuadratureGrid(a, np.concatenate(nodes), np.concatenate(weights))


class KernelKind(Enum):
    HALF_CARLEMAN = "HalfCarleman"
    CARLEMAN_SQUARED = "CarlemanSquared"
    MODEL = "Model"


@dataclass(frozen=True)
class KernelOperator:
    """Symmetrized Nystroem discretization of an integral operator."""

    grid: QuadratureGrid
    matrix: np.ndarray
    kind: KernelKind

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def _symmetrize(grid: QuadratureGrid, kernel_values: np.ndarray) -> np.ndarray:
    # Scaling by the outer product w_i^1/2 w_j^1/2 (itself exactly symmetric)
    # keeps the matrix bit-for-bit symmetric whenever the kernel values are.
    sw = np.sqrt(grid.weights)
    return np.outer(sw, sw) * kernel_values


def half_carleman(grid: QuadratureGrid) -> KernelOperator:
    """Discretize the kernel 1/(pi (x+y)) on (0, grid.a) at the nodes of the
    caller's grid.

    A graded mesh resolves the logarithmic accumulation of spectrum near the
    top of the band far better than a single Gauss rule of equal size.
    """
    x = grid.nodes
    K = 1.0 / (math.pi * (x[:, None] + x[None, :]))
    return KernelOperator(grid, _symmetrize(grid, K), KernelKind.HALF_CARLEMAN)


def carleman_squared(grid: QuadratureGrid) -> KernelOperator:
    """Discretize the closed-form kernel of the squared half-Carleman operator
    on (0, a), a = grid.a.

    Off the diagonal the x-y integral collapses by partial fractions to
    (1/pi^2) log(y(x+a)/(x(y+a))) / (y-x); on the diagonal it degenerates to
    (1/pi^2) a / (x(x+a)).
    """
    a, x = grid.a, grid.nodes
    X, Y = np.meshgrid(x, x, indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.log(Y * (X + a) / (X * (Y + a))) / (Y - X)
    diag = a / (x * (x + a))
    np.fill_diagonal(K, diag)
    K /= math.pi ** 2
    # The log/(y-x) form loses symmetry only at rounding level; average it away.
    K = 0.5 * (K + K.T)
    return KernelOperator(grid, _symmetrize(grid, K), KernelKind.CARLEMAN_SQUARED)


def _mehler_samples(a: float, t, u: np.ndarray) -> np.ndarray:
    """Samples of f_t(u) = P_{-1/2+it}(a/u)/u, the generalized eigenfunction
    of the half-Carleman operator on (0, a) with eigenvalue 1/cosh(pi t):
    one row per entry of t (shape t.shape + u.shape), from one conical
    evaluation over all of them."""
    t = np.asarray(t, dtype=float)
    outside = ~((0.0 < t) & (t <= T_MAX))
    if outside.any():
        raise DomainError(f"Mehler eigenfunction: t={t[outside].flat[0]} "
                          f"outside (0, {T_MAX:g}]")
    return conical_values(t[..., None], a / u)[0] / u


def mehler_residual(a: float, t, grid: QuadratureGrid,
                    eval_points) -> np.ndarray:
    """Relative residual |(C f_t)(x) - f_t(x)/cosh(pi t)| / |f_t(x)| at the
    given interior points, with (C f_t) evaluated by quadrature on the grid.

    ``t`` is a scalar or an array; the result has shape t.shape +
    (points,), and each row holds the bits of its scalar-t call."""
    xs = np.atleast_1d(np.asarray(eval_points, dtype=float))
    t = np.asarray(t, dtype=float)
    samples = _mehler_samples(a, t, np.concatenate([grid.nodes, xs]))
    f, fx = samples[..., :grid.n], samples[..., grid.n:]
    cf = np.sum(grid.weights * f[..., None, :] / (xs[:, None] + grid.nodes),
                axis=-1) / math.pi
    # math.cosh per entry, as a scalar-t call takes it.
    cosh = np.array([math.cosh(math.pi * s) for s in t.flat]).reshape(t.shape)
    return np.abs(cf - fx / cosh[..., None]) / np.abs(fx)


@dataclass(frozen=True)
class GammaMatrix:
    """The PSD factor (I - Re S)/2 of a unitary matrix S; eigenvalues are the
    squared band radii sin^2(theta_n / 2)."""

    dim: int
    matrix: np.ndarray
    kappa_sq: np.ndarray        # eigenvalues, sorted descending


def gamma_matrix(s0: np.ndarray, unitarity_tol: float = 1e-8) -> GammaMatrix:
    """Build (I - Re S)/2 = (S - I)(S* - I)/4 from a unitary S.

    For a complex-symmetric S (time-reversal invariant scattering) the result
    is real symmetric; that realness is enforced here because downstream
    consumers store a real matrix.
    """
    s0 = np.asarray(s0, dtype=complex)
    if s0.ndim != 2 or s0.shape[0] != s0.shape[1]:
        raise DomainError("gamma_matrix: S must be square")
    dim = s0.shape[0]
    defect = np.linalg.norm(s0.conj().T @ s0 - np.eye(dim))
    if defect > unitarity_tol:
        raise DomainError(
            f"gamma_matrix: input not unitary (defect {defect:.3e} > {unitarity_tol:.1e})")
    g = 0.5 * (np.eye(dim) - 0.5 * (s0 + s0.conj().T))
    if np.abs(g.imag).max() > 1e-10:
        raise DomainError(
            "gamma_matrix: Hermitian factor is not real; supply a symmetric unitary")
    gr = g.real.copy()
    gr = 0.5 * (gr + gr.T)
    kappa_sq = np.sort(np.linalg.eigvalsh(gr))[::-1]
    return GammaMatrix(dim=dim, matrix=gr, kappa_sq=kappa_sq)


def model_operator(csq: KernelOperator, gamma: GammaMatrix) -> KernelOperator:
    """Kronecker product of the squared-kernel discretization with the
    scattering factor; its spectrum is the set of pairwise eigenvalue
    products of the two factors."""
    if csq.kind is not KernelKind.CARLEMAN_SQUARED:
        raise DomainError("model_operator expects a CarlemanSquared factor")
    return KernelOperator(csq.grid, np.kron(csq.matrix, gamma.matrix),
                          KernelKind.MODEL)

