"""The box layer's dense oracle: a tridiagonal as an n x n matrix, the
orthogonal projection onto its eigenvectors below a level from LAPACK's
full symmetric eigensolver, and the compressions of a pair of
projections."""

import numpy as np
from scipy.linalg import eigh


def dense_tridiagonal(diag, off):
    """The symmetric n x n matrix with diagonal ``diag`` and off-diagonal
    ``off``."""
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def projection_below(matrix, level):
    """The orthogonal projection onto the eigenvectors of the symmetric
    ``matrix`` with eigenvalues below ``level``."""
    values, vectors = eigh(matrix)
    below = vectors[:, values < level]
    return below @ below.T


def compressions(p, p0):
    """M+ = (I-P0) P (I-P0) and M- = P0 (I-P) P0 for n x n projections."""
    eye = np.eye(p.shape[0])
    return (eye - p0) @ p @ (eye - p0), p0 @ (eye - p) @ p0
