"""The box layer's dense oracle: a tridiagonal as an n x n matrix, and the
orthogonal projection onto its eigenvectors below a level from LAPACK's
full symmetric eigensolver."""

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
