"""specdiff: a numerical laboratory for the spectrum of spectral-projection
differences.

The library builds, at desk scale, the objects that connect perturbation
theory to scattering theory in one dimension: conical Legendre functions and
the half-Carleman kernel operator they diagonalize, the model operator
(squared kernel tensored with a scattering-matrix factor), finite-box
Schroedinger Hamiltonians with the spectra of their projection difference,
and the 2x2 scattering matrix computed by two independent routes.  The
``experiments`` module orchestrates verification campaigns over these pieces
and the ``cli`` module exposes them as subcommands.
"""

from . import carleman, errors, experiments, scattering, schrodinger1d, specfun

__all__ = ["specfun", "carleman", "schrodinger1d", "scattering",
           "experiments", "errors"]
__version__ = "0.1.0"
