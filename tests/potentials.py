"""Test-only potentials shared by several test modules."""

import math
from dataclasses import dataclass

import numpy as np

from specdiff.schrodinger1d import Potential


@dataclass(frozen=True)
class ShiftedWell(Potential):
    """Square well centered at an arbitrary point; used to pin the channel
    ordering conventions, which parity-even benchmarks cannot distinguish,
    and as a box that is not mirror-symmetric."""

    depth: float = -2.0
    half_width: float = 1.0
    center: float = 0.0

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


@dataclass(frozen=True)
class SkewedGaussian(Potential):
    """V(x) = -3 exp(-(x - 0.6)^2) (1 + 0.3 x): smooth, neither even nor
    piecewise constant, and so not mirror-symmetric on any box."""

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        out = -3.0 * np.exp(-(xs - 0.6) ** 2) * (1.0 + 0.3 * xs)
        return out if np.ndim(x) else float(out)

    def max_abs(self):
        # the maximum sits near x = 0.72; sample densely around it
        return float(np.abs(self(np.linspace(-2.0, 3.0, 50001))).max())

    def effective_support(self, tol=1e-10):
        # |V| <= 3 exp(-(|x| - 0.6)^2 + 0.3 |x|), since 1 + y <= e^y
        return 0.75 + math.sqrt(0.2025 + math.log(3.0 / tol))
