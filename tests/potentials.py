"""Test-only potentials shared by several test modules."""

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
