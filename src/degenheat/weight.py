"""Degenerate power-law diffusion weights.

Two admissible weight families are supported: an axis weight |x1|^alpha and a
radial weight |x|^alpha.  Both degenerate on a set of measure zero (a
hyperplane or the origin) while staying inside the Muckenhoupt range that
keeps the associated heat kernel two-sided bounds valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError


class WeightCase(Enum):
    AXIS_POWER = "axis_power"
    RADIAL_POWER = "radial_power"


def _sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class WeightSpec:
    """A degenerate diffusion weight: axis |x1|^alpha or radial |x|^alpha."""

    case: WeightCase
    alpha: float
    dim: int = 1

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ConfigError(f"dim must be a positive integer, got {self.dim!r}")
        a = self.alpha
        if self.case is WeightCase.AXIS_POWER:
            hi = 1.0 if self.dim <= 2 else 2.0 / self.dim
        elif self.case is WeightCase.RADIAL_POWER:
            hi = 1.0
        else:
            raise ConfigError(f"unknown weight case {self.case!r}")
        if not (0.0 <= a < hi):
            raise ConfigError(
                f"alpha={a} out of range [0, {hi}) for {self.case.value} in dim {self.dim}"
            )

    @property
    def scaling_exponent(self) -> float:
        """Exponent 2 - alpha governing the space-time scaling r ~ t^(1/(2-alpha))."""
        return 2.0 - self.alpha
