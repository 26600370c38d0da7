"""Spatial grids, nodal fields, and initial-data profiles.

The solver works on a uniform 1-D grid: either a truncated line [-L, L] with a
node exactly at the degeneracy point x = 0, or a radial interval [0, R] that
represents a radially symmetric function in N dimensions.  A line's nodes are
exactly mirror-symmetric, and its nodes x >= 0 are those of the radial N = 1
grid on [0, L]: ``semigroup`` folds the flows of even line data onto it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigError
from .weight import WeightCase, WeightSpec


def _sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


class Geometry(Enum):
    LINE = "line"
    RADIAL = "radial"


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-extent, extent] (line) or [0, extent] (radial)."""

    geometry: Geometry
    extent: float
    nodes: int
    dim: int = 1

    def __post_init__(self):
        if not 0.0 < self.extent < math.inf:
            raise ConfigError(f"extent must be finite and positive, got {self.extent}")
        if self.nodes < 3:
            raise ConfigError(f"need at least 3 nodes, got {self.nodes}")
        if self.geometry is Geometry.LINE:
            if self.dim != 1:
                raise ConfigError("line geometry is one-dimensional")
            if self.nodes % 2 == 0:
                raise ConfigError("line geometry needs an odd node count so x=0 is a node")
        elif self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")

    @property
    def lower(self) -> float:
        """Left end of the domain: -extent on a line, the center radially."""
        return -self.extent if self.geometry is Geometry.LINE else 0.0

    @property
    def spacing(self) -> float:
        return (self.extent - self.lower) / (self.nodes - 1)

    def positions(self) -> np.ndarray:
        """Node positions.  A line mirrors its nodes x >= 0, so x_{-i} = -x_i
        exactly, and those nodes are the radial grid's on [0, extent]."""
        if self.geometry is Geometry.RADIAL:
            return np.linspace(0.0, self.extent, self.nodes)
        right = np.linspace(0.0, self.extent, (self.nodes + 1) // 2)
        return np.concatenate((-right[:0:-1], right))

    def radii(self) -> np.ndarray:
        """Distance of each node from the degeneracy center."""
        return np.abs(self.positions())

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(inner, outer) end of each node's cell, clipped to the domain."""
        x, h = self.positions(), self.spacing
        return np.maximum(x - h / 2.0, self.lower), np.minimum(x + h / 2.0, self.extent)

    def node_volumes(self) -> np.ndarray:
        """Quadrature weights turning nodal values into integrals over R^N."""
        inner, outer = self.cells()
        if self.geometry is Geometry.LINE:
            return outer - inner
        n = self.dim
        return _sphere_area(n) / n * (outer ** n - inner ** n)

    def check_weight(self, weight: WeightSpec) -> None:
        """Raise ConfigError unless ``weight`` can be discretized on this grid."""
        if self.geometry is Geometry.LINE:
            if weight.dim != 1:
                raise ConfigError("line geometry requires a one-dimensional weight")
        elif weight.case is not WeightCase.RADIAL_POWER:
            raise ConfigError("radial geometry requires the radial power weight")
        elif weight.dim != self.dim:
            raise ConfigError("grid and weight dimensions differ")

    def refined(self) -> "GridSpec":
        """One refinement notch: halve the spacing, keep the extent."""
        return GridSpec(self.geometry, self.extent, 2 * self.nodes - 1, self.dim)


def volume_sum(values: np.ndarray, volumes: np.ndarray) -> float:
    """sum_i values_i volumes_i by ``einsum``: one summation order whatever the
    BLAS thread count, where a threaded ``dot`` would round differently."""
    return float(np.einsum("i,i->", values, volumes))


@dataclass
class Field:
    """A nodal function on a grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nodes,):
            raise ConfigError(
                f"field has {self.values.shape} values for a {self.grid.nodes}-node grid"
            )
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("field values must be finite")

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    def mass(self) -> float:
        return volume_sum(self.values, self.grid.node_volumes())


@dataclass(frozen=True)
class InitialProfile:
    """Recipe for initial data, realizable on any grid.

    Kinds: ``gaussian`` (amplitude, sigma), ``constant`` (amplitude),
    ``power_tail`` amplitude*(1+|x|)^(-rho) with rho >= 0.
    """

    kind: str
    amplitude: float = 1.0
    sigma: float = 1.0
    rho: float = 0.5

    def __post_init__(self):
        if self.kind not in ("gaussian", "constant", "power_tail"):
            raise ConfigError(f"unknown profile kind {self.kind!r}")
        # "not" tests, so that NaN is rejected too
        if not 0.0 <= self.amplitude < math.inf:
            raise ConfigError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        # each kind checks only the parameters it reads
        if self.kind == "gaussian" and not (0.0 < self.sigma
                                            and 0.0 < self._two_sigma_sq() < math.inf):
            raise ConfigError(f"sigma must be positive, with 2*sigma**2 a positive "
                              f"finite float, got {self.sigma}")
        # the paper's data are bounded: (1+|x|)^(-rho) grows when rho < 0
        if self.kind == "power_tail" and not 0.0 <= self.rho < math.inf:
            raise ConfigError(f"rho must be finite and >= 0, got {self.rho}")

    def _two_sigma_sq(self) -> float:
        """A gaussian's 2 sigma^2, inf where it overflows a float."""
        try:
            return 2.0 * self.sigma ** 2
        except OverflowError:
            return math.inf

    def scaled(self, factor: float) -> "InitialProfile":
        return replace(self, amplitude=self.amplitude * factor)

    def realize(self, grid: GridSpec) -> Field:
        r = grid.radii()
        if self.kind == "gaussian":
            # a tiny sigma leaves a spike at r = 0: r**2 / (2 sigma^2) overflows to inf
            with np.errstate(over="ignore"):
                vals = self.amplitude * np.exp(-(r ** 2) / self._two_sigma_sq())
        elif self.kind == "constant":
            vals = np.full(grid.nodes, self.amplitude)
        else:
            vals = self.amplitude * (1.0 + r) ** (-self.rho)
        return Field(grid, vals)
