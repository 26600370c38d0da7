"""Shared builders for the test suite."""

import math

import pytest

import degenheat.semigroup as semigroup
from degenheat.grids import Field, Geometry, GridSpec, InitialProfile
from degenheat.weight import WeightCase, WeightSpec


def line_grid(extent: float, nodes: int) -> GridSpec:
    return GridSpec(Geometry.LINE, extent, nodes)


def radial_grid(extent: float, nodes: int, dim: int) -> GridSpec:
    return GridSpec(Geometry.RADIAL, extent, nodes, dim)


def axis_weight(alpha: float, dim: int = 1) -> WeightSpec:
    return WeightSpec(WeightCase.AXIS_POWER, alpha, dim)


def radial_weight(alpha: float, dim: int = 1) -> WeightSpec:
    return WeightSpec(WeightCase.RADIAL_POWER, alpha, dim)


def gaussian_field(grid: GridSpec, amplitude=1.0, sigma=1.0) -> Field:
    return InitialProfile("gaussian", amplitude, sigma).realize(grid)


def constant_field(grid: GridSpec, value: float) -> Field:
    return InitialProfile("constant", value).realize(grid)


def power_tail_field(grid: GridSpec, rho: float, amplitude=1.0) -> Field:
    return InitialProfile("power_tail", amplitude, rho=rho).realize(grid)


@pytest.fixture
def rel():
    """Relative-error helper."""

    def _rel(a: float, b: float) -> float:
        return abs(a - b) / max(abs(b), 1e-300)

    return _rel


@pytest.fixture
def solve_sizes(monkeypatch):
    """A list of the row count of every ``solve_shifted`` call from now on."""
    sizes = []
    solve = semigroup.DiffusionOperator.solve_shifted

    def recorded(self, c, rhs):
        sizes.append(rhs.shape[0])
        return solve(self, c, rhs)

    monkeypatch.setattr(semigroup.DiffusionOperator, "solve_shifted", recorded)
    return sizes


def assert_close(a: float, b: float, tol: float):
    assert math.isfinite(a)
    assert abs(a - b) <= tol * max(abs(b), 1e-300), f"{a} vs {b} (tol {tol})"
