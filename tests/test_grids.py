"""Tests for grids, fields, and initial-data profiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenheat.errors import ConfigError
from degenheat.grids import Field, Geometry, GridSpec, InitialProfile, volume_sum

from conftest import (constant_field, gaussian_field, line_grid, power_tail_field,
                      radial_grid)


class TestGridSpec:
    def test_line_spacing_and_positions(self):
        g = line_grid(5.0, 11)
        assert g.spacing == pytest.approx(1.0)
        pos = g.positions()
        assert pos[0] == -5.0 and pos[-1] == 5.0
        assert 0.0 in pos  # degeneracy point is a node

    def test_radial_spacing(self):
        g = radial_grid(2.0, 5, 2)
        assert g.spacing == pytest.approx(0.5)
        assert g.positions()[0] == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            GridSpec(Geometry.LINE, 1.0, 10)  # even node count
        with pytest.raises(ConfigError):
            GridSpec(Geometry.LINE, 1.0, 11, dim=2)
        for extent in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                GridSpec(Geometry.LINE, extent, 11)
        with pytest.raises(ConfigError):
            GridSpec(Geometry.RADIAL, 1.0, 2)
        with pytest.raises(ConfigError):
            GridSpec(Geometry.RADIAL, 1.0, 11, dim=0)

    def test_node_volumes_line(self):
        g = line_grid(3.0, 13)
        assert g.node_volumes().sum() == pytest.approx(6.0, rel=1e-12)

    def test_node_volumes_radial(self):
        # total cell volume equals the ball volume in N dimensions
        for dim, exact in ((2, math.pi * 4.0), (3, 4.0 / 3.0 * math.pi * 8.0)):
            g = radial_grid(2.0, 81, dim)
            assert g.node_volumes().sum() == pytest.approx(exact, rel=1e-12)

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(extent=st.floats(1e-3, 1e6), half=st.integers(2, 20000))
    def test_line_positions_mirror_the_half_grid(self, extent, half):
        g = line_grid(extent, 2 * half + 1)
        x = g.positions()
        assert np.array_equal(x, -x[::-1])
        assert x[half] == 0.0 and x[-1] == extent
        radial = GridSpec(Geometry.RADIAL, extent, half + 1, 1)
        assert np.array_equal(x[half:], radial.positions())

    def test_refined(self):
        g = line_grid(3.0, 13)
        r = g.refined()
        assert r.nodes == 25
        assert r.spacing == pytest.approx(g.spacing / 2.0)
        assert r.extent == g.extent


class TestField:
    def test_norms(self):
        g = line_grid(1.0, 101)
        f = constant_field(g, 2.0)
        assert f.sup() == 2.0
        assert f.mass() == pytest.approx(4.0, rel=1e-12)

    def test_window_mass(self):
        # mass within a radius of the degeneracy center, from the grid's radii
        # and node volumes
        g = line_grid(2.0, 401)
        f = constant_field(g, 1.0)
        radii, volumes = g.radii(), g.node_volumes()

        def window_mass(radius):
            inside = radii <= radius
            return volume_sum(f.values[inside], volumes[inside])

        assert window_mass(1.0) == pytest.approx(2.0, rel=1e-2)
        assert window_mass(5.0) == pytest.approx(f.mass(), rel=1e-12)

    def test_validation(self):
        g = line_grid(1.0, 5)
        with pytest.raises(ConfigError):
            Field(g, np.zeros(4))
        with pytest.raises(ConfigError):
            Field(g, np.array([0.0, 1.0, np.inf, 0.0, 0.0]))

    def test_copy_is_deep(self):
        f = constant_field(line_grid(1.0, 5), 1.0)
        c = f.copy()
        c.values[0] = 99.0
        assert f.values[0] == 1.0


class TestInitialProfile:
    def test_gaussian(self):
        g = line_grid(4.0, 81)
        f = gaussian_field(g, 3.0, 2.0)
        assert f.sup() == pytest.approx(3.0)
        mid = np.argmin(np.abs(g.positions()))
        assert f.values[mid] == 3.0

    def test_power_tail(self):
        g = line_grid(10.0, 201)
        f = power_tail_field(g, 0.5, 2.0)
        assert f.values.max() == pytest.approx(2.0)
        assert f.values[0] == pytest.approx(2.0 * 11.0 ** -0.5, rel=1e-12)

    def test_scaled(self):
        p = InitialProfile("gaussian", 2.0, 1.5)
        q = p.scaled(3.0)
        assert q.amplitude == 6.0 and q.sigma == 1.5 and q.kind == "gaussian"
        # frozen recipes hash, so run specs built from them can key caches
        assert hash(q) == hash(InitialProfile("gaussian", 6.0, 1.5))

    def test_validation(self):
        with pytest.raises(ConfigError):
            InitialProfile("wavelet")
        with pytest.raises(ConfigError):
            InitialProfile("gaussian", amplitude=-1.0)
        # NaN passes a "< 0" test; sigma = 0 divides by zero in realize
        for kind, kwargs in (("constant", {"amplitude": math.nan}),
                             ("constant", {"amplitude": math.inf}),
                             ("gaussian", {"sigma": math.nan}), ("gaussian", {"sigma": 0.0}),
                             ("gaussian", {"sigma": -1.0}), ("gaussian", {"sigma": math.inf}),
                             ("power_tail", {"rho": math.nan}),
                             ("power_tail", {"rho": math.inf}),
                             ("power_tail", {"rho": -1.0})):
            with pytest.raises(ConfigError):
                InitialProfile(kind, **kwargs)
        # a parameter the kind does not read is not checked
        InitialProfile("constant", sigma=0.0, rho=math.nan)
        InitialProfile("power_tail", sigma=0.0)
        InitialProfile("gaussian", rho=math.inf)
