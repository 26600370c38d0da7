"""Tests for the weight module: omega evaluation, scale function, doubling."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import degenheat
from degenheat.errors import ConfigError
from degenheat.weight import (ScaleFunction, WeightCase, WeightSpec,
                              doubling_defect, eval_weight, h_ball,
                              h_ball_inverse)

from conftest import axis_weight, radial_weight


class TestWeightSpec:
    def test_alpha_ranges_axis(self):
        WeightSpec(WeightCase.AXIS_POWER, 0.0, 1)
        WeightSpec(WeightCase.AXIS_POWER, 0.99, 2)
        WeightSpec(WeightCase.AXIS_POWER, 0.6, 3)  # < 2/3
        with pytest.raises(ConfigError):
            WeightSpec(WeightCase.AXIS_POWER, 1.0, 1)
        with pytest.raises(ConfigError):
            WeightSpec(WeightCase.AXIS_POWER, 0.7, 3)  # >= 2/3
        with pytest.raises(ConfigError):
            WeightSpec(WeightCase.AXIS_POWER, -0.1, 1)

    def test_alpha_ranges_radial(self):
        WeightSpec(WeightCase.RADIAL_POWER, 0.99, 5)
        with pytest.raises(ConfigError):
            WeightSpec(WeightCase.RADIAL_POWER, 1.0, 2)

    def test_dim_validation(self):
        with pytest.raises(ConfigError):
            WeightSpec(WeightCase.AXIS_POWER, 0.0, 0)

    def test_scaling_exponent(self):
        assert axis_weight(0.5).scaling_exponent == 1.5
        assert axis_weight(0.0).scaling_exponent == 2.0


class TestEvalWeight:
    def test_spec_examples(self):
        # alpha = 0 gives omega == 1
        assert eval_weight(WeightSpec(WeightCase.AXIS_POWER, 0.0, 2), (3.0, -7.0)) == 1.0
        # |4|^0.5 = 2
        assert eval_weight(WeightSpec(WeightCase.AXIS_POWER, 0.5, 2), (4.0, 7.0)) == 2.0
        assert eval_weight(WeightSpec(WeightCase.RADIAL_POWER, 0.5, 1), (4.0,)) == 2.0

    def test_zero_set(self):
        assert eval_weight(WeightSpec(WeightCase.AXIS_POWER, 0.5, 2), (0.0, 3.0)) == 0.0
        assert eval_weight(WeightSpec(WeightCase.RADIAL_POWER, 0.5, 2), (0.0, 0.0)) == 0.0
        # radial weight is positive off the origin even on the axis plane
        assert eval_weight(WeightSpec(WeightCase.RADIAL_POWER, 0.5, 2), (0.0, 3.0)) > 0.0

    def test_nonnegative(self):
        spec = radial_weight(0.7, 3)
        rng = np.random.default_rng(7)
        for _ in range(20):
            assert eval_weight(spec, rng.normal(size=3)) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            eval_weight(axis_weight(0.5, 2), (1.0,))


class TestHBall:
    def test_classical_value(self):
        # (int_{-1}^{1} 1)^2 = 4
        sf = ScaleFunction(axis_weight(0.0))
        assert h_ball(sf, 1.0) == pytest.approx(4.0, rel=1e-12)

    def test_degenerate_value(self):
        # (int_{-1}^{1} |y|^{-1/4} dy)^2 = (8/3)^2 = 64/9
        sf = ScaleFunction(axis_weight(0.5))
        assert h_ball(sf, 1.0) == pytest.approx(64.0 / 9.0, rel=1e-12)

    def test_power_law_in_r(self):
        sf = ScaleFunction(axis_weight(0.5))
        for r in (0.3, 2.0, 17.0):
            assert h_ball(sf, r) == pytest.approx((64.0 / 9.0) * r ** 1.5, rel=1e-10)

    def test_scaling_law_at_center(self):
        for alpha in (0.0, 0.25, 0.5, 0.9):
            sf = ScaleFunction(axis_weight(alpha))
            base = h_ball(sf, 1.7)
            for lam in (0.5, 2.0, 10.0):
                got = h_ball(sf, lam * 1.7)
                assert got == pytest.approx(lam ** (2.0 - alpha) * base, rel=1e-10)

    def test_strictly_increasing(self):
        sf = ScaleFunction(axis_weight(0.5), center=0.7)
        radii = np.geomspace(1e-2, 1e2, 25)
        vals = [h_ball(sf, r) for r in radii]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_off_center_oracle(self):
        # ball away from the singularity: int_1^3 y^{-1/4} dy in closed form
        sf = ScaleFunction(axis_weight(0.5), center=2.0)
        exact = (3.0 ** 0.75 - 1.0 ** 0.75) / 0.75
        assert h_ball(sf, 1.0) == pytest.approx(exact ** 2, rel=1e-8)

    def test_straddling_oracle(self):
        # ball (x - r, x + r) = (-0.5, 1.5) through the singularity
        sf = ScaleFunction(axis_weight(0.5), center=0.5)
        exact = (0.5 ** 0.75 + 1.5 ** 0.75) / 0.75
        assert h_ball(sf, 1.0) == pytest.approx(exact ** 2, rel=1e-10)

    def test_mirror_symmetry(self):
        sf_pos = ScaleFunction(axis_weight(0.5), center=1.3)
        sf_neg = ScaleFunction(axis_weight(0.5), center=-1.3)
        assert h_ball(sf_pos, 0.8) == pytest.approx(h_ball(sf_neg, 0.8), rel=1e-12)

    def test_radial_origin_closed_form(self):
        # N=2, alpha=0.5: integral = 2 pi r^{3/2} / (3/2); h = integral^{2/2}
        sf = ScaleFunction(radial_weight(0.5, 2))
        exact = 2.0 * math.pi * 1.0 ** 1.5 / 1.5
        assert h_ball(sf, 1.0) == pytest.approx(exact, rel=1e-12)

    def test_lebesgue_volume_alpha0(self):
        # alpha = 0, N = 3: plain ball volume
        sf = ScaleFunction(radial_weight(0.0, 3), center=0.0)
        vol = 4.0 / 3.0 * math.pi * 2.0 ** 3
        assert h_ball(sf, 2.0) == pytest.approx(vol ** (2.0 / 3.0), rel=1e-12)

    def test_unsupported_anisotropic(self):
        sf = ScaleFunction(axis_weight(0.5, 2), center=1.0)
        with pytest.raises(ConfigError):
            h_ball(sf, 1.0)

    def test_bad_radius(self):
        with pytest.raises(ConfigError):
            h_ball(ScaleFunction(axis_weight(0.0)), 0.0)


class TestHBallInverse:
    def test_classical_inverse(self):
        # h0(r) = 4 r^2 so inverse is sqrt(t)/2
        sf = ScaleFunction(axis_weight(0.0))
        for t in (0.1, 1.0, 25.0):
            assert h_ball_inverse(sf, t) == pytest.approx(math.sqrt(t) / 2.0, rel=1e-10)

    def test_degenerate_inverse(self):
        # invert (64/9) r^{3/2}
        sf = ScaleFunction(axis_weight(0.5))
        for t in (0.5, 3.0, 200.0):
            assert h_ball_inverse(sf, t) == pytest.approx((9.0 * t / 64.0) ** (2.0 / 3.0),
                                                          rel=1e-10)

    def test_roundtrip(self):
        for alpha, center in ((0.0, 0.0), (0.5, 0.0), (0.5, 2.5)):
            sf = ScaleFunction(axis_weight(alpha), center=center)
            for r in np.geomspace(1e-3, 1e3, 13):
                t = h_ball(sf, r)
                assert h_ball_inverse(sf, t) == pytest.approx(r, rel=1e-9)

    def test_bad_time(self):
        with pytest.raises(ConfigError):
            h_ball_inverse(ScaleFunction(axis_weight(0.0)), 0.0)


class TestDoublingDefect:
    def test_classical_exact(self):
        fwd, rev = doubling_defect(axis_weight(0.0), 0.3, 1.0, 2.0, 1.0)
        assert fwd == pytest.approx(1.0, rel=1e-12)
        assert rev == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_center_exact(self):
        # mu = (2 - alpha)/2 makes h0 scale exactly
        fwd, rev = doubling_defect(axis_weight(0.5), 0.0, 1.0, 2.0, 0.75)
        assert fwd == pytest.approx(1.0, rel=1e-10)
        assert rev == pytest.approx(1.0, rel=1e-10)

    def test_off_center_bounded(self):
        # quadrature sweep: ratios bounded over a log-grid of (x, R)
        spec = axis_weight(0.5)
        for x in (0.5, 2.0, 8.0):
            for big_r in (0.25, 1.0, 4.0):
                fwd, rev = doubling_defect(spec, x, big_r, 2.0, 0.75)
                assert fwd * rev == pytest.approx(1.0, rel=1e-12)
                assert 0.2 < fwd < 5.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            doubling_defect(axis_weight(0.0), 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            doubling_defect(axis_weight(0.0), 0.0, -1.0, 2.0, 1.0)


class TestQuadratureCrossCheck:
    def test_h_ball_matches_quadrature(self):
        # independent adaptive quadrature of |y|^{-alpha/2} over sample balls
        for alpha, x, r in ((0.25, 0.0, 1.0), (0.5, 0.4, 1.0), (0.9, 0.0, 3.0)):
            sf = ScaleFunction(axis_weight(alpha), center=x)
            val, _ = quad(lambda y: abs(y) ** (-alpha / 2.0), x - r, x + r,
                          points=[0.0] if x - r < 0 < x + r else None,
                          epsabs=0, epsrel=1e-12, limit=300)
            assert h_ball(sf, r) == pytest.approx(val ** 2, rel=1e-8)

    def test_far_off_center_balls(self):
        # r << |x|, where F(x + r) - F(x - r) cancels; the reference integrates
        # over the same floating-point ends x - r and x + r
        for alpha in (0.25, 0.5, 0.9):
            for x in (1e3, -40.0):
                for r in (1e-6, 1e-3, 1.0):
                    sf = ScaleFunction(axis_weight(alpha), center=x)
                    val, _ = quad(lambda y: abs(y) ** (-alpha / 2.0), x - r, x + r,
                                  epsabs=0, epsrel=1e-13, limit=300)
                    assert h_ball(sf, r) == pytest.approx(val ** 2, rel=1e-12, abs=0)


class TestImportCost:
    def test_import_skips_integrate_and_optimize(self):
        # scipy.optimize is loaded by h_ball_inverse on first use, not at import
        src = Path(degenheat.__file__).resolve().parent.parent
        code = ("import sys, degenheat; "
                "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True,
                             timeout=60)
        assert out.stdout.strip() == "[]"

    def test_cli_path_skips_scipy_linalg_and_pool(self):
        # a solve and a serial sweep, not only the import: loading scipy.linalg
        # on first use would pass an import-only check and still cost every run
        src = Path(degenheat.__file__).resolve().parent.parent
        code = """
import sys
import numpy as np
from degenheat.cli import parse_sweep_spec
from degenheat.lab import run_sweep
from degenheat.semigroup import build_operator
spec = parse_sweep_spec({
    "weight": {"case": "axis_power", "alpha": 0.5, "dim": 1},
    "grid": {"geometry": "line", "extent": 10.0, "nodes": 41},
    "u0": {"kind": "gaussian", "amplitude": 1.0, "sigma": 1.0},
    "forcings": [{"profile": {"kind": "power", "exponent": 0.0},
                  "nonlinearity": {"kind": "power", "exponent": 3.0}}],
    "axes": [{"name": "amplitude", "values": [2.0]}],
    "escalation": [{"horizon": 1.0}]})
x = build_operator(spec.base.grid, spec.base.weight).solve_shifted(0.1, np.ones(41))
assert np.isfinite(x).all() and len(run_sweep(spec, 1)) == 1
print(sorted(m for m in ("scipy", "scipy.linalg", "numpy.testing", "numpy.f2py",
                         "concurrent.futures.process") if m in sys.modules))
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True,
                             timeout=60)
        assert out.stdout.strip() == "[]"
