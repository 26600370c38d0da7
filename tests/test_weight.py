"""Tests for the weight module: weight specs, and the package's import cost."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import degenheat
from degenheat.errors import ConfigError
from degenheat.weight import WeightCase, WeightSpec

from conftest import axis_weight


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


class TestImportCost:
    def test_import_skips_integrate_and_optimize(self):
        # loading scipy.integrate and scipy.optimize would add about a third to the
        # package's import time, and nothing in it needs either
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
