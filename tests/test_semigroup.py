"""Tests for the discrete linear semigroup: operator assembly, evolution,
kernel probes, smoothing, and the kernel-bound invariants."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from importlib.util import spec_from_file_location
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg.lapack
from scipy.linalg import expm, solve_banded
from scipy.special import j0, jn_zeros

import degenheat.semigroup as semigroup
from degenheat.errors import ConfigError, NumericError
from degenheat.grids import Field, Geometry, GridSpec, InitialProfile, volume_sum
from degenheat.semigroup import (apply_semigroup, build_operator, kernel_column,
                                 semigroup_defect)

from degenheat.weight import WeightCase, WeightSpec

from conftest import axis_weight, gaussian_field, line_grid, radial_grid, radial_weight


def _dirichlet(op):
    """Mask of the Dirichlet rows, the rows outside ``op.free``."""
    mask = np.ones(op.grid.nodes, dtype=bool)
    mask[op.free] = False
    return mask


def _bands(op):
    """(sub, diag, sup) of A, assembled from the stored volumes and conductances.

    Row i of V A is K_{i-1} v_{i-1} - (K_{i-1} + K_i) v_i + K_i v_{i+1} on a
    free row (K_{-1} = 0 at a radial centre) and zero on a Dirichlet row.
    """
    k, vol = op.conductances, op.volumes
    free = ~_dirichlet(op)
    padded = np.concatenate(([0.0], k, [0.0]))
    diag = np.where(free, -(padded[:-1] + padded[1:]) / vol, 0.0)
    sup = np.where(free[:-1], k / vol[:-1], 0.0)
    sub = np.where(free[1:], k / vol[1:], 0.0)
    return sub, diag, sup


class TestBuildOperator:
    def test_classical_second_difference(self):
        g = line_grid(2.0, 9)
        op = build_operator(g, axis_weight(0.0))
        assert np.array_equal(op.conductances, np.full(g.nodes - 1, 1.0 / g.spacing))
        sub, diag, sup = _bands(op)
        inv_dx2 = 1.0 / g.spacing ** 2
        assert np.allclose(diag[1:-1], -2.0 * inv_dx2)
        assert np.allclose(sup[1:], inv_dx2)
        assert np.allclose(sub[:-1][sub[:-1] != 0], inv_dx2)
        # Dirichlet rows are zero
        assert diag[0] == diag[-1] == 0.0
        assert np.array_equal(op.apply(g.positions() ** 2)[[0, -1]], [0.0, 0.0])

    def test_faces_straddle_degeneracy(self):
        g = line_grid(1.0, 9)
        op = build_operator(g, axis_weight(0.5))
        # both faces adjacent to x = 0 carry omega = (dx/2)^0.5 > 0
        expected = (g.spacing / 2.0) ** 0.5
        mid = g.nodes // 2
        face_weights = op.conductances * g.spacing
        assert face_weights[mid - 1] == pytest.approx(expected, rel=1e-12)
        assert face_weights[mid] == pytest.approx(expected, rel=1e-12)
        assert np.all(face_weights > 0.0)

    def test_sign_pattern_and_row_sums(self):
        for grid, weight in ((line_grid(2.0, 21), axis_weight(0.5)),
                             (radial_grid(2.0, 21, 2), radial_weight(0.3, 2))):
            op = build_operator(grid, weight)
            sub, diag, sup = _bands(op)
            assert np.all(diag <= 0.0)
            assert np.all(sup >= 0.0) and np.all(sub >= 0.0)
            # interior row sums vanish (conservation in flux form)
            row_sums = op.apply(np.ones(grid.nodes))
            assert np.allclose(row_sums[1:-1], 0.0, atol=1e-10)

    def test_geometry_weight_mismatch(self):
        with pytest.raises(ConfigError):
            build_operator(line_grid(1.0, 5), axis_weight(0.5, 2))
        with pytest.raises(ConfigError):
            build_operator(radial_grid(1.0, 5, 2), axis_weight(0.5, 2))
        with pytest.raises(ConfigError):
            build_operator(radial_grid(1.0, 5, 2), radial_weight(0.5, 3))

    def test_equality_and_hash_by_identity(self):
        g = line_grid(2.0, 9)
        op = build_operator(g, axis_weight(0.5))
        twin = build_operator(g, axis_weight(0.5))
        assert op == op and op != twin
        assert hash(op) == hash(op)
        assert len({op, twin}) == 2


def _radial_rows_loop(grid, weight):
    """Node-by-node radial volumes and face-by-face conductances, the
    reference for the vectorised assembly."""
    m, dx, n = grid.nodes, grid.spacing, grid.dim
    pos = grid.positions()
    faces = pos[:-1] + dx / 2.0
    fw = np.abs(faces) ** weight.alpha if weight.alpha > 0 else np.ones(m - 1)
    measure = faces ** (n - 1)
    outer = np.minimum(pos + dx / 2.0, grid.extent) ** n
    inner = np.maximum(pos - dx / 2.0, 0.0) ** n
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)   # |S^{n-1}|
    vol, cond = np.zeros(m), np.zeros(m - 1)
    for i in range(m):
        vol[i] = area / n * (outer[i] - inner[i])
    for i in range(m - 1):
        cond[i] = area * fw[i] * measure[i] / dx
    return vol, cond


def test_radial_assembly_matches_loop():
    for grid, weight in ((radial_grid(2.0, 21, 2), radial_weight(0.3, 2)),
                         (radial_grid(50.0, 401, 3), radial_weight(0.5, 3)),
                         (radial_grid(1.0, 3, 2), radial_weight(0.0, 2))):
        op = build_operator(grid, weight)
        vol, cond = _radial_rows_loop(grid, weight)
        assert np.array_equal(op.volumes, vol)
        assert np.array_equal(op.volumes, grid.node_volumes())
        assert np.array_equal(op.conductances, cond)
        # the origin row reflects, and the outer Dirichlet row is zero
        sub, diag, sup = _bands(op)
        assert diag[0] == -sup[0] < 0.0
        assert diag[-1] == sub[-1] == 0.0


def _line_rows_reference(grid, weight):
    """Line rows as face weight / dx**2, the reference for the flux-form assembly."""
    m, dx = grid.nodes, grid.spacing
    faces = grid.positions()[:-1] + dx / 2.0
    fw = np.abs(faces) ** weight.alpha if weight.alpha > 0 else np.ones(m - 1)
    coef = fw / dx ** 2
    sub, diag, sup = np.zeros(m - 1), np.zeros(m), np.zeros(m - 1)
    diag[1:-1] = -(coef[1:] + coef[:-1])
    sup[1:] = coef[1:]
    sub[:-1] = coef[:-1]
    return sub, diag, sup


# (extent, nodes) of the criterion-6 escalation rungs: spacings 0.125, 0.25, 0.5
CRITERION_6_RUNGS = ((100.0, 1601), (600.0, 4801), (4000.0, 16001),
                     (1000.0, 4001), (5000.0, 20001))
# the kernel-probe and decay-probe grids: spacings 0.04 and 2/3
PROBE_GRIDS = ((40.0, 2001), (4000.0, 12001))


def test_line_assembly_matches_reference():
    for extent, nodes in CRITERION_6_RUNGS + PROBE_GRIDS:
        grid = line_grid(extent, nodes)
        for alpha in (0.0, 0.5):
            op = build_operator(grid, axis_weight(alpha))
            assert np.array_equal(op.volumes, grid.node_volumes())
            for band, ref in zip(_bands(op),
                                 _line_rows_reference(grid, axis_weight(alpha))):
                if (extent, nodes) in CRITERION_6_RUNGS:
                    assert np.array_equal(band, ref)
                else:
                    # x + h/2 - (x - h/2) is h only to roundoff here
                    np.testing.assert_allclose(band, ref, rtol=1e-12, atol=0.0)
        assert grid.node_volumes().sum() == pytest.approx(2.0 * extent, rel=1e-12)


@st.composite
def grids_and_weights(draw):
    """A line or radial grid and any admissible weight, matching or not."""
    extent = draw(st.floats(0.1, 1e3))
    if draw(st.booleans()):
        grid = GridSpec(Geometry.LINE, extent, 2 * draw(st.integers(1, 200)) + 1)
    else:
        grid = GridSpec(Geometry.RADIAL, extent, draw(st.integers(3, 401)),
                        draw(st.integers(1, 3)))
    case = draw(st.sampled_from(WeightCase))
    dim = draw(st.integers(1, 3))
    hi = 2.0 / dim if case is WeightCase.AXIS_POWER and dim > 2 else 1.0
    alpha = draw(st.floats(0.0, hi, exclude_max=True))
    return grid, WeightSpec(case, alpha, dim)


@settings(deadline=None, derandomize=True)
@given(grids_and_weights())
def test_one_assembly_properties(pair):
    grid, weight = pair
    try:
        grid.check_weight(weight)
    except ConfigError:
        with pytest.raises(ConfigError):
            build_operator(grid, weight)
        return
    op = build_operator(grid, weight)
    assert np.all(op.conductances > 0.0)
    sub, diag, sup = _bands(op)
    assert np.all(sub >= 0.0) and np.all(sup >= 0.0)
    assert np.all(diag <= 0.0)
    row_sums = op.apply(np.ones(grid.nodes))
    assert np.all(np.abs(row_sums[1:-1]) <= 1e-12 * np.abs(diag[1:-1]))
    vol = op.volumes
    assert np.array_equal(vol, grid.node_volumes())
    assert np.all(vol > 0.0)
    n = grid.dim
    ball = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * grid.extent ** n
    total = 2.0 * grid.extent if grid.geometry is Geometry.LINE else ball
    assert vol.sum() == pytest.approx(total, rel=1e-12)


def _banded_solve(op, c, rhs):
    """Reference (I - c A) x = rhs through a freshly assembled band."""
    sub, diag, sup = _bands(op)
    ab = np.zeros((3, rhs.size))
    ab[0, 1:] = -c * sup
    ab[1, :] = 1.0 - c * diag
    ab[2, :-1] = -c * sub
    return solve_banded((1, 1), ab, rhs)


def _exact_solve(op, c, rhs):
    """V (I - c A) x = V rhs for the stored volumes and conductances, solved
    exactly in rationals.

    A free row is -c K_{i-1} x_{i-1} + (V_i + c (K_{i-1} + K_i)) x_i - c K_i
    x_{i+1} = V_i rhs_i, and a Dirichlet row is x_b = rhs_b.  Every entry is a
    rational; scaled by their common denominator the band and rhs are
    integers.  The Thomas sweep then runs fraction-free on the leading minors
    theta_k: the eliminated rhs times theta_i is y_i, and by Cramer's rule
    x_i = z_i / theta_n with integer z_i, so each division is exact.  The one
    rounding is the final, correctly rounded z_i / theta_n.
    """
    c = Fraction(c)
    free = ~_dirichlet(op)
    vol = [Fraction(v) for v in op.volumes]
    k = [Fraction(v) for v in op.conductances]
    padded = [Fraction(0)] + k + [Fraction(0)]
    n = len(vol)
    rows = ([-c * k[i] if free[i + 1] else Fraction(0) for i in range(n - 1)],
            [vol[i] + c * (padded[i] + padded[i + 1]) if free[i] else Fraction(1)
             for i in range(n)],
            [-c * k[i] if free[i] else Fraction(0) for i in range(n - 1)],
            [vol[i] * Fraction(v) if free[i] else Fraction(v) for i, v in enumerate(rhs)])
    den = math.lcm(*(v.denominator for row in rows for v in row))
    lo, mid, up, r = ([v.numerator * (den // v.denominator) for v in row] for row in rows)
    n = len(mid)
    theta = [1, mid[0]]
    y = [r[0]]
    for i in range(1, n):
        theta.append(mid[i] * theta[i] - lo[i - 1] * up[i - 1] * theta[i - 1])
        y.append(r[i] * theta[i] - lo[i - 1] * y[i - 1])
    z = [0] * n
    z[-1] = y[-1]
    for i in range(n - 2, -1, -1):
        z[i], rest = divmod(y[i] * theta[n] - up[i] * theta[i] * z[i + 1], theta[i + 1])
        assert rest == 0
    return np.array([v / theta[n] for v in z])


class TestSolveShifted:
    CASES = ((line_grid(10.0, 201), axis_weight(0.0)),
             (line_grid(10.0, 201), axis_weight(0.5)),
             (radial_grid(10.0, 151, 2), radial_weight(0.5, 2)),
             (radial_grid(10.0, 151, 3), radial_weight(0.3, 3)))

    def test_matches_banded_reference(self):
        rng = np.random.default_rng(3)
        for grid, weight in self.CASES:
            op = build_operator(grid, weight)
            # one exact reference per shift; the repeats hit the factor cache
            refs = {}
            for c in (0.1, 0.05, 0.1, 0.05, 2.0, 0.1, 1e-4, 2.0):
                if c not in refs:
                    rhs = rng.random(grid.nodes)
                    refs[c] = rhs, _exact_solve(op, c, rhs)
                rhs, ref = refs[c]
                x = op.solve_shifted(c, rhs)
                assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_keeps_one_factorisation(self, monkeypatch):
        calls = []
        factor = semigroup.dpttrf

        def counting(*args, **kwargs):
            calls.append(args[1].size)
            return factor(*args, **kwargs)

        monkeypatch.setattr(semigroup, "dpttrf", counting)
        g = line_grid(5.0, 51)
        op = build_operator(g, axis_weight(0.5))
        rhs = gaussian_field(g).values
        # repeated solves at one shift factor once
        first = [op.solve_shifted(0.1, rhs) for _ in range(3)]
        assert len(calls) == 1 and op._factors.c == 0.1
        # a new shift replaces the slot, and going back factors again; every
        # result equals a fresh operator's bit for bit
        again = {}
        for c in (0.05, 0.1, 0.2):
            again[c] = op.solve_shifted(c, rhs)
            assert op._factors.c == c
            fresh = build_operator(g, axis_weight(0.5))
            assert np.array_equal(again[c], fresh.solve_shifted(c, rhs))
        assert len(calls) == 4 + 3      # this operator's four, the fresh three
        assert all(np.array_equal(x, again[0.1]) for x in first)

    def test_factors_match_the_full_grid_assembly(self):
        # the bands from the operator's kept face sums are the ones assembled
        # over all M rows, bit for bit, and so are their factors
        for grid, weight in self.CASES + ((line_grid(7.3, 5), axis_weight(0.9)),
                                          (radial_grid(7.3, 3, 1), radial_weight(0.9, 1))):
            op = build_operator(grid, weight)
            k, rows = op.conductances, op.free
            for c in (1e-4, 0.1, 2.0):
                d = np.zeros_like(op.volumes)
                np.add(k[:-1], k[1:], out=d[1:-1])
                d[0] = k[0]
                d *= c
                d += op.volumes
                d = d[rows]
                e = np.zeros_like(d)
                np.multiply(k[rows], -c, out=e[:-1])
                m = max(d.size - 1, 1)
                d, e[:m], info = scipy.linalg.lapack.dpttrf(d, e[:m])
                factors = op._factor(c)
                assert info == 0
                assert np.array_equal(factors.d, d) and np.array_equal(factors.e, e)
                assert factors.floor == semigroup._NORMAL * op.volumes[rows].min()

    def test_cache_is_per_operator(self):
        g = line_grid(10.0, 201)
        flat = build_operator(g, axis_weight(0.0))
        degenerate = build_operator(g, axis_weight(0.5))
        rhs = gaussian_field(g).values
        a = flat.solve_shifted(0.5, rhs)
        b = degenerate.solve_shifted(0.5, rhs)
        assert not np.allclose(a, b)
        assert np.allclose(a, _banded_solve(flat, 0.5, rhs), rtol=0, atol=1e-13)
        assert np.allclose(b, _banded_solve(degenerate, 0.5, rhs), rtol=0, atol=1e-13)

    def test_nonfinite_input(self):
        g = line_grid(5.0, 51)
        op = build_operator(g, axis_weight(0.0))
        for bad in (math.nan, math.inf):
            rhs = gaussian_field(g).values
            rhs[7] = bad
            with pytest.raises(ValueError):
                op.solve_shifted(0.1, rhs)
            with pytest.raises(ValueError):
                op.solve_shifted(bad, gaussian_field(g).values)

    def test_singular_shift(self):
        # one free row, V = 1 and K = 1 on both faces: its pivot is 1 + 2c
        g = line_grid(1.0, 3)
        op = build_operator(g, axis_weight(0.0))
        with pytest.raises(NumericError):
            op.solve_shifted(-0.5, np.ones(3))
        assert op._factors is None
        # pivot 1/2: (x1 - x0) + (x1 - x2) = 4 (x1 - rhs1) gives x1 = 3
        assert np.array_equal(op.solve_shifted(-0.25, np.array([1.0, 2.0, 1.0])),
                              [1.0, 3.0, 1.0])
        assert op.solve_shifted(0.5, np.ones(3)) == pytest.approx(np.ones(3))


class TestLapackLoader:
    @pytest.mark.parametrize("first", ["degenheat.semigroup", "scipy.linalg.lapack"])
    def test_same_functions_in_either_import_order(self, first):
        # the extension loaded on its own gives scipy.linalg.lapack's very objects
        src = Path(semigroup.__file__).resolve().parent.parent
        code = (f"import {first}\n"
                "import degenheat.semigroup as s, scipy.linalg.lapack as lapack\n"
                "print(s.dpttrf is lapack.dpttrf, s.dpttrs is lapack.dpttrs,"
                " s.dstev is lapack.dstev)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True,
                             timeout=60)
        assert out.stdout.split() == ["True", "True", "True"]

    def test_falls_back_to_public_module(self, monkeypatch, tmp_path):
        lapack = scipy.linalg.lapack
        public = (lapack.dpttrf, lapack.dpttrs, lapack.dstev)
        asked = []

        class NoSpec:
            @staticmethod
            def find_spec(name, path):
                asked.append(name)
                return None

        monkeypatch.setattr(semigroup, "PathFinder", NoSpec)
        assert semigroup._load_lapack() == public
        assert asked == ["scipy.linalg._flapack"]
        # a found extension that does not load: an empty file is no shared object
        broken = tmp_path / "_flapack.so"
        broken.write_bytes(b"")

        class BrokenSpec:
            @staticmethod
            def find_spec(name, path):
                return spec_from_file_location(name, broken)

        monkeypatch.setattr(semigroup, "PathFinder", BrokenSpec)
        assert semigroup._load_lapack() == public


@st.composite
def shifted_systems(draw):
    """An operator, a shift in [1e-6, 1e4] and ordered data 0 <= lo <= hi.

    The data span zeros, subnormals and O(100) values at every node, the
    Dirichlet ends included.
    """
    kind = draw(st.sampled_from(["line0", "line0.5", "radial1", "radial2", "radial3"]))
    extent = draw(st.floats(0.5, 50.0))
    if kind.startswith("line"):
        nodes = 2 * draw(st.integers(2, 60)) + 1
        op = build_operator(line_grid(extent, nodes), axis_weight(float(kind[4:])))
    else:
        dim = int(kind[-1])
        nodes = draw(st.integers(3, 120))
        op = build_operator(radial_grid(extent, nodes, dim),
                            radial_weight(draw(st.sampled_from([0.0, 0.5])), dim))
    c = 10.0 ** draw(st.floats(-6.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def data():
        v = rng.random(nodes) * 10.0 ** rng.uniform(-320.0, 2.0, nodes)
        v[rng.random(nodes) < 0.2] = 0.0
        return v

    lo = data()
    return op, c, lo, lo + data()


@settings(deadline=None, derandomize=True, max_examples=200)
@given(shifted_systems())
def test_solve_shifted_properties(system):
    op, c, lo, hi = system
    x_lo = op.solve_shifted(c, lo)
    x_hi = op.solve_shifted(c, hi)
    assert np.all(x_lo >= 0.0)
    assert np.all(x_lo <= x_hi)
    dirichlet = _dirichlet(op)
    assert np.array_equal(x_lo[dirichlet], lo[dirichlet])
    assert np.array_equal(x_hi[dirichlet], hi[dirichlet])
    block = op.solve_shifted(c, np.column_stack([lo, hi]))
    assert np.array_equal(block, np.column_stack([x_lo, x_hi]))
    ref = _banded_solve(op, c, hi)
    assert np.max(np.abs(x_hi - ref)) <= 1e-12 * np.max(np.abs(ref))


_NORMAL = np.finfo(float).tiny   # 2^-1022
_SMALLEST = math.ulp(0.0)        # 2^-1074


@st.composite
def tailed_systems(draw):
    """An operator, a shift 0 or in [1e-6, 1e4] and a signed bump anywhere on
    the grid whose tails are exact zeros or subnormal numbers."""
    kind = draw(st.sampled_from(["line0", "line0.5", "radial1", "radial2", "radial3"]))
    extent = draw(st.floats(10.0, 1000.0))
    if kind.startswith("line"):
        op = build_operator(line_grid(extent, 2 * draw(st.integers(50, 1000)) + 1),
                            axis_weight(float(kind[4:])))
    else:
        dim = int(kind[-1])
        op = build_operator(radial_grid(extent, draw(st.integers(100, 2000)), dim),
                            radial_weight(draw(st.sampled_from([0.0, 0.5])), dim))
    # some systems have c = 0: no window, one pttrs over every free row
    c = 0.0 if draw(st.integers(1, 8)) == 8 else 10.0 ** draw(st.floats(-6.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = op.grid.positions()
    centre = op.grid.lower + draw(st.floats(0.0, 1.0)) * (extent - op.grid.lower)
    width = extent * 10.0 ** draw(st.floats(-3.0, -0.5))
    amplitude = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-300.0, 3.0))
    v = amplitude * rng.uniform(0.5, 1.5, x.size) * np.exp(-((x - centre) / width) ** 2)
    if draw(st.booleans()):
        tail = np.abs(v) < _NORMAL
        v[tail] = _NORMAL * rng.uniform(-1.0, 1.0, tail.sum())
    return op, c, v


def _free_rhs(op, c, rhs):
    """V rhs on the free rows, with the Dirichlet coupling, as ``solve_shifted``
    builds it."""
    k, rows = op.conductances, op.free
    b = rhs * op.volumes
    b[-2] += c * k[-1] * rhs[-1]
    if rows.start:
        b[1] += c * k[0] * rhs[0]
    return b[rows]


def _full_pttrs(factors, b):
    """``pttrs`` over every free row."""
    return semigroup.dpttrs(factors.d, factors.e[:max(b.size - 1, 1)], b)


@settings(deadline=None, derandomize=True, max_examples=400)
@given(tailed_systems())
def test_windowed_solve_matches_full_pttrs(system):
    op, c, rhs = system
    x = op.solve_shifted(c, rhs)
    factors = op._factors
    assert factors.c == c
    b = _free_rhs(op, c, rhs)
    lo, hi = factors.window(b.copy())
    full, info = _full_pttrs(factors, b)
    assert info == 0
    free = x[op.free]
    outside = np.ones(free.size, dtype=bool)
    outside[max(lo, 0):hi + 1] = False
    if not outside.any():
        assert np.array_equal(free, full)    # the whole grid: one pttrs
    assert np.all(free[outside] == 0.0)
    assert np.all(np.abs(full[outside]) < _NORMAL)
    assert np.array_equal(x[_dirichlet(op)], rhs[_dirichlet(op)])
    assert np.max(np.abs(free - full)) <= 4.0 * _NORMAL


def _reference_window(factors, b):
    """``_Factors.window`` as it was before its end-row scan, which finds the
    support with one mask over every row: the oracle of the scan."""
    n = b.size
    floor = factors.floor
    if not factors.windowed or (abs(b[0]) >= floor and abs(b[-1]) >= floor):
        return 0, n - 1
    size = np.abs(b)
    normal = (size >= floor).tobytes()
    s, t = normal.find(1), normal.rfind(1)
    if s < 0:
        return n, -1
    if factors.drop is None:
        factors._sum_drops()
    rest = max(size[:s].max(initial=0.0), size[t + 1:].max(initial=0.0)) / floor
    reach = factors.reach + math.log(t - s + 1) - math.log1p(-rest)
    drop = factors.drop
    if ((s == 0 or reach + math.log(size[s]) - drop[s] >= 1.0)
            and (t == n - 1 or reach + math.log(size[t]) + drop[t] - drop[-1] >= 1.0)):
        return 0, n - 1
    logs = size[s:t + 1]
    np.log(np.maximum(logs, floor, out=logs), out=logs)
    span = drop[s:t + 1]
    right = reach + float(np.add(logs, span).max())
    left = reach + float(np.subtract(logs, span, out=logs).max())
    hi = int(drop.searchsorted(right, side="right")) - 1
    lo = int(drop.searchsorted(-left, side="left"))
    return min(lo, s), max(hi, t)


@st.composite
def end_padded_rows(draw):
    """The factors of a ``shifted_systems`` draw and signed free-row data whose
    ends, one or both, hold runs of exact zeros, subnormals and values below
    the window's floor: runs within the end-row scan, runs past it, and data
    with no entry above the floor at all."""
    op, c, _, hi = draw(shifted_systems())
    factors = op._factor(c)
    n = factors.d.size
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    b = hi[op.free] * op.volumes[op.free] * rng.choice([-1.0, 1.0], n)
    # the entries next to a run are often just above the floor, where the
    # window can be narrower than every row
    b[rng.random(n) < 0.3] = factors.floor * 10.0 ** rng.uniform(0.0, 30.0)
    scan = semigroup._END_ROWS

    def run(length):
        kind = rng.integers(0, 3, length)
        tiny = np.where(kind == 0, 0.0,
                        np.where(kind == 1, _SMALLEST * rng.integers(1, 2 ** 52, length),
                                 factors.floor * rng.random(length)))
        return tiny * rng.choice([-1.0, 1.0], length)

    ends = draw(st.sampled_from(["head", "tail", "both", "all"]))
    if ends == "all":
        b = run(n)
    if ends in ("head", "both"):
        k = min(draw(st.integers(1, 2 * scan + 1)), n)
        b[:k] = run(k)
    if ends in ("tail", "both"):
        k = min(draw(st.integers(1, 2 * scan + 1)), n)
        b[n - k:] = run(k)
    return factors, b



@settings(deadline=None, derandomize=True, max_examples=400)
@given(end_padded_rows())
def test_window_matches_the_full_scan(rows):
    factors, b = rows
    expected = _reference_window(factors, b.copy())
    before = b.copy()
    assert factors.window(b) == expected
    assert np.array_equal(b, before)


def test_window_of_a_huge_shift_is_the_whole_grid():
    # At c = 1e14 the largest multiplier of L rounds to just above 1, so the
    # bound knows no decay: the window must cover every row.
    op = build_operator(radial_grid(10.0, 200, 3), radial_weight(0.5, 3))
    rhs = np.zeros(200)
    rhs[50] = 1.0
    x = op.solve_shifted(1e14, rhs)
    factors = op._factors
    assert factors.c == 1e14
    full, info = _full_pttrs(factors, _free_rhs(op, 1e14, rhs))
    assert info == 0 and np.count_nonzero(full) == 199
    assert np.array_equal(x[op.free], full)
    assert x[-1] == 0.0


def test_window_skips_the_subnormal_tail():
    # The alpha = 0 top rung of criterion 6: 16001 nodes on [-4000, 4000], a
    # zero-tailed sigma = 5 Gaussian and one step dt = 10.  A pttrs over the
    # whole grid returns 3725 subnormal entries here, its sweeps running the
    # tail at 2^-1074 out to both Dirichlet rows.
    g = line_grid(4000.0, 16001)
    op = build_operator(g, axis_weight(0.0))
    x = op.solve_shifted(10.0, gaussian_field(g, 1.0, 5.0).values)
    assert np.count_nonzero((x != 0.0) & (np.abs(x) < _NORMAL)) <= 48
    assert np.count_nonzero(x) < 10000


def test_radial_window_skips_the_subnormal_tail():
    # The same rung marched on its half: 8001 radial nodes in N = 1.  The
    # reflecting centre's multiplier, 0.988 against 0.854 in the interior,
    # must not set the decay of the bound far from it.  A window from the
    # largest multiplier alone returns 224 subnormal entries here.
    g = radial_grid(4000.0, 8001, 1)
    op = build_operator(g, radial_weight(0.0, 1))
    x = op.solve_shifted(10.0, gaussian_field(g, 1.0, 5.0).values)
    assert np.count_nonzero((x != 0.0) & (np.abs(x) < _NORMAL)) <= 48
    assert np.count_nonzero(x) < 5000


def test_window_counts_the_rows_it_flushes():
    # A bump's tail first drops below 2^-1022 at row k, where the right-hand
    # side holds 0.99 * 2^-1022, too small to join the bump's support.  Their
    # sum passes 2^-1022 at k, so the window must keep row k.
    op = build_operator(line_grid(10.0, 101), axis_weight(0.0))
    rhs = np.zeros(101)
    rhs[18] = 1e-4
    k = np.flatnonzero(op.solve_shifted(5e-6, rhs))[-1] + 1
    rhs[k] = 0.99 * _NORMAL
    x = op.solve_shifted(5e-6, rhs)
    assert op._factors.c == 5e-6
    full, info = _full_pttrs(op._factors, _free_rhs(op, 5e-6, rhs))
    assert info == 0 and full[k - 1] >= _NORMAL
    assert x[k] > 0.0
    assert np.all((x[1:-1] != 0.0) | (np.abs(full) < _NORMAL))


@st.composite
def operators_and_data(draw):
    """A line or radial operator (alpha 0 or 0.5, N = 1-3) and signed data."""
    kind = draw(st.sampled_from(["line", "radial1", "radial2", "radial3"]))
    alpha = draw(st.sampled_from([0.0, 0.5]))
    extent = draw(st.floats(0.5, 50.0))
    if kind == "line":
        op = build_operator(line_grid(extent, 2 * draw(st.integers(1, 60)) + 1),
                            axis_weight(alpha))
    else:
        dim = int(kind[-1])
        op = build_operator(radial_grid(extent, draw(st.integers(3, 120)), dim),
                            radial_weight(alpha, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return op, rng.uniform(-10.0, 10.0, op.grid.nodes)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(operators_and_data())
def test_flux_balance_and_steady_state(system):
    op, v = system
    k, free = op.conductances, op.free
    # the free cells exchange flux only with each other and the Dirichlet nodes
    flux = k * np.diff(v)
    outer = flux[-1]
    if op.grid.geometry is Geometry.LINE:
        outer -= flux[0]
    net = op.volumes[free] @ op.apply(v)[free]
    assert abs(net - outer) <= 1e-12 * np.abs(flux).sum()

    # the steady state keeps the Dirichlet values, unequal on a line
    h = semigroup._dirichlet_steady_state(op, v)
    assert h[-1] == v[-1]
    if op.grid.geometry is Geometry.LINE:
        assert h[0] == v[0]
    padded = np.concatenate(([0.0], k, [0.0]))
    diag = (padded[:-1] + padded[1:]) / op.volumes
    assert np.all(np.abs(op.apply(h)[free]) <= 1e-12 * diag[free] * np.max(np.abs(h)))


class TestApplySemigroup:
    def test_identity_at_zero(self):
        g = line_grid(5.0, 101)
        op = build_operator(g, axis_weight(0.0))
        u0 = gaussian_field(g)
        out = apply_semigroup(op, u0, 0.0)
        assert np.array_equal(out.values, u0.values)

    def test_validation(self):
        g = line_grid(5.0, 101)
        op = build_operator(g, axis_weight(0.0))
        with pytest.raises(ConfigError):
            apply_semigroup(op, gaussian_field(g), -1.0)
        with pytest.raises(ConfigError):
            apply_semigroup(op, gaussian_field(line_grid(5.0, 51)), 1.0)
        for n_steps in (0, -3):
            with pytest.raises(ConfigError):
                apply_semigroup(op, gaussian_field(g), 1.0, n_steps=n_steps)

    def test_tol_scheme_and_time_validation(self):
        # checked before either path: a NaN tol would never converge
        g = line_grid(5.0, 101)
        op = build_operator(g, axis_weight(0.5))
        u0 = gaussian_field(g)
        for tol in (math.nan, 0.0, -1e-6):
            for n_steps in (None, 8):
                with pytest.raises(ConfigError):
                    apply_semigroup(op, u0, 1.0, tol=tol, n_steps=n_steps)
            with pytest.raises(ConfigError):
                kernel_column(op, g.nodes // 2, 1.0, tol=tol)
        for n_steps in (None, 8):
            with pytest.raises(ConfigError):
                apply_semigroup(op, u0, 1.0, scheme="rk4", n_steps=n_steps)
        # Crank-Nicolson is a fixed-step scheme: the Krylov flow would ignore it
        with pytest.raises(ConfigError, match="needs n_steps"):
            apply_semigroup(op, u0, 1.0, scheme="cn")
        apply_semigroup(op, u0, 1.0, scheme="cn", n_steps=8)
        with pytest.raises(ConfigError):
            apply_semigroup(op, u0, math.nan)
        with pytest.raises(ConfigError):
            kernel_column(op, g.nodes // 2, math.nan)

    def test_step_cap_raises(self, monkeypatch):
        # a Krylov basis that reaches its cap raises instead of returning
        monkeypatch.setattr(semigroup, "_KRYLOV_CAP", 2)
        g = line_grid(5.0, 101)
        op = build_operator(g, axis_weight(0.5))
        with pytest.raises(NumericError):
            apply_semigroup(op, gaussian_field(g), 1.0)
        with pytest.raises(NumericError):
            kernel_column(op, g.nodes // 2, 1.0)

    def test_gaussian_oracle(self):
        # exact solution: amplitude shrinks by sigma/sqrt(sigma^2 + 2t)
        g = line_grid(15.0, 601)
        op = build_operator(g, axis_weight(0.0))
        u0 = gaussian_field(g, 1.0, 1.0)
        t = 1.0
        evolved = apply_semigroup(op, u0, t, tol=1e-5)
        s2 = 1.0 + 2.0 * t
        exact = (1.0 / math.sqrt(s2)) * np.exp(-g.positions() ** 2 / (2.0 * s2))
        assert np.max(np.abs(evolved.values - exact)) <= 1e-3

    def test_mass_conservation_fixed_step(self):
        g = line_grid(40.0, 801)
        for alpha in (0.0, 0.5):
            op = build_operator(g, axis_weight(alpha))
            u0 = gaussian_field(g, 1.0, 1.0)
            out = apply_semigroup(op, u0, 2.0, n_steps=32)
            # the Dirichlet rows keep the data, and nothing reaches them
            edges = [0, -1]
            assert np.array_equal(out.values[edges], u0.values[edges])
            assert np.max(np.abs(out.values[edges])) / out.sup() < 1e-12
            assert out.mass() == pytest.approx(u0.mass(), rel=1e-10)

    def test_positivity(self):
        g = line_grid(10.0, 201)
        op = build_operator(g, axis_weight(0.5))
        u0 = gaussian_field(g, 1.0, 0.5)
        out = apply_semigroup(op, u0, 1.0, tol=1e-6)
        assert np.min(out.values) >= -1e-12 * u0.sup()

    def test_ordering(self):
        g = line_grid(10.0, 201)
        op = build_operator(g, axis_weight(0.3))
        small = gaussian_field(g, 0.5, 1.0)
        big = gaussian_field(g, 1.0, 1.5)
        a = apply_semigroup(op, small, 1.0, n_steps=64)
        b = apply_semigroup(op, big, 1.0, n_steps=64)
        assert np.all(a.values <= b.values + 1e-14)


def _dense_oracle(op, u0, t):
    """exp(tA) u0 with A assembled densely from the operator's bands."""
    sub, diag, sup = _bands(op)
    a = np.diag(diag) + np.diag(sup, 1) + np.diag(sub, -1)
    return expm(t * a) @ u0.values


def _check_krylov(op, u0, t, tol):
    """The tol path against the dense oracle: error, sign and repeatability."""
    out = apply_semigroup(op, u0, t, tol=tol)
    exact = _dense_oracle(op, u0, t)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(out.values - exact)) <= 10.0 * tol * scale
    assert out.values.min() >= 0.0
    again = apply_semigroup(op, u0, t, tol=tol)
    assert np.array_equal(out.values, again.values)


class TestKrylovOracle:
    CASES = (
        (line_grid(10.0, 201), axis_weight(0.0), "gaussian"),
        (line_grid(10.0, 201), axis_weight(0.5), "gaussian"),
        (radial_grid(10.0, 151, 2), radial_weight(0.5, 2), "gaussian"),
        (radial_grid(10.0, 151, 3), radial_weight(0.5, 3), "gaussian"),
        # nonzero Dirichlet end values: the steady state carries them
        (line_grid(50.0, 201), axis_weight(0.5), "power_tail"),
        (radial_grid(50.0, 151, 3), radial_weight(0.5, 3), "power_tail"),
    )

    @pytest.mark.parametrize("grid,weight,kind", CASES)
    def test_matches_dense_expm(self, grid, weight, kind):
        op = build_operator(grid, weight)
        u0 = InitialProfile(kind, 1.0, sigma=0.5).realize(grid)
        for t in (1e-3, 0.5, 5.0, 200.0):
            for tol in (1e-4, 1e-6, 1e-9):
                _check_krylov(op, u0, t, tol)

    def test_unequal_dirichlet_values(self):
        g = line_grid(20.0, 201)
        op = build_operator(g, axis_weight(0.5))
        tail = InitialProfile("power_tail", 1.0, rho=0.5).realize(g).values
        u0 = Field(g, tail * np.linspace(0.5, 2.0, g.nodes))
        for t in (0.5, 50.0, 1e4):
            _check_krylov(op, u0, t, 1e-6)
        # the Dirichlet nodes keep their values exactly
        out = apply_semigroup(op, u0, 50.0, tol=1e-6)
        assert out.values[0] == u0.values[0] and out.values[-1] == u0.values[-1]

    def test_signed_data_keeps_its_lower_bound(self):
        # exp(tA) averages, so signed data are clipped at their minimum, not at 0
        g = line_grid(10.0, 201)
        op = build_operator(g, axis_weight(0.5))
        u0 = Field(g, np.sin(g.positions()) * np.exp(-g.positions() ** 2 / 8.0))
        out = apply_semigroup(op, u0, 0.5, tol=1e-8)
        exact = _dense_oracle(op, u0, 0.5)
        assert np.max(np.abs(out.values - exact)) <= 1e-7 * np.max(np.abs(exact))
        assert out.values.min() < 0.0

    def test_invariant_subspace(self):
        # a 5-node line holds a 2-dimensional even subspace: the basis stops there
        g = line_grid(1.0, 5)
        op = build_operator(g, axis_weight(0.5))
        for t in (1e-4, 0.5, 200.0):
            _check_krylov(op, gaussian_field(g), t, 1e-9)
        constant = Field(g, np.full(g.nodes, 0.25))
        assert np.array_equal(apply_semigroup(op, constant, 3.0).values, constant.values)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(alpha=st.floats(0.0, 1.0, exclude_max=True),
       t=st.floats(1e-3, 1e3),
       half=st.integers(1, 100),
       kind=st.sampled_from(("gaussian", "power_tail")),
       tol=st.sampled_from((1e-4, 1e-6, 1e-9)))
def test_krylov_properties(alpha, t, half, kind, tol):
    g = line_grid(10.0, 2 * half + 1)
    op = build_operator(g, axis_weight(alpha))
    _check_krylov(op, InitialProfile(kind, 1.0).realize(g), t, tol)


_OPERATOR_ARRAYS = ("volumes", "conductances", "_face_sums", "_free_volumes", "_free_faces")


@settings(deadline=None, derandomize=True, max_examples=200)
@given(extent=st.floats(1e-3, 1e6), half=st.integers(2, 20000),
       alpha=st.floats(0.0, 1.0, exclude_max=True))
def test_half_is_the_radial_half_operator(extent, half, alpha):
    # sliced from the line's arrays, the half is the radial N = 1 operator on
    # the nodes x >= 0 bit for bit, and fold hands it the even data's rows there
    g = line_grid(extent, 2 * half + 1)
    op = build_operator(g, axis_weight(alpha))
    radial = build_operator(radial_grid(extent, half + 1, 1), radial_weight(alpha, 1))
    assert (op.half.grid, op.half.weight) == (radial.grid, radial.weight)
    for name in _OPERATOR_ARRAYS:
        assert np.array_equal(getattr(op.half, name), getattr(radial, name)), name
    assert op.half._floor == radial._floor
    even = InitialProfile("gaussian", 1.0, extent / 4.0).realize(g).values
    flow_op, rows = semigroup.fold(op, even)
    assert flow_op is op.half and np.array_equal(rows, even[half:])
    assert np.array_equal(semigroup.unfold(g, rows), even)
    uneven = even * np.linspace(0.5, 2.0, g.nodes)
    flow_op, rows = semigroup.fold(op, uneven)
    assert flow_op is op and rows is uneven


def test_no_half_off_a_line_of_five_or_more_nodes():
    # a 3-node line's half would have 2 nodes; radial grids have no half
    assert build_operator(line_grid(7.3, 3), axis_weight(0.0)).half is None
    assert build_operator(radial_grid(7.3, 45, 1), radial_weight(0.0, 1)).half is None
    assert build_operator(line_grid(7.3, 5), axis_weight(0.0)).half.grid == \
        radial_grid(7.3, 3, 1)


@st.composite
def even_line_flows(draw):
    """Exactly even data on a line, and a flow of either path."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    half = draw(st.integers(2, 150))
    g = line_grid(rng.uniform(1.0, 50.0), 2 * half + 1)
    op = build_operator(g, axis_weight(draw(st.sampled_from([0.0, 0.5, 0.9]))))
    kind = draw(st.sampled_from(["gaussian", "power_tail", "signed"]))
    if kind == "signed":
        right = rng.uniform(-1.0, 1.0, half + 1)
        values = np.concatenate((right[:0:-1], right))
    else:
        values = InitialProfile(kind, 1.0, sigma=rng.uniform(0.3, 3.0)).realize(g).values
    n_steps = draw(st.sampled_from([None, 1, 8]))
    scheme = "be" if n_steps is None else draw(st.sampled_from(["be", "cn"]))
    return (op, Field(g, values), 10.0 ** rng.uniform(-3.0, 3.0),
            draw(st.sampled_from([1e-4, 1e-6, 1e-9])), scheme, n_steps)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(even_line_flows())
def test_even_data_fold_onto_the_half_line(flow):
    op, u0, t, tol, scheme, n_steps = flow
    out = apply_semigroup(op, u0, t, tol=tol, scheme=scheme, n_steps=n_steps).values
    assert np.array_equal(out, out[::-1])
    # the same flow on the line's own operator, unfolded
    line = semigroup._flow(op, u0.values, t, tol, scheme, n_steps)
    bound = tol if n_steps is None else 1e-12
    assert np.max(np.abs(out - line)) <= bound * np.max(np.abs(line))


def test_even_probes_solve_on_the_half_line(solve_sizes):
    # a centre kernel probe and a criterion-4-style chain of power-tail data:
    # every output is exactly even, so every apply runs on the (M + 1) / 2 nodes
    g = line_grid(400.0, 1201)
    op = build_operator(g, axis_weight(0.5))
    kernel_column(op, g.nodes // 2, 2.0, tol=1e-6)
    state, prev = InitialProfile("power_tail", 1.0, rho=0.5).realize(g), 0.0
    for t in np.geomspace(40.0, 480.0, 6):
        state = apply_semigroup(op, state, t - prev, tol=1e-5)
        prev = t
        assert np.array_equal(state.values, state.values[::-1])
    assert solve_sizes and set(solve_sizes) == {601}


def test_uneven_probes_solve_on_the_whole_line(solve_sizes):
    g = line_grid(40.0, 201)
    op = build_operator(g, axis_weight(0.5))
    kernel_column(op, g.nodes // 2 + 1, 2.0, tol=1e-6)
    tail = InitialProfile("power_tail", 1.0, rho=0.5).realize(g).values
    apply_semigroup(op, Field(g, tail * np.linspace(0.5, 2.0, g.nodes)), 2.0)
    apply_semigroup(op, Field(g, tail * np.linspace(0.5, 2.0, g.nodes)), 2.0, n_steps=4)
    assert solve_sizes and set(solve_sizes) == {201}


def _count_solves(monkeypatch):
    """A list whose one entry counts ``solve_shifted`` calls from now on."""
    count = [0]
    solve = semigroup.DiffusionOperator.solve_shifted

    def counted(self, c, rhs):
        count[0] += 1
        return solve(self, c, rhs)

    monkeypatch.setattr(semigroup.DiffusionOperator, "solve_shifted", counted)
    return count


def test_krylov_basis_grows_past_its_first_rows(monkeypatch):
    # a tight tolerance needs 36 basis vectors: the array doubles once
    g = line_grid(10.0, 401)
    op = build_operator(g, axis_weight(0.0))
    spike = np.zeros(g.nodes)
    spike[g.nodes // 2] = 1.0 / op.volumes[g.nodes // 2]
    count = _count_solves(monkeypatch)
    probe = kernel_column(op, g.nodes // 2, 0.5, tol=1e-13)
    assert count[0] > semigroup._KRYLOV_ROWS
    assert np.array_equal(probe.values, apply_semigroup(op, Field(g, spike), 0.5,
                                                        tol=1e-13).values)
    _check_krylov(op, Field(g, spike), 0.5, 1e-13)


def test_criterion_3_probe_solves(monkeypatch):
    # recorded basis sizes of the criterion-3 kernel probes: the work per probe
    g = line_grid(40.0, 2001)
    op = build_operator(g, axis_weight(0.5))
    count = _count_solves(monkeypatch)
    solves = []
    for t in np.geomspace(0.5, 5.0, 8):
        count[0] = 0
        kernel_column(op, g.nodes // 2, t, tol=1e-6)
        solves.append(count[0])
    assert solves == [18, 18, 20, 20, 20, 20, 20, 20]


def test_criterion_4_chain_solves(monkeypatch):
    # recorded basis sizes of the criterion-4 chains at alpha = 0.5, one list
    # per rho: the work per decay fit
    g = line_grid(4000.0, 12001)
    op = build_operator(g, axis_weight(0.5))
    count = _count_solves(monkeypatch)
    chains = []
    for rho in (0.25, 0.5, 0.75):
        state, prev, solves = InitialProfile("power_tail", 1.0, rho=rho).realize(g), 0.0, []
        for t in np.geomspace(4e3, 4.8e4, 12):
            count[0] = 0
            state = apply_semigroup(op, state, t - prev, tol=1e-5)
            prev = t
            solves.append(count[0])
        chains.append(solves)
    tail = [8, 6, 8] + [6] * 8
    assert chains == [[14] + tail, [16] + tail, [16] + tail]


# Hashes every kernel probe of criterion 3 and every state of the decay-probe
# chain (its CLI defaults) on 2001-node lines.
_PROBE_DIGEST = """
import hashlib
import numpy as np
from degenheat.grids import Geometry, GridSpec, InitialProfile
from degenheat.semigroup import apply_semigroup, build_operator, kernel_column
from degenheat.weight import WeightCase, WeightSpec

weight = WeightSpec(WeightCase.AXIS_POWER, 0.5, 1)
digest = hashlib.sha256()
op = build_operator(GridSpec(Geometry.LINE, 40.0, 2001), weight)
for t in np.geomspace(0.5, 5.0, 8):
    digest.update(kernel_column(op, 1000, t, tol=1e-6).values.tobytes())
grid = GridSpec(Geometry.LINE, 120.0, 2001)
op = build_operator(grid, weight)
state, prev = InitialProfile("power_tail", 1.0, rho=0.5).realize(grid), 0.0
for t in np.geomspace(5.0, 80.0, 16):
    state = apply_semigroup(op, state, t - prev, tol=1e-5)
    prev = t
    digest.update(state.values.tobytes())
print(digest.hexdigest())
"""


def test_probes_do_not_depend_on_the_blas_threads():
    # The Krylov products run through BLAS, which may split a product between
    # threads; on these grids the probes' bits must not depend on how many.
    src = Path(semigroup.__file__).resolve().parent.parent
    digests = [subprocess.run([sys.executable, "-c", _PROBE_DIGEST], capture_output=True,
                              text=True, check=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src),
                                   "OPENBLAS_NUM_THREADS": threads}).stdout
               for threads in ("1", "2")]
    assert digests[0] and digests[0] == digests[1]


class TestKernelColumn:
    def test_mass_one(self):
        g = line_grid(25.0, 1001)
        op = build_operator(g, axis_weight(0.5))
        probe = kernel_column(op, g.nodes // 2, 1.0, tol=1e-6)
        assert probe.mass() == pytest.approx(1.0, rel=1e-6)

    def test_classical_kernel_shape(self):
        g = line_grid(10.0, 1601)
        op = build_operator(g, axis_weight(0.0))
        t = 0.5
        assert t >= 10.0 * g.spacing ** 2
        probe = kernel_column(op, g.nodes // 2, t, tol=1e-7)
        exact = np.exp(-g.positions() ** 2 / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
        assert np.max(np.abs(probe.values - exact)) <= 0.02 * exact.max()

    def test_validation(self):
        g = line_grid(5.0, 11)
        op = build_operator(g, axis_weight(0.0))
        with pytest.raises(ConfigError):
            kernel_column(op, 0, 0.0)
        with pytest.raises(ConfigError):
            kernel_column(op, 99, 1.0)
        # a spike on a Dirichlet node would evolve into the steady ramp, not a
        # kernel: both ends of a line, the outer end of a radial grid
        line = build_operator(line_grid(10.0, 201), axis_weight(0.5))
        for node in (0, 200):
            with pytest.raises(ConfigError, match=f"node index {node} is a Dirichlet node"):
                kernel_column(line, node, 1.0)
        radial = build_operator(radial_grid(10.0, 101, 2), radial_weight(0.5, 2))
        with pytest.raises(ConfigError, match="node index 100 is a Dirichlet node"):
            kernel_column(radial, 100, 1.0)
        # the nodes next to them, and the reflecting centre, are free
        for probe_op, node in ((line, 1), (line, 199), (radial, 0), (radial, 99)):
            assert kernel_column(probe_op, node, 1.0).sup() < 1.0


class TestSemigroupDefect:
    def test_halves_under_refinement(self):
        g = line_grid(15.0, 601)
        op = build_operator(g, axis_weight(0.0))
        u0 = gaussian_field(g)
        defects = [semigroup_defect(op, u0, 1.0, 0.5, n_steps=n) for n in (16, 32, 64)]
        for coarse, fine in zip(defects, defects[1:]):
            assert math.log2(coarse / fine) >= 0.9

    def test_split_symmetry(self):
        g = line_grid(15.0, 601)
        op = build_operator(g, axis_weight(0.5))
        u0 = gaussian_field(g)
        d2 = semigroup_defect(op, u0, 1.0, 0.5, n_steps=64)
        d4 = semigroup_defect(op, u0, 1.0, 0.25, n_steps=64)
        assert 0.5 <= d2 / d4 <= 2.0

    def test_validation(self):
        g = line_grid(5.0, 11)
        op = build_operator(g, axis_weight(0.0))
        with pytest.raises(ConfigError):
            semigroup_defect(op, gaussian_field(g), 1.0, 1.5)


class TestSmoothing:
    def test_contraction_case(self):
        # S(t) does not expand the L^2 and L^inf norms
        g = line_grid(30.0, 601)
        op = build_operator(g, axis_weight(0.5))
        u0 = gaussian_field(g)
        volumes = g.node_volumes()
        l2 = lambda u: volume_sum(u.values ** 2, volumes) ** 0.5
        for t in (0.5, 2.0, 20.0):
            out = apply_semigroup(op, u0, t, tol=1e-6)
            assert l2(out) / l2(u0) <= 1.0 + 1e-6
            assert out.sup() / u0.sup() <= 1.0 + 1e-6

    def test_classical_constant(self):
        # q1=1, q2=inf, alpha=0, delta-like data: ratio -> (4 pi)^{-1/2}
        g = line_grid(40.0, 3201)
        op = build_operator(g, axis_weight(0.0))
        t = 2.0
        probe = kernel_column(op, g.nodes // 2, t, tol=1e-7)
        # probe has unit mass, so sup * t^{1/2} is the smoothing ratio
        ratio = probe.sup() * math.sqrt(t)
        assert ratio == pytest.approx(1.0 / math.sqrt(4.0 * math.pi), rel=0.01)

    def test_bounded_ratio_over_decade(self):
        # ||S(t)u0||_inf / (t^(-1/(2-a)) ||u0||_1): the L^1 -> L^inf smoothing
        # estimate holds when the ratio has no trend over the decade
        g = line_grid(120.0, 2401)
        ts = np.geomspace(1.0, 100.0, 8)
        for alpha in (0.0, 0.5):
            op = build_operator(g, axis_weight(alpha))
            u0 = gaussian_field(g, 1.0, 0.5)
            l1 = volume_sum(np.abs(u0.values), g.node_volumes())
            ratios = [apply_semigroup(op, u0, t, tol=1e-6).sup()
                      / (t ** (-1.0 / (2.0 - alpha)) * l1) for t in ts]
            slope = np.polyfit(np.log(ts), np.log(ratios), 1)[0]
            assert abs(slope) <= 0.05


class TestKernelBoundInvariants:
    def test_lower_bound_lemma(self):
        # min over |x| <= t^{1/(2-a)} of S(t)u0 / (t^{-1/(2-a)} window integral)
        # stays positive with near-zero log-log slope across a decade
        for alpha in (0.0, 0.5):
            g = line_grid(60.0, 1201)
            op = build_operator(g, axis_weight(alpha))
            u0 = gaussian_field(g, 1.0, 1.0)
            se = 2.0 - alpha
            ts = np.geomspace(2.0, 20.0, 6)
            kappas = []
            for t in ts:
                evolved = apply_semigroup(op, u0, t, tol=1e-6)
                rad = t ** (1.0 / se)
                inside = g.radii() <= rad
                window_mass = volume_sum(u0.values[inside], g.node_volumes()[inside])
                denom = t ** (-1.0 / se) * window_mass
                kappas.append(evolved.values[inside].min() / denom)
            assert min(kappas) > 0.0
            slope = np.polyfit(np.log(ts), np.log(kappas), 1)[0]
            assert abs(slope) <= 0.1

    def test_jensen_property(self):
        g = line_grid(30.0, 601)
        op = build_operator(g, axis_weight(0.5))
        u0 = gaussian_field(g, 2.0, 1.5)
        convex = [lambda s: s ** 2, lambda s: (1.0 + s) * np.log1p(s) ** 2]
        for f in convex:
            lhs = apply_semigroup(op, u0, 1.0, n_steps=64)
            rhs = apply_semigroup(op, Field(g, f(u0.values)), 1.0, n_steps=64)
            scale = float(np.max(f(u0.values)))
            assert np.max(f(lhs.values) - rhs.values) <= 1e-8 * scale

    def test_bessel_mode_radial_oracle(self):
        # N=2 disk, alpha=0: the first Bessel mode decays at rate j01^2
        lam0 = jn_zeros(0, 1)[0]
        g = radial_grid(1.0, 161, 2)
        op = build_operator(g, radial_weight(0.0, 2))
        u0 = Field(g, j0(lam0 * g.positions()))
        a = apply_semigroup(op, u0, 0.05, n_steps=400, scheme="cn")
        b = apply_semigroup(op, u0, 0.10, n_steps=800, scheme="cn")
        rate = math.log(a.sup() / b.sup()) / 0.05
        assert rate == pytest.approx(lam0 ** 2, rel=0.02)
