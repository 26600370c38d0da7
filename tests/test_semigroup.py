"""Tests for the discrete linear semigroup: operator assembly, evolution,
kernel probes, smoothing, and the kernel-bound invariants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, solve_banded
from scipy.special import j0, jn_zeros

import degenheat.semigroup as semigroup
from degenheat.errors import ConfigError, NumericError
from degenheat.grids import Field, Geometry, GridSpec, InitialProfile, gaussian_field
from degenheat.semigroup import (apply_semigroup, boundary_leak, build_operator,
                                 kernel_column, semigroup_defect, smoothing_norm_check)

from degenheat.weight import WeightCase, WeightSpec

from conftest import axis_weight, line_grid, radial_grid, radial_weight


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

    def test_reuses_at_most_two_factorisations(self, monkeypatch):
        calls = []
        factor = semigroup.dpttrf

        def counting(*args, **kwargs):
            calls.append(args[1].size)
            return factor(*args, **kwargs)

        monkeypatch.setattr(semigroup, "dpttrf", counting)
        g = line_grid(5.0, 51)
        op = build_operator(g, axis_weight(0.5))
        rhs = gaussian_field(g).values
        for c in (0.1, 0.05, 0.1, 0.05, 0.1):
            op.solve_shifted(c, rhs)
        assert len(calls) == 2
        for c in (0.2, 0.3, 0.4):
            op.solve_shifted(c, rhs)
            assert len(op._factors) <= 2
        assert len(calls) == 5
        assert set(op._factors) == {0.3, 0.4}

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
        assert not op._factors
        # pivot 1/2: (x1 - x0) + (x1 - x2) = 4 (x1 - rhs1) gives x1 = 3
        assert np.array_equal(op.solve_shifted(-0.25, np.array([1.0, 2.0, 1.0])),
                              [1.0, 3.0, 1.0])
        assert op.solve_shifted(0.5, np.ones(3)) == pytest.approx(np.ones(3))


@st.composite
def shifted_systems(draw):
    """An operator, a shift in [1e-6, 1e4] and ordered data 0 <= lo <= hi.

    The data span zeros, subnormals and O(100) values at every node, the
    Dirichlet ends included.
    """
    kind = draw(st.sampled_from(["line0", "line0.5", "radial2", "radial3"]))
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


@st.composite
def tailed_systems(draw):
    """An operator, a shift in [1e-6, 1e4] and a signed bump anywhere on the
    grid whose tails are exact zeros or subnormal numbers."""
    kind = draw(st.sampled_from(["line0", "line0.5", "radial2", "radial3"]))
    extent = draw(st.floats(10.0, 1000.0))
    if kind.startswith("line"):
        op = build_operator(line_grid(extent, 2 * draw(st.integers(50, 1000)) + 1),
                            axis_weight(float(kind[4:])))
    else:
        dim = int(kind[-1])
        op = build_operator(radial_grid(extent, draw(st.integers(100, 2000)), dim),
                            radial_weight(draw(st.sampled_from([0.0, 0.5])), dim))
    c = 10.0 ** draw(st.floats(-6.0, 4.0))
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
    factors = op._factors[c]
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


def test_window_of_a_huge_shift_is_the_whole_grid():
    # At c = 1e14 the largest multiplier of L rounds to just above 1, so the
    # bound knows no decay: the window must cover every row.
    op = build_operator(radial_grid(10.0, 200, 3), radial_weight(0.5, 3))
    rhs = np.zeros(200)
    rhs[50] = 1.0
    x = op.solve_shifted(1e14, rhs)
    factors = op._factors[1e14]
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
        with pytest.raises(ConfigError):
            apply_semigroup(op, u0, math.nan)
        with pytest.raises(ConfigError):
            kernel_column(op, g.nodes // 2, math.nan)
        with pytest.raises(ConfigError):
            smoothing_norm_check(op, u0, math.nan, 1.0, 2.0)

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
        evolved = apply_semigroup(op, u0, t, tol=1e-5, scheme="cn")
        s2 = 1.0 + 2.0 * t
        exact = (1.0 / math.sqrt(s2)) * np.exp(-g.positions() ** 2 / (2.0 * s2))
        assert np.max(np.abs(evolved.values - exact)) <= 1e-3

    def test_mass_conservation_fixed_step(self):
        g = line_grid(40.0, 801)
        for alpha in (0.0, 0.5):
            op = build_operator(g, axis_weight(alpha))
            u0 = gaussian_field(g, 1.0, 1.0)
            out = apply_semigroup(op, u0, 2.0, n_steps=32)
            assert boundary_leak(out) < 1e-12
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
        g = line_grid(30.0, 601)
        op = build_operator(g, axis_weight(0.5))
        u0 = gaussian_field(g)
        for t in (0.5, 2.0, 20.0):
            assert smoothing_norm_check(op, u0, t, 2.0, 2.0) <= 1.0 + 1e-6
            assert smoothing_norm_check(op, u0, t, math.inf, math.inf) <= 1.0 + 1e-6

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
        g = line_grid(120.0, 2401)
        ts = np.geomspace(1.0, 100.0, 8)
        for alpha in (0.0, 0.5):
            op = build_operator(g, axis_weight(alpha))
            u0 = gaussian_field(g, 1.0, 0.5)
            ratios = [smoothing_norm_check(op, u0, t, 1.0, math.inf) for t in ts]
            slope = np.polyfit(np.log(ts), np.log(ratios), 1)[0]
            assert abs(slope) <= 0.05

    def test_validation(self):
        g = line_grid(5.0, 11)
        op = build_operator(g, axis_weight(0.0))
        with pytest.raises(ConfigError):
            smoothing_norm_check(op, gaussian_field(g), 1.0, 3.0, 2.0)
        with pytest.raises(ConfigError):
            smoothing_norm_check(op, gaussian_field(g), 0.0, 1.0, 2.0)


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
                denom = t ** (-1.0 / se) * u0.window_mass(rad)
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


class TestBoundaryLeak:
    def test_monitor(self):
        g = line_grid(8.0, 161)
        op = build_operator(g, axis_weight(0.0))
        narrow = apply_semigroup(op, gaussian_field(g, 1.0, 0.5), 0.1, tol=1e-6)
        wide = apply_semigroup(op, gaussian_field(g, 1.0, 0.5), 50.0, tol=1e-4)
        assert boundary_leak(narrow) < 1e-12
        assert boundary_leak(wide) > boundary_leak(narrow)
