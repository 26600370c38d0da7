"""Discrete semigroup of the linear weighted heat flow v_t = div(omega grad v).

The operator is assembled in flux form with omega evaluated at cell faces, so
no stencil ever divides by the weight at its zero.  Homogeneous Dirichlet
conditions close the truncated domain.

``apply_semigroup`` has two paths.  Given a tolerance it computes exp(tA) u0
from a shift-and-invert Krylov basis of (I - gamma A)^{-1} (van den Eshof &
Hochbruck, SIAM J. Sci. Comput. 27, 2006; Moret & Novati, BIT 44, 2004).
Given ``n_steps`` it marches that many uniform backward-Euler (positivity
preserving) or Crank-Nicolson steps, one fixed matrix for the whole march;
``scheme`` governs only this path.

Every Krylov vector and every step solves (I - c A) x = rhs.  With V the
diagonal of node volumes, V A is symmetric on the free rows (the flux through
the face between nodes i and i+1 is V_i A_{i,i+1} = V_{i+1} A_{i+1,i}), and
the Dirichlet rows of A are zero.  So the solve is of the symmetric positive
definite system

    V (I - c A) x = V rhs,

in which a Dirichlet row is the identity row x_b = rhs_b and its coupling
c V_i A_{i,b} rhs_b moves to the right-hand side of the free neighbour i.  Each
operator keeps the LAPACK ``pttrf`` factors L D L^T of its two most recently
factored shifts and answers repeated solves with ``pttrs`` alone.  For c > 0
the off-diagonals -c V_i A_{i,i+1} are <= 0 and D > 0, so every multiplier of
L is <= 0 and both sweeps of ``pttrs`` only add non-negative multiples and
divide by positive pivots: non-negative data give a non-negative solution and
ordered data an ordered one, exactly in floating point, with no clipping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import ConfigError, NumericError
from .grids import Field, Geometry, GridSpec
from .weight import WeightSpec

_TINY = 1e-300
# Shifts whose factors an operator keeps: the IMEX march in ``dynamics`` halves
# and doubles its step, so it moves between two sizes.
_FACTOR_CACHE_SIZE = 2
# Krylov path: the shift is gamma = _SHIFT_FRACTION * t, and a basis may grow
# to _KRYLOV_CAP vectors before the call gives up.
_SHIFT_FRACTION = 0.1
_KRYLOV_CAP = 80
# V_i A_{i,i+1} and V_{i+1} A_{i+1,i} are the same face flux, each rounded
# through a division and a product: they agree to a few ulps
_SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class DiffusionOperator:
    """Tridiagonal flux-form discretization of div(omega grad .).

    A row with a zero diagonal is a Dirichlet row and must be zero; the other
    rows must be symmetric in the volume-weighted inner product, or
    construction raises ConfigError.
    """

    grid: GridSpec
    weight: WeightSpec
    face_weights: np.ndarray  # omega at the M-1 cell faces
    sub: np.ndarray           # lower diagonal of A, length M-1
    diag: np.ndarray          # main diagonal, length M
    sup: np.ndarray           # upper diagonal, length M-1
    _factors: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # the symmetric form read by solve_shifted, derived once in __post_init__:
    # row scale (V, 1 on Dirichlet rows), V diag, V A between two free rows,
    # and (free row, Dirichlet row, V_i A_{i,b}) for each coupling moved to the rhs
    _scale: np.ndarray = field(init=False, compare=False, repr=False)
    _scaled_diag: np.ndarray = field(init=False, compare=False, repr=False)
    _coupling: np.ndarray = field(init=False, compare=False, repr=False)
    _links: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        vol = self.grid.node_volumes()
        free = self.diag != 0.0
        upper = vol[:-1] * self.sup     # V_i A_{i,i+1}
        lower = vol[1:] * self.sub      # V_{i+1} A_{i+1,i}
        both = free[:-1] & free[1:]
        bad = both & ~(np.abs(upper - lower) <= _SYMMETRY_RTOL * np.abs(upper))
        bad |= ~free[:-1] & (self.sup != 0.0)
        bad |= ~free[1:] & (self.sub != 0.0)
        if bad.any():
            row = int(np.argmax(bad))
            raise ConfigError(f"operator is not volume-symmetric between rows {row} "
                              f"and {row + 1}")
        links = [(i, i + 1, upper[i]) for i in np.flatnonzero(free[:-1] & ~free[1:])]
        links += [(i + 1, i, lower[i]) for i in np.flatnonzero(~free[:-1] & free[1:])]
        object.__setattr__(self, "_scale", np.where(free, vol, 1.0))
        object.__setattr__(self, "_scaled_diag", vol * self.diag)
        object.__setattr__(self, "_coupling", np.where(both, upper, 0.0))
        object.__setattr__(self, "_links", tuple((int(i), int(b), float(a))
                                                 for i, b, a in links if a != 0.0))

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = self.diag * values
        out[:-1] += self.sup * values[1:]
        out[1:] += self.sub * values[:-1]
        return out

    def solve_shifted(self, c: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - c A) x = rhs, factoring V (I - c A) once per distinct c."""
        if not np.isfinite(rhs).all():
            raise ValueError("right-hand side must not contain infs or NaNs")
        factors = self._factors.get(c)
        if factors is None:
            if not math.isfinite(c):
                raise ValueError(f"shift must be finite, got {c}")
            *factors, info = dpttrf(self._scale - c * self._scaled_diag, -c * self._coupling,
                                    overwrite_d=1, overwrite_e=1)
            if info != 0:
                raise NumericError(f"tridiagonal factorisation failed: LAPACK pttrf info={info}")
            if len(self._factors) == _FACTOR_CACHE_SIZE:
                del self._factors[next(iter(self._factors))]
            self._factors[c] = factors
        b = rhs * (self._scale if rhs.ndim == 1 else self._scale[:, None])
        for row, col, a in self._links:
            b[row] += (c * a) * rhs[col]
        x, info = dpttrs(*factors, b, overwrite_b=1)
        if info != 0:
            raise NumericError(f"tridiagonal solve failed: LAPACK pttrs info={info}")
        return x


def build_operator(grid: GridSpec, weight: WeightSpec) -> DiffusionOperator:
    """Assemble the flux-form operator on the cells of ``grid.cells()``.

    Row i is the net flux through its cell's faces over the cell measure in
    N dimensions; a line is the case N = 1.
    """
    grid.check_weight(weight)
    m, n = grid.nodes, grid.dim
    inner, outer = grid.cells()
    faces = outer[:-1]
    fw = np.abs(faces) ** weight.alpha if weight.alpha > 0 else np.ones(m - 1)
    flux = fw * faces ** (n - 1) / grid.spacing
    vol = (outer ** n - inner ** n) / n

    sub = np.zeros(m - 1)
    diag = np.zeros(m)
    sup = np.zeros(m - 1)
    # interior rows; the Dirichlet rows at the outer ends stay zero
    diag[1:-1] = -(flux[1:] + flux[:-1]) / vol[1:-1]
    sup[1:] = flux[1:] / vol[1:-1]      # row i couples to node i+1
    sub[:-1] = flux[:-1] / vol[1:-1]    # row i couples to node i-1
    if grid.geometry is Geometry.RADIAL:
        # origin row: reflection (zero flux) at r = 0
        diag[0] = -flux[0] / vol[0]
        sup[0] = flux[0] / vol[0]

    return DiffusionOperator(grid, weight, fw, sub, diag, sup)


def _step(op: DiffusionOperator, values: np.ndarray, dt: float, scheme: str) -> np.ndarray:
    if scheme == "be":
        return op.solve_shifted(dt, values)
    rhs = values + (dt / 2.0) * op.apply(values)
    return op.solve_shifted(dt / 2.0, rhs)


def _norm(v: np.ndarray) -> float:
    # einsum, not BLAS: a threaded BLAS call on an M-vector costs more than it does
    return math.sqrt(np.einsum("i,i->", v, v))


def _dirichlet_steady_state(op: DiffusionOperator, u: np.ndarray) -> np.ndarray:
    """The vector h with A h = 0 that equals u at the Dirichlet nodes.

    Radially it is the constant u[-1].  On a line the flux fw (h_{i+1} - h_i)
    / dx is the same through every face, so h climbs in steps 1/fw.
    """
    if op.grid.geometry is Geometry.RADIAL:
        return np.full_like(u, u[-1])
    steps = np.concatenate(([0.0], np.cumsum(1.0 / op.face_weights)))
    h = u[0] + (u[-1] - u[0]) * (steps / steps[-1])
    h[-1] = u[-1]
    return h


def _krylov_semigroup(op: DiffusionOperator, u0: np.ndarray, t: float,
                      tol: float) -> np.ndarray:
    """exp(tA) u0 as h + exp(tA)(u0 - h), h the Dirichlet steady state.

    u0 - h vanishes at the Dirichlet nodes (the zero rows of A), and so does
    every vector of its Krylov basis V of B = (I - gamma A)^{-1}; each solve's
    roundoff there is dropped, since B keeps it while it damps the rest.  On
    the other nodes A is symmetric in the volume-weighted inner product, so
    for the scaled vectors sqrt(vol) * u the basis is a Lanczos basis, kept
    orthonormal by full Gram-Schmidt, and H = V^T B V is symmetric
    tridiagonal with eigenpairs (theta, q) in (0, 1].  A acts on the basis as
    A_m = (I - H^{-1}) / gamma, so exp(tA)(u0 - h) ~ beta V q
    exp(t (1 - 1/theta) / gamma) q^T e1; a symmetric eigendecomposition is
    well conditioned.  Every second vector the result is formed and compared
    with the previous one; it is accepted once the two agree to ``tol``
    relative in the sup norm, which the probes read, or at once when the
    basis spans an invariant subspace.
    """
    gamma = _SHIFT_FRACTION * t
    steady = _dirichlet_steady_state(op, u0)
    unscale = 1.0 / np.sqrt(op.grid.node_volumes())
    scale = 1.0 / unscale
    scale[op.diag == 0.0] = 0.0
    y0 = scale * (u0 - steady)
    beta = _norm(y0)
    if beta == 0.0:
        return steady
    y0 /= beta
    basis = [y0]
    hess = np.zeros((_KRYLOV_CAP + 1, _KRYLOV_CAP))
    prev = None
    for j in range(_KRYLOV_CAP):
        w = scale * op.solve_shifted(gamma, unscale * basis[j])
        size = before = _norm(w)
        for _ in range(2):
            # modified Gram-Schmidt, repeated when w lost most of its norm
            for i, v in enumerate(basis):
                dot = np.einsum("i,i->", v, w)
                hess[i, j] += dot
                w -= dot * v
            rest = _norm(w)
            if rest > 0.5 * size:
                break
            size = rest
        hess[j + 1, j] = rest
        m = j + 1
        invariant = rest <= 1e-12 * before     # nothing left but roundoff
        if m % 2 == 0 or invariant:
            # eigh reads only the lower triangle: the tridiagonal part of H
            theta, q = np.linalg.eigh(hess[:m, :m])
            coef = beta * (q @ (np.exp((t / gamma) * (1.0 - 1.0 / theta)) * q[0]))
            out = coef[0] * basis[0]
            for c, v in zip(coef[1:], basis[1:]):
                out += c * v
            out *= unscale
            out += steady
            if invariant or (prev is not None and np.max(np.abs(out - prev))
                             <= tol * np.max(np.abs(out))):
                return out
            prev = out
        w /= rest
        basis.append(w)
    raise NumericError(f"Krylov basis reached {_KRYLOV_CAP} vectors without converging")


def apply_semigroup(op: DiffusionOperator, u0: Field, t: float, tol: float = 1e-6,
                    scheme: str = "be", n_steps: int | None = None) -> Field:
    """Evolve u0 under the linear flow for time t.

    Without ``n_steps`` the result is exp(tA) u0 from a shift-and-invert
    Krylov basis, grown until two successive results agree to ``tol``
    relative in the sup norm.  Krylov roundoff can dip
    below the data's lower bound, which the exact flow keeps (exp(tA) has
    nonnegative entries and unit row sums), so the result is clipped below at
    min(0, min u0): nonnegative data give a nonnegative result.

    With ``n_steps`` the march uses that many uniform ``scheme`` steps
    ("be" or "cn") and no error control, which is what refinement studies
    and fixed monotone panels want.
    """
    if not tol > 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    if scheme not in ("be", "cn"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    if u0.grid != op.grid:
        raise ConfigError("field grid does not match the operator grid")
    if not t >= 0.0:
        raise ConfigError(f"time must be nonnegative, got {t}")
    if n_steps is not None and n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    if t == 0.0:
        return u0.copy()
    v = u0.values
    if n_steps is None:
        out = _krylov_semigroup(op, v, t, tol)
        return Field(op.grid, np.maximum(out, min(0.0, float(v.min())), out=out))
    dt = t / n_steps
    for _ in range(n_steps):
        v = _step(op, v, dt, scheme)
    return Field(op.grid, v)


def kernel_column(op: DiffusionOperator, y_index: int, t: float, tol: float = 1e-6) -> Field:
    """Evolve a unit-mass discrete delta at node ``y_index``: a kernel probe."""
    if t <= 0.0:
        raise ConfigError(f"kernel probe needs t > 0, got {t}")
    if not 0 <= y_index < op.grid.nodes:
        raise ConfigError(f"node index {y_index} out of range")
    vol = op.grid.node_volumes()[y_index]
    spike = np.zeros(op.grid.nodes)
    spike[y_index] = 1.0 / vol
    return apply_semigroup(op, Field(op.grid, spike), t, tol=tol)


def semigroup_defect(op: DiffusionOperator, u0: Field, t: float, s: float,
                     n_steps: int = 64, scheme: str = "be") -> float:
    """Relative gap between S(t-s)S(s)u0 and S(t)u0 at fixed step counts.

    The gap comes purely from time discretization (the spatial matrix is
    shared), so it shrinks under step refinement; a convergence diagnostic.
    """
    if not 0.0 < s < t:
        raise ConfigError(f"need 0 < s < t, got s={s}, t={t}")
    direct = apply_semigroup(op, u0, t, n_steps=n_steps, scheme=scheme)
    first = apply_semigroup(op, u0, s, n_steps=n_steps, scheme=scheme)
    composed = apply_semigroup(op, first, t - s, n_steps=n_steps, scheme=scheme)
    denom = max(direct.sup(), _TINY)
    return float(np.max(np.abs(composed.values - direct.values))) / denom


def smoothing_norm_check(op: DiffusionOperator, u0: Field, t: float,
                         q1: float, q2: float) -> float:
    """Ratio ||S(t)u0||_{q2} / (t^{-(N/(2-a))(1/q1-1/q2)} ||u0||_{q1}).

    Bounded over a time decade when the L^{q1}->L^{q2} smoothing estimate
    holds at the discrete level.
    """
    if not (1 <= q1 <= q2):
        raise ConfigError(f"need 1 <= q1 <= q2, got ({q1}, {q2})")
    if t <= 0.0:
        raise ConfigError(f"need t > 0, got {t}")
    evolved = apply_semigroup(op, u0, t, tol=1e-6)
    inv_q1 = 0.0 if q1 == math.inf else 1.0 / q1
    inv_q2 = 0.0 if q2 == math.inf else 1.0 / q2
    n_over = op.weight.dim / op.weight.scaling_exponent
    rate = t ** (-n_over * (inv_q1 - inv_q2))
    denom = rate * max(u0.lq_norm(q1), _TINY)
    return evolved.lq_norm(q2) / denom


def boundary_leak(u: Field) -> float:
    """Largest boundary value relative to the sup norm (domain-truncation monitor)."""
    vals = np.abs(u.values)
    edge = vals[-1] if u.grid.geometry is Geometry.RADIAL else max(vals[0], vals[-1])
    return float(edge / max(vals.max(), _TINY))
