"""Discrete semigroup of the linear weighted heat flow v_t = div(omega grad v).

The operator is assembled in flux form with omega evaluated at cell faces, so
no stencil ever divides by the weight at its zero.  Time marching is backward
Euler by default (positivity preserving) with Crank-Nicolson available for
accuracy studies; both use step-doubling error control.  Homogeneous Dirichlet
conditions close the truncated domain.

``adaptive_steps`` is the one step-size controller; the linear march here and
the IMEX march in ``dynamics`` supply only a trial step and its error.

Every step solves (I - c A) x = rhs.  The adaptive marches reuse one step
size for long runs, so each operator keeps the LAPACK ``gttrf`` LU factors of
its two most recently factored shifts and answers repeated solves with
``gttrs`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import ConfigError, NumericError
from .grids import Field, Geometry, GridSpec
from .weight import WeightSpec

_TINY = 1e-300
# Trial steps (accepted or rejected) one adaptive march may take.
_STEP_CAP = 5_000_000
# Shifts whose factors an operator keeps: step-doubling needs dt and dt/2.
_FACTOR_CACHE_SIZE = 2


@dataclass(frozen=True)
class DiffusionOperator:
    """Tridiagonal flux-form discretization of div(omega grad .)."""

    grid: GridSpec
    weight: WeightSpec
    face_weights: np.ndarray  # omega at the M-1 cell faces
    sub: np.ndarray           # lower diagonal of A, length M-1
    diag: np.ndarray          # main diagonal, length M
    sup: np.ndarray           # upper diagonal, length M-1
    _factors: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = self.diag * values
        out[:-1] += self.sup * values[1:]
        out[1:] += self.sub * values[:-1]
        return out

    def solve_shifted(self, c: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - c A) x = rhs, factoring I - c A once per distinct c."""
        if not np.isfinite(rhs).all():
            raise ValueError("right-hand side must not contain infs or NaNs")
        factors = self._factors.get(c)
        if factors is None:
            if not math.isfinite(c):
                raise ValueError(f"shift must be finite, got {c}")
            *factors, info = dgttrf(-c * self.sub, 1.0 - c * self.diag, -c * self.sup)
            if info != 0:
                raise NumericError(f"tridiagonal factorisation failed: LAPACK gttrf info={info}")
            if len(self._factors) == _FACTOR_CACHE_SIZE:
                del self._factors[next(iter(self._factors))]
            self._factors[c] = factors
        x, info = dgttrs(*factors, rhs)
        if info != 0:
            raise NumericError(f"tridiagonal solve failed: LAPACK gttrs info={info}")
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
    if scheme == "cn":
        rhs = values + (dt / 2.0) * op.apply(values)
        return op.solve_shifted(dt / 2.0, rhs)
    raise ConfigError(f"unknown scheme {scheme!r}")


def adaptive_steps(state, horizon, dt0, dt_min, hi, lo, trial):
    """March ``state`` over [0, horizon]; yield (t, dt, state) per accepted step.

    ``trial(state, t, dt)`` returns a candidate and its error.  An error above
    ``hi`` halves the step unless it is at ``dt_min``; an accepted error below
    ``lo`` doubles the next one.  ``_STEP_CAP`` trials raise ``NumericError``.
    """
    t = 0.0
    dt = dt0
    for _ in range(_STEP_CAP):
        if t >= horizon * (1.0 - 1e-14):
            return
        dt = min(dt, horizon - t)
        candidate, err = trial(state, t, dt)
        if err > hi and dt > dt_min:
            dt /= 2.0
            continue
        t += dt
        state = candidate
        yield t, dt, state
        if err < lo:
            dt *= 2.0
    raise NumericError("adaptive march exceeded the step cap")


def apply_semigroup(op: DiffusionOperator, u0: Field, t: float, tol: float = 1e-6,
                    scheme: str = "be", n_steps: int | None = None) -> Field:
    """Evolve u0 under the linear flow for time t.

    With ``n_steps`` the march uses that many uniform steps and no error
    control, which is what refinement studies want.
    """
    if u0.grid != op.grid:
        raise ConfigError("field grid does not match the operator grid")
    if t < 0.0:
        raise ConfigError(f"time must be nonnegative, got {t}")
    if n_steps is not None and n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    if t == 0.0:
        return u0.copy()
    v = u0.values.copy()
    if n_steps is not None:
        dt = t / n_steps
        for _ in range(n_steps):
            v = _step(op, v, dt, scheme)
        return Field(op.grid, v)

    def trial(v, _, dt):
        full = _step(op, v, dt, scheme)
        half = _step(op, _step(op, v, dt / 2.0, scheme), dt / 2.0, scheme)
        scale = max(float(np.max(np.abs(half))), _TINY)
        return half, float(np.max(np.abs(full - half))) / scale

    for _, _, v in adaptive_steps(v, t, t / 8.0, t * 1e-12, tol, tol / 4.0, trial):
        pass
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
