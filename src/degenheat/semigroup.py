"""Discrete semigroup of the linear weighted heat flow v_t = div(omega grad v).

The operator is stored in finite-volume form: one measure V_i per node (its
cell's volume in R^N, ``GridSpec.node_volumes``) and one conductance K_i per
face between nodes i and i+1 (omega at the face, times the face's measure,
over the distance between the two nodes).  No stencil ever divides by the
weight at its zero.  The flux from node i+1 into node i is K_i (v_{i+1} - v_i),
and on a free row

    V_i (A v)_i = K_i (v_{i+1} - v_i) - K_{i-1} (v_i - v_{i-1}),

with K_{-1} = 0 at the reflecting centre of a radial grid.  Dirichlet
conditions close the truncated domain: both ends of a line and the outer end
of a radial grid are Dirichlet rows, where A is zero, so both flows below keep
the data's values there.

``apply_semigroup`` has two paths.  Given a tolerance it computes exp(tA) u0
from a shift-and-invert Krylov basis of (I - gamma A)^{-1} (van den Eshof &
Hochbruck, SIAM J. Sci. Comput. 27, 2006; Moret & Novati, BIT 44, 2004).
Given ``n_steps`` it marches that many uniform backward-Euler (positivity
preserving) or Crank-Nicolson steps, one fixed matrix for the whole march;
``scheme`` governs only this path.

Every Krylov vector and every step solves (I - c A) x = rhs.  A Dirichlet
row passes through, x_b = rhs_b; the free rows form the symmetric positive
definite system

    V (I - c A) x = V rhs,

with the diagonal V_i + c (K_{i-1} + K_i) and the off-diagonals -c K_i on
the faces between free rows, and the coupling c K rhs_b of a Dirichlet row
moves to the right-hand side of its free neighbour.  Each operator keeps the
LAPACK ``pttrf`` factors L D L^T of its two most recently factored shifts and
answers repeated solves with ``pttrs`` alone.  For c > 0 the off-diagonals
are <= 0 and D > 0, so every multiplier of L is <= 0 and both sweeps of
``pttrs`` only add non-negative multiples and divide by positive pivots:
non-negative data give a non-negative solution and ordered data an ordered
one, exactly in floating point, with no clipping.

For c > 0, ``pttrs`` runs only over a window of free rows lo..hi outside
which the exact solution is provably below the smallest normal number,
2^-1022; those rows come back as exact zeros, a flush to zero of values that
can only be subnormal.  The entries of L^{-1} are products of the multipliers
l_k of L, |L^{-1}_{ij}| <= r^(i-j) for i >= j with r = max |l_k| < 1, so
beyond the support [s, t] of the free rows b of V rhs, with rho = -log r,

    log|x_i| <= log(n Q) + max_{s<=j<=t} (log|b_j| - rho (i - j)),    i > t,

and mirrored for i < s, where n = t - s + 1 and Q = min(F, 1 / (1 - r^2)) /
min D, F the number of free rows, bounds sum_{k>=i} |L^{-1}_{ki}|^2 / D_k.
Entries of rhs below 2^-1022 outside the support count as zero: I - cA has a
non-negative inverse with row sums <= 1, so they move x by less than 2^-1022.
When both end free rows hold normal values the window is every free row.  The
bound grows with |b|, so data 0 <= lo <= hi get nested windows, and
positivity and order stay exact.  One rate per factorisation suffices where
the tails live: on a uniform grid |l_k| is the same on every row away from
the ends, while a prefix sum of log|l_k| per factorisation would cost about
one more solve.  Flushing only the output would not do: a sweep whose tail
goes subnormal keeps it there, since a multiplier above 1/2 rounds 2^-1074
back to 2^-1074, and it runs subnormal arithmetic out to the last free row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import ConfigError, NumericError
from .grids import Field, Geometry, GridSpec
from .weight import WeightSpec, _sphere_area

_TINY = 1e-300
# The smallest normal float 2^-1022 and the smallest subnormal 2^-1074; the
# window bound of ``solve_shifted`` keeps _LOG_SLACK in hand for the rounding
# of its logarithms and products.
_NORMAL = float(np.finfo(float).tiny)
_SMALLEST = math.ulp(0.0)
_LOG_NORMAL = math.log(_NORMAL)
_LOG_SLACK = 0.25
# Shifts whose factors an operator keeps: the IMEX march in ``dynamics`` halves
# and doubles its step, so it moves between two sizes.
_FACTOR_CACHE_SIZE = 2
# Krylov path: the shift is gamma = _SHIFT_FRACTION * t, and a basis may grow
# to _KRYLOV_CAP vectors before the call gives up.
_SHIFT_FRACTION = 0.1
_KRYLOV_CAP = 80


@dataclass(frozen=True, eq=False)
class DiffusionOperator:
    """Finite-volume form of div(omega grad .): node volumes, face conductances.

    Equality and hashing go by identity: each operator owns its factor cache.
    """

    grid: GridSpec
    weight: WeightSpec
    volumes: np.ndarray       # V, the grid's node volumes, length M
    conductances: np.ndarray  # K, one per face between nodes i and i+1, length M-1
    _factors: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def free(self) -> slice:
        """The rows that are not Dirichlet rows: all but the outer end radially,
        all but both ends on a line."""
        return slice(0 if self.grid.geometry is Geometry.RADIAL else 1, -1)

    def apply(self, values: np.ndarray) -> np.ndarray:
        flux = np.zeros(values.size + 1)
        flux[1:-1] = self.conductances * np.diff(values)
        out = np.zeros_like(values)
        rows = self.free
        out[rows] = np.diff(flux)[rows] / self.volumes[rows]
        return out

    def solve_shifted(self, c: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - c A) x = rhs, factoring the free rows of V (I - c A) once
        per distinct c; the Dirichlet rows pass through, x_b = rhs_b.

        An (M, k) block is solved column by column, each column as if alone.
        """
        if not np.isfinite(rhs).all():
            raise ValueError("right-hand side must not contain infs or NaNs")
        factors = self._factors.get(c)
        if factors is None:
            factors = self._factor(c)
        k, rows = self.conductances, self.free
        x = rhs * (self.volumes if rhs.ndim == 1 else self.volumes[:, None])
        # x_b = rhs_b, and c K rhs_b moves to the right-hand side of b's free neighbour
        x[-1] = rhs[-1]
        x[-2] += c * k[-1] * rhs[-1]
        if rows.start:
            x[0] = rhs[0]
            x[1] += c * k[0] * rhs[0]
        free = x[rows]
        for b in (free.T if free.ndim == 2 else (free,)):
            lo, hi = factors.window(b)
            if lo <= hi:
                # pttrs reads the multipliers e[lo:hi] but wants at least one entry
                b[lo:hi + 1], info = dpttrs(factors.d[lo:hi + 1],
                                            factors.e[lo:max(hi, lo + 1)],
                                            b[lo:hi + 1], overwrite_b=1)
                if info != 0:
                    raise NumericError(f"tridiagonal solve failed: LAPACK pttrs info={info}")
            if hi - lo + 1 < b.size:    # skips two empty assignments, ~1 us
                b[:lo] = 0.0
                b[hi + 1:] = 0.0
        return x

    def _factor(self, c: float) -> "_Factors":
        """``pttrf`` of the free rows of V (I - c A), kept in the factor cache."""
        if not math.isfinite(c):
            raise ValueError(f"shift must be finite, got {c}")
        k, rows = self.conductances, self.free
        # V + c (K_{i-1} + K_i): summing the faces before scaling rounds once
        # less than adding c K face by face
        d = np.zeros_like(self.volumes)
        np.add(k[:-1], k[1:], out=d[1:-1])
        d[0] = k[0]
        d *= c
        d += self.volumes
        d = d[rows]
        # K[rows] are the faces between free rows.  The LAPACK wrappers want n - 1
        # off-diagonals but at least one, so e keeps a spare 0 at its end.
        e = np.zeros_like(d)
        np.multiply(k[rows], -c, out=e[:-1])
        m = max(d.size - 1, 1)
        d, e[:m], info = dpttrf(d, e[:m], overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise NumericError(f"tridiagonal factorisation failed: LAPACK pttrf info={info}")
        if len(self._factors) == _FACTOR_CACHE_SIZE:
            del self._factors[next(iter(self._factors))]
        self._factors[c] = factors = _Factors(d, e, c > 0.0, self.volumes[rows])
        return factors


class _Factors:
    """The ``pttrf`` factors L D L^T of the free rows of V (I - c A), one shift c.

    ``d`` holds the pivots D and ``e`` the multipliers l_i = L[i+1, i], then
    a spare 0.  The window bound's three scalars are computed on the first
    window that needs them and kept with the factors.
    """

    __slots__ = ("d", "e", "positive", "volumes", "_bound")

    def __init__(self, d: np.ndarray, e: np.ndarray, positive: bool, volumes: np.ndarray):
        self.d, self.e = d, e
        self.positive = positive   # c > 0: the window applies
        self.volumes = volumes     # V on the free rows
        self._bound = None

    def window(self, b: np.ndarray) -> tuple[int, int]:
        """(lo, hi) such that the solution is below 2^-1022 off rows lo..hi.

        ``b`` is V rhs on the free rows, with the Dirichlet coupling.  Entries
        below 2^-1022 min V, so |rhs_j| < 2^-1022, count as zero beyond the
        support [s, t] of the rest; an empty support gives (n, -1).
        """
        n = b.size
        if not self.positive:
            return 0, n - 1
        if self._bound is None:
            # Every multiplier lies in [-r, 0] with r < 1, so |L^{-1}_{ij}| <= r^(i-j);
            # decoupled rows (r = 0) bound like the smallest subnormal.
            r = max(-float(self.e.min()), _SMALLEST)
            terms = n if r * r >= 1.0 - 1.0 / n else 1.0 / (1.0 - r * r)
            floor = max(_NORMAL * float(self.volumes.min()), _SMALLEST)
            self._bound = -math.log(r), math.log(terms / float(self.d.min())), floor
        rate, log_q, floor = self._bound
        # r rounds to 1 or just above: no decay to bound; or both end rows
        # hold normal values, so the support is every row
        if not rate > 0.0 or (abs(b[0]) >= floor and abs(b[-1]) >= floor):
            return 0, n - 1
        size = np.abs(b)
        # find and rfind scan the mask's bytes in C
        normal = (size >= floor).tobytes()
        s, t = normal.find(1), normal.rfind(1)
        if s < 0:
            return n, -1
        reach = _LOG_SLACK + log_q + math.log(t - s + 1) - _LOG_NORMAL
        # The terms of s and t alone bound the maxima below: when they reach both
        # ends, so does the window, with no logarithm per row.
        if ((reach + math.log(size[s])) / rate >= s
                and (reach + math.log(size[t])) / rate >= n - 1 - t):
            return 0, n - 1
        # in place on the scratch array; entries raised to the floor never raise
        # a maximum, since the terms at s and t bound them
        logs = size[s:t + 1]
        np.log(np.maximum(logs, floor, out=logs), out=logs)
        ramp = np.arange(t - s + 1, dtype=float)
        ramp *= rate
        # the window reaches rate * (hi - s) <= right and rate * (s - lo) <= left
        right = (reach + float((logs + ramp).max())) / rate
        left = (reach + float(np.subtract(logs, ramp, out=ramp).max())) / rate
        lo = s - math.floor(left) if left < n else 0
        hi = s + math.floor(right) if right < n else n - 1
        return max(min(lo, s), 0), min(max(hi, t), n - 1)


def build_operator(grid: GridSpec, weight: WeightSpec) -> DiffusionOperator:
    """Node volumes and face conductances on the cells of ``grid.cells()``.

    A face between nodes sits at the outer end of the inner node's cell; its
    measure is 1 on a line and |S^{N-1}| r^{N-1} radially.
    """
    grid.check_weight(weight)
    n = grid.dim
    faces = grid.cells()[1][:-1]
    fw = np.abs(faces) ** weight.alpha if weight.alpha > 0 else np.ones(grid.nodes - 1)
    area = _sphere_area(n) if grid.geometry is Geometry.RADIAL else 1.0
    return DiffusionOperator(grid, weight, grid.node_volumes(),
                             area * fw * faces ** (n - 1) / grid.spacing)


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

    Radially it is the constant u[-1].  On a line the flux K_i (h_{i+1} - h_i)
    is the same through every face, so h climbs in steps 1/K_i.
    """
    if op.grid.geometry is Geometry.RADIAL:
        return np.full_like(u, u[-1])
    steps = np.concatenate(([0.0], np.cumsum(1.0 / op.conductances)))
    h = u[0] + (u[-1] - u[0]) * (steps / steps[-1])
    h[-1] = u[-1]
    return h


def _krylov_semigroup(op: DiffusionOperator, u0: np.ndarray, t: float,
                      tol: float) -> np.ndarray:
    """exp(tA) u0 as h + exp(tA)(u0 - h), h the Dirichlet steady state.

    u0 - h vanishes at the Dirichlet nodes (the zero rows of A), and so does
    every vector of its Krylov basis V of B = (I - gamma A)^{-1}, exactly:
    each solve passes the zero there through.  On the other nodes A is
    symmetric in the volume-weighted inner product, so
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
    unscale = 1.0 / np.sqrt(op.volumes)
    scale = 1.0 / unscale
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
    spike = np.zeros(op.grid.nodes)
    spike[y_index] = 1.0 / op.volumes[y_index]
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
