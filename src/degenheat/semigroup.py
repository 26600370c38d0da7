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
Hochbruck, SIAM J. Sci. Comput. 27, 2006; Moret & Novati, BIT 44, 2004), the
rows of one array (32 to start) orthonormalised by classical Gram-Schmidt
applied twice (CGS2; Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 2005).
The basis is a Lanczos basis, so its coefficients are two vectors, the
diagonal and the sub-diagonal of a symmetric tridiagonal matrix, whose
eigenpairs come from LAPACK ``dstev``.  Given ``n_steps`` it marches that
many uniform backward-Euler (positivity preserving) or Crank-Nicolson steps,
one fixed matrix for the whole march; ``scheme`` governs only this path.

Every flow of even line data folds here.  Line grids are exactly
mirror-symmetric, and on a line of M >= 5 nodes, data with v == v[::-1]
exactly evolve on the line operator's ``half``, its rows x >= 0 (``fold``),
and a result is mirrored back (``unfold``), so it is exactly even and the
next flow from it folds too.  The half's Krylov basis is the line's in the
volume-weighted inner product, so the basis sizes do not change.

Every Krylov vector and every step solves (I - c A) x = rhs.  A Dirichlet
row passes through, x_b = rhs_b; the free rows form the symmetric positive
definite system

    V (I - c A) x = V rhs,

with the diagonal V_i + c (K_{i-1} + K_i) and the off-diagonals -c K_i on
the faces between free rows, and the coupling c K rhs_b of a Dirichlet row
moves to the right-hand side of its free neighbour.  Each operator keeps the
LAPACK ``pttrf`` factors L D L^T of its latest shift, with their window
bound, and answers repeated solves at that shift with ``pttrs`` alone; a new
shift replaces them.  For c > 0 the off-diagonals are <= 0 and D > 0, so
every multiplier of L is <= 0 and both sweeps of ``pttrs`` only add
non-negative multiples and divide by positive pivots: non-negative data give
a non-negative solution and ordered data an ordered one, exactly in floating
point, with no clipping.

For c > 0, ``pttrs`` runs only over a window of free rows lo..hi outside
which the exact solution is provably below the smallest normal number,
2^-1022; those rows come back as exact zeros, a flush to zero of values that
can only be subnormal.  The entries of L^{-1} are products of the multipliers
l_m of L: with the prefix sums P_k = sum_{m<k} log|l_m|, which never
increase, |L^{-1}_{ij}| = exp(P_i - P_j) for i >= j.  So beyond the support
[s, t] of the free rows b of V rhs

    log|x_i| <= log(n Q) + max_{s<=j<=t} (log|b_j| - P_j) + P_i,    i > t,

and mirrored for i < s, where n = t - s + 1 and Q = min(F, 1 / (1 - r^2)) /
min D, F the number of free rows and r = max |l_m| < 1, bounds
sum_{k>=i} |L^{-1}_{ki}|^2 / D_k.  P is monotone, so each end of the window
is one binary search.  P_i - P_j sums only the multipliers between rows j and
i, so a large multiplier, such as the one at the reflecting centre of a
radial grid, widens no window away from it.  Entries of rhs below 2^-1022
outside the support count as zero in the bound: I - cA has a non-negative
inverse with row sums <= 1, so they move x by less than the largest of them,
a share rest < 1 of 2^-1022, and the bound's target is (1 - rest) 2^-1022.
When both end free rows hold normal values the window is every free row,
and so it is, with no pass over the support, when the terms of the support's
end rows alone keep both end rows by a margin.  Where the support ends within
a few rows of both ends, as it does for the Krylov vectors of a centre spike,
which hold an exact 0 at the centre row, those rows alone find it, and that
window costs O(1).
The bound grows with |b|, so data 0 <= lo <= hi get nested windows, and
positivity and order stay exact.  Flushing only the output would not do: a
sweep whose tail goes subnormal keeps it there, since a multiplier above 1/2
rounds 2^-1074 back to 2^-1074, and it runs subnormal arithmetic out to the
last free row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .errors import ConfigError, NumericError
from .grids import Field, Geometry, GridSpec
from .weight import WeightCase, WeightSpec, _sphere_area

_TINY = 1e-300
# The smallest normal float 2^-1022 and the smallest subnormal 2^-1074; the
# window bound of ``solve_shifted`` keeps _LOG_SLACK in hand for the rounding
# of its logarithms and products.
_NORMAL = float(np.finfo(float).tiny)
_SMALLEST = math.ulp(0.0)
_LOG_NORMAL = math.log(_NORMAL)
_LOG_SLACK = 0.25
# Krylov path: the shift is gamma = _SHIFT_FRACTION * t, and a basis may grow
# to _KRYLOV_CAP vectors before the call gives up; its array starts at
# _KRYLOV_ROWS rows, more than criteria 3 and 4 use, and doubles when full.
_SHIFT_FRACTION = 0.1
_KRYLOV_CAP = 80
_KRYLOV_ROWS = 32
# A windowed solve looks for the ends of its support this many rows in from
# each end before it scans every row.
_END_ROWS = 4


def _load_lapack():
    """LAPACK's ``dpttrf``, ``dpttrs`` and ``dstev``, from scipy's ``_flapack``
    extension.

    The extension is loaded on its own, not through ``scipy.linalg``, whose
    package init pulls in ``numpy.testing``, ``numpy.f2py`` and more, over half
    of this package's import time; scipy's directory comes from its import
    spec, which does not run ``scipy/__init__`` either.  The functions are the
    very objects ``scipy.linalg.lapack`` exports.  Where the extension cannot
    be loaded on its own (a source checkout with no built module there), they
    come from ``scipy.linalg.lapack``.
    """
    dirs = find_spec("scipy").submodule_search_locations
    spec = PathFinder.find_spec("scipy.linalg._flapack", [p + "/linalg" for p in dirs])
    if spec is not None:
        try:
            lapack = module_from_spec(spec)
            spec.loader.exec_module(lapack)
            return lapack.dpttrf, lapack.dpttrs, lapack.dstev
        except ImportError:
            pass
    from scipy.linalg import lapack
    return lapack.dpttrf, lapack.dpttrs, lapack.dstev


dpttrf, dpttrs, dstev = _load_lapack()


@dataclass(frozen=True, eq=False)
class DiffusionOperator:
    """Finite-volume form of div(omega grad .): node volumes, face conductances.

    The free rows' face sums K_{i-1} + K_i, their V and the K of the faces
    between them, and min V are kept with the arrays, so a factorisation
    assembles only its shift's two bands.  Equality and hashing go by
    identity: each operator owns the factors of its latest shift.
    """

    grid: GridSpec
    weight: WeightSpec
    volumes: np.ndarray       # V, the grid's node volumes, length M
    conductances: np.ndarray  # K, one per face between nodes i and i+1, length M-1
    _factors: dict = field(default_factory=dict, init=False, repr=False)
    _face_sums: np.ndarray = field(init=False, repr=False)
    _free_volumes: np.ndarray = field(init=False, repr=False)
    _free_faces: np.ndarray = field(init=False, repr=False)
    _min_volume: float = field(init=False, repr=False)

    def __post_init__(self):
        k, rows = self.conductances, self.free
        sums = np.add(k[:-1], k[1:])
        if rows.start == 0:     # K_{-1} = 0 at the reflecting centre
            sums = np.concatenate((k[:1], sums))
        object.__setattr__(self, "_face_sums", sums)
        object.__setattr__(self, "_free_volumes", self.volumes[rows])
        # K[rows] are the faces between free rows
        object.__setattr__(self, "_free_faces", k[rows])
        object.__setattr__(self, "_min_volume", float(self._free_volumes.min()))

    @property
    def free(self) -> slice:
        """The rows that are not Dirichlet rows: all but the outer end radially,
        all but both ends on a line."""
        return slice(0 if self.grid.geometry is Geometry.RADIAL else 1, -1)

    @cached_property
    def half(self) -> "DiffusionOperator | None":
        """The operator of this line's even data, sliced from its arrays on
        first use: on a line of M = 2c + 1 >= 5 nodes, the radial N = 1
        operator on the nodes x >= 0 bit for bit, whose V and K are twice the
        line's (|S^0| = 2), the centre V aside.  None on other grids."""
        grid = self.grid
        c = grid.nodes // 2
        if grid.geometry is not Geometry.LINE or c < 2:
            return None
        volumes = 2.0 * self.volumes[c:]
        volumes[0] = self.volumes[c]
        return DiffusionOperator(GridSpec(Geometry.RADIAL, grid.extent, c + 1, 1),
                                 WeightSpec(WeightCase.RADIAL_POWER, self.weight.alpha, 1),
                                 volumes, 2.0 * self.conductances[c:])

    @cached_property
    def _root_volumes(self) -> tuple[np.ndarray, np.ndarray]:
        """sqrt(V) and 1/sqrt(V), which carry the Krylov path's vectors to and
        from the volume-weighted inner product; made on first use."""
        unscale = 1.0 / np.sqrt(self.volumes)
        return 1.0 / unscale, unscale

    def apply(self, values: np.ndarray) -> np.ndarray:
        flux = np.zeros(values.size + 1)
        flux[1:-1] = self.conductances * np.diff(values)
        out = np.zeros_like(values)
        rows = self.free
        out[rows] = np.diff(flux)[rows] / self.volumes[rows]
        return out

    def solve_shifted(self, c: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - c A) x = rhs, factoring the free rows of V (I - c A) when
        c is not the latest shift; the Dirichlet rows pass through, x_b = rhs_b.

        An (M, k) block is solved column by column, each column as if alone.
        """
        if not np.isfinite(rhs).all():
            raise ValueError("right-hand side must not contain infs or NaNs")
        factors = self._factors.get(c)
        if factors is None:
            factors = self._factor(c)
        x = rhs * (self.volumes if rhs.ndim == 1 else self.volumes[:, None])
        # x_b = rhs_b, and c K rhs_b moves to the right-hand side of b's free neighbour
        x[-1] = rhs[-1]
        x[-2] += factors.couple_hi * rhs[-1]
        rows = factors.rows
        if rows.start:
            x[0] = rhs[0]
            x[1] += factors.couple_lo * rhs[0]
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
        """``pttrf`` of the free rows of V (I - c A), kept in place of the last."""
        if not math.isfinite(c):
            raise ValueError(f"shift must be finite, got {c}")
        # V + c (K_{i-1} + K_i): summing the faces before scaling rounds once
        # less than adding c K face by face
        d = np.multiply(self._face_sums, c)
        d += self._free_volumes
        # The LAPACK wrappers want n - 1 off-diagonals but at least one, so e
        # keeps a spare 0 at its end.
        e = np.empty_like(d)
        np.multiply(self._free_faces, -c, out=e[:-1])
        e[-1] = 0.0
        m = max(d.size - 1, 1)
        d, e[:m], info = dpttrf(d, e[:m], overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise NumericError(f"tridiagonal factorisation failed: LAPACK pttrf info={info}")
        self._factors.clear()
        k = self.conductances
        self._factors[c] = factors = _Factors(d, e, c, float(k[0]), float(k[-1]), self.free,
                                              self._min_volume)
        return factors


class _Factors:
    """The ``pttrf`` factors L D L^T of the free rows of V (I - c A), one shift c.

    ``d`` holds the pivots D and ``e`` the multipliers l_i = L[i+1, i], then
    a spare 0.  ``couple_lo`` and ``couple_hi`` are c K on the faces next to
    the Dirichlet rows, ``rows`` the free rows.  The window bound's
    ``reach`` log Q + slack - log 2^-1022 and ``floor`` 2^-1022 min V are
    computed with the factors; ``drop`` = -P, the negated prefix sums of the
    module docstring, on the first windowed solve.  c <= 0, or a multiplier
    that rounds to modulus 1, has no window.
    """

    __slots__ = ("d", "e", "rows", "couple_lo", "couple_hi", "windowed", "reach", "floor",
                 "drop")

    def __init__(self, d: np.ndarray, e: np.ndarray, c: float, k_lo: float, k_hi: float,
                 rows: slice, min_volume: float):
        self.d, self.e = d, e
        self.rows = rows
        self.couple_lo, self.couple_hi = c * k_lo, c * k_hi
        # For c > 0 every multiplier lies in [-r, 0], with r < 1 unless it rounds up
        n = d.size
        r = max(-float(e.min()), _SMALLEST)
        terms = n if r * r >= 1.0 - 1.0 / n else 1.0 / (1.0 - r * r)
        self.windowed = c > 0.0 and r < 1.0
        self.reach = _LOG_SLACK + math.log(terms / float(d.min())) - _LOG_NORMAL
        self.floor = max(_NORMAL * min_volume, _SMALLEST)
        self.drop = None

    def _sum_drops(self) -> None:
        """``drop`` = -P, from 0 up; each |l_m| is floored at the smallest
        subnormal, which bounds a multiplier that rounded to 0.  The sums' and
        logarithms' rounding, under 2^-50 n max(drop), widens ``reach``."""
        n = self.d.size
        drop = np.zeros(n)
        tail = drop[1:]
        np.negative(self.e[:n - 1], out=tail)
        np.log(np.maximum(tail, _SMALLEST, out=tail), out=tail)
        np.cumsum(tail, out=tail)
        np.negative(tail, out=tail)
        self.reach += 2.0 ** -50 * n * float(drop[-1])
        self.drop = drop

    def window(self, b: np.ndarray) -> tuple[int, int]:
        """(lo, hi) such that the solution is below 2^-1022 off rows lo..hi.

        ``b`` is V rhs on the free rows, with the Dirichlet coupling.  Entries
        below 2^-1022 min V, so |rhs_j| < 2^-1022, count as zero beyond the
        support [s, t] of the rest; an empty support gives (n, -1).
        """
        n = b.size
        floor = self.floor
        # no decay to bound, or both end rows hold normal values, so the
        # support is every row
        if not self.windowed or (abs(b[0]) >= floor and abs(b[-1]) >= floor):
            return 0, n - 1
        # The support [s, t]: from the _END_ROWS rows at each end when it ends
        # there, as the Krylov vectors of a centre spike do; else from a mask of
        # every row, whose find and rfind scan its bytes in C.
        k = min(_END_ROWS, n)
        head, tail = b[:k].tolist(), b[n - k:].tolist()
        s, r = 0, k - 1
        while s < k and abs(head[s]) < floor:
            s += 1
        while r >= 0 and abs(tail[r]) < floor:
            r -= 1
        size = None
        if s < k and r >= 0:
            t = n - k + r
            rest = max(map(abs, head[:s] + tail[r + 1:]), default=0.0)
        else:
            size = np.abs(b)
            normal = (size >= floor).tobytes()
            s, t = normal.find(1), normal.rfind(1)
            if s < 0:
                return n, -1
            rest = max(size[:s].max(initial=0.0), size[t + 1:].max(initial=0.0))
        if self.drop is None:
            self._sum_drops()
        # the rows off [s, t] move x by less than the largest of their |rhs_j|,
        # under 2^-1022 by the share ``rest``; the bound keeps to what they leave
        rest /= floor
        reach = self.reach + math.log(t - s + 1) - math.log1p(-rest)
        drop = self.drop
        # The terms at s and t alone bound the maxima below.  Where they keep
        # the end rows by a margin of 1, far over any rounding, so do the
        # maxima, and the window is every row: the Krylov vectors of a centre
        # spike on a half line hold an exact 0 at the centre row, and no more.
        if ((s == 0 or reach + math.log(abs(b[s])) - drop[s] >= 1.0)
                and (t == n - 1 or reach + math.log(abs(b[t])) + drop[t] - drop[-1] >= 1.0)):
            return 0, n - 1
        if size is None:
            size = np.abs(b)
        # in place on the scratch array; entries raised to the floor never raise
        # a maximum, since the terms at s and t bound them
        logs = size[s:t + 1]
        np.log(np.maximum(logs, floor, out=logs), out=logs)
        span = drop[s:t + 1]
        # row i > t is kept while drop_i <= right, row i < s while drop_i >= -left
        right = reach + float(np.add(logs, span).max())
        left = reach + float(np.subtract(logs, span, out=logs).max())
        hi = int(drop.searchsorted(right, side="right")) - 1
        lo = int(drop.searchsorted(-left, side="left"))
        return min(lo, s), max(hi, t)


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


def fold(op: DiffusionOperator, values: np.ndarray) -> tuple[DiffusionOperator, np.ndarray]:
    """The operator and rows a flow of ``values`` runs on: ``op.half`` and the
    rows x >= 0 when ``op`` has a half and the (M,) or (M, k) ``values`` are
    exactly even, ``values == values[::-1]``; else ``op`` and ``values``."""
    half = op.half
    if half is not None and np.array_equal(values, values[::-1]):
        return half, values[len(values) // 2:]
    return op, values


def unfold(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Values on ``grid`` from values on it or, mirrored, on its half's."""
    if len(values) == grid.nodes:
        return values
    return np.concatenate((values[:0:-1], values))


def _step(op: DiffusionOperator, values: np.ndarray, dt: float, scheme: str) -> np.ndarray:
    if scheme == "be":
        return op.solve_shifted(dt, values)
    rhs = values + (dt / 2.0) * op.apply(values)
    return op.solve_shifted(dt / 2.0, rhs)


def _norm(v: np.ndarray) -> float:
    # einsum, not BLAS: a threaded BLAS call on an M-vector costs more than it
    # does, and its sum depends on the number of threads
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
    symmetric in the volume-weighted inner product, so for the scaled vectors
    sqrt(vol) * u the basis is a Lanczos basis, the rows of one array (32 to
    start), kept orthonormal by classical Gram-Schmidt applied twice (CGS2,
    two matrix-vector products a pass), and H = V^T B V is symmetric
    tridiagonal with eigenpairs (theta, q) in (0, 1].  Only its diagonal and
    sub-diagonal are kept, and LAPACK ``dstev`` takes the eigenpairs from
    them.  A acts on the basis as A_m = (I - H^{-1}) / gamma, so
    exp(tA)(u0 - h) ~ beta V q exp(t (1 - 1/theta) / gamma) q^T e1; a
    symmetric eigendecomposition is well conditioned.  Each new vector w is
    written into its basis row before it is orthogonalised, so the first
    Gram-Schmidt product, over that row too, also gives |w|^2, which the
    invariant-subspace test reads.  Every second vector the result is formed
    and compared with the previous one; it is accepted once the two agree to
    ``tol`` relative in the sup norm, which the probes read, or at once when
    the basis spans an invariant subspace.

    The Gram-Schmidt products run through BLAS, which may split a long
    product between threads and so round it differently: kernel probes on
    100001- and 200001-node lines differ bitwise between one and two
    OpenBLAS threads, with the same printed 10 digits.  On 2001-node lines
    the probes are bit for bit the same (``tests/test_semigroup.py``).  The
    norms stay on ``einsum``, off BLAS ``ddot``, whose sums split between
    threads on long vectors.
    """
    gamma = _SHIFT_FRACTION * t
    steady = _dirichlet_steady_state(op, u0)
    scale, unscale = op._root_volumes
    y0 = scale * (u0 - steady)
    beta = _norm(y0)
    if beta == 0.0:
        return steady
    basis = np.empty((min(_KRYLOV_CAP + 1, _KRYLOV_ROWS), y0.size))
    np.divide(y0, beta, out=basis[0])
    # H's diagonal and sub-diagonal, filled as the basis grows
    diag = np.empty(_KRYLOV_CAP)
    sub = np.empty(_KRYLOV_CAP)
    prev = None
    for j in range(_KRYLOV_CAP):
        m = j + 1
        if m == len(basis):
            basis = np.concatenate((basis, np.empty_like(basis)))
        w = basis[m]
        np.multiply(op.solve_shifted(gamma, unscale * basis[j]), scale, out=w)
        # classical Gram-Schmidt, twice: two matrix-vector products a pass; the
        # first product runs over row m, w itself, too, and so gives |w|^2
        dots = basis[:m + 1] @ w
        w -= dots[:m] @ basis[:m]
        again = basis[:m] @ w
        w -= again @ basis[:m]
        diag[j] = dots[j] + again[j]
        rest = sub[j] = _norm(w)
        invariant = rest <= 1e-12 * math.sqrt(dots[m])     # nothing left but roundoff
        if m % 2 == 0 or invariant:
            # the wrapper wants at least one sub-diagonal entry, which m = 1 ignores
            theta, q, info = dstev(diag[:m], sub[:max(m - 1, 1)])
            if info != 0:
                raise NumericError(f"tridiagonal eigensolve failed: LAPACK stev info={info}")
            coef = beta * (q @ (np.exp((t / gamma) * (1.0 - 1.0 / theta)) * q[0]))
            out = coef @ basis[:m]
            out *= unscale
            out += steady
            if invariant:
                return out
            if prev is not None:
                # max |out - prev| <= tol max |out|, with no temporaries
                prev -= out
                if max(prev.max(), -prev.min()) <= tol * max(out.max(), -out.min()):
                    return out
            prev = out
        w /= rest
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
    and fixed monotone panels want.  Without it, "cn" is a ``ConfigError``.

    Exactly even data on a line of M >= 5 nodes run on ``op.half`` (``fold``),
    and the result is mirrored, so it is exactly even too.
    """
    if not tol > 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    if scheme not in ("be", "cn"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    if scheme != "be" and n_steps is None:
        raise ConfigError(f"scheme {scheme!r} needs n_steps; the Krylov flow has none")
    if u0.grid != op.grid:
        raise ConfigError("field grid does not match the operator grid")
    if not 0.0 <= t < math.inf:
        raise ConfigError(f"time must be finite and nonnegative, got {t}")
    if n_steps is not None and n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    if t == 0.0:
        return u0.copy()
    flow_op, v = fold(op, u0.values)
    return Field(op.grid, unfold(op.grid, _flow(flow_op, v, t, tol, scheme, n_steps)))


def _flow(op: DiffusionOperator, v: np.ndarray, t: float, tol: float, scheme: str,
          n_steps: int | None) -> np.ndarray:
    """``apply_semigroup``'s flow of the values ``v`` on ``op`` itself, t > 0."""
    if n_steps is None:
        out = _krylov_semigroup(op, v, t, tol)
        return np.maximum(out, min(0.0, float(v.min())), out=out)
    dt = t / n_steps
    for _ in range(n_steps):
        v = _step(op, v, dt, scheme)
    return v


def kernel_column(op: DiffusionOperator, y_index: int, t: float, tol: float = 1e-6) -> Field:
    """Evolve a unit-mass discrete delta at node ``y_index``: a kernel probe.

    The node must be free: a Dirichlet node keeps its value, so a spike there
    would evolve into the Dirichlet steady state, not a kernel.
    """
    if not 0.0 < t < math.inf:
        raise ConfigError(f"kernel probe needs finite t > 0, got {t}")
    if not 0 <= y_index < op.grid.nodes:
        raise ConfigError(f"node index {y_index} out of range")
    if y_index not in range(op.grid.nodes)[op.free]:
        raise ConfigError(f"node index {y_index} is a Dirichlet node; a kernel probe "
                          "needs a free node")
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
