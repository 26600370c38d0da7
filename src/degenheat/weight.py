"""Degenerate power-law diffusion weights and their volume scale function.

Two admissible weight families are supported: an axis weight |x1|^alpha and a
radial weight |x|^alpha.  Both degenerate on a set of measure zero (a
hyperplane or the origin) while staying inside the Muckenhoupt range that
keeps the associated heat kernel two-sided bounds valid.  The scale function
``h_ball`` is the 2/N-th power of the ball integral of omega^(-N/2); its
inverse converts time into the natural space scale of the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, NumericError


class WeightCase(Enum):
    AXIS_POWER = "axis_power"
    RADIAL_POWER = "radial_power"


def _sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class WeightSpec:
    """A degenerate diffusion weight: axis |x1|^alpha or radial |x|^alpha."""

    case: WeightCase
    alpha: float
    dim: int = 1

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ConfigError(f"dim must be a positive integer, got {self.dim!r}")
        a = self.alpha
        if self.case is WeightCase.AXIS_POWER:
            hi = 1.0 if self.dim <= 2 else 2.0 / self.dim
        elif self.case is WeightCase.RADIAL_POWER:
            hi = 1.0
        else:
            raise ConfigError(f"unknown weight case {self.case!r}")
        if not (0.0 <= a < hi):
            raise ConfigError(
                f"alpha={a} out of range [0, {hi}) for {self.case.value} in dim {self.dim}"
            )

    @property
    def scaling_exponent(self) -> float:
        """Exponent 2 - alpha governing the space-time scaling r ~ t^(1/(2-alpha))."""
        return 2.0 - self.alpha


def eval_weight(spec: WeightSpec, x) -> float:
    """Evaluate the weight at a point of dimension ``spec.dim``."""
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.shape != (spec.dim,):
        raise ConfigError(f"point has shape {pt.shape}, expected ({spec.dim},)")
    if spec.alpha == 0.0:
        return 1.0
    if spec.case is WeightCase.AXIS_POWER:
        base = abs(pt[0])
    else:
        base = float(np.linalg.norm(pt))
    return base ** spec.alpha


@dataclass(frozen=True)
class ScaleFunction:
    """The scale function h_x(r) attached to a weight and a center point."""

    spec: WeightSpec
    center: float = 0.0


def _ball_integral_1d(spec: WeightSpec, x: float, r: float) -> float:
    """Integral of |y|^(-alpha/2) over (x-r, x+r) in one dimension."""
    k = 1.0 - spec.alpha / 2.0

    def antiderivative(y):
        # integral of |y|^(k-1) from 0, odd in y
        return math.copysign(abs(y) ** k / k, y)

    a, b = x - r, x + r
    if spec.alpha == 0.0:
        return b - a
    if a > 0.0 or b < 0.0:
        # a ball that misses 0, integrated from its end nearer 0: F(b) - F(a)
        # would cancel when r << |x|, this form keeps full relative accuracy
        near = min(abs(a), abs(b))
        return near ** k * math.expm1(k * math.log1p((b - a) / near)) / k
    return antiderivative(b) - antiderivative(a)


def _ball_integral(spec: WeightSpec, x: float, r: float) -> float:
    """Integral of omega^(-N/2) over the ball B_r(x)."""
    # "not" tests, so that NaN is rejected too
    if not 0.0 < r < math.inf:
        raise ConfigError(f"radius must be finite and positive, got {r}")
    if not math.isfinite(x):
        raise ConfigError(f"ball centre must be finite, got {x}")
    n = spec.dim
    if n == 1:
        return _ball_integral_1d(spec, float(x), r)
    if spec.case is WeightCase.RADIAL_POWER and float(x) == 0.0:
        # closed form: area(S^{n-1}) * int_0^r s^{n-1-alpha*n/2} ds
        e = n - 1 - spec.alpha * n / 2.0
        return _sphere_area(n) * r ** (e + 1.0) / (e + 1.0)
    if spec.alpha == 0.0:
        # Lebesgue volume of the ball
        return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * r ** n
    raise ConfigError(
        "ball integrals in dim >= 2 are only available for the radial weight "
        "centered at the origin (or alpha = 0)"
    )


def h_ball(sf: ScaleFunction, r: float) -> float:
    """h_x(r): the 2/N-th power of the weighted ball integral at radius r."""
    val = _ball_integral(sf.spec, sf.center, r)
    return val ** (2.0 / sf.spec.dim)


def h_ball_inverse(sf: ScaleFunction, t: float) -> float:
    """Invert h_x by bracketed root finding on the strictly increasing h_x."""
    # imported here, its only use: scipy.optimize is about a third of the
    # package's import time, and no sweep or probe inverts h_x
    from scipy.optimize import brentq

    if not 0.0 < t < math.inf:
        raise ConfigError(f"h_ball_inverse needs finite t > 0, got {t}")
    # exploit h_0(r) ~ r^(2-alpha) for the initial bracket
    guess = t ** (1.0 / sf.spec.scaling_exponent)
    lo, hi = guess * 1e-3, guess * 1e3
    f = lambda r: h_ball(sf, r) - t
    expansions = 0
    while f(lo) > 0.0:
        lo *= 1e-2
        expansions += 1
        if expansions > 60:
            raise NumericError(f"no lower bracket for h_ball_inverse(t={t}), lo={lo}")
    while f(hi) < 0.0:
        hi *= 1e2
        expansions += 1
        if expansions > 60:
            raise NumericError(f"no upper bracket for h_ball_inverse(t={t}), hi={hi}")
    # solve in log r so the bracketing tolerance is scale free
    g = lambda u: f(math.exp(u))
    root = math.exp(brentq(g, math.log(lo), math.log(hi), xtol=1e-14, rtol=1e-15,
                           maxiter=200))
    if abs(h_ball(sf, root) - t) > 1e-10 * t:
        raise NumericError(
            f"h_ball_inverse did not converge: t={t}, bracket=({lo}, {hi}), r={root}"
        )
    return root


def doubling_defect(spec: WeightSpec, x: float, big_r: float, s: float, mu: float):
    """Sample the doubling / reverse-doubling ratios of omega^(-N/2) at (x, R, s).

    Returns the pair (I(sR) / (s^(mu*N) I(R)), s^(mu*N) I(R) / I(sR)); a value
    near 1 for both means the weighted volume scales like a clean power of s.
    Diagnostic only: the true doubling constants are suprema over all balls.
    """
    if not 1.0 < s < math.inf:
        raise ConfigError(f"doubling factor s must be finite and exceed 1, got {s}")
    if not 0.0 < big_r < math.inf:
        raise ConfigError(f"radius R must be finite and positive, got {big_r}")
    if not math.isfinite(mu):
        raise ConfigError(f"exponent mu must be finite, got {mu}")
    base = _ball_integral(spec, x, big_r)
    grown = _ball_integral(spec, x, s * big_r)
    power = s ** (mu * spec.dim)
    forward = grown / (power * base)
    return forward, 1.0 / forward
