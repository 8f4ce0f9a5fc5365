"""The value types a scenario is built from: Mollifier, ScaleFn, EpsilonLadder,
PiecewiseConstantCoeff, Grid1D and TestFunction.

They check their fields with the standard library alone, so `colwave validate`
and `colwave list` load no numpy; a method on arrays imports numpy (and the
bump family's normalizer scipy) when it is first called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property


@dataclass(frozen=True)
class Mollifier:
    """Symmetric unit-mass bump supported in [-1, 1]."""

    family: str = "polynomial"  # "polynomial" | "bump"
    n: int = 2

    def __post_init__(self):
        if self.family == "polynomial":
            if self.n < 1:
                raise ValueError("polynomial order must be >= 1")
        elif self.family != "bump":
            raise ValueError(f"unknown mollifier family {self.family!r}")

    @cached_property
    def normalization(self) -> float:
        """1 / int phi: C_n = (2n+1)! / (2^{2n+1} (n!)^2) of (1-x^2)^n, or the bump's quadrature."""
        if self.family == "polynomial":
            return math.factorial(2 * self.n + 1) / (2 ** (2 * self.n + 1) * math.factorial(self.n) ** 2)
        from .mollifier import _bump_table
        return _bump_table()[0]

    @property
    def max_deriv_order(self) -> int:
        # beyond this order the polynomial family is discontinuous at +-1
        return min(4, 2 * self.n - 1) if self.family == "polynomial" else 4


@dataclass(frozen=True)
class ScaleFn:
    """Regularization scale h(eps)."""

    kind: str = "standard"  # "standard" | "logarithmic" | "slow_scale"
    p: float = 4.0

    def __post_init__(self):
        if self.kind not in ("standard", "logarithmic", "slow_scale"):
            raise ValueError(f"unknown scale kind {self.kind!r}")
        if self.kind == "slow_scale" and self.p <= 1.0:
            raise ValueError("slow_scale exponent p must be > 1")

    def __call__(self, eps):
        """h(eps), elementwise on arrays: a Python number by math, numpy values by numpy (the
        solvers' eps; numpy's log and power can differ from math's in the last bit)."""
        if type(eps) in (int, float):
            any_, log, eps = bool, math.log, float(eps)
        else:
            import numpy as np
            any_, log, eps = np.any, np.log, np.asarray(eps, dtype=float)
        if any_(eps <= 0.0):
            raise ValueError("eps must be positive")
        if self.kind == "logarithmic" and any_(eps >= 1.0):
            raise ValueError("logarithmic scale needs eps < 1")
        if self.kind == "standard":
            h = eps * 1.0  # a copy of an array
        elif self.kind == "logarithmic":
            h = 1.0 / abs(log(eps))
        else:
            h = eps ** (1.0 / self.p)
        return h if getattr(h, "ndim", 0) else float(h)


@dataclass(frozen=True)
class EpsilonLadder:
    """Geometric ladder eps_k = eps0 * ratio^k, k = 0..count-1."""

    eps0: float = 0.1
    ratio: float = 0.7
    count: int = 10

    def __post_init__(self):
        if not 0.0 < self.eps0 < 1.0:
            raise ValueError("eps0 must lie in (0, 1)")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        if self.count < 4:
            raise ValueError("need at least 4 ladder values")

    @property
    def values(self):
        import numpy as np
        return self.eps0 * self.ratio ** np.arange(self.count)

    @property
    def eps_min(self) -> float:
        return float(self.eps0 * self.ratio ** (self.count - 1))

    def __iter__(self):
        return iter(self.values)


@dataclass(frozen=True)
class PiecewiseConstantCoeff:
    """c(x) = values[i] on (breakpoints[i-1], breakpoints[i])."""

    breakpoints: tuple
    values: tuple
    variable: str = "space"  # "space" | "time"

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(bp) + 1:
            raise ValueError("need exactly one more value than breakpoints")
        if not all(map(math.isfinite, bp + vals)):
            raise ValueError("breakpoints and values must be finite")
        if any(v <= 0.0 for v in vals):
            raise ValueError("coefficient values must be strictly positive")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if self.variable not in ("space", "time"):
            raise ValueError("variable must be 'space' or 'time'")

    def __call__(self, x):
        """Sharp (unmollified) evaluation; midpoint value on a jump."""
        import numpy as np
        x = np.asarray(x, dtype=float)
        vals = np.asarray(self.values)
        idx = np.searchsorted(self.breakpoints, x, side="left")
        out = vals[idx]
        for b, lo, hi in zip(self.breakpoints, vals[:-1], vals[1:]):
            out = np.where(x == b, 0.5 * (lo + hi), out)
        return out if out.ndim else float(out)


# Courant number of the wave_x travel-time step, dxi = COURANT dx / max a.  At 1 the linear
# xi -> x read onto grid.xs errs 4.8x more (1.0e-4 -> 4.8e-4 in the wave_x second-order test,
# past its 2e-4 bound), and Criterion 4's energy drift grows 21x (1.0e-7 -> 2.1e-6).
COURANT = 0.45


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    nx: int
    t_end: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.t_end))):
            raise ValueError("x_min, x_max and t_end must be finite")
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.nx < 8:
            raise ValueError("nx too small")
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def xs(self):
        import numpy as np
        return self.x_min + self.dx * np.arange(self.nx + 1)

    def dt(self, b1: float) -> float:
        return COURANT * self.dx / b1

    def check_resolution(self, h_min: float):
        if self.dx > h_min / 16.0 * (1.0 + 1e-12):
            raise ValueError(
                f"resolution contract violated: dx={self.dx:.3g} > h/16={h_min / 16.0:.3g}"
            )


@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported product bump psi(t,x), unit mass."""

    __test__ = False  # not a pytest collectable despite the name

    t_center: float
    x_center: float
    radius: float
    mollifier: Mollifier = field(default_factory=Mollifier)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t_center, self.x_center, self.radius))):
            raise ValueError("centre and radius must be finite")
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")

    def __call__(self, t, x):
        from .mollifier import phi_eval
        m, r = self.mollifier, self.radius
        return phi_eval(m, (t - self.t_center) / r) * phi_eval(m, (x - self.x_center) / r) / r**2

    def x_antideriv(self, t, x):
        """int_{-inf}^x psi(t, y) dy, closed form via the mollifier antiderivative."""
        from .mollifier import phi_antideriv, phi_eval
        m, r = self.mollifier, self.radius
        return phi_eval(m, (t - self.t_center) / r) * phi_antideriv(m, (x - self.x_center) / r) / r

    @property
    def t_support(self):
        return (self.t_center - self.radius, self.t_center + self.radius)

    @property
    def x_support(self):
        return (self.x_center - self.radius, self.x_center + self.radius)
