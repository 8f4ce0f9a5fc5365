"""Regularized-PDE solvers, one epsilon-ladder member per call.

* solve_transport: scalar transport, evaluated exactly through the
  characteristic flow (u_eps(t,x) = u0_eps(gamma(t,x,0))), no time stepping,
  and only on the nodes whose foot can fall in the support of the data.
* solve_wave_x: rho u_tt = (K u_x)_x through V = dt u - a dx u, W = dt u + a dx u
  with coupling g (V - W), g = -d(log Z)/dxi / 2 in both equations; its two
  forms differ only in the speed a and impedance Z (speed_impedance): c and 1/c
  for dtt u = c^2 dxx u, both sqrt(c) for dtt u = dx(c dx u).  In the travel
  time xi = int dx/a both families move at unit speed, so on a uniform xi-grid
  with step dxi = dt transport is an exact one-cell shift (upwinding at Courant
  number 1; Goupillaud 1961), done by indexing V by xi - t and W by xi + t.
  The coupling, whose exact flow keeps V - W, is Strang-split around the shift
  on the kernel-window nodes only, and applied once per step from the first
  step at which the data can reach the window; u follows by the trapezoid of
  (W - V)/2 in xi from the left boundary.
* solve_wave_t: time-dependent speed, the same V/W pair in the travel time
  tau = int_0^t c with dtau = dx: transport is the one-cell shift, and the
  x-independent coupling is exact over each step (the ratio of c at the half
  steps), applied only inside the kernel windows of the time breakpoints; u is
  read as (Q - P)/(2c) off the antiderivatives P, Q of V, W, carried along.
* solve_radial_odd: d = 3 spherical waves: w = r u solves the 1D wave of
  solve_wave_t with the odd data r phi_h(r), and u = w/r.
* abel_forward / abel_invert: the half-integral pair linking radial profiles
  across consecutive even/odd dimensions, with the endpoint singularity
  absorbed by the rho = sin(theta) substitution.

Each solver solves one ladder member; colwave.pipeline walks the ladder and
builds the SolutionFamily.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .coefficients import CumulativeIntegral, RegularizedCoeff
from .mollifier import phi_antideriv, phi_deriv, phi_eval, phi_moment
from .spec import COURANT, Grid1D, Mollifier

__all__ = [
    "SolutionRecord",
    "SolutionFamily",
    "NumericalFailure",
    "speed_impedance",
    "with_support",
    "delta_profile",
    "delta_profile_deriv",
    "solve_transport",
    "solve_wave_x",
    "solve_wave_t",
    "solve_radial_odd",
    "abel_forward",
    "abel_invert",
    "save_family",
    "load_family",
]


class NumericalFailure(RuntimeError):
    """Overflow to non-finite values, or another mid-run numerical breakdown."""


@dataclass
class SolutionRecord:
    eps: float
    grid: Grid1D
    times: np.ndarray
    fields: dict

    @property
    def xs(self) -> np.ndarray:
        return self.grid.xs

    def slice_at(self, t: float, name: str = "u") -> np.ndarray:
        i = int(np.argmin(np.abs(self.times - t)))
        return np.asarray(self.fields[name][i], dtype=float)


@dataclass
class SolutionFamily:
    scenario_id: str
    solver_id: str
    records: list

    def __post_init__(self):
        self.records = sorted(self.records, key=lambda r: -r.eps)

    @property
    def eps_values(self) -> np.ndarray:
        return np.array([r.eps for r in self.records])

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


def with_support(f: Callable, lo: float, hi: float, antideriv: Callable | None = None) -> Callable:
    """f, marked as exactly +0.0 off [lo, hi] (lo > hi: everywhere), and with
    its antiderivative from -inf when given.

    solve_transport evaluates a profile only where its argument can fall in
    that support; a profile without the mark has the whole line as support.
    solve_wave_t integrates an initial velocity without an antideriv itself.
    """
    f.support = (lo, hi)
    if antideriv is not None:
        f.antideriv = antideriv
    return f


def delta_profile(x0: float, rc: RegularizedCoeff) -> Callable:
    """Imbedded delta of member rc: phi_eps(x - x0), the point mass mollified at
    the standard scale (width eps), independent of the coefficient's scale function."""
    return with_support(
        lambda x: phi_eval(rc.mollifier, (np.asarray(x) - x0) / rc.eps) / rc.eps, x0 - rc.eps, x0 + rc.eps,
        lambda x: phi_antideriv(rc.mollifier, (np.asarray(x) - x0) / rc.eps))


def delta_profile_deriv(x0: float, rc: RegularizedCoeff) -> Callable:
    return with_support(
        lambda x: phi_deriv(rc.mollifier, (np.asarray(x) - x0) / rc.eps, 1) / rc.eps**2, x0 - rc.eps, x0 + rc.eps)


def _or_zero(profile):
    """PROFILE, or for None the zero profile, with an empty support."""
    if profile is None:
        return with_support(lambda x: np.zeros_like(np.asarray(x, dtype=float)), np.inf, -np.inf)
    return profile


# --- transport (exact via characteristics) ---------------------------------

def solve_transport(flow, u0, grid: Grid1D, times, u0_deriv=None) -> SolutionRecord:
    """u_eps(t,x) = u0_eps(gamma_eps(t,x,0)) of one member, on the grid nodes at the store times.

    The member is either a RegularizedCoeff c_eps, whose foot
    gamma(t, x, 0) = C^-1(C(x) - t) comes from the reciprocal antiderivative
    C = CumulativeIntegral(rc), with C(x) taken once, or a TanhFlow, whose
    foot and foot_dx are closed forms.

    Given ``u0_deriv``, the analytic dx u = u0'(gamma) * dx gamma is also
    stored as field "ux" (chain rule, no differencing; dx gamma = c(gamma)/c(x)
    for c_eps) -- grid differences cannot resolve gradient layers
    exponentially thinner than dx, which is exactly the regime of the tanh
    speeds.

    The profiles are exactly +0.0 off the hull [lo, hi] of their supports
    (with_support), and the flow keeps the order of points, so at time t only
    the nodes between the images gamma(0, lo, t) and gamma(0, hi, t), widened
    by one node on each side against rounding, can hold a nonzero value.  The
    foot, u and ux are computed on that slice only, into zeroed rows, and C(x)
    and c(x) on the hull of the slices.
    """
    times = np.asarray(times, dtype=float)
    xs = grid.xs
    # image(x, tau) = gamma(0, x, tau); foot and foot_dx act on the nodes xs[sl] at time t
    if isinstance(flow, RegularizedCoeff):
        rc, C = flow, CumulativeIntegral(flow)
        image = lambda x, tau: C.invert(C(x) + tau)
        foot = lambda t, sl: C.invert(Cx[sl] - t)
        foot_dx = lambda t, sl, f: rc(f) / cx[sl]
    else:  # a TanhFlow
        rc = None
        image = lambda x, tau: flow.foot(0.0, x, tau)
        foot = lambda t, sl: flow.foot(t, xs[sl])
        foot_dx = lambda t, sl, f: flow.foot_dx(t, xs[sl])
    prof, dprof = _or_zero(u0), _or_zero(u0_deriv)
    sups = [getattr(f, "support", (-np.inf, np.inf)) for f in (prof, dprof)]
    lo, hi = min(s[0] for s in sups), max(s[1] for s in sups)
    ends = image(np.repeat([lo, hi], len(times)), np.tile(times, 2)).reshape(2, -1)
    first = np.maximum(np.searchsorted(xs, ends[0], side="left") - 1, 0)
    stop = np.minimum(np.searchsorted(xs, ends[1], side="right") + 1, len(xs))
    if rc is not None:  # the slices read nothing else
        hull = slice(first.min(), stop.max())
        Cx, cx = np.empty(len(xs)), np.empty(len(xs))
        Cx[hull] = C(xs[hull])
        if u0_deriv is not None:
            cx[hull] = rc(xs[hull])
    u = np.zeros((len(times), len(xs)))
    fields = {"u": u}
    if u0_deriv is not None:
        fields["ux"] = np.zeros_like(u)
    for i, t in enumerate(times):
        sl = slice(first[i], stop[i])
        f = foot(t, sl)
        u[i, sl] = prof(f)
        if u0_deriv is not None:
            fields["ux"][i, sl] = dprof(f) * foot_dx(t, sl, f)
    return SolutionRecord(eps=flow.eps, grid=grid, times=times, fields=fields)


# --- wave equation, x-dependent speed --------------------------------------

def speed_impedance(c, conservative: bool):
    """(a, Z) = (sqrt(K/rho), sqrt(K rho)) at c: (c, 1/c) for dtt u = c^2 dxx u, (sqrt(c), sqrt(c)) for dx(c dx u)."""
    return (np.sqrt(c),) * 2 if conservative else (c, 1.0 / c)


def solve_wave_x(
    rc: RegularizedCoeff,
    u0,
    u1,
    grid: Grid1D,
    times,
    u0_deriv=None,
    conservative: bool = False,
    store_dtype=np.float64,
    store_vw: bool = False,
) -> SolutionRecord:
    """V/W characteristic solve of dtt u = c^2 dxx u (or dx(c dx u)) in travel time.

    In xi = int dx/a the pair reads V_t + V_xi = g (V - W), W_t - W_xi = g (V - W).
    On the uniform xi-grid with dxi = dt (n_steps = ceil(t_end / grid.dt(max a)),
    dt = t_end / n_steps) transport is a one-cell shift: V is stored by the label
    xi - t and W by xi + t, so a step moves no data.  The coupling keeps V - W, so
    its exact flow is V += tau g (V - W), W += tau g (V - W); it is Strang-split in
    two halves around the shift, only on the columns of the nodes where g != 0.  The
    second half of one step and the first of the next act on the same labels and
    compose exactly to one coupling with tau = dxi, so each step applies one; the
    halves stay apart where the state is read between them (at a store step, and
    at every step when the window holds node 0, whose V and W feed the boundary
    value of u).  Before first contact, the first step at which a nonzero V or W
    label of the data can sit on a window node, the coupling is the identity and
    is skipped (one step of margin is kept).  Inflow is zero.  u follows from
    u_xi = (W - V)/2 by the cumulative trapezoid, from the left-boundary value, the
    trapezoid in t of (V + W)/2 there.  u (and V, W with store_vw) go onto grid.xs
    by linear interpolation in xi.

    Fields per record: "u" time-indexed slices (store_dtype), plus "v","w"
    (float64, which the energy functional sums, with the density rho = Z/a of
    speed_impedance) when store_vw is set.
    """
    times = np.asarray(times, dtype=float)
    xs = grid.xs
    grid.check_resolution(rc.h)
    ca = CumulativeIntegral(rc, "reciprocal_sqrt" if conservative else "reciprocal")
    a = speed_impedance(rc(xs), conservative)[0]
    n_steps = int(np.ceil(grid.t_end / grid.dt(float(np.max(a))) - 1e-12))
    dxi = grid.t_end / n_steps
    Cx = ca(xs)
    n = int(np.ceil((Cx[-1] - Cx[0]) / dxi))
    xi = Cx[0] + dxi * np.arange(n + 1)
    x = ca.invert(xi)
    ax, cp = speed_impedance(rc(x), conservative)[0], rc.deriv(x, 1)
    g = -0.25 * cp / ax if conservative else 0.5 * cp
    u0f = _or_zero(u0)
    u0_xi = ax * u0_deriv(x) if u0_deriv is not None else np.gradient(u0f(x), dxi)
    u1v = _or_zero(u1)(x)
    # node j at step k holds V[j - k + n_steps] and W[j + k]
    V = np.zeros(n + 1 + n_steps)
    W = np.zeros_like(V)
    V[n_steps:] = u1v - u0_xi
    W[: n + 1] = u1v + u0_xi
    cols = np.flatnonzero(g)
    lo, hi = (cols[0], cols[-1] + 1) if cols.size else (0, 0)
    half_g = 0.5 * dxi * g[lo:hi]
    full_g = dxi * g[lo:hi]
    d = np.empty(hi - lo)

    def couple(k, tau_g):
        v, w = V[lo - k + n_steps : hi - k + n_steps], W[lo + k : hi + k]
        np.subtract(v, w, out=d)
        np.multiply(d, tau_g, out=d)
        v += d
        w += d

    fills = {}  # step -> the store slots filled at it
    for i, k in enumerate(np.clip(np.rint(times / dxi).astype(int), 0, n_steps).tolist()):
        fills.setdefault(k, []).append(i)
    last = max(fills)
    # first contact: the first alignment at which a nonzero label sits on a
    # window node (V label p on node p - n_steps + k, W label q on q - k);
    # before it the window holds zeros and the coupling is the identity
    pv = np.flatnonzero(V[: hi + n_steps])
    qw = np.flatnonzero(W[lo:])
    first = min(lo + n_steps - pv[-1] if pv.size else last, qw[0] + lo - hi + 1 if qw.size else last)
    start = max(first - 1, 0) if hi > lo else last + 1
    # alignments whose two half couplings stay apart, the state being read
    # between them; alignment 0 has only the half after its read
    split = {0, *fills} if lo else range(last + 1)
    names = ("u", "v", "w") if store_vw else ("u",)
    fields = {name: np.empty((len(times), len(xs)), dtype=store_dtype if name == "u" else np.float64)
              for name in names}
    u_left = float(u0f(x[:1])[0])
    ut_left = 0.5 * (V[n_steps] + W[0])
    for k in range(last + 1):
        if k:
            if k >= start:
                couple(k, half_g if k in split else full_g)
            ut = 0.5 * (V[n_steps - k] + W[k])
            u_left += 0.5 * dxi * (ut_left + ut)
            ut_left = ut
        if k in fills:
            v, w = V[n_steps - k : n_steps - k + n + 1], W[k : k + n + 1]
            u_xi = 0.5 * (w - v)
            u = np.concatenate([[u_left], u_left + 0.5 * dxi * np.cumsum(u_xi[1:] + u_xi[:-1])])
            if not np.isfinite(u).all():
                raise NumericalFailure(f"non-finite values at t={k * dxi:.4f} (eps={rc.eps})")
            for name, f in zip(names, (u, v, w)):
                fields[name][fills[k]] = np.interp(Cx, xi, f)
        if start <= k < last and k in split:
            couple(k, half_g)
    return SolutionRecord(eps=rc.eps, grid=grid, times=times, fields=fields)


# --- wave equation, t-dependent speed (exact shift in travel time) ---------

def _couple(a, b, f):
    """The exact coupling I + f M, M = [[1, -1], [-1, 1]], on the pairs (a, b), in place."""
    d = f * (a - b)
    a += d
    b -= d


def _fast_len(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= n, a length numpy's FFT handles quickly."""
    best, p5 = 2 ** (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _cubic_shift(g, lo: int, r) -> np.ndarray:
    """Rows g_i, given on the nodes -2..n+2, at x_j + (lo + r_i) dx (j = 0..n, 0 <= r_i <= 1)
    by the cubic through the nodes j + lo - 1 .. j + lo + 2."""
    n = g.shape[-1] - 5
    wts = (-r * (r - 1.0) * (r - 2.0) / 6.0, (r + 1.0) * (r - 1.0) * (r - 2.0) / 2.0,
           -(r + 1.0) * r * (r - 2.0) / 2.0, (r + 1.0) * r * (r - 1.0) / 6.0)
    return sum(wt * g[:, lo + 1 + i : lo + 2 + i + n] for i, wt in enumerate(wts))


def _spectral_shift(g, s) -> np.ndarray:
    """Rows g_i, given on the nodes -2..n+2, at x_j + s_i dx (j = 0..n) by the
    trigonometric interpolant of their slice of nodes 0..n, zero-padded to a
    quick FFT length: a unitary shift, which keeps sum g^2."""
    n, m = g.shape[-1] - 5, _fast_len(g.shape[-1] - 4)
    phase = np.exp(2j * np.pi * s * np.fft.rfftfreq(m))
    return np.fft.irfft(np.fft.rfft(g[:, 2 : n + 3], m) * phase, m)[:, : n + 1]


def _antideriv(f, x: np.ndarray, fx: np.ndarray, dx: float) -> np.ndarray:
    """int_{-inf}^x f on the nodes x (f = 0 left of x[0]): the profile's own
    antideriv when it carries one, else the end-corrected trapezoid."""
    if hasattr(f, "antideriv"):
        return f.antideriv(x)
    fp = np.gradient(fx, dx)
    return np.concatenate([[0.0], np.cumsum(0.5 * dx * (fx[1:] + fx[:-1]))]) - dx * dx / 12.0 * (fp - fp[0])


def solve_wave_t(
    rc: RegularizedCoeff,
    u0,
    u1,
    grid: Grid1D,
    times,
    u0_deriv=None,
    store_vw: bool = False,
) -> SolutionRecord:
    """dtt u = c(t)^2 dxx u on the line, through the V/W pair in travel time.

    In tau = T(t) = int_0^t c the pair V = dt u - c dx u, W = dt u + c dx u reads
    V_tau + V_x = g (V - W), W_tau - W_x = -g (V - W) with g = d(log c)/dtau / 2,
    independent of x.  On the lattice dtau = dx, transport is a one-cell shift
    (V stored by the label x - tau, W by x + tau), and over [tau_a, tau_b] the
    coupling is exactly I + f M with f = (c_b/c_a - 1)/2: V - W scales by
    c_b/c_a, V + W stays.  Its Strang halves of consecutive steps compose, so
    step k applies one coupling, from tau_(k-1/2) to tau_(k+1/2) (exact in
    equal-travel-time layers; Goupillaud 1961, here in time), and only where c
    varies: off the kernel windows f = 0.  The labels also carry P = int V and
    Q = int W, which start as U1 -+ c(0) u0 (U1 = int u1) and couple as V and W
    do, so u = (Q - P)/(2c) needs no quadrature.  The label arrays extend the
    grid by the step count (and the cubic's reach) on both sides, with the data
    evaluated there, so every label read on the grid has met all its coupling
    partners; a coupling acts only on the pairs in reach of the data (far-field
    pairs are equal).
    A store time tau_k + s dx (0 <= s < 1) is read off step k: the coupling
    up to tau_k + s dx/2, the sub-cell shift by s, the rest of the coupling.
    P and Q shift by the 4-point cubic, V and W (store_vw) by the unitary
    spectral shift, which keeps the energy.

    Fields per record on grid.xs: "u", plus "v", "w" with store_vw.
    """
    times = np.asarray(times, dtype=float)
    n, dx = grid.nx, grid.dx
    if rc.base.variable != "time":
        raise ValueError("solve_wave_t needs a time-dependent coefficient")
    grid.check_resolution(rc.h)
    T = CumulativeIntegral(rc, "value")
    pos = T(times) / dx  # store times in lattice steps
    ks = np.floor(pos).astype(int)
    last = int(ks.max())
    pad = last + 2  # node j at step k holds label j - k + pad of A, j + k + pad of B
    x = grid.x_min + dx * np.arange(-pad, n + pad + 1)
    # c at tau_(k-1/2) for k = 0..last (tau_(-1/2) read as 0) and at each store's sub-cell midpoint
    c = rc(T.invert(dx * np.concatenate([np.maximum(np.arange(last + 1) - 0.5, 0.0), 0.5 * (ks + pos)])))
    c_half, c_mid, c_store = c[: last + 1], c[last + 1 :], rc(times)
    f = 0.5 * (c_half[1:] / c_half[:-1] - 1.0)
    c0 = rc(0.0)
    u0f, u1f = _or_zero(u0), _or_zero(u1)
    u0v, u1v = u0f(x), u1f(x)
    u0x = u0_deriv(x) if u0_deriv is not None else np.gradient(u0v, dx)
    U1 = _antideriv(u1f, x, u1v, dx)
    A = np.stack([u1v - c0 * u0x, U1 - c0 * u0v])  # V, P
    B = np.stack([u1v + c0 * u0x, U1 + c0 * u0v])  # W, Q
    # labels before lo (after hi) hold the far field of the left (right) end, with A == B
    far = [((A == A[:, e]) & (B == A[:, e])).all(0) for e in (slice(0, 1), slice(-1, None))]
    lo, hi = int(np.argmin(far[0])), len(x) - 1 - int(np.argmin(far[1][::-1]))
    fills = {}  # step -> the store slots read off it
    for i, k in enumerate(ks.tolist()):
        fills.setdefault(k, []).append(i)
    rows = np.empty((len(times), 4, n + 5))  # V, P, W, Q on the nodes -2..n+2 at each store's step
    for k in sorted({*fills, *np.flatnonzero(f).tolist()}):
        for i in fills.get(k, ()):
            rows[i, :2], rows[i, 2:] = A[:, pad - k - 2 : pad - k + n + 3], B[:, pad + k - 2 : pad + k + n + 3]
        if k < last and f[k]:
            a0, a1 = max(lo - 2 * k, 0), min(hi + 1, len(x) - 2 * k)
            _couple(A[:, a0:a1], B[:, a0 + 2 * k : a1 + 2 * k], f[k])
    # a store at step k + s: the coupling up to its sub-cell midpoint, the shift by s, the rest of it
    s = (pos - ks)[:, None]
    _couple(rows[:, :2], rows[:, 2:], 0.5 * (c_mid / c_half[ks] - 1.0)[:, None, None])
    u = (_cubic_shift(rows[:, 3], 0, s) - _cubic_shift(rows[:, 1], -1, 1.0 - s)) / (2.0 * c_mid[:, None])
    fields = {"u": u}
    bad = ~np.isfinite(u).all(1)
    if bad.any():
        raise NumericalFailure(f"non-finite values at t={times[bad][0]:.4f} (eps={rc.eps})")
    if store_vw:
        fields["v"], fields["w"] = _spectral_shift(rows[:, 0], -s), _spectral_shift(rows[:, 2], s)
        _couple(fields["v"], fields["w"], 0.5 * (c_store / c_mid - 1.0)[:, None])
    return SolutionRecord(eps=rc.eps, grid=grid, times=times, fields=fields)


# --- three-dimensional radial reduction ------------------------------------

def solve_radial_odd(rc: RegularizedCoeff, grid: Grid1D, times) -> SolutionRecord:
    """Spherical wave in d = 3 with U0 = 0, U1 = phi_h(|x|), of one member.

    w = r u solves w_tt = c(t)^2 w_rr with w = 0 and the odd w_t = r phi_h(r) at
    t = 0, whose antiderivative h M(r/h) (M = phi_moment) is exact: one
    solve_wave_t, and u = w/r.  At r = 0 (a node when nx is even) u comes from
    even-symmetric extrapolation of the two neighbouring nodes on each side, so
    [-2 dx, 2 dx] must lie inside the grid (else ValueError).  Fields "u" and
    "v" = w = r u.
    """
    if not (grid.x_min <= -2.0 * grid.dx and 2.0 * grid.dx <= grid.x_max):
        raise ValueError("solve_radial_odd needs [-2 dx, 2 dx], its r = 0 stencil, inside the grid")
    m, h = rc.mollifier, rc.h
    u1 = with_support(lambda r: r * phi_eval(m, r / h) / h, -h, h, lambda r: h * phi_moment(m, r / h))
    rec = solve_wave_t(rc, None, u1, grid, times)
    xs, w = grid.xs, rec.fields["u"]
    safe = np.abs(xs) > 0.5 * grid.dx
    u = w / np.where(safe, xs, 1.0)
    for i in np.flatnonzero(~safe):
        # u is even and smooth in r: 4th-order even extrapolation to r = 0
        u[:, i] = (4.0 * (u[:, i - 1] + u[:, i + 1]) - (u[:, i - 2] + u[:, i + 2])) / 6.0
    rec.fields = {"u": u, "v": w}
    return rec


def spherical_oracle(m: Mollifier, h: float, c: float) -> Callable:
    """Exact d=3 solution for constant speed c, U0=0, U1=phi_h(|x|):

        u(t,r) = (1/(2 c r)) int_{r-ct}^{r+ct} s phi_h(s) ds,

    evaluated in closed form through the moment antiderivative
    M = phi_moment (so the integral is h[M(b/h) - M(a/h)]).
    """
    def u(t, r):
        r = np.asarray(r, dtype=float)
        a = (r - c * t) / h
        b = (r + c * t) / h
        val = h * (phi_moment(m, b) - phi_moment(m, a))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(np.abs(r) > 1e-12, val / (2.0 * c * r), t * phi_eval(m, c * t / h) / h)
        return out

    return u


# --- Abel pair --------------------------------------------------------------

_THETA_NODES, _THETA_WTS = np.polynomial.legendre.leggauss(64)


def abel_forward(w_field: Callable, t: float, r) -> np.ndarray:
    """v(t,r) = int_0^1 w(t, r rho) / sqrt(1-rho^2) drho = int_0^{pi/2} w(t, r sin theta) dtheta."""
    r = np.asarray(r, dtype=float)
    theta = 0.25 * np.pi * (_THETA_NODES + 1.0)
    out = np.zeros_like(r, dtype=float)
    for th, wt in zip(theta, _THETA_WTS):
        out = out + 0.25 * np.pi * wt * np.asarray(w_field(t, r * np.sin(th)), dtype=float)
    return out if out.ndim else float(out)


def abel_invert(v_t0: Callable, fd_step: float = 1e-4) -> Callable:
    """w(r) = (1/pi) d/dr int_0^1 2|r| rho / sqrt(1-rho^2) v(r rho) drho."""
    theta = 0.25 * np.pi * (_THETA_NODES + 1.0)

    def inner(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r, dtype=float)
        for th, wt in zip(theta, _THETA_WTS):
            out = out + 0.25 * np.pi * wt * 2.0 * np.abs(r) * np.sin(th) * np.asarray(
                v_t0(r * np.sin(th)), dtype=float
            )
        return out

    def w(r):
        # output is even in r; the |r| kink at 0 is sidestepped by a floor
        s = np.maximum(np.abs(np.asarray(r, dtype=float)), 2.0 * fd_step)
        val = (inner(s + fd_step) - inner(s - fd_step)) / (2.0 * np.pi * fd_step)
        return val if val.ndim else float(val)

    return w


# --- serialization ----------------------------------------------------------

def save_family(family: SolutionFamily, outdir) -> Path:
    """Binary dumps (little-endian float64, row-major time x space) + manifest.

    The fifth field of a record's grid line is the wave_x Courant number.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = [
        f"scenario={family.scenario_id}",
        f"solver={family.solver_id}",
        "byte_order=little",
        "dtype=float64",
        "layout=row_major_time_by_space",
        f"n_records={len(family.records)}",
    ]
    for i, rec in enumerate(family.records):
        g = rec.grid
        lines += [
            f"record.{i}.eps={float(rec.eps)!r}",
            f"record.{i}.grid={float(g.x_min)!r},{float(g.x_max)!r},{g.nx},"
            f"{float(g.t_end)!r},{COURANT!r}",
            f"record.{i}.times={','.join(repr(float(t)) for t in rec.times)}",
            f"record.{i}.fields={','.join(sorted(rec.fields))}",
        ]
        for name in sorted(rec.fields):
            fname = f"{family.scenario_id}_{i}_{name}.bin"
            arr = np.ascontiguousarray(rec.fields[name], dtype="<f8")
            arr.tofile(outdir / fname)
            lines.append(f"record.{i}.file.{name}={fname}")
            lines.append(f"record.{i}.shape.{name}={'x'.join(map(str, arr.shape))}")
    (outdir / "manifest.txt").write_text("\n".join(lines) + "\n")
    return outdir


def load_family(indir) -> SolutionFamily:
    indir = Path(indir)
    kv = {}
    for line in (indir / "manifest.txt").read_text().splitlines():
        if "=" in line:
            key, val = line.split("=", 1)
            kv[key] = val

    def load(i, name):
        shape = tuple(int(s) for s in kv[f"record.{i}.shape.{name}"].split("x"))
        return np.fromfile(indir / kv[f"record.{i}.file.{name}"], dtype="<f8").reshape(shape)

    records = []
    for i in range(int(kv["n_records"])):
        gx = kv[f"record.{i}.grid"].split(",")
        grid = Grid1D(float(gx[0]), float(gx[1]), int(gx[2]), float(gx[3]))
        times = np.array([float(t) for t in kv[f"record.{i}.times"].split(",")])
        fields = {name: load(i, name) for name in kv[f"record.{i}.fields"].split(",")}
        records.append(SolutionRecord(eps=float(kv[f"record.{i}.eps"]), grid=grid, times=times, fields=fields))
    return SolutionFamily(kv["scenario"], kv["solver"], records)
