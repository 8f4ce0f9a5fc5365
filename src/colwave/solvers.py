"""Regularized-PDE solvers over epsilon ladders.

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
* solve_wave_t: time-dependent speed.  The x-advection is a uniform shift, so
  each step advances the spatial Fourier modes by the exact phase
  exp(-+ i k int c dt) and applies the coupling mu(t) = c'/(2c) by its exact
  2x2 matrix exponential (int mu dt = log(c_b/c_a)/2), Strang-split inside
  every kernel window of the time breakpoints and skipped entirely between
  and outside them, where mu = 0.  The Yoshida triple jump of the Strang
  step makes each window substep fourth order, u follows by the
  end-corrected trapezoid, and the substeps are sized by the data scale eps
  (capped by the grid spacing), not by the window width.
* solve_radial_odd: d = 2n+1 spherical waves via the auxiliary 1D problem and
  u = [(-1/r) dr]^n v; implemented for d = 3.
* abel_forward / abel_invert: the half-integral pair linking radial profiles
  across consecutive even/odd dimensions, with the endpoint singularity
  absorbed by the rho = sin(theta) substitution.

The members of every ladder are independent.  ladder_map solves those of
wave_t (and so radial) in forked worker processes, one per usable CPU; there
is no setting.  Each member runs the same code on the same operands as in the
serial loop, which is what runs on one usable CPU, so the records are bitwise
the same either way.  wave_x and transport ladders are solved in-process, one
member after the other: a bundled member of either takes tens of ms or less,
about what importing, starting and stopping the pool costs.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .characteristics import CharCurve, gamma, gamma_x_partials, time_integral
from .coefficients import CoeffAntideriv, CumulativeIntegral, RegularizedCoeff
from .mollifier import Mollifier, phi_deriv, phi_eval, phi_moment

__all__ = [
    "Grid1D",
    "SolutionRecord",
    "SolutionFamily",
    "NumericalFailure",
    "PerEps",
    "speed_impedance",
    "with_support",
    "delta_profile",
    "delta_profile_deriv",
    "solve_transport",
    "solve_wave_x",
    "solve_wave_t",
    "solve_radial_odd",
    "ladder_map",
    "abel_forward",
    "abel_invert",
    "save_family",
    "load_family",
]


class NumericalFailure(RuntimeError):
    """CFL violation, overflow, or other mid-run numerical breakdown."""


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    nx: int
    t_end: float
    cfl: float = 0.45

    def __post_init__(self):
        if not np.isfinite((self.x_min, self.x_max, self.t_end, self.cfl)).all():
            raise ValueError("x_min, x_max, t_end and cfl must be finite")
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.nx < 8:
            raise ValueError("nx too small")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("cfl must lie in (0, 1)")
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def xs(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.nx + 1)

    def xs_periodic(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.nx)

    def dt(self, b1: float) -> float:
        return self.cfl * self.dx / b1

    def check_resolution(self, h_min: float):
        if self.dx > h_min / 16.0 * (1.0 + 1e-12):
            raise ValueError(
                f"resolution contract violated: dx={self.dx:.3g} > h/16={h_min / 16.0:.3g}"
            )


@dataclass
class SolutionRecord:
    eps: float
    grid: Grid1D
    times: np.ndarray
    fields: dict
    meta: dict = field(default_factory=dict)

    @property
    def xs(self) -> np.ndarray:
        nx_field = next(iter(self.fields.values())).shape[-1]
        return self.grid.xs if nx_field == self.grid.nx + 1 else self.grid.xs_periodic()

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


class PerEps:
    """Marks a data profile that depends on the regularization (factory rc -> f)."""

    def __init__(self, factory: Callable):
        self.factory = factory

    def __call__(self, rc: RegularizedCoeff) -> Callable:
        return self.factory(rc)


def with_support(f: Callable, lo: float, hi: float) -> Callable:
    """f, marked as exactly +0.0 off [lo, hi] (lo > hi: everywhere).

    solve_transport evaluates a profile only where its argument can fall in
    that support; a profile without the mark has the whole line as support.
    """
    f.support = (lo, hi)
    return f


def delta_profile(x0: float) -> PerEps:
    """Imbedded delta: phi_eps(x - x0), the point mass mollified at the standard
    scale (width eps), independent of the coefficient's scale function."""
    return PerEps(lambda rc: with_support(
        lambda x: phi_eval(rc.mollifier, (np.asarray(x) - x0) / rc.eps) / rc.eps, x0 - rc.eps, x0 + rc.eps))


def delta_profile_deriv(x0: float) -> PerEps:
    return PerEps(lambda rc: with_support(
        lambda x: phi_deriv(rc.mollifier, (np.asarray(x) - x0) / rc.eps, 1) / rc.eps**2, x0 - rc.eps, x0 + rc.eps))


def _resolve(profile, rc):
    if profile is None:
        return with_support(lambda x: np.zeros_like(np.asarray(x, dtype=float)), np.inf, -np.inf)
    if isinstance(profile, PerEps):
        return profile(rc)
    return profile


def _default_store_times(t_end: float, n: int = 9) -> np.ndarray:
    return np.linspace(0.0, t_end, n)


# (run, members) of the ladder that ladder_map is solving, set before its pool
# forks: the workers inherit it, so only a member index goes out to them
_LADDER = None


def _solve_member(i: int):
    run, members = _LADDER
    return run(members[i])


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def ladder_map(run: Callable, members) -> list:
    """[run(m) for m in members], in min(len(members), usable CPUs) processes.

    With one worker this is that serial loop.  Otherwise forked workers solve
    the members, smallest eps first (the costliest wave_t member), and the
    results come back pickled, in ladder order.  ``run`` may be a closure:
    the workers read it from _LADDER instead of unpickling it.  That needs
    the fork start method (a spawned worker re-imports and could not see
    it); colwave starts no threads that a fork would copy.  The first
    failure in ladder order is raised, and members not yet started are
    cancelled.
    """
    global _LADDER
    members = list(members)
    workers = min(len(members), _usable_cpus())
    if workers <= 1:
        return [run(m) for m in members]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _LADDER = (run, members)
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        order = sorted(range(len(members)), key=lambda i: members[i].eps)
        futures = {i: pool.submit(_solve_member, i) for i in order}
        return [futures[i].result() for i in range(len(members))]
    finally:
        pool.shutdown(cancel_futures=True)
        _LADDER = None


# --- transport (exact via characteristics) ---------------------------------

def solve_transport(
    curves,
    u0,
    grid: Grid1D,
    store_times=None,
    scenario_id: str = "transport",
    u0_deriv=None,
) -> SolutionFamily:
    """u_eps(t,x) = u0_eps(gamma_eps(t,x,0)), evaluated on the grid nodes.

    ``curves`` is a CharCurve, a RegularizedCoeff (wrapped as its x-dependent
    flow), or a sequence of either (one per ladder member), solved in this
    process one after the other.

    Given ``u0_deriv``, the analytic dx u = u0'(gamma) * dx gamma is also
    stored as field "ux" (chain rule, no differencing) -- grid differences
    cannot resolve gradient layers exponentially thinner than dx, which is
    exactly the regime of the tanh speeds.

    The profiles are exactly +0.0 off the hull [lo, hi] of their supports
    (with_support), and the flow keeps the order of points, so at time t only
    the nodes between the images gamma(0, lo, t) and gamma(0, hi, t), widened
    by one node on each side against rounding, can hold a nonzero value.  The
    foot, u and ux are computed on that slice only, into zeroed rows.
    """
    if not isinstance(curves, (list, tuple)):
        curves = [curves]
    times = np.asarray(
        _default_store_times(grid.t_end) if store_times is None else store_times, dtype=float
    )
    xs = grid.xs

    def run(cv) -> SolutionRecord:
        rc = None
        if isinstance(cv, RegularizedCoeff):
            rc = cv
            cv = CharCurve.x_dependent(CoeffAntideriv(rc))
        elif cv.kind == "x_dependent":
            rc = cv.antideriv.rc
        prof, dprof = _resolve(u0, rc), _resolve(u0_deriv, rc)
        sups = [getattr(f, "support", (-np.inf, np.inf)) for f in (prof, dprof)]
        lo, hi = min(s[0] for s in sups), max(s[1] for s in sups)
        ends = gamma(cv, 0.0, np.repeat([lo, hi], len(times)), np.tile(times, 2)).reshape(2, -1)
        first = np.maximum(np.searchsorted(xs, ends[0], side="left") - 1, 0)
        stop = np.minimum(np.searchsorted(xs, ends[1], side="right") + 1, len(xs))
        if rc is not None:  # gamma(t, x, 0) = C^-1(C(x) - t), C(x) taken once
            ca = cv.antideriv
            Cx = ca(xs)
            cx = rc(xs) if u0_deriv is not None else None
        u = np.zeros((len(times), len(xs)))
        fields = {"u": u}
        if u0_deriv is not None:
            fields["ux"] = np.zeros_like(u)
        for i, t in enumerate(times):
            sl = slice(first[i], stop[i])
            foot = ca.invert(Cx[sl] - t) if rc is not None else gamma(cv, t, xs[sl], 0.0)
            u[i, sl] = prof(foot)
            if u0_deriv is not None:
                g1 = rc(foot) / cx[sl] if rc is not None else gamma_x_partials(cv, t, xs[sl])[0]
                fields["ux"][i, sl] = dprof(foot) * g1
        eps = rc.eps if rc is not None else cv.eps
        return SolutionRecord(eps=eps, grid=grid, times=times, fields=fields)

    return SolutionFamily(scenario_id, "transport", [run(cv) for cv in curves])


# --- wave equation, x-dependent speed --------------------------------------

def speed_impedance(c, conservative: bool):
    """(a, Z) = (sqrt(K/rho), sqrt(K rho)) at c: (c, 1/c) for dtt u = c^2 dxx u, (sqrt(c), sqrt(c)) for dx(c dx u)."""
    return (np.sqrt(c),) * 2 if conservative else (c, 1.0 / c)


def solve_wave_x(
    rcs,
    u0,
    u1,
    grid: Grid1D,
    u0_deriv=None,
    conservative: bool = False,
    store_times=None,
    store_dtype=np.float64,
    store_vw: bool = False,
    scenario_id: str = "wave_x",
) -> SolutionFamily:
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
    by linear interpolation in xi.  The members are solved in this process.

    Fields per record: "u" time-indexed slices (store_dtype), plus "v","w"
    when store_vw is set; meta "a" and "rho" hold the characteristic speed and
    the density rho = Z/a of the energy functional on grid.xs.
    """
    if not isinstance(rcs, (list, tuple)):
        rcs = [rcs]
    times = np.asarray(
        _default_store_times(grid.t_end) if store_times is None else store_times, dtype=float
    )
    xs = grid.xs

    def run(rc: RegularizedCoeff) -> SolutionRecord:
        grid.check_resolution(rc.h)
        ca = CumulativeIntegral(rc, "reciprocal_sqrt") if conservative else CoeffAntideriv(rc)
        a, z = speed_impedance(rc(xs), conservative)
        n_steps = int(np.ceil(grid.t_end / grid.dt(float(np.max(a))) - 1e-12))
        dxi = grid.t_end / n_steps
        Cx = ca(xs)
        n = int(np.ceil((Cx[-1] - Cx[0]) / dxi))
        xi = Cx[0] + dxi * np.arange(n + 1)
        x = ca.invert(xi)
        ax, cp = speed_impedance(rc(x), conservative)[0], rc.deriv(x, 1)
        g = -0.25 * cp / ax if conservative else 0.5 * cp
        u0f = _resolve(u0, rc)
        u0_xi = ax * _resolve(u0_deriv, rc)(x) if u0_deriv is not None else np.gradient(u0f(x), dxi)
        u1v = _resolve(u1, rc)(x)
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
        fields = {name: np.empty((len(times), len(xs)), dtype=store_dtype) for name in names}
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
        return SolutionRecord(
            eps=rc.eps,
            grid=grid,
            times=times,
            fields=fields,
            meta={"h": rc.h, "a": a, "rho": z / a},
        )

    return SolutionFamily(scenario_id, "wave_x", [run(rc) for rc in rcs])


# --- wave equation, t-dependent speed (spectral in x) ----------------------

# Window substep size: c_max dt <= min(_SIGMA eps, _RHO dx).  The splitting error
# of mode k grows like (k c dt)^4 and delta data put their energy at k ~ 1/eps, so
# the data scale eps sizes the substep (h only sets the window length); 0.0125 is
# 320 substeps per 2h at the standard scale.  The polynomial mollifier's spectrum
# decays only algebraically, so every mode the grid carries holds some data, and
# past k c dt ~ pi the substeps alias their coupling: the dx cap keeps the highest
# mode at k c dt <= 0.4 pi.  Both from halving studies (CHANGES.md).
_SIGMA = 0.0125
_RHO = 0.4
# Yoshida triple jump: the three stages of a substep start at these fractions of
# it and last g1, 1 - 2 g1 (< 0: backward in time) and g1
_GAMMA1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_STAGES = np.array([0.0, _GAMMA1, 1.0 - _GAMMA1])


def solve_wave_t(
    rcs,
    u0,
    u1,
    grid: Grid1D,
    u0_deriv=None,
    store_times=None,
    store_vw: bool = False,
    scenario_id: str = "wave_t",
) -> SolutionFamily:
    """dtt u = c(t)^2 dxx u on a periodic window via exact per-mode advance.

    Between and outside the kernel windows rc.windows the speed is exactly
    constant and each Fourier mode advances by a closed-form phase (and its
    closed-form time integral feeds u).  Inside every window the substeps
    obey c_max dt <= min(_SIGMA eps, _RHO dx).  Each substep is the Yoshida
    triple jump of the symmetric Strang step (half phase, exact 2x2 coupling
    exponential exp(theta M), half phase; theta = log(c_b/c_a)/2,
    M = [[1,-1],[-1,1]]) over the fractions g1, 1 - 2 g1, g1 with
    g1 = 1/(2 - 2^(1/3)), the middle one backward in time, which makes it
    fourth order.  u integrates u_t = (v+w)/2 by the end-corrected trapezoid
    with the exact d(v+w)/dt = -i k c (v-w) (the coupling cancels), so u is
    fourth order too.
    """
    if not isinstance(rcs, (list, tuple)):
        rcs = [rcs]
    times = np.asarray(
        _default_store_times(grid.t_end) if store_times is None else store_times, dtype=float
    )
    xs = grid.xs_periodic()
    k = 2.0 * np.pi * np.fft.rfftfreq(grid.nx, grid.dx)
    # exp(-i k p) with k = (span a + b) k[1] is the outer product of two short
    # exponential tables: one complex multiply per mode instead of one exp
    span = 1 << int(np.ceil(0.5 * np.log2(len(k))))
    k_lo = k[1] * np.arange(span)
    k_hi = k[1] * span * np.arange(-(-len(k) // span))[:, None]
    table = np.empty((len(k_hi), span), dtype=complex)
    ph = table.reshape(-1)[: len(k)]

    def run(rc: RegularizedCoeff) -> SolutionRecord:
        if rc.base.variable != "time":
            raise ValueError("solve_wave_t needs a time-dependent coefficient")
        grid.check_resolution(rc.h)
        u0f = _resolve(u0, rc)
        u1f = _resolve(u1, rc)
        uh = np.fft.rfft(u0f(xs).astype(float))
        c0 = rc(0.0)
        if u0_deriv is not None:
            u0x_h = np.fft.rfft(_resolve(u0_deriv, rc)(xs))
        else:
            u0x_h = 1j * k * uh
        u1h = np.fft.rfft(u1f(xs))
        vh = u1h - c0 * u0x_h
        wh = u1h + c0 * u0x_h

        nz = k != 0.0

        def advance_const(t0, t1):
            """Exact advance over [t0,t1] with mu = 0 (c constant there)."""
            nonlocal vh, wh, uh
            cval = rc(0.5 * (t0 + t1))
            dT = cval * (t1 - t0)
            phase = np.exp(-1j * k * dT)
            # int_t0^t1 v dt per mode, closed form
            iv = np.empty_like(vh)
            iw = np.empty_like(wh)
            iv[nz] = vh[nz] * (1.0 - phase[nz]) / (1j * k[nz] * cval)
            iw[nz] = wh[nz] * (1.0 - np.conj(phase[nz])) / (-1j * k[nz] * cval)
            iv[~nz] = vh[~nz] * (t1 - t0)
            iw[~nz] = wh[~nz] * (t1 - t0)
            uh = uh + 0.5 * (iv + iw)
            vh = vh * phase
            wh = wh * np.conj(phase)

        c_max = max(rc.base.values)

        def advance_window(t0, t1):
            """Triple-jump substeps, updating vh, wh and uh in place."""
            nonlocal vh, wh, uh
            n_sub = int(np.ceil((t1 - t0) * c_max / min(_SIGMA * rc.eps, _RHO * grid.dx)))
            dt = (t1 - t0) / n_sub
            stages = np.append((t0 + dt * (np.arange(n_sub)[:, None] + _STAGES)).ravel(), t1)
            cs = rc(stages)
            f = (0.5 * (cs[1:] / cs[:-1] - 1.0)).reshape(n_sub, 3)  # exp(theta M) = I + f M
            half = (0.5 * np.diff(time_integral(rc, stages))).reshape(n_sub, 3)
            # the four phases of a substep: adjacent half phases of two stages merged
            phases = np.column_stack([half[:, 0], half[:, :2].sum(1), half[:, 1:].sum(1), half[:, 2]])
            ph_c, dvw = np.empty_like(vh), np.empty_like(vh)
            # trapezoid sum of v + w over the substep ends; the end corrections
            # dt^2/12 (ut'_a - ut'_b), ut' = -i k c (v - w)/2, telescope to the
            # window ends: dq = c_a (v_a - w_a) - c_b (v_b - w_b)
            acc = 0.5 * (vh + wh)
            dq = cs[0] * (vh - wh)
            for i in range(n_sub):
                for j in range(4):
                    p = -1j * phases[i, j]
                    np.multiply(np.exp(p * k_hi), np.exp(p * k_lo), out=table)
                    np.conjugate(ph, out=ph_c)
                    vh *= ph
                    wh *= ph_c
                    if j < 3:
                        np.subtract(vh, wh, out=dvw)
                        dvw *= f[i, j]
                        vh += dvw
                        wh -= dvw
                acc += vh
                acc += wh
            acc -= 0.5 * (vh + wh)
            dq -= cs[-1] * (vh - wh)
            uh += 0.5 * dt * acc - 1j * k * (dt * dt / 24.0) * dq

        def advance(t0, t1):
            for lo, hi in rc.windows:
                a, b = max(t0, lo), min(t1, hi)
                if a >= b:
                    continue
                if t0 < a:
                    advance_const(t0, a)
                advance_window(a, b)
                t0 = b
            if t0 < t1:
                advance_const(t0, t1)

        order = np.argsort(times)
        slices_u = {}
        slices_v, slices_w = {}, {}
        t_cur = 0.0
        for i in order:
            tt = float(times[i])
            if tt > t_cur:
                advance(t_cur, tt)
                t_cur = tt
            slices_u[int(i)] = np.fft.irfft(uh, n=grid.nx)
            if store_vw:
                slices_v[int(i)] = np.fft.irfft(vh, n=grid.nx)
                slices_w[int(i)] = np.fft.irfft(wh, n=grid.nx)
        fields = {"u": np.stack([slices_u[i] for i in range(len(times))])}
        if store_vw:
            fields["v"] = np.stack([slices_v[i] for i in range(len(times))])
            fields["w"] = np.stack([slices_w[i] for i in range(len(times))])
        return SolutionRecord(
            eps=rc.eps, grid=grid, times=times, fields=fields, meta={"h": rc.h}
        )

    return SolutionFamily(scenario_id, "wave_t", ladder_map(run, rcs))


# --- odd-dimensional radial reduction --------------------------------------

def radial_aux_data(m: Mollifier, h: float) -> Callable:
    """d=3 auxiliary initial velocity g(r) = int_{-h}^{r} (-s) phi_h(s) ds.

    Even, supported in [-h, h]; g = -h * M(r/h) with M = phi_moment.
    """
    return lambda r: -h * phi_moment(m, np.asarray(r, dtype=float) / h)


def solve_radial_odd(
    rcs,
    d: int,
    grid: Grid1D,
    store_times=None,
    scenario_id: str = "radial_odd",
) -> SolutionFamily:
    """Spherical wave in d = 2n+1 dimensions with U0 = 0, U1 = phi_h(|x|).

    Solves the auxiliary 1D wave (even data g above) with solve_wave_t and
    applies u = [(-1/r) dr]^n v by spectral differentiation; the r -> 0 value
    comes from even-symmetric extrapolation of the neighbouring cells (the
    direct d2v/dr2 limit amplifies spectral rounding by k^2).  d = 3 only.
    """
    if d != 3:
        raise ValueError("only d = 3 (n = 1) is implemented")
    if not isinstance(rcs, (list, tuple)):
        rcs = [rcs]

    def make_g(rc):
        return radial_aux_data(rc.mollifier, rc.h)

    fam = solve_wave_t(
        list(rcs),
        None,
        PerEps(make_g),
        grid,
        store_times=store_times,
        scenario_id=scenario_id,
    )
    xs = grid.xs_periodic()
    dx = grid.dx
    safe = np.abs(xs) > 0.5 * dx
    k = 2.0 * np.pi * np.fft.rfftfreq(grid.nx, dx)
    for rec in fam.records:
        v = rec.fields["u"]
        vh = np.fft.rfft(v, axis=1)
        vr = np.fft.irfft(1j * k[None, :] * vh, n=grid.nx, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(safe[None, :], -vr / np.where(safe, xs, 1.0)[None, :], 0.0)
        for i in np.nonzero(~safe)[0]:
            # u is even and smooth in r: 4th-order even extrapolation to r = 0
            u[:, i] = (4.0 * (u[:, i - 1] + u[:, i + 1]) - (u[:, i - 2] + u[:, i + 2])) / 6.0
        rec.fields["v"] = v
        rec.fields["u"] = u
    fam.solver_id = "radial_odd"
    return fam


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

    Record meta goes to the manifest too: scalars as Python literals, arrays
    as binary dumps of their own (not fields: those are all time x space).
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

    def dump(arr, fname):
        arr = np.ascontiguousarray(arr, dtype="<f8")
        arr.tofile(outdir / fname)
        return "x".join(map(str, arr.shape))

    for i, rec in enumerate(family.records):
        g = rec.grid
        lines += [
            f"record.{i}.eps={float(rec.eps)!r}",
            f"record.{i}.grid={float(g.x_min)!r},{float(g.x_max)!r},{g.nx},"
            f"{float(g.t_end)!r},{float(g.cfl)!r}",
            f"record.{i}.times={','.join(repr(float(t)) for t in rec.times)}",
            f"record.{i}.fields={','.join(sorted(rec.fields))}",
        ]
        for name in sorted(rec.fields):
            fname = f"{family.scenario_id}_{i}_{name}.bin"
            lines.append(f"record.{i}.file.{name}={fname}")
            lines.append(f"record.{i}.shape.{name}={dump(rec.fields[name], fname)}")
        for name, val in sorted(rec.meta.items()):
            if isinstance(val, np.ndarray):
                fname = f"{family.scenario_id}_{i}_meta_{name}.bin"
                lines.append(f"record.{i}.meta_file.{name}={fname}")
                lines.append(f"record.{i}.meta_shape.{name}={dump(val, fname)}")
            else:
                lines.append(f"record.{i}.meta.{name}={val.item() if isinstance(val, np.generic) else val!r}")
    (outdir / "manifest.txt").write_text("\n".join(lines) + "\n")
    return outdir


def load_family(indir) -> SolutionFamily:
    indir = Path(indir)
    kv = {}
    for line in (indir / "manifest.txt").read_text().splitlines():
        if "=" in line:
            key, val = line.split("=", 1)
            kv[key] = val

    def load(file_key, shape_key):
        shape = tuple(int(s) for s in kv[shape_key].split("x"))
        return np.fromfile(indir / kv[file_key], dtype="<f8").reshape(shape)

    records = []
    for i in range(int(kv["n_records"])):
        gx = kv[f"record.{i}.grid"].split(",")
        grid = Grid1D(float(gx[0]), float(gx[1]), int(gx[2]), float(gx[3]), float(gx[4]))
        times = np.array([float(t) for t in kv[f"record.{i}.times"].split(",")])
        fields = {
            name: load(f"record.{i}.file.{name}", f"record.{i}.shape.{name}")
            for name in kv[f"record.{i}.fields"].split(",")
        }
        meta, prefix = {}, f"record.{i}."
        for key, val in kv.items():
            kind, _, name = key[len(prefix):].partition(".")
            if not key.startswith(prefix):
                continue
            if kind == "meta":
                meta[name] = ast.literal_eval(val)
            elif kind == "meta_file":
                meta[name] = load(key, f"record.{i}.meta_shape.{name}")
        records.append(
            SolutionRecord(eps=float(kv[f"record.{i}.eps"]), grid=grid, times=times, fields=fields, meta=meta)
        )
    return SolutionFamily(kv["scenario"], kv["solver"], records)
