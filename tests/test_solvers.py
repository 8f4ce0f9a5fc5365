import numpy as np
import pytest

from colwave.characteristics import TanhFlow, time_integral
from colwave.cli import _spec
from colwave.coefficients import CumulativeIntegral, RegularizedCoeff
from colwave.energy import energy_trace
from colwave.oracle import PiecewiseTSolution
from colwave.pipeline import _profile
from colwave.solvers import (
    NumericalFailure,
    SolutionFamily,
    abel_forward,
    abel_invert,
    delta_profile,
    load_family,
    save_family,
    solve_radial_odd,
    solve_transport,
    solve_wave_t,
    solve_wave_x,
    spherical_oracle,
    with_support,
)
from colwave import solvers
from colwave.spec import Grid1D, Mollifier, PiecewiseConstantCoeff, ScaleFn


def smooth_bump(x, x0=0.0, w=1.0):
    x = np.asarray(x, dtype=float)
    z = (x - x0) / w
    out = np.zeros_like(z)
    m = np.abs(z) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - z[m] ** 2))
    return out


@pytest.fixture
def rc_space():
    base = PiecewiseConstantCoeff((0.0,), (1.0, 2.0), "space")
    return RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), 0.05)


@pytest.fixture
def rc_time():
    base = PiecewiseConstantCoeff((1.0,), (1.0, 2.0), "time")
    return RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), 0.05)


def test_grid_basics():
    g = Grid1D(-1.0, 1.0, 100, 2.0)
    assert g.dx == pytest.approx(0.02)
    assert len(g.xs) == 101
    assert g.dt(2.0) == pytest.approx(0.45 * 0.02 / 2.0)
    with pytest.raises(ValueError):
        g.check_resolution(0.02 * 15.9)  # needs h >= 16 dx
    g.check_resolution(0.5)
    for bad in ((-np.inf, 1.0, 100, 2.0), (-1.0, 1.0, 100, np.inf), (-1.0, np.nan, 100, 2.0)):
        with pytest.raises(ValueError, match="finite"):
            Grid1D(*bad)


def test_delta_profile_standard_width(rc_space):
    base = PiecewiseConstantCoeff((0.0,), (1.0, 2.0), "space")
    slow = RegularizedCoeff(base, Mollifier(), ScaleFn("slow_scale", p=4.0), 0.01)
    prof = delta_profile(0.0, slow)
    # width follows eps (the imbedding scale), not the coefficient scale
    assert prof(0.0) == pytest.approx(Mollifier().normalization / 0.01)
    assert prof(0.011) == 0.0
    xs = np.linspace(-0.02, 0.02, 20001)
    assert float(np.sum(prof(xs))) * (xs[1] - xs[0]) == pytest.approx(1.0, abs=1e-4)


def test_transport_exact_constant_speed():
    base = PiecewiseConstantCoeff((), (1.5,), "space")
    rc = RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), 0.05)
    g = Grid1D(-3.0, 3.0, 300, 1.0)
    rec = solve_transport(rc, lambda x: smooth_bump(x, -1.0, 0.5), g, [0.0, 1.0])
    u1 = rec.slice_at(1.0)
    assert np.allclose(u1, smooth_bump(g.xs - 1.5, -1.0, 0.5), atol=1e-7)


def test_transport_stores_analytic_derivative():
    cv = TanhFlow(0.02, 1.0)
    g = Grid1D(-2.0, 2.0, 400, 0.5)
    rec = solve_transport(cv, lambda x: np.sin(x), g, [0.5], u0_deriv=lambda x: np.cos(x))
    i0 = int(np.argmin(np.abs(rec.xs)))
    # dx u(t, 0) = u0'(0) e^{t/eps}: far beyond anything a grid difference sees
    assert rec.slice_at(0.5, "ux")[i0] == pytest.approx(np.exp(0.5 / 0.02), rel=1e-10)


# The ids are the names of the Fromm and van Leer slope schemes the two cases
# once ran with; they now run the non-conservative and the conservative form.
@pytest.mark.parametrize("conservative", [False, True], ids=["fromm", "vanleer"])
def test_wave_x_second_order_convergence(conservative):
    # d'Alembert at constant speed 1: error should drop ~4x per halving
    base = PiecewiseConstantCoeff((), (1.0,), "space")
    rc = RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), 0.25)
    u0 = lambda x: smooth_bump(x, -1.0, 0.8)
    errs = []
    for nx in (400, 800, 1600):
        g = Grid1D(-3.0, 3.0, nx, 1.0)
        u = solve_wave_x(rc, u0, None, g, [0.0, 1.0], conservative=conservative).slice_at(1.0)
        errs.append(float(np.max(np.abs(u - 0.5 * (u0(g.xs - 1.0) + u0(g.xs + 1.0))))))
    assert errs[0] < 2e-4
    assert all(3.0 < e0 / e1 < 5.0 for e0, e1 in zip(errs, errs[1:]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_wave_x_overflow_reported(rc_space):
    g = Grid1D(-2.0, 2.0, 1280, 0.7)
    # dx u0 and so V and W overflow double precision: u is not finite at t = 0
    big = lambda x: 1e308 * smooth_bump(x, 0.0, 0.3)
    with pytest.raises(NumericalFailure, match="non-finite values at t=0.0000"):
        solve_wave_x(rc_space, big, big, g, [0.0])


def test_wave_x_dalembert_constant_speed():
    base = PiecewiseConstantCoeff((), (1.0,), "space")
    rc = RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), 0.1)
    g = Grid1D(-3.0, 3.0, 2048, 1.0)
    u = solve_wave_x(rc, lambda x: smooth_bump(x, 0.0, 0.5), None, g, [0.0, 1.0]).slice_at(1.0)
    ref = 0.5 * (smooth_bump(g.xs - 1.0, 0.0, 0.5) + smooth_bump(g.xs + 1.0, 0.0, 0.5))
    assert float(np.max(np.abs(u - ref))) < 2e-3


def test_wave_x_conservative_form_moves_at_sqrt_c():
    # dtt u = dx(4 dx u): d'Alembert at speed 2, through the travel time int dx/sqrt(c)
    base = PiecewiseConstantCoeff((), (4.0,), "space")
    rc = RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), 0.1)
    g = Grid1D(-3.0, 3.0, 2048, 1.0)
    u0 = lambda x: smooth_bump(x, 0.0, 0.5)
    rec = solve_wave_x(rc, u0, None, g, [0.0, 1.0], conservative=True)
    u = rec.slice_at(1.0)
    assert float(np.max(np.abs(u - 0.5 * (u0(g.xs - 2.0) + u0(g.xs + 2.0))))) < 1e-4


def test_wave_x_fronts_stay_in_the_domain_of_dependence(rc_space):
    # delta data at -1, width eps: V and W vanish exactly beyond the fronts -1 -+ (eps + 2 t)
    g = Grid1D(-3.5, 2.7, 1984, 1.5)
    times = [0.3, 0.6, 1.5]
    rec = solve_wave_x(rc_space, None, delta_profile(-1.0, rc_space), g, times, store_vw=True)
    for i, t in enumerate(times):
        reach = rc_space.eps + 2.0 * t + g.dx
        outside = np.abs(g.xs + 1.0) > reach
        for name in ("v", "w"):
            assert np.max(np.abs(rec.fields[name][i])) > 1.0
            assert not np.any(rec.fields[name][i][outside]), (name, t)


def test_wave_x_transmitted_plateau(rc_space):
    # delta velocity data at -1: u approaches the 2/3 plateau behind the crossing
    g = Grid1D(-3.5, 2.7, 6200, 1.8)
    u = solve_wave_x(rc_space, None, delta_profile(-1.0, rc_space), g, [1.8]).slice_at(1.8)
    i = int(np.argmin(np.abs(g.xs - 0.3)))
    assert u[i] == pytest.approx(2.0 / 3.0, rel=2e-3)


def _reference_wave_x(rc, u0, u1, grid, times, conservative=False):
    """One wave_x member the plain way: every step applies the two half
    couplings of its Strang split, from alignment 0 on.  Returns the u, v, w
    fields, dxi, and the first alignment whose window holds a nonzero label
    (found by looking, at every alignment, before its couplings)."""
    ca = CumulativeIntegral(rc, "reciprocal_sqrt" if conservative else "reciprocal")
    speed = (lambda x: np.sqrt(rc(x))) if conservative else rc
    xs = grid.xs
    n_steps = int(np.ceil(grid.t_end / grid.dt(float(np.max(speed(xs)))) - 1e-12))
    dxi = grid.t_end / n_steps
    Cx = ca(xs)
    n = int(np.ceil((Cx[-1] - Cx[0]) / dxi))
    xi = Cx[0] + dxi * np.arange(n + 1)
    x = ca.invert(xi)
    cp = rc.deriv(x, 1)
    g = -0.25 * cp / speed(x) if conservative else 0.5 * cp
    u0f = solvers._or_zero(u0)
    u0_xi = np.gradient(u0f(x), dxi)
    u1v = solvers._or_zero(u1)(x)
    V = np.zeros(n + 1 + n_steps)
    W = np.zeros_like(V)
    V[n_steps:] = u1v - u0_xi
    W[: n + 1] = u1v + u0_xi
    cols = np.flatnonzero(g)
    lo, hi = (cols[0], cols[-1] + 1) if cols.size else (0, 0)
    half_g = 0.5 * dxi * g[lo:hi]
    first = None

    def couple(k):
        v, w = V[lo - k + n_steps : hi - k + n_steps], W[lo + k : hi + k]
        d = (v - w) * half_g
        v += d
        w += d

    fills = {}
    for i, k in enumerate(np.clip(np.rint(np.asarray(times) / dxi).astype(int), 0, n_steps).tolist()):
        fills.setdefault(k, []).append(i)
    fields = {name: np.empty((len(times), len(xs))) for name in "uvw"}
    u_left = float(u0f(x[:1])[0])
    ut_left = 0.5 * (V[n_steps] + W[0])
    for k in range(max(fills) + 1):
        if first is None and (V[lo - k + n_steps : hi - k + n_steps].any() or W[lo + k : hi + k].any()):
            first = k
        if k:
            couple(k - 1)
            couple(k)
            ut = 0.5 * (V[n_steps - k] + W[k])
            u_left += 0.5 * dxi * (ut_left + ut)
            ut_left = ut
        if k not in fills:
            continue
        v, w = V[n_steps - k : n_steps - k + n + 1], W[k : k + n + 1]
        u_xi = 0.5 * (w - v)
        u = np.concatenate([[u_left], u_left + 0.5 * dxi * np.cumsum(u_xi[1:] + u_xi[:-1])])
        for name, f in zip("uvw", (u, v, w)):
            fields[name][fills[k]] = np.interp(Cx, xi, f)
    return fields, dxi, first


# (breakpoints, values, grid, u0, u1 of the member rc): where the kernel window lies and where the data start
WAVE_X_CASES = {
    "window_inside": ((0.0,), (1.0, 2.0), Grid1D(-2.0, 2.0, 1280, 1.5), None, lambda rc: delta_profile(-1.0, rc)),
    "data_in_window_at_t0": ((0.0,), (1.0, 2.0), Grid1D(-2.0, 2.0, 1280, 0.5),
                             lambda x: smooth_bump(x, 0.0, 0.3), None),
    "window_at_x_max": ((0.98,), (2.0, 1.0), Grid1D(-2.0, 1.0, 960, 0.8), None, lambda rc: delta_profile(0.4, rc)),
    "window_at_x_min": ((-0.98,), (1.0, 2.0), Grid1D(-1.0, 2.0, 960, 1.2), None, lambda rc: delta_profile(0.2, rc)),
    "constant_c": ((), (2.0,), Grid1D(-2.0, 2.0, 1280, 0.5), None, lambda rc: delta_profile(-1.0, rc)),
}


@pytest.mark.parametrize("conservative", [False, True], ids=["nonconservative", "conservative"])
@pytest.mark.parametrize("case", list(WAVE_X_CASES))
def test_wave_x_matches_the_split_coupling_reference(case, conservative):
    # one coupling with tau = dxi per alignment, two halves only where a store
    # step reads between them, none before first contact: the same solve up to
    # rounding, and the same bytes when there is no coupling at all
    bps, values, g, u0, u1 = WAVE_X_CASES[case]
    rc = RegularizedCoeff(PiecewiseConstantCoeff(bps, values, "space"), Mollifier(), ScaleFn("standard"), 0.05)
    u1 = u1 and u1(rc)
    _, dxi, first = _reference_wave_x(rc, u0, u1, g, [g.t_end], conservative)
    assert (first == 0) == (case == "data_in_window_at_t0")
    t_first = (first or 0) * dxi
    times = [0.0, t_first, t_first + 0.05 + 0.4 * dxi, g.t_end]  # the third off the step lattice
    ref, _, _ = _reference_wave_x(rc, u0, u1, g, times, conservative)
    rec = solve_wave_x(rc, u0, u1, g, times, conservative=conservative, store_vw=True)
    for name in "uvw":
        if not bps:
            assert rec.fields[name].tobytes() == ref[name].tobytes(), name
        err = np.max(np.abs(rec.fields[name] - ref[name]))
        assert err <= 1e-13 * np.max(np.abs(ref[name])), (name, err)


def test_wave_t_exact_for_constant_speed():
    base = PiecewiseConstantCoeff((), (2.0,), "time")
    rc = RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), 0.05)
    g = Grid1D(-4.0, 4.0, 2560, 0.8)
    u = solve_wave_t(rc, lambda x: smooth_bump(x, 0.0, 1.0), None, g, [0.0, 0.8]).slice_at(0.8)
    xs = g.xs
    ref = 0.5 * (smooth_bump(xs - 1.6, 0.0, 1.0) + smooth_bump(xs + 1.6, 0.0, 1.0))
    assert float(np.max(np.abs(u - ref))) < 1e-10


def test_wave_t_jump_matches_reexpansion_oracle(rc_time):
    g = Grid1D(-6.0, 6.0, 4096, 1.6)
    u0 = lambda x: smooth_bump(x, 0.0, 0.5)
    rec = solve_wave_t(rc_time, u0, None, g, [1.6])
    sol = PiecewiseTSolution(1.0, 2.0, F=lambda x: 0.5 * u0(x), G=lambda x: 0.5 * u0(x))
    xs = g.xs
    err = float(np.max(np.abs(rec.slice_at(1.6) - sol(1.6, xs))))
    # the oracle uses the sharp jump; the solver the eps = 0.05 window
    assert err < 5e-3


def test_wave_t_steps_every_jump_window():
    # speed 1 -> 2 at t = 0.6 and back 2 -> 1 at t = 1.2
    base = PiecewiseConstantCoeff((0.6, 1.2), (1.0, 2.0, 1.0), "time")
    rc = RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), 0.05)
    g = Grid1D(-6.0, 6.0, 4096, 2.0)
    half = lambda x: 0.5 * smooth_bump(x, 0.0, 0.5)
    rec = solve_wave_t(rc, lambda x: 2.0 * half(x), None, g, [2.0])
    first = PiecewiseTSolution(1.0, 2.0, F=half, G=half, t_jump=0.6)
    a, b = first.alpha, first.beta
    # the first re-expansion as waves in x - 2t and x + 2t, re-expanded at t = 1.2
    right = lambda xi: a * half(xi + 0.6) + b * half(xi + 1.8)
    left = lambda eta: b * half(eta - 1.8) + a * half(eta - 0.6)
    second = PiecewiseTSolution(2.0, 1.0, F=right, G=left, t_jump=1.2)
    xs = g.xs
    assert float(np.max(np.abs(first(1.0, xs) - second(1.0, xs)))) < 1e-15
    err = float(np.max(np.abs(rec.slice_at(2.0) - second(2.0, xs))))
    assert err < 1.5e-2


def _t_jump(eps=0.1):
    """The speed jump 1 -> 2 at t = 1, standard scale."""
    return RegularizedCoeff(PiecewiseConstantCoeff((1.0,), (1.0, 2.0), "time"), Mollifier(), ScaleFn("standard"), eps)


def _reference_wave_t(rc, u1, grid, steps):
    """u at the lattice steps STEPS for u0 = 0 by the textbook Strang loop: half
    coupling, one-cell shift of every label array (inflow: the far field), half
    coupling, over arrays wide enough to hold the domain of dependence."""
    T, dx, n = CumulativeIntegral(rc, "value"), grid.dx, grid.nx
    pad = max(steps) + 1
    x = grid.x_min + dx * np.arange(-pad, n + pad + 1)
    V, P = u1(x), u1.antideriv(x)
    W, Q = V.copy(), P.copy()
    c = lambda tau: float(rc(T.invert(tau)))

    def couple(tau_a, tau_b):
        f = 0.5 * (c(tau_b) / c(tau_a) - 1.0)
        for a, b in ((V, W), (P, Q)):
            d = f * (a - b)
            a += d
            b -= d

    out = {}
    for k in range(max(steps) + 1):
        if k in steps:
            out[k] = (Q - P)[pad : pad + n + 1] / (2.0 * c(k * dx))
        couple(k * dx, (k + 0.5) * dx)
        V[1:], P[1:] = V[:-1].copy(), P[:-1].copy()
        W[:-1], Q[:-1] = W[1:].copy(), Q[1:].copy()
        couple((k + 0.5) * dx, (k + 1) * dx)
    return out


def test_wave_t_matches_the_split_coupling_loop():
    # one merged coupling per step, on the pairs in reach of the data only,
    # is the Strang loop over whole arrays; steps before, inside and after the window
    rc, g = _t_jump(), Grid1D(-3.0, 3.0, 1024, 1.6)
    u1 = delta_profile(0.3, rc)
    T = CumulativeIntegral(rc, "value")
    steps = [40, int(T(0.97) / g.dx), int(T(1.02) / g.dx), int(T(1.6) / g.dx)]
    ref = _reference_wave_t(rc, u1, g, steps)
    rec = solve_wave_t(rc, None, u1, g, T.invert(g.dx * np.array(steps)))
    for i, k in enumerate(steps):
        assert np.max(np.abs(rec.fields["u"][i] - ref[k])) <= 1e-12 * np.max(np.abs(ref[k])), k


def _jump_fields(nx, t):
    """u, v, w at t of delta velocity data through the speed jump 1 -> 2 at t = 1
    (eps = 0.1), solved on nx cells of [-4, 4], at the nodes of the 1280-cell grid."""
    g = Grid1D(-4.0, 4.0, nx, 1.6)
    rc = _t_jump()
    rec = solve_wave_t(rc, None, delta_profile(0.0, rc), g, [t], store_vw=True)
    return {name: f[0, :: nx // 1280] for name, f in rec.fields.items()}


def test_wave_t_coupling_is_second_order():
    # t = 1.5 sits on every lattice (T = 2 = 320 dx at nx = 1280), so only the coupling errs
    u = {nx: _jump_fields(nx, 1.5)["u"] for nx in (1280, 2560, 5120, 20480)}
    err = [float(np.max(np.abs(u[nx] - u[20480]))) for nx in (1280, 2560, 5120)]
    assert err[0] > 1e-6  # the window does couple
    assert 3.5 <= err[0] / err[1] <= 4.5 and 3.5 <= err[1] / err[2] <= 4.5


def test_wave_t_store_time_inside_a_window_is_second_order():
    # T(t) = 1 + dx/3 at nx = 1280: a third, two thirds, a third of a cell past a
    # step on the three lattices, inside the window [0.9, 1.1]; leaving out the
    # coupling over that part of a cell would err to first order
    t = CumulativeIntegral(_t_jump(), "value").invert(1.0 + 8.0 / 1280 / 3.0)
    fields = {nx: _jump_fields(nx, t) for nx in (1280, 2560, 5120, 20480)}
    for name in "uvw":
        err = [float(np.max(np.abs(fields[nx][name] - fields[20480][name]))) for nx in (1280, 2560, 5120)]
        assert err[0] / err[1] >= 3.0 and err[1] / err[2] >= 3.0, name


def test_wave_t_energy_is_constant_off_the_windows_between_lattice_steps():
    # E = sum (V^2 + W^2)/2 dx is exact on the lattice, and the spectral sub-cell
    # shift of V and W keeps it at store times between steps (a cubic shift damps it)
    rc, g = _t_jump(0.05), Grid1D(-6.0, 6.0, 3840, 2.0)
    times = np.array([0.0, 0.123, 0.456, 0.789, 1.234, 1.567, 1.891])
    assert (np.mod(CumulativeIntegral(rc, "value")(times) / g.dx, 1.0)[1:] > 0.05).all()
    rec = solve_wave_t(rc, None, delta_profile(0.2, rc), g, times, store_vw=True)
    E = energy_trace(rec, 1.0).E
    before, after = times < 1.0 - rc.h, times > 1.0 + rc.h
    assert np.ptp(E[before]) <= 1e-9 * E[0]
    assert np.ptp(E[after]) <= 1e-9 * E[0]
    assert E[after][0] > 1.5 * E[0]  # the jump did pump energy in


def test_radial_matches_spherical_oracle():
    m = Mollifier()
    base = PiecewiseConstantCoeff((), (1.5,), "time")
    rc = RegularizedCoeff(base, m, ScaleFn("standard"), 0.05)
    g = Grid1D(-4.0, 4.0, 2560, 1.0)
    # tau/dx = 240 and 480 are lattice steps; 149.6 and 373.3 are read through
    # the sub-cell cubic on P and Q (errors 6.1e-7 and 2.5e-7)
    bounds = {0.3117: 1e-6, 0.5: 1e-7, 0.77771: 1e-6, 1.0: 1e-7}
    rec = solve_radial_odd(rc, g, list(bounds))
    orc = spherical_oracle(m, rc.h, 1.5)
    mask = np.abs(rec.xs) > 0.1
    for (t, bound), u in zip(bounds.items(), rec.fields["u"]):
        assert float(np.max(np.abs(u[mask] - orc(t, np.abs(rec.xs[mask]))))) < bound, t


def test_radial_does_not_depend_on_the_grid_extent():
    # the finest member of 0.1,0.8,4 on [-0.32, 0.32] and on [-4, 4], whose nodes line up
    # (dx = 0.0032), at store times between lattice steps: the shell leaves the small grid,
    # and the label arrays of the wave_t solve of r u hold all that comes back
    rc = _t_jump(0.1 * 0.8**3)
    small, big = Grid1D(-0.32, 0.32, 200, 1.6), Grid1D(-4.0, 4.0, 2500, 1.6)
    times = [0.8123, 1.4567]
    a, b = solve_radial_odd(rc, small, times), solve_radial_odd(rc, big, times)
    for name in ("u", "v"):
        assert np.max(np.abs(a.fields[name] - b.fields[name][:, 1150:1351])) <= 1e-12, name


def test_radial_rejects_r0_next_to_a_grid_end(rc_time):
    # the extrapolation to r = 0 reads two nodes on each side; the data [-h, h] may leave the grid
    for x_min in (0.0, -0.004):
        with pytest.raises(ValueError, match="r = 0 stencil"):
            solve_radial_odd(rc_time, Grid1D(x_min, 4.0, 1280, 0.5), [0.0, 0.5])
    rec = solve_radial_odd(rc_time, Grid1D(-0.025, 4.0, 1288, 0.5), [0.0, 0.5])  # r = 0 is node 8
    assert np.isfinite(rec.fields["u"]).all()


def test_abel_pair_roundtrip():
    w = lambda r: smooth_bump(r, 0.0, 1.3)
    v = lambda r: abel_forward(lambda t, s: w(s), 0.0, r)
    back = abel_invert(v)
    rs = np.linspace(-1.2, 1.2, 41)
    assert np.allclose(back(rs), w(rs), rtol=0, atol=1e-5 * float(np.max(w(rs))))


def test_save_load_roundtrip(tmp_path, rc_space):
    g = Grid1D(-2.0, 2.0, 1280, 0.5)
    rec = solve_wave_x(rc_space, lambda x: smooth_bump(x, -1.0, 0.5), None, g, [0.0, 0.5], store_vw=True)
    fam = SolutionFamily("wave_x", "wave_x", [rec])
    out = save_family(fam, tmp_path / "fam")
    fam2 = load_family(out)
    assert fam2.scenario_id == fam.scenario_id
    assert fam2.eps_values == fam.eps_values
    r1, r2 = fam.records[0], fam2.records[0]
    assert np.array_equal(np.asarray(r1.fields["u"], dtype="<f8"), r2.fields["u"])
    assert r2.grid.nx == g.nx and r2.grid.dx == g.dx
    assert sorted(r2.fields) == ["u", "v", "w"]
    # the manifest holds each member's eps, grid, times and fields alone
    assert "meta" not in (out / "manifest.txt").read_text()
    assert sorted(p.name for p in out.iterdir()) == ["manifest.txt", "wave_x_0_u.bin", "wave_x_0_v.bin",
                                                      "wave_x_0_w.bin"]
    rho = 1.0 / rc_space(g.xs) ** 2
    assert np.array_equal(energy_trace(r2, rho).E, energy_trace(r1, rho).E)


def test_family_ladder_ordering(rc_space):
    base = rc_space.base
    rcs = [
        RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), e)
        for e in [0.05, 0.1, 0.07]
    ]
    g = Grid1D(-2.0, 2.0, 1600, 0.2)
    fam = SolutionFamily("wave_x", "wave_x", [solve_wave_x(rc, lambda x: smooth_bump(x), None, g, [0.2]) for rc in rcs])
    assert list(fam.eps_values) == sorted(fam.eps_values, reverse=True)


def test_time_integral_vectorized_matches_scalar(rc_time):
    lo, hi = 1.0 - rc_time.h, 1.0 + rc_time.h
    edges = np.linspace(lo - 0.1, hi + 0.1, 257)
    vec = time_integral(rc_time, edges)
    scalar = np.array([time_integral(rc_time, e) for e in edges])
    assert vec.shape == edges.shape
    np.testing.assert_allclose(vec, scalar, rtol=1e-14, atol=0.0)


def test_transport_feet_are_the_flow():
    # the foot is the flow gamma(t, x, 0): C^-1(C(x) - t) of a coefficient, closed form of a tanh flow
    times, g = [0.0, 0.4, 0.9], Grid1D(-2.0, 2.0, 1024, 0.9)
    rc = RegularizedCoeff(PiecewiseConstantCoeff((0.0,), (1.0, 2.0), "space"), Mollifier(), ScaleFn("standard"), 0.08)
    u0 = lambda x: smooth_bump(x, -0.5, 0.5)
    rec, C = solve_transport(rc, u0, g, times, u0_deriv=np.cos), CumulativeIntegral(rc)
    for i, t in enumerate(times):
        foot = C.invert(C(g.xs) - t)
        assert rec.fields["u"][i].tobytes() == u0(foot).tobytes()
        assert rec.fields["ux"][i].tobytes() == (np.cos(foot) * (rc(foot) / rc(g.xs))).tobytes()
    cv = TanhFlow(0.07, -1.0)
    rec = solve_transport(cv, np.sin, g, times, u0_deriv=np.cos)
    for i, t in enumerate(times):
        foot = cv.foot(t, g.xs)
        assert rec.fields["u"][i].tobytes() == np.sin(foot).tobytes()
        assert rec.fields["ux"][i].tobytes() == (np.cos(foot) * cv.foot_dx(t, g.xs)).tobytes()


# Data of the support-slice tests, as the command line builds them.  On the
# grid below (dx = 1/256) every bump and quadratic support edge is a node.
# At t = 0 the tanh flows map the nodes -+1.421875 one ulp into
# [-1.421875, 1.421875], where u0' is 6e-16: only the one-node margin keeps
# those nodes in the slice.
SLICE_DATA = {
    "bump": "bump:-0.5,0.25",
    "bump_edge_rounds_inward": "bump:0.0,1.421875",
    "bump_straddles_x_min": "bump:-2.0,0.375",
    "bump_straddles_x_max": "bump:1.875,0.25",
    "bump_enters_the_grid": "bump:-3.0,0.5",
    "bump_off_the_grid": "bump:6.0,0.5",
    "delta": "delta:-0.5",
    "delta_at_x_max": "delta:2.0",
    "quadratic": "quadratic",
    "zero": "zero",
}


@pytest.mark.parametrize("data", list(SLICE_DATA))
@pytest.mark.parametrize("kind", ["tanh_minus", "tanh_plus", "x_dependent"])
def test_transport_computes_only_the_slice_the_data_can_reach(kind, data):
    eps, times = 0.07, [0.0, 0.25, 1.0]
    g = Grid1D(-2.0, 2.0, 1024, 1.0)
    base = PiecewiseConstantCoeff((-0.8, 0.0, 0.9), (1.0, 2.0, 0.7, 1.4), "space")
    rc = RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), eps)
    # a tanh flow has no coefficient to mollify delta data with: rc of the same eps does
    u0, u0d = _profile(_spec(SLICE_DATA[data]), g, rc)
    if kind == "x_dependent":
        member, C = rc, CumulativeIntegral(rc)
        foot_at, foot_dx = (lambda t: C.invert(C(g.xs) - t)), (lambda t, foot: rc(foot) / rc(g.xs))
    else:
        member = TanhFlow(eps, 1.0 if kind == "tanh_minus" else -1.0)
        foot_at, foot_dx = (lambda t: member.foot(t, g.xs)), (lambda t, foot: member.foot_dx(t, g.xs))
    prof = solvers._or_zero(u0)
    evaluated = []
    counted = with_support(lambda x: evaluated.append(len(x)) or prof(x), *prof.support)
    rec = solve_transport(member, counted, g, times, u0_deriv=u0d)
    for i, t in enumerate(times):
        foot = foot_at(t)
        want = {"u": prof(foot)}
        if u0d is not None:
            want["ux"] = u0d(foot) * foot_dx(t, foot)
        assert sorted(rec.fields) == sorted(want)
        for name, ref in want.items():
            got = rec.fields[name][i]
            if kind == "x_dependent":  # Newton's stopping test sees fewer points
                assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
            else:
                assert got.tobytes() == ref.tobytes(), name
            off = ref == 0.0
            assert not np.signbit(got[off]).any() and (got[off] == 0.0).all(), name
        # the slice holds the nodes whose foot is in the support, and one more on each side
        lo, hi = prof.support
        assert evaluated[i] <= np.count_nonzero((lo <= foot) & (foot <= hi)) + 2
    if data in ("zero", "bump_off_the_grid"):
        assert max(evaluated) <= 1


def test_diverging_tanh_transport_where_sinh_overflows():
    # t/eps = 1000: the feet of x in [0.9, 0.99] lie within 3e-8 of 0, where the
    # bump:0.0,0.5 data are phi(0) = 0.9375, the limit u0(0) of the three regions
    g = Grid1D(-2.0, 2.0, 8000, 1.0)
    u0 = _profile(_spec("bump:0.0,0.5"), g, None)[0]
    rec = solve_transport(TanhFlow(0.001, -1.0), u0, g, [1.0])
    near = (g.xs >= 0.9) & (g.xs <= 0.99)
    assert rec.fields["u"][0, near] == pytest.approx(0.9375, abs=1e-12)


def test_transport_slice_is_the_hull_of_both_supports():
    # u0' without a support mark has the whole line as its support, so ux is
    # computed at every node even though u0 is one narrow bump
    cv, g, times = TanhFlow(0.05, -1.0), Grid1D(-2.0, 2.0, 512, 1.0), [0.0, 0.5]
    u0 = with_support(lambda x: smooth_bump(x, -0.5, 0.1), -0.6, -0.4)
    rec = solve_transport(cv, u0, g, times, u0_deriv=np.cos)
    for i, t in enumerate(times):
        foot = cv.foot(t, g.xs)
        assert rec.fields["u"][i].tobytes() == u0(foot).tobytes()
        assert rec.fields["ux"][i].tobytes() == (np.cos(foot) * cv.foot_dx(t, g.xs)).tobytes()
