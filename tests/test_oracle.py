import numpy as np
import pytest

from colwave.oracle import (
    AssociationVerdict,
    DeltaInterface,
    PiecewiseTSolution,
    associate_check,
    delta_jump_locus,
    delta_solution_eval,
    pair_delta_oracle,
    pair_gridded,
    reflect_transmit,
    three_region_limit,
    two_region_limit,
)
from colwave.spec import TestFunction


def _xjump(cm, cp, b=0.0, x0=-1.0):
    """The non-conservative delta problem: a = c, Z = 1/c."""
    return DeltaInterface(cm, cp, 1.0 / cm, 1.0 / cp, b, x0)


XJ = _xjump(1.0, 2.0)


def smooth_bump(x, x0=0.0, w=1.0):
    x = np.asarray(x, dtype=float)
    z = (x - x0) / w
    out = np.zeros_like(z)
    m = np.abs(z) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - z[m] ** 2))
    return out


def test_delta_interface_coefficients_by_impedance():
    # Z = 1/c gives the speed-form coefficients (c+ - c-)/(c+ + c-) and 2c+/(c+ + c-)
    for cm, cp in ((1.0, 2.0), (2.0, 1.0), (1.0, 1.5)):
        R, T = reflect_transmit(_xjump(cm, cp))
        assert R == pytest.approx((cp - cm) / (cp + cm), rel=1e-15)
        assert T == pytest.approx(2.0 * cp / (cp + cm), rel=1e-15)
    # at the bundled speeds they are the same doubles
    assert reflect_transmit(XJ) == (1.0 / 3.0, 4.0 / 3.0)
    # the transmission conditions at b on both forms: u is continuous once the incident
    # front arrives, and so is K u_x = a Z u_x, which a front f(t -+ x/a) carries as -+Z f'
    for m in (_xjump(1.0, 2.0), _xjump(2.0, 1.0), DeltaInterface(1.0, 2.0**0.5, 1.0, 2.0**0.5, -0.25, -1.5)):
        R, T = reflect_transmit(m)
        assert T - R == 1.0
        assert abs(m.z_minus * (1.0 - R) - m.z_plus * T) <= 1e-15
        ts = np.linspace((m.b - m.x0) / m.a_minus, 3.0, 64)[1:]
        u_minus, u_plus = delta_solution_eval(m, ts, m.b - 1e-9), delta_solution_eval(m, ts, m.b + 1e-9)
        assert np.array_equal(u_minus, u_plus)
        assert u_plus == pytest.approx(np.full_like(ts, T / (2.0 * m.a_minus)), rel=1e-15)  # the plateau


@pytest.mark.parametrize("m", [_xjump(1.0, 2.0, 0.4, -0.3), DeltaInterface(1.0, 2.0**0.5, 1.0, 2.0**0.5, -0.25, -1.5)],
                         ids=["nonconservative", "conservative"])
def test_delta_solution_follows_the_interface_and_the_delta(m):
    # the same solution as a problem with b = 0, shifted by b and started later by
    # the extra travel time; on either side of each front the values agree
    am, ap, L = m.a_minus, m.a_plus, m.b - m.x0
    at_zero = DeltaInterface(am, ap, m.z_minus, m.z_plus, 0.0, -L)
    ts = np.array([0.3, 0.9, 1.7, 2.4])
    xs = np.linspace(-4.0, 4.0, 161) + 1e-3
    assert np.array_equal(delta_solution_eval(m, ts[:, None], xs + m.b), delta_solution_eval(at_zero, ts[:, None], xs))
    locus = {lbl: f for lbl, f, _ in delta_jump_locus(m)}
    for lbl, f, _ in delta_jump_locus(at_zero):
        assert np.allclose(locus[lbl](ts), f(ts) + m.b, rtol=0.0, atol=1e-14), lbl
    psi = TestFunction(1.8, 0.3, 0.15)
    shifted = TestFunction(1.8, 0.3 + m.b, 0.15)
    assert pair_delta_oracle(m, shifted) == pytest.approx(pair_delta_oracle(at_zero, psi), rel=1e-12)


def test_delta_solution_regions():
    u = lambda t, x: delta_solution_eval(XJ, t, x)
    # before reaching the interface: expanding step of height 1/(2 c_minus)
    assert u(0.3, -1.0) == pytest.approx(0.5)
    assert u(0.3, -2.0) == 0.0
    # plateau above the crossing
    assert u(1.8, 0.3) == pytest.approx(2.0 / 3.0)
    # transmitted front at x = -2 + 2t = 1.0
    assert u(1.5, 0.9) == pytest.approx(2.0 / 3.0)
    assert u(1.5, 1.1) == 0.0
    # outside the backward cone
    assert u(1.0, -3.5) == 0.0


def test_delta_solution_jump_locus_matches_rays():
    locus = dict((lbl, (f, rng)) for lbl, f, rng in delta_jump_locus(XJ))
    f, rng = locus["incident_left"]
    assert f(0.6) == pytest.approx(-1.6)
    f, rng = locus["incident_right"]
    assert f(0.6) == pytest.approx(-0.4)
    assert rng == (0.0, 1.0)
    f, rng = locus["reflected"]
    assert f(1.8) == pytest.approx(-0.8)
    assert rng[0] == 1.0
    f, rng = locus["transmitted"]
    assert f(1.8) == pytest.approx(1.6)
    # each locus line is an actual jump of the solution
    for lbl, (f, rng) in locus.items():
        t = 1.5 if rng[1] == np.inf else 0.5 * (rng[0] + rng[1])
        x = float(f(t))
        jump = abs(
            delta_solution_eval(XJ, t, x + 1e-6) - delta_solution_eval(XJ, t, x - 1e-6)
        )
        assert jump > 0.05, lbl


def test_piecewise_t_alpha_beta():
    sol = PiecewiseTSolution(1.0, 2.0, F=lambda x: np.zeros_like(x), G=lambda x: np.zeros_like(x))
    assert sol.alpha == pytest.approx(0.75)
    assert sol.beta == pytest.approx(0.25)
    assert sol.alpha + sol.beta == pytest.approx(1.0)


def test_piecewise_t_continuity_at_jump():
    sol = PiecewiseTSolution(
        1.0, 2.0, F=lambda x: smooth_bump(x, 0.0), G=lambda x: smooth_bump(x, 1.0)
    )
    xs = np.linspace(-4.0, 4.0, 64)
    step = 1e-6
    below = sol(sol.t_jump - step, xs)
    above = sol(sol.t_jump + step, xs)
    assert np.allclose(below, above, atol=1e-5)
    # dt u continuity
    dt_below = (sol(sol.t_jump - step, xs) - sol(sol.t_jump - 3 * step, xs)) / (2 * step)
    dt_above = (sol(sol.t_jump + 3 * step, xs) - sol(sol.t_jump + step, xs)) / (2 * step)
    assert np.allclose(dt_below, dt_above, atol=1e-4)


def test_piecewise_t_constant_speed_reduces_to_dalembert():
    sol = PiecewiseTSolution(
        1.5, 1.5, F=lambda x: smooth_bump(x, 0.0), G=lambda x: smooth_bump(x, 1.0)
    )
    xs = np.linspace(-4.0, 4.0, 64)
    for t in (0.5, 1.7):
        ref = smooth_bump(xs - 1.5 * t, 0.0) + smooth_bump(xs + 1.5 * t, 1.0)
        assert np.allclose(sol(t, xs), ref, atol=1e-14)


def test_piecewise_t_solves_wave_equation_above_jump():
    sol = PiecewiseTSolution(
        1.0, 2.0, F=lambda x: smooth_bump(x, 0.0), G=lambda x: smooth_bump(x, 1.0)
    )
    step = 1e-4
    t, x = 1.6, 0.8
    utt = (sol(t + step, x) - 2 * sol(t, x) + sol(t - step, x)) / step**2
    uxx = (sol(t, x + step) - 2 * sol(t, x) + sol(t, x - step)) / step**2
    assert utt == pytest.approx(4.0 * uxx, rel=1e-4, abs=1e-5)


def test_region_limits():
    u0 = lambda x: smooth_bump(x, 0.0, 2.0)
    f3 = three_region_limit(u0)
    assert f3(1.0, 2.0) == pytest.approx(u0(1.0))
    assert f3(1.0, -2.0) == pytest.approx(u0(-1.0))
    assert f3(1.0, 0.3) == pytest.approx(u0(0.0))
    f2 = two_region_limit(u0)
    assert f2(1.0, 0.5) == pytest.approx(u0(1.5))
    assert f2(1.0, -0.5) == pytest.approx(u0(-1.5))


def test_testfunction_normalization_and_support():
    psi = TestFunction(1.8, 0.3, 0.15)
    assert psi.t_support == pytest.approx((1.65, 1.95))
    assert psi.x_support == pytest.approx((0.15, 0.45))
    assert psi(1.8, 0.6) == 0.0
    ts = np.linspace(1.65, 1.95, 401)
    xs = np.linspace(0.15, 0.45, 401)
    vals = psi(ts[:, None], xs[None, :])
    mass = np.trapezoid(np.trapezoid(vals, xs, axis=1), ts)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_testfunction_x_antideriv():
    psi = TestFunction(1.0, 0.0, 0.2)
    t = 1.05
    xs = np.linspace(-0.3, 0.3, 41)
    step = 1e-6
    fd = (psi.x_antideriv(t, xs + step) - psi.x_antideriv(t, xs - step)) / (2 * step)
    assert np.allclose(fd, psi(t, xs), atol=1e-6)


def test_pair_delta_oracle_vs_dense_quadrature():
    psi = TestFunction(1.4, -0.5, 0.3)
    got = pair_delta_oracle(XJ, psi)
    ts = np.linspace(*psi.t_support, 801)
    xs = np.linspace(-3.5, 2.7, 4001)
    u = delta_solution_eval(XJ, ts[:, None], xs[None, :])
    ref = pair_gridded(ts, xs, u * 0 + u, psi)
    assert got == pytest.approx(ref, abs=5e-6)


def test_pair_delta_oracle_plateau_region():
    psi = TestFunction(1.8, 0.3, 0.15)
    assert pair_delta_oracle(XJ, psi) == pytest.approx(2.0 / 3.0, abs=1e-10)


def _pair_delta_oracle_loop(cm, cp, psi, n_panels):
    """Node-by-node, interval-by-interval reference of pair_delta_oracle."""
    t_lo, t_hi = max(psi.t_support[0], 0.0), psi.t_support[1]
    nodes, wts = np.polynomial.legendre.leggauss(8)

    def x_slice(t):
        bps = sorted({-1.0 - cm * t, -1.0 + cm * t, 1.0 - cm * t, -cp / cm + cp * t, 0.0})
        edges = [-np.inf] + bps + [np.inf]
        acc = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            midx = 0.5 * (a + b) if np.isfinite(a) and np.isfinite(b) else (b - 1.0 if np.isfinite(b) else a + 1.0)
            val = delta_solution_eval(_xjump(cm, cp), t, midx)
            if val == 0.0:
                continue
            hi = psi.x_antideriv(t, b if np.isfinite(b) else 1e30)
            lo = psi.x_antideriv(t, a) if np.isfinite(a) else 0.0
            acc += val * (hi - lo)
        return acc

    edges = np.linspace(t_lo, t_hi, n_panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        ss = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        total += 0.5 * (b - a) * np.sum(wts * np.array([x_slice(s) for s in ss]))
    return total


@pytest.mark.parametrize("psi", [(1.8, 0.3, 0.15), (1.4, 0.8, 0.3), (1.4, -0.5, 0.3), (0.9, -0.2, 0.4)])
@pytest.mark.parametrize("speeds", [(1.0, 2.0), (2.0, 1.0)])
def test_pair_delta_oracle_matches_loop_reference(psi, speeds):
    got = pair_delta_oracle(_xjump(*speeds), TestFunction(*psi), n_panels=25)
    assert got == _pair_delta_oracle_loop(*speeds, TestFunction(*psi), n_panels=25)


@pytest.mark.parametrize("psi", [
    TestFunction(0.5, 0.0, 0.3),  # inside, no edge on a node
    TestFunction(0.5, 0.25, 0.25),  # t and x support edges on stored times and nodes
    TestFunction(0.25, -1.75, 0.25),  # the first stored time and the first node
    TestFunction(0.75, 1.75, 0.25),  # the last stored time and the last node
])
def test_pair_gridded_sums_over_the_support_block_only(psi):
    times, xs = np.linspace(0.0, 1.0, 17), np.linspace(-2.0, 2.0, 257)
    u = np.cos(3.0 * xs)[None, :] * (1.0 + times)[:, None]
    full = np.trapezoid(np.trapezoid(psi(times[:, None], xs[None, :]) * u, xs, axis=1), times)
    assert pair_gridded(times, xs, u, psi) == pytest.approx(full, rel=1e-15, abs=0.0)


def test_associate_check_pass_and_fail():
    eps = 0.1 * 0.7 ** np.arange(10)
    good = 1.0 + 0.05 * eps
    v = associate_check(eps, good, 1.0)
    assert isinstance(v, AssociationVerdict) and v.passed
    stuck = np.full(10, 1.5)
    assert not associate_check(eps, stuck, 1.0).passed
    growing = 1.0 + 0.05 / np.maximum(eps, 1e-12)
    assert not associate_check(eps, growing, 1.0).passed


@pytest.mark.parametrize("args", [(np.nan, 0.0, 0.2), (1.0, np.inf, 0.2), (1.0, 0.0, np.inf)])
def test_test_function_rejects_non_finite_geometry(args):
    with pytest.raises(ValueError, match="finite"):
        TestFunction(*args)
