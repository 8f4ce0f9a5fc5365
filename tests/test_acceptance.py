"""Acceptance gate: the eleven shipping criteria.

Each test prints one ``CRITERION k: PASS/FAIL`` line (visible with ``-s``;
``pytest -v`` additionally gives one PASSED/FAILED line per criterion through
the test names).  The heavy solver families are built once per session; the
whole gate runs in about 11 s (2-core Xeon, Python 3.11, numpy 2.4).
"""

import numpy as np
import pytest

from colwave.characteristics import TanhFlow, gamma_partials
from colwave.coefficients import RegularizedCoeff
from colwave.detector import classify, predict_singsupp
from colwave.energy import energy_trace
from colwave.mollifier import phi_eval
from colwave.oracle import (
    DeltaInterface,
    associate_check,
    delta_jump_locus,
    delta_solution_eval,
    pair_delta_oracle,
    pair_gridded,
    reflect_transmit,
    three_region_limit,
)
from colwave.solvers import (
    SolutionFamily,
    abel_forward,
    abel_invert,
    delta_profile,
    delta_profile_deriv,
    solve_radial_odd,
    solve_transport,
    solve_wave_t,
    solve_wave_x,
    spherical_oracle,
)
from colwave.spec import EpsilonLadder, Grid1D, Mollifier, PiecewiseConstantCoeff, ScaleFn, TestFunction

MOLL = Mollifier()
STD = ScaleFn("standard")
SLOW = ScaleFn("slow_scale", p=4.0)
X_BASE = PiecewiseConstantCoeff((0.0,), (1.0, 2.0), "space")
# its delta-data problem, non-conservative form (a = c, Z = 1/c), delta at x = -1
XJUMP_DELTA = DeltaInterface(1.0, 2.0, 1.0, 0.5, 0.0, -1.0)
T_BASE = PiecewiseConstantCoeff((1.0,), (1.0, 2.0), "time")


def _report(k: int, ok: bool, detail: str):
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, detail


def _bump(x, x0=0.0, w=1.0):
    x = np.asarray(x, dtype=float)
    z = (x - x0) / w
    out = np.zeros_like(z)
    m = np.abs(z) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - z[m] ** 2))
    return out


# --- shared solver families --------------------------------------------------

XJUMP_LADDER = EpsilonLadder(count=8)
XJUMP_TIMES = sorted(
    set(np.round(np.linspace(0.0, 2.2, 45), 10))
    | {0.3, 0.6, 0.85, 1.2, 1.4, 1.5, 1.8, 2.1}
    | set(np.round(np.linspace(1.1, 1.7, 25), 10))
)


def _solve_xjump(scale):
    # dx resolves the data width (standard imbedding: width eps), which is
    # narrower than the slow-scale coefficient layer
    nx = int(np.ceil(6.2 / (XJUMP_LADDER.eps_min / 16.0)))
    grid = Grid1D(-3.5, 2.7, nx, 2.2)
    rcs = [RegularizedCoeff(X_BASE, MOLL, scale, e) for e in XJUMP_LADDER]
    return SolutionFamily("xjump", "wave_x", [
        solve_wave_x(rc, None, delta_profile(-1.0, rc), grid, XJUMP_TIMES, store_dtype=np.float32) for rc in rcs
    ])


@pytest.fixture(scope="session")
def fam_xjump_std():
    return _solve_xjump(STD)


@pytest.fixture(scope="session")
def fam_xjump_slow():
    return _solve_xjump(SLOW)


TJUMP_LADDER = EpsilonLadder()
TJUMP_TIMES = sorted(
    set(np.round(np.linspace(0.0, 2.0, 41), 10)) | {0.5, 1.2, 1.5, 1.8, 1.9}
)


def _solve_tjump(scale, data):
    """The t-jump family with the data (u0, u1) = DATA(rc) of each member rc."""
    nx = int(np.ceil(10.0 / (TJUMP_LADDER.eps_min / 16.0)))
    nx += nx % 2
    grid = Grid1D(-5.0, 5.0, nx, 2.0)
    rcs = [RegularizedCoeff(T_BASE, MOLL, scale, e) for e in TJUMP_LADDER]
    return SolutionFamily("tjump", "wave_t", [solve_wave_t(rc, *data(rc), grid, TJUMP_TIMES) for rc in rcs])


@pytest.fixture(scope="session")
def fam_tjump_singular():
    # U1 - C|0 U0' = delta: singular one-directional data
    return _solve_tjump(STD, lambda rc: (None, delta_profile(0.0, rc)))


@pytest.fixture(scope="session")
def fam_tjump_matched():
    # U0 = imbedded delta, U1 = C|0 U0': the combination is regular
    def data(rc):
        f = delta_profile_deriv(0.0, rc)
        return delta_profile(0.0, rc), lambda x: rc.base.values[0] * f(x)
    return _solve_tjump(STD, data)


@pytest.fixture(scope="session")
def fam_tjump_slow():
    return _solve_tjump(SLOW, lambda rc: (None, delta_profile(0.0, rc)))


@pytest.fixture(scope="session")
def fam_radial():
    ladder = EpsilonLadder()
    nx = int(np.ceil(8.0 / (ladder.eps_min / 16.0)))
    nx += nx % 2
    grid = Grid1D(-4.0, 4.0, nx, 1.6)
    rcs = [RegularizedCoeff(T_BASE, MOLL, STD, e) for e in ladder]
    times = sorted(set(np.round(np.linspace(0.0, 1.6, 33), 10)) | {0.5, 0.8, 1.2, 1.5})
    return SolutionFamily("radial", "radial_odd", [solve_radial_odd(rc, grid, times) for rc in rcs])


# --- criteria ----------------------------------------------------------------

def test_criterion_01_corner_derivatives():
    a = phi_eval(MOLL, 0.0)
    worst = 0.0
    for e in EpsilonLadder():
        rc = RegularizedCoeff(X_BASE, MOLL, STD, e)
        h = rc.h
        for t in (0.5, 1.0):
            g1, g2, g3 = gamma_partials(rc, t, 0.0)
            worst = max(
                worst,
                abs(g1 - 2.0 / 3.0) / (2.0 / 3.0),
                abs(g2 + 4.0 * a / (9.0 * h)) / (4.0 * a / (9.0 * h)),
                abs(g3 - 16.0 * a * a / (27.0 * h * h)) / (16.0 * a * a / (27.0 * h * h)),
            )
    _report(1, worst <= 0.005, f"corner-derivative worst relative error {worst:.2e} (<= 0.5%)")


def test_criterion_02_non_moderate_growth():
    grid = Grid1D(-2.0, 2.0, 800, 0.5)
    ladder = EpsilonLadder()
    fam = SolutionFamily("tanh2", "transport", [
        solve_transport(TanhFlow(e, 1.0), np.sin, grid, [0.5], u0_deriv=np.cos) for e in ladder
    ])
    vals = []
    for rec in fam:
        ux = rec.slice_at(0.5, "ux")
        vals.append(abs(float(ux[np.argmin(np.abs(rec.xs))])))
    slope = float(np.polyfit(1.0 / fam.eps_values, np.log(vals), 1)[0])
    # faster than any power of 1/eps: the log-log slope of the last 4 ladder
    # members exceeds that of the first 4 by more than 1
    lx, ly = np.log(1.0 / fam.eps_values), np.log(vals)
    head = float(np.polyfit(lx[:4], ly[:4], 1)[0])
    tail = float(np.polyfit(lx[-4:], ly[-4:], 1)[0])
    super_polynomial = tail > head + 1.0
    ok = abs(slope - 0.5) / 0.5 <= 0.02 and super_polynomial
    _report(2, ok, f"log|dx u| slope in 1/eps = {slope:.6f} (0.5 +- 2%), "
                   f"super-polynomial verdict = {super_polynomial}")


def test_criterion_03_moderate_family_association():
    ladder = EpsilonLadder()
    nx = int(np.ceil(4.0 / (STD(ladder.eps_min) / 16.0)))
    grid = Grid1D(-2.0, 2.0, nx, 1.0)
    u0 = lambda x: phi_eval(MOLL, np.asarray(x, dtype=float) / 0.5)
    times = sorted(set(np.round(np.linspace(0.2, 0.8, 41), 10)) | {0.5})
    fam = SolutionFamily("tanh3", "transport", [solve_transport(TanhFlow(e, -1.0), u0, grid, times) for e in ladder])

    from colwave.detector import derivative_profile

    slopes = {}
    for alpha in (0, 1, 2):
        mx = np.array(
            [float(np.max(derivative_profile(rec, 0.5, alpha, rec.eps)[0])) for rec in fam]
        )
        slopes[alpha] = float(np.polyfit(np.log(1.0 / fam.eps_values), np.log(mx), 1)[0])
    moderate = all(slopes[a] <= a + 0.2 for a in slopes)

    psi = TestFunction(0.5, 0.0, 0.3)
    limit = three_region_limit(u0)
    tt = np.linspace(psi.t_support[0], psi.t_support[1], 401)
    xx = np.linspace(psi.x_support[0], psi.x_support[1], 801)
    target = float(np.trapezoid(
        np.trapezoid(limit(tt[:, None], xx[None, :]) * psi(tt[:, None], xx[None, :]), xx, axis=1),
        tt,
    ))
    v = associate_check(
        fam.eps_values, [pair_gridded(r.times, r.xs, r.fields["u"], psi) for r in fam], target
    )
    ok = moderate and v.passed and v.errors[-1] <= 1e-2
    _report(3, ok, f"derivative growth slopes {slopes} (<= alpha), "
                   f"associate passed={v.passed} final={v.errors[-1]:.2e}")


def test_criterion_04_energy_conservation():
    rc = RegularizedCoeff(X_BASE, MOLL, STD, 0.05)
    drifts = {}
    for nx in (4096, 8192):
        grid = Grid1D(-6.5, 5.5, nx, 3.0)
        rec = solve_wave_x(rc, None, lambda x: _bump(x, -1.0, 0.3), grid, np.linspace(0.0, 3.0, 61),
                           conservative=True, store_vw=True)
        drifts[nx] = energy_trace(rec, 1.0).max_relative_drift  # conservative: rho = 1
    ratio = drifts[4096] / drifts[8192]
    ok = drifts[8192] <= 1e-3 and 2.0 <= ratio <= 8.0
    _report(4, ok, f"drift {drifts[8192]:.2e} at finest grid (<= 1e-3); "
                   f"halving reduces drift {ratio:.1f}x (~4x, accepted band [2, 8])")


XJUMP_RAY_POINTS = {
    "incident_left": [(t, -1.0 - t) for t in (0.6, 1.2, 1.8)],
    "incident_right": [(t, -1.0 + t) for t in (0.3, 0.6, 0.85)],
    "reflected": [(t, 1.0 - t) for t in (1.4, 1.8, 2.1)],
    "transmitted": [(t, -2.0 + 2.0 * t) for t in (1.4, 1.8, 2.1)],
}
XJUMP_QUIET_POINTS = [(1.5, 0.2), (1.8, 0.3), (2.1, 0.0), (0.5, 2.0), (1.0, -3.5)]


def _excess(fam, scale, point):
    """The slope excess classify reports (detect.csv) at the cell nearest the point."""
    t, x = point
    rep = classify(fam, [], h_fn=scale, times=[t])
    return float(rep.excess[np.argmin(np.abs(rep.points[:, 1] - x))])


def test_criterion_05_x_jump_ray_geometry(fam_xjump_std):
    ray_exc = {
        lab: min(_excess(fam_xjump_std, STD, p) for p in pts)
        for lab, pts in XJUMP_RAY_POINTS.items()
    }
    quiet_exc = max(_excess(fam_xjump_std, STD, p) for p in XJUMP_QUIET_POINTS)
    rays = predict_singsupp("x_jump_delta", c0=1.0, c1=2.0, standard_scale=True, interface=0.0, x0=-1.0)
    rep = classify(fam_xjump_std, rays, h_fn=STD, times=[0.6, 1.2, 1.5, 1.8, 2.1], t_skip=0.1)
    ok = (
        all(e >= 0.5 for e in ray_exc.values())
        and quiet_exc <= 0.2
        and rep.precision == 1.0
        and rep.recall == 1.0
    )
    _report(5, ok, f"ray excess mins {ray_exc} (>= 0.5, reflected included), "
                   f"quiet-region max {quiet_exc:.3f} (<= 0.2), "
                   f"precision {rep.precision:.2f} recall {rep.recall:.2f}")


def test_criterion_06_slow_scale_suppresses_reflection(fam_xjump_slow):
    refl = max(_excess(fam_xjump_slow, SLOW, p) for p in XJUMP_RAY_POINTS["reflected"])
    # the surviving rays (both incident branches and the transmitted ray) must
    # still be flagged; the detector's own verdict is authoritative here
    rays = predict_singsupp("x_jump_delta", c0=1.0, c1=2.0, standard_scale=False, interface=0.0, x0=-1.0)
    rep = classify(fam_xjump_slow, rays, h_fn=SLOW, times=[0.6, 1.2, 1.5, 1.8, 2.1], t_skip=0.1)
    ok = (
        refl <= 0.2
        and rep.precision == 1.0
        and rep.recall == 1.0
        and all(v == 1.0 for v in rep.per_ray_recall.values())
    )
    _report(6, ok, f"reflected-ray excess max {refl:.3f} (<= 0.2, singularity absent); "
                   f"surviving rays flagged: per-ray recall {rep.per_ray_recall}, "
                   f"precision {rep.precision:.2f}")


def test_criterion_07_t_jump_dichotomy(fam_tjump_singular, fam_tjump_matched, fam_tjump_slow):
    trans_pts = [(0.5, 0.5), (1.2, 1.4), (1.5, 2.0), (1.9, 2.8)]
    refr_pts = [(1.2, 0.6), (1.2, -0.6), (1.8, 0.6), (1.8, -0.6)]
    # post-transition probes: outside the coarsest rung's mollification window
    refr_late = [(1.8, 0.6), (1.8, -0.6), (1.9, 0.8), (1.9, -0.8)]
    off_pts = [(1.5, 3.5), (0.5, -2.0)]

    a_trans = min(_excess(fam_tjump_singular, STD, p) for p in trans_pts)
    a_refr = min(_excess(fam_tjump_singular, STD, p) for p in refr_pts)
    a_off = max(_excess(fam_tjump_singular, STD, p) for p in off_pts)
    # case (b): transmitted ray quiet; all probes are farther than 4 h(eps0)
    # from the bend point (1, c0)
    b_trans = max(_excess(fam_tjump_matched, STD, p) for p in trans_pts)
    c_refr = max(_excess(fam_tjump_slow, SLOW, p) for p in refr_late)
    ok = a_trans >= 0.5 and a_refr >= 0.5 and a_off <= 0.2 and b_trans <= 0.2 and c_refr <= 0.2
    _report(7, ok, f"case (a) transmitted min {a_trans:.2f}, refracted min {a_refr:.2f} "
                   f"(>= 0.5), off-ray max {a_off:.2f}; case (b) transmitted max "
                   f"{b_trans:.2f} (<= 0.2 away from the bend); slow-scale refracted "
                   f"max {c_refr:.2f} (<= 0.2)")


def test_criterion_08_association_and_amplitudes(fam_xjump_std):
    psi = TestFunction(1.4, 0.8, 0.3)  # straddles the transmitted front
    target = pair_delta_oracle(XJUMP_DELTA, psi)
    v = associate_check(
        fam_xjump_std.eps_values,
        [pair_gridded(r.times, r.xs, r.fields["u"], psi) for r in fam_xjump_std],
        target,
    )
    rec = fam_xjump_std.records[-1]
    xs = rec.xs
    plateau = float(rec.slice_at(1.8)[np.argmin(np.abs(xs - 0.3))])

    def jump(t, xr):
        u = rec.slice_at(t)
        return float(
            u[np.argmin(np.abs(xs - (xr + 0.15)))] - u[np.argmin(np.abs(xs - (xr - 0.15)))]
        )

    inc = abs(jump(0.6, -1.6))
    r_ratio = abs(jump(1.8, -0.8)) / inc
    t_ratio = abs(jump(1.8, 1.6)) / inc
    ok = (
        v.passed
        and v.errors[-1] <= 1e-2
        and abs(plateau - 2.0 / 3.0) / (2.0 / 3.0) <= 0.01
        and abs(r_ratio - 1.0 / 3.0) / (1.0 / 3.0) <= 0.05
        and abs(t_ratio - 4.0 / 3.0) / (4.0 / 3.0) <= 0.05
    )
    _report(8, ok, f"associate passed={v.passed} final={v.errors[-1]:.2e}; plateau "
                   f"{plateau:.5f} (2/3 +- 1%); reflected/incident {r_ratio:.4f} (1/3 +- 5%), "
                   f"transmitted/incident {t_ratio:.4f} (4/3 +- 5%)")


def test_criterion_09_radial_d3(fam_radial):
    rays = predict_singsupp("radial_odd", c0=1.0, c1=2.0, standard_scale=True, t_jump=1.0)
    times = [0.5, 0.8, 1.2, 1.5]
    rep = classify(fam_radial, rays, h_fn=STD, times=times, t_skip=0.1)
    tube = rep.tube_radius

    def dist_to_set(t, r):
        d = np.inf
        for ray in rays:
            if ray.t_min <= t <= ray.t_max:
                d = min(d, abs(r - float(np.asarray(ray.curve(t)))))
        return d

    # flagged set containment, measured in |x| (the predicted set lives in r >= 0)
    ft, fx = rep.points[rep.flags, 0], np.abs(rep.points[rep.flags, 1])
    flag_worst = max((dist_to_set(t, r) for t, r in zip(ft, fx)), default=0.0)
    # numerical support containment of the finest representative
    rec = fam_radial.records[-1]
    sup_worst = 0.0
    for t in times:
        u = rec.slice_at(t, "u")
        for r in np.abs(rec.xs[np.abs(u) > 1e-8]):
            sup_worst = max(sup_worst, dist_to_set(t, float(r)))

    # constant-speed d=3 run against the closed-form spherical wave
    rc = RegularizedCoeff(PiecewiseConstantCoeff((), (1.5,), "time"), MOLL, STD, 0.05)
    g = Grid1D(-4.0, 4.0, 2560, 1.0)
    rc_rec = solve_radial_odd(rc, g, [0.5, 1.0])
    orc = spherical_oracle(MOLL, rc.h, 1.5)
    mask = np.abs(rc_rec.xs) > 0.1
    orc_err = max(
        float(np.max(np.abs(rc_rec.slice_at(t, "u")[mask] - orc(t, np.abs(rc_rec.xs[mask])))))
        for t in (0.5, 1.0)
    )
    ok = flag_worst <= tube and sup_worst <= tube and rep.recall >= 0.9 and orc_err <= 1e-4
    _report(9, ok, f"flagged-set max tube distance {flag_worst:.3f}, support max "
                   f"{sup_worst:.3f} (<= {tube:.2f}); recall {rep.recall:.2f} (>= 0.9); "
                   f"constant-c spherical-oracle error {orc_err:.1e} (<= 1e-4)")


def test_criterion_10_abel_pair():
    w = lambda r: _bump(r, 0.0, 1.3)
    v = lambda r: abel_forward(lambda t, s: w(s), 0.0, r)
    back = abel_invert(v)
    rs = np.linspace(-1.2, 1.2, 41)
    rel = float(np.max(np.abs(back(rs) - w(rs)))) / float(np.max(np.abs(w(rs))))

    # even-dimension sanity: the planar solution has interior (non-shell)
    # support where the d=3 shell solution is exactly zero at the center
    h, c, t = 0.1, 1.0, 1.0
    g = lambda s: phi_eval(MOLL, np.asarray(s, dtype=float) / h) / h
    u2_center = float(abel_forward(lambda tt, s: np.abs(s) * g(s), 0.0, c * t)) / c
    u3_center = float(t * phi_eval(MOLL, c * t / h) / h)
    ok = rel <= 1e-5 and u2_center > 1e-3 and u3_center == 0.0
    _report(10, ok, f"forward/inverse roundtrip relative error {rel:.1e} (<= 1e-5); "
                    f"even-d interior value {u2_center:.4f} > 0 vs odd-d {u3_center}")


def test_criterion_11_oracle_self_consistency():
    # the transmission conditions at b of the delta oracle, on both wave_x forms: u is
    # continuous once the incident front arrives, and so is the flux K u_x = a Z u_x,
    # which a front f(t -+ x/a) carries as -+Z f', so Z-(1 - R) = Z+ T
    conservative = DeltaInterface(1.0, 2.0**0.5, 1.0, 2.0**0.5, -0.25, -1.5)  # a = Z = sqrt(c), off x = 0
    u_gap = flux = 0.0
    identity = True
    for m in (XJUMP_DELTA, conservative):
        R, T = reflect_transmit(m)
        ts = np.linspace((m.b - m.x0) / m.a_minus, 3.0, 301)[1:]
        gap = delta_solution_eval(m, ts, m.b + 1e-9) - delta_solution_eval(m, ts, m.b - 1e-9)
        u_gap = max(u_gap, float(np.max(np.abs(gap))))
        flux = max(flux, abs(m.z_minus * (1.0 - R) - m.z_plus * T))
        identity &= T - R == 1.0

    locus = delta_jump_locus(XJUMP_DELTA)
    rays = {r.label: r for r in predict_singsupp(
        "x_jump_delta", c0=1.0, c1=2.0, standard_scale=True, interface=0.0, x0=-1.0
    )}
    same_sets = sorted(rays) == sorted(lab for lab, _, _ in locus)
    worst = 0.0
    for lab, xfun, (t0, t1) in locus:
        ray = rays[lab]
        same_sets &= (ray.t_min, ray.t_max) == (t0, t1)
        tt = np.linspace(t0 + 0.01, min(t1, 2.2), 40)
        worst = max(worst, float(np.max(np.abs(np.asarray(xfun(tt)) - np.asarray(ray.curve(tt))))))
    ok = max(u_gap, flux) <= 1e-12 and identity and same_sets and worst == 0.0
    _report(11, ok, f"transmission residuals on both wave_x forms: u across b {u_gap:.1e}, flux "
                    f"{flux:.1e} (<= 1e-12); interface identity T - R == 1 exact={identity}; "
                    f"jump locus == predicted ray set (max curve difference {worst})")
