import functools

import numpy as np
import pytest

from colwave.detector import (
    RaySegment,
    classify,
    derivative_profile,
    predict_singsupp,
    report_csv,
    report_svg,
    verdict_text,
)
from colwave.detector import _CONTRAST, _FLOOR, _SIG_FACTOR, SingSuppReport, _running_max
from colwave.coefficients import RegularizedCoeff
from colwave.mollifier import phi_antideriv, phi_eval
from colwave.solvers import SolutionFamily, SolutionRecord, delta_profile, solve_radial_odd, solve_wave_x
from colwave.spec import EpsilonLadder, Grid1D, Mollifier, PiecewiseConstantCoeff, ScaleFn


def _synthetic_family(amp=1.0):
    """Moving mollified-step family: u_eps(t, x) = amp * Phi((x - t) / eps)."""
    m = Mollifier()
    grid = Grid1D(-2.0, 2.0, 800, 1.0)
    xs = np.linspace(-2.0, 2.0, 801)
    times = np.linspace(0.0, 1.0, 11)
    records = []
    for e in EpsilonLadder(eps0=0.1, count=8):
        z = (xs[None, :] - times[:, None]) / e
        u = amp * phi_antideriv(m, z)
        records.append(SolutionRecord(eps=float(e), grid=grid, times=times, fields={"u": u}))
    return SolutionFamily("synthetic", "analytic", records)


def test_classify_flags_moving_front_tube_only():
    fam = _synthetic_family()
    ray = RaySegment("front", lambda t: np.asarray(t, dtype=float), 0.0, np.inf)
    rep = classify(fam, [ray], h_fn=ScaleFn("standard"), times=[0.3, 0.6, 0.9])
    assert rep.recall == 1.0
    assert rep.precision == 1.0
    assert rep.per_ray_max_excess["front"] >= 0.5
    # flagged cells hug the ray
    fp = rep.points[rep.flags]
    assert np.all(np.abs(fp[:, 1] - fp[:, 0]) <= rep.tube_radius)


def test_classify_amplitude_invariance():
    rep1 = classify(
        _synthetic_family(1.0),
        [RaySegment("front", lambda t: np.asarray(t, dtype=float), 0.0, np.inf)],
        h_fn=ScaleFn("standard"),
        times=[0.5],
    )
    rep2 = classify(
        _synthetic_family(137.0),
        [RaySegment("front", lambda t: np.asarray(t, dtype=float), 0.0, np.inf)],
        h_fn=ScaleFn("standard"),
        times=[0.5],
    )
    assert np.array_equal(rep1.flags, rep2.flags)
    assert np.allclose(rep1.excess, rep2.excess, atol=1e-9)


def test_classify_zero_solution_unflagged():
    fam = _synthetic_family(0.0)
    rep = classify(fam, [], h_fn=ScaleFn("standard"), times=[0.5])
    assert not rep.flags.any()


def test_classify_excess_at_and_off_the_front():
    # the front gains about alpha_hi powers of 1/eps over alpha = 0; a cell
    # the front never reaches has no significant sample at all
    fam = _synthetic_family()
    for alpha_hi, at_front in ((1, 0.92), (2, 1.89)):
        rep = classify(fam, [], h_fn=ScaleFn("standard"), times=[0.5], alpha_hi=alpha_hi)
        on, off = (int(np.argmin(np.abs(rep.points[:, 1] - x))) for x in (0.5, -1.5))
        assert rep.excess[on] == pytest.approx(at_front, abs=0.01)
        assert rep.flags[on]
        assert rep.excess[off] == 0.0 and not rep.flags[off]


def test_classify_three_signal_members_degenerate():
    # fewer than 4 ladder members above the floor: excess 0, never flagged
    fam = _synthetic_family()
    for rec in fam.records[3:]:
        rec.fields["u"] = np.zeros_like(rec.fields["u"])
    rep = classify(fam, [], h_fn=ScaleFn("standard"), times=[0.3, 0.5, 0.9])
    assert not rep.excess.any()
    assert not rep.flags.any()


def test_derivative_profile_kernel_peak():
    # the neighbourhood max of |dx u| at eps = 0.1 is the kernel's peak phi(0)/eps
    rec = _synthetic_family().records[0]
    mags, _ = derivative_profile(rec, 0.5, 1, ScaleFn("standard")(rec.eps))
    v = mags[np.argmin(np.abs(rec.xs - 0.5))]
    assert v == pytest.approx(phi_eval(Mollifier(), 0.0) / 0.1, rel=0.05)


def test_derivative_profile_contrast_floor():
    fam = _synthetic_family()
    rec = fam.records[0]
    mags, floor = derivative_profile(rec, 0.5, 1, 0.1)
    assert floor >= 1e-2 * mags.max()
    assert mags.max() > floor


@pytest.mark.parametrize("n", [5, 100, 2423, 10667])
def test_running_max_matches_scipy_maximum_filter(n):
    from scipy.ndimage import maximum_filter1d

    rng = np.random.default_rng(n)
    a = rng.random(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    for w in range(1, 201):
        assert np.array_equal(_running_max(a, w), maximum_filter1d(a, size=2 * w + 1, mode="nearest")), w


def test_predict_x_jump_geometry():
    rays = {r.label: r for r in _x_rays()}
    assert set(rays) == {"incident_left", "incident_right", "reflected", "transmitted"}
    assert float(rays["incident_left"].curve(0.6)) == pytest.approx(-1.6)
    assert float(rays["incident_right"].curve(0.6)) == pytest.approx(-0.4)
    assert rays["incident_right"].t_max == pytest.approx(1.0)
    assert float(rays["reflected"].curve(1.8)) == pytest.approx(-0.8)
    assert rays["reflected"].t_min == pytest.approx(1.0)
    assert float(rays["transmitted"].curve(1.8)) == pytest.approx(1.6)


@pytest.mark.parametrize("interface, x0", [(0.4, -0.3), (-0.25, -1.5)])
def test_predict_x_jump_rays_follow_the_interface_and_the_delta(interface, x0):
    # the incident pair starts at x0, reaches the interface at tc = (b - x0)/c0,
    # and the reflected and transmitted rays leave it there
    got = {r.label: r for r in predict_singsupp("x_jump_delta", c0=1.0, c1=2.0, standard_scale=True,
                                                interface=interface, x0=x0)}
    tc = interface - x0
    assert got["incident_right"].t_max == got["reflected"].t_min == got["transmitted"].t_min == pytest.approx(tc)
    for label in ("incident_right", "reflected", "transmitted"):
        assert float(got[label].curve(tc)) == pytest.approx(interface, abs=1e-15), label
    assert float(got["reflected"].curve(tc + 0.5)) == pytest.approx(interface - 0.5)
    assert float(got["transmitted"].curve(tc + 0.5)) == pytest.approx(interface + 1.0)
    assert float(got["incident_left"].curve(0.5)) == pytest.approx(x0 - 0.5)


def test_predict_t_jump_rays_start_at_the_point_data():
    at_0 = predict_singsupp("t_jump", c0=1.0, c1=2.0, standard_scale=True, t_jump=1.0, x0=0.0)
    at_s = predict_singsupp("t_jump", c0=1.0, c1=2.0, standard_scale=True, t_jump=1.0, x0=0.37)
    ts = np.linspace(0.0, 2.0, 9)
    for r0, rs in zip(at_0, at_s):
        assert (r0.label, r0.t_min, r0.t_max) == (rs.label, rs.t_min, rs.t_max)
        assert np.allclose(rs.curve(ts), r0.curve(ts) + 0.37, rtol=0.0, atol=1e-15), r0.label


def test_predict_x_jump_condition_gates_reflection():
    # sqrt(20) + sqrt(1/20) > 4: no reflected ray predicted
    labels = {r.label for r in predict_singsupp("x_jump_delta", c0=1.0, c1=20.0, standard_scale=True, interface=0.0,
                                                x0=-1.0)}
    assert "reflected" not in labels
    # slow scale: no reflected ray either
    labels = {r.label for r in predict_singsupp("x_jump_delta", c0=1.0, c1=2.0, standard_scale=False, interface=0.0,
                                                x0=-1.0)}
    assert "reflected" not in labels


def test_predict_t_jump_geometry():
    rays = {r.label: r for r in predict_singsupp("t_jump", c0=1.0, c1=2.0, standard_scale=True, t_jump=1.0, x0=0.0)}
    assert float(rays["transmitted+"].curve(1.5)) == pytest.approx(2.0)
    assert float(rays["refracted+"].curve(1.5)) == pytest.approx(0.0)
    assert float(rays["refracted-"].curve(1.8)) == pytest.approx(0.6)
    slow = {r.label for r in predict_singsupp("t_jump", c0=1.0, c1=2.0, standard_scale=False, t_jump=1.0, x0=0.0)}
    assert slow == {"transmitted+", "transmitted-"}


def test_predict_radial_positive_rays_only():
    rays = predict_singsupp("radial_odd", c0=1.0, c1=2.0, standard_scale=True, t_jump=1.0)
    labels = {r.label for r in rays}
    assert labels == {"transmitted+", "refracted+"}
    for r in rays:
        ts, xs = r.sample(1.6)
        assert np.all(xs >= 0.0)


def test_predict_unknown_kind():
    with pytest.raises(ValueError, match="unsupported scenario kind"):
        predict_singsupp("spherical_harmonics", c0=1.0, c1=2.0, standard_scale=True)


@pytest.mark.parametrize("kind, missing", [("x_jump_delta", "x0"), ("x_jump_delta", "interface"), ("t_jump", "t_jump"),
                                           ("t_jump", "x0"), ("radial_odd", "t_jump")])
def test_predict_needs_the_kind_geometry(kind, missing):
    geometry = {"x0": -1.0, "interface": 0.0, "t_jump": 1.0}
    del geometry[missing]
    with pytest.raises(ValueError, match=missing):
        predict_singsupp(kind, c0=1.0, c1=2.0, standard_scale=True, **geometry)


def test_ray_segment_sample_caps():
    r = RaySegment("r", lambda t: 2.0 * np.asarray(t, dtype=float), 0.5, 3.0)
    ts, xs = r.sample(1.5, n=10)
    assert ts[0] == 0.5 and ts[-1] == 1.5
    ts2, xs2 = r.sample(0.2)
    assert ts2.size == 0


def test_reports_deterministic(tmp_path):
    fam = _synthetic_family()
    ray = RaySegment("front", lambda t: np.asarray(t, dtype=float), 0.0, np.inf)
    rep = classify(fam, [ray], h_fn=ScaleFn("standard"), times=[0.5])
    for fn, name in ((report_csv, "a.csv"), (report_svg, "a.svg")):
        p1, p2 = tmp_path / ("1" + name), tmp_path / ("2" + name)
        fn(rep, p1)
        fn(rep, p2)
        assert p1.read_bytes() == p2.read_bytes()
    txt = verdict_text(rep)
    assert "precision=" in txt and "ray.front" in txt
    head = (tmp_path / "1a.csv").read_text().splitlines()[0]
    assert head == "t,x,flagged,slope_excess"


def test_classify_scores_radial_family_in_abs_x():
    # the d = 3 shells are flagged on both sides of r = 0 while the predicted
    # rays live in r >= 0: flags at x < 0 must count against the rays in |x|
    ladder = EpsilonLadder(0.1, 0.8, 4)
    nx = int(np.ceil(8.0 / (ladder.eps_min / 16.0)))
    nx += nx % 2
    base = PiecewiseConstantCoeff((1.0,), (1.0, 2.0), "time")
    rcs = [RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), e) for e in ladder]
    times = [0.5, 0.8, 1.2, 1.5]
    grid = Grid1D(-4.0, 4.0, nx, 1.6)
    fam = SolutionFamily("radial", "radial_odd", [solve_radial_odd(rc, grid, times) for rc in rcs])
    rays = predict_singsupp("radial_odd", c0=1.0, c1=2.0, standard_scale=True, t_jump=1.0)
    rep = classify(fam, rays, h_fn=ScaleFn("standard"), times=times)
    ft, fx = rep.points[rep.flags, 0], rep.points[rep.flags, 1]
    assert (fx < 0).any() and (fx > 0).any()
    near = np.zeros(ft.size, dtype=bool)
    for ray in rays:
        inside = (ft >= ray.t_min) & (ft <= ray.t_max)
        near |= inside & (np.abs(np.abs(fx) - ray.curve(ft)) <= rep.tube_radius)
    assert rep.precision == pytest.approx(float(near.mean()))
    assert rep.precision >= 0.9 and rep.recall >= 0.9


# --- reference: the per-order slope maps and two scoring passes -------------

def _reference_fd_stride(u, m, dx, alpha):
    s = m * dx
    n = len(u)
    out = np.zeros(n)

    def sh(k):
        v = np.empty(n)
        if k > 0:
            v[:-k] = u[k:]
            v[-k:] = u[-1]
        elif k < 0:
            v[-k:] = u[:k]
            v[:-k] = u[0]
        else:
            v[:] = u
        return v

    if alpha == 0:
        out = np.abs(np.asarray(u, dtype=float))
    elif alpha == 1:
        out = np.abs(sh(m) - sh(-m)) / (2.0 * s)
    elif alpha == 2:
        out = np.abs(sh(m) - 2.0 * sh(0) + sh(-m)) / s**2
    elif alpha == 3:
        out = np.abs(sh(2 * m) - 2.0 * sh(m) + 2.0 * sh(-m) - sh(-2 * m)) / (2.0 * s**3)
    else:
        raise ValueError("derivative order must be 0..3")
    return out


def _reference_profile(rec, t, alpha, h):
    u = rec.slice_at(t)
    dx = rec.grid.dx
    m = max(1, int(round(max(dx, h / 8.0) / dx)))
    s = m * dx
    mags = _reference_fd_stride(u, m, dx, alpha)
    w = max(1, int(round(2.0 * h / dx)))
    mags = _running_max(mags, w)
    eps_mach = np.finfo(rec.fields["u"].dtype).eps
    floor = _SIG_FACTOR * eps_mach * float(np.max(np.abs(u))) / s**alpha
    floor = max(floor, _CONTRAST * float(np.max(mags)))
    return mags, floor


def _reference_slope_maps(family, t, alphas, h_fn):
    eps = family.eps_values
    X = np.log(1.0 / eps)
    maps = {}
    for a in alphas:
        Y = []
        K = []
        for rec in family:
            mags, floor = _reference_profile(rec, t, a, h_fn(rec.eps))
            Y.append(np.log(np.maximum(mags, _FLOOR)))
            K.append(mags > floor)
        Y = np.array(Y)
        K = np.array(K, dtype=float)
        n = K.sum(0)
        sx = (K * X[:, None]).sum(0)
        sy = (K * Y).sum(0)
        sxx = (K * X[:, None] ** 2).sum(0)
        sxy = (K * X[:, None] * Y).sum(0)
        den = n * sxx - sx * sx
        ok = (n >= 4) & (den > 0)
        slope = np.where(ok, (n * sxy - sx * sy) / np.where(ok, den, 1.0), 0.0)
        maps[a] = (slope, n)
    return maps


def _reference_classify(family, predicted, h_fn, times=None, theta=0.5, alpha_hi=2, t_skip=0.0):
    rec0 = family.records[0]
    tube_radius = 4.0 * h_fn(rec0.eps)
    if times is None:
        times = [t for t in rec0.times if t > t_skip]
    # each time is read at its nearest stored time, and each stored time read once, ascending
    times = sorted({float(rec0.times[int(np.argmin(np.abs(rec0.times - t)))]) for t in times})
    xs = rec0.xs
    fold = family.solver_id == "radial_odd"
    rs = np.abs(xs) if fold else xs
    pts, flags, excess_all = [], [], []
    per_time_flagged_x = {}
    for t in times:
        maps = _reference_slope_maps(family, t, (0, alpha_hi), h_fn)
        s_hi, n_hi = maps[alpha_hi]
        s_ref, n_ref = maps[0]
        valid = (n_hi >= 4) & (n_ref >= 4)
        exc = np.where(valid, s_hi - s_ref, 0.0)
        fl = valid & (exc >= theta)
        pts.append(np.column_stack([np.full_like(xs, t), xs]))
        flags.append(fl)
        excess_all.append(exc)
        per_time_flagged_x[float(t)] = rs[fl]
    points = np.concatenate(pts)
    flags = np.concatenate(flags)
    excess_arr = np.concatenate(excess_all)

    n_flagged = int(flags.sum())
    if n_flagged:
        ft, fx = points[flags, 0], points[flags, 1]
        if fold:
            fx = np.abs(fx)
        near = np.zeros(n_flagged, dtype=bool)
        for ray in predicted:
            with np.errstate(invalid="ignore"):
                rx = np.asarray(ray.curve(ft), dtype=float)
            inside = (ft >= ray.t_min - 1e-12) & (ft <= ray.t_max + 1e-12)
            near |= inside & (np.abs(fx - rx) <= tube_radius)
        precision = float(near.mean())
    else:
        precision = 1.0
    per_ray_recall = {}
    per_ray_excess = {}
    hits_total = 0
    n_total = 0
    for ray in predicted:
        hit = 0
        cnt = 0
        max_exc = -np.inf
        for t in times:
            if not ray.t_min - 1e-12 <= t <= ray.t_max + 1e-12:
                continue
            rx = float(np.asarray(ray.curve(t), dtype=float))
            if rx < rs.min() or rx > rs.max():
                continue
            cnt += 1
            fx = per_time_flagged_x[float(t)]
            if fx.size and np.min(np.abs(fx - rx)) <= tube_radius:
                hit += 1
            i = int(np.argmin(np.abs(rs - rx)))
            ti = list(times).index(t)
            max_exc = max(max_exc, float(excess_all[ti][i]))
        per_ray_recall[ray.label] = hit / cnt if cnt else float("nan")
        per_ray_excess[ray.label] = max_exc if cnt else float("nan")
        hits_total += hit
        n_total += cnt
    recall = hits_total / n_total if n_total else 1.0
    return SingSuppReport(points, flags, excess_arr, list(predicted), tube_radius, precision, recall,
                          per_ray_recall, per_ray_excess)


@functools.cache
def _wave_x_family():
    """Delta data at x = -1 through the 1 -> 2 jump at 0, stored in float32 as
    the run does; the incident-left ray leaves [-1.8, 1.5] at t = 0.8."""
    ladder = EpsilonLadder(0.1, 0.8, 4)
    grid = Grid1D(-1.8, 1.5, int(np.ceil(3.3 / (ladder.eps_min / 16.0))), 1.2)
    base = PiecewiseConstantCoeff((0.0,), (1.0, 2.0), "space")
    rcs = [RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), e) for e in ladder]
    return SolutionFamily("xjump", "wave_x", [
        solve_wave_x(rc, None, delta_profile(-1.0, rc), grid, [0.0, 0.4, 0.7, 1.0, 1.2], store_dtype=np.float32)
        for rc in rcs
    ])


@functools.cache
def _radial_family():
    ladder = EpsilonLadder(0.1, 0.8, 4)
    nx = int(np.ceil(4.0 / (ladder.eps_min / 16.0)))
    base = PiecewiseConstantCoeff((1.0,), (1.0, 2.0), "time")
    rcs = [RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), e) for e in ladder]
    grid = Grid1D(-2.0, 2.0, nx + nx % 2, 1.3)
    return SolutionFamily("radial", "radial_odd", [solve_radial_odd(rc, grid, [0.5, 0.8, 1.2, 1.3]) for rc in rcs])


def _x_rays():
    return predict_singsupp("x_jump_delta", c0=1.0, c1=2.0, standard_scale=True, interface=0.0, x0=-1.0)


def _front():
    return [RaySegment("front", lambda t: np.asarray(t, dtype=float), 0.0, np.inf)]


# case: (family, predicted rays, classify keywords)
REFERENCE_CASES = {
    "wave_x_four_rays": (_wave_x_family, _x_rays, dict(times=[0.4, 0.7, 1.0, 1.2])),
    "wave_x_alpha_hi_1": (_wave_x_family, _x_rays, dict(times=[0.4, 1.0, 1.2], alpha_hi=1)),
    "wave_x_alpha_hi_3": (_wave_x_family, _x_rays, dict(times=[0.4, 1.0, 1.2], alpha_hi=3, theta=1.0)),
    "wave_x_stored_times_after_t_skip": (_wave_x_family, _x_rays, dict(t_skip=0.5)),
    "wave_x_no_predicted_ray": (_wave_x_family, list, dict(times=[0.7, 1.2])),
    "radial_odd_in_abs_x": (
        _radial_family,
        lambda: predict_singsupp("radial_odd", c0=1.0, c1=2.0, standard_scale=True, t_jump=1.0),
        dict(times=[0.5, 0.8, 1.2]),
    ),
    "rays_off_the_front_or_its_time": (
        _synthetic_family,
        lambda: [RaySegment("off", lambda t: np.asarray(t, dtype=float) + 0.5, 0.0, np.inf),
                 RaySegment("late", lambda t: np.asarray(t, dtype=float), 0.45, np.inf)],
        dict(times=[0.3, 0.6]),
    ),
    "nothing_flagged": (lambda: _synthetic_family(0.0), _front, dict(times=[0.3, 0.6])),
}


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_classify_bitwise_matches_reference(case):
    family, rays, kw = REFERENCE_CASES[case]
    fam, predicted = family(), rays()
    got = classify(fam, predicted, h_fn=ScaleFn("standard"), **kw)
    ref = _reference_classify(fam, predicted, ScaleFn("standard"), **kw)
    for name in ("points", "flags", "excess"):
        a, b = getattr(got, name), getattr(ref, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert (got.precision, got.recall, got.tube_radius) == (ref.precision, ref.recall, ref.tube_radius)
    assert type(got.precision) is type(ref.precision) and type(got.recall) is type(ref.recall)
    for name in ("per_ray_recall", "per_ray_max_excess"):
        a, b = getattr(got, name), getattr(ref, name)
        assert list(a) == list(b) and repr(a) == repr(b), name
        assert [type(v) for v in a.values()] == [float] * len(a), name
    assert got.flags.any() == (case != "nothing_flagged")
