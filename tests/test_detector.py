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
from colwave.detector import _running_max
from colwave.coefficients import PiecewiseConstantCoeff, RegularizedCoeff
from colwave.mollifier import EpsilonLadder, Mollifier, ScaleFn, phi_antideriv, phi_eval
from colwave.solvers import Grid1D, SolutionFamily, SolutionRecord, solve_radial_odd


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
    rays = {r.label: r for r in predict_singsupp("x_jump_delta", c0=1.0, c1=2.0, standard_scale=True, x0=-1.0)}
    assert set(rays) == {"incident_left", "incident_right", "reflected", "transmitted"}
    assert float(rays["incident_left"].curve(0.6)) == pytest.approx(-1.6)
    assert float(rays["incident_right"].curve(0.6)) == pytest.approx(-0.4)
    assert rays["incident_right"].t_max == pytest.approx(1.0)
    assert float(rays["reflected"].curve(1.8)) == pytest.approx(-0.8)
    assert rays["reflected"].t_min == pytest.approx(1.0)
    assert float(rays["transmitted"].curve(1.8)) == pytest.approx(1.6)


def test_predict_x_jump_condition_gates_reflection():
    # sqrt(20) + sqrt(1/20) > 4: no reflected ray predicted
    labels = {r.label for r in predict_singsupp("x_jump_delta", c0=1.0, c1=20.0, standard_scale=True, x0=-1.0)}
    assert "reflected" not in labels
    # slow scale: no reflected ray either
    labels = {r.label for r in predict_singsupp("x_jump_delta", c0=1.0, c1=2.0, standard_scale=False, x0=-1.0)}
    assert "reflected" not in labels


def test_predict_t_jump_geometry():
    rays = {r.label: r for r in predict_singsupp("t_jump", c0=1.0, c1=2.0, standard_scale=True, t_jump=1.0)}
    assert float(rays["transmitted+"].curve(1.5)) == pytest.approx(2.0)
    assert float(rays["refracted+"].curve(1.5)) == pytest.approx(0.0)
    assert float(rays["refracted-"].curve(1.8)) == pytest.approx(0.6)
    slow = {r.label for r in predict_singsupp("t_jump", c0=1.0, c1=2.0, standard_scale=False, t_jump=1.0)}
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


@pytest.mark.parametrize("kind, missing", [("x_jump_delta", "x0"), ("t_jump", "t_jump"), ("radial_odd", "t_jump")])
def test_predict_needs_the_kind_geometry(kind, missing):
    geometry = {"x0": -1.0, "t_jump": 1.0}
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
    fam = solve_radial_odd(rcs, 3, Grid1D(-4.0, 4.0, nx, 1.6), store_times=times)
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
