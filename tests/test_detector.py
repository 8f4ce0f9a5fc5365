import math

import numpy as np
import pytest

from colwave.detector import (
    GrowthFit,
    RaySegment,
    classify,
    derivative_profile,
    fit_growth,
    point_fits,
    predict_singsupp,
    report_csv,
    report_svg,
    sample_growth,
    slope_excess,
    verdict_text,
)
from colwave.detector import _running_max
from colwave.coefficients import PiecewiseConstantCoeff, RegularizedCoeff
from colwave.mollifier import EpsilonLadder, Mollifier, ScaleFn, phi_antideriv, phi_eval
from colwave.solvers import Grid1D, SolutionFamily, SolutionRecord, solve_radial_odd


def test_fit_growth_exact_power_law():
    eps = 0.1 * 0.7 ** np.arange(10)
    fit = fit_growth([(e, e**-2.0) for e in eps])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert not fit.degenerate and not fit.super_polynomial


def test_fit_growth_constant():
    eps = 0.1 * 0.7 ** np.arange(10)
    fit = fit_growth([(e, 3.7) for e in eps])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_growth_superpolynomial():
    eps = 0.1 * 0.7 ** np.arange(10)
    fit = fit_growth([(e, math.exp(0.5 / e)) for e in eps])
    assert fit.super_polynomial


def test_fit_growth_degenerate():
    eps = [0.1, 0.07, 0.049, 0.0343, 0.024]
    samples = [(e, 1.0, 2.0) for e in eps]  # all below the significance floor
    fit = fit_growth(samples)
    assert fit.degenerate
    fit2 = fit_growth([(e, 0.0) for e in eps])
    assert fit2.degenerate


def test_slope_excess_reference_selection():
    mk = lambda a, s, r2: GrowthFit((0, 0), a, s, 0.0, r2, 10)
    # alpha=0 fit is unclean (flat data) -> reference falls to alpha=1
    fits = {0: mk(0, 0.0, 0.3), 1: mk(1, 1.0, 0.999), 2: mk(2, 2.0, 0.999)}
    assert slope_excess(fits, 2) == pytest.approx(1.0)
    fits[0] = mk(0, 0.0, 0.999)
    assert slope_excess(fits, 2) == pytest.approx(2.0)
    fits[2] = GrowthFit((0, 0), 2, 0.0, -math.inf, 0.0, 1, degenerate=True)
    assert slope_excess(fits, 2) == 0.0


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


def test_sample_growth_and_local_derivative():
    fam = _synthetic_family()
    s = sample_growth(fam, (0.5, 0.5), 1, ScaleFn("standard"))
    fit = fit_growth(s, (0.5, 0.5), 1)
    assert fit.slope == pytest.approx(1.0, abs=0.1)
    # the neighbourhood max of |dx u| at eps = 0.1 is the kernel's peak phi(0)/eps
    (v,) = [mag for eps, mag, _ in s if eps == 0.1]
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


def test_point_fits_off_ray_degenerate():
    fam = _synthetic_family()
    fits = point_fits(fam, (0.5, -1.5), h_fn=ScaleFn("standard"))
    assert slope_excess(fits, 2) == 0.0


def test_predict_x_jump_geometry():
    rays = {r.label: r for r in predict_singsupp("x_jump_delta", c0=1.0, c1=2.0)}
    assert set(rays) == {"incident_left", "incident_right", "reflected", "transmitted"}
    assert float(rays["incident_left"].curve(0.6)) == pytest.approx(-1.6)
    assert float(rays["incident_right"].curve(0.6)) == pytest.approx(-0.4)
    assert rays["incident_right"].t_max == pytest.approx(1.0)
    assert float(rays["reflected"].curve(1.8)) == pytest.approx(-0.8)
    assert rays["reflected"].t_min == pytest.approx(1.0)
    assert float(rays["transmitted"].curve(1.8)) == pytest.approx(1.6)


def test_predict_x_jump_condition_gates_reflection():
    # sqrt(20) + sqrt(1/20) > 4: no reflected ray predicted
    labels = {r.label for r in predict_singsupp("x_jump_delta", c0=1.0, c1=20.0)}
    assert "reflected" not in labels
    # slow scale: no reflected ray either
    labels = {r.label for r in predict_singsupp("x_jump_delta", c0=1.0, c1=2.0, standard_scale=False)}
    assert "reflected" not in labels


def test_predict_t_jump_geometry():
    rays = {r.label: r for r in predict_singsupp("t_jump", c0=1.0, c1=2.0)}
    assert float(rays["transmitted+"].curve(1.5)) == pytest.approx(2.0)
    assert float(rays["refracted+"].curve(1.5)) == pytest.approx(0.0)
    assert float(rays["refracted-"].curve(1.8)) == pytest.approx(0.6)
    slow = {r.label for r in predict_singsupp("t_jump", c0=1.0, c1=2.0, standard_scale=False)}
    assert slow == {"transmitted+", "transmitted-"}


def test_predict_radial_positive_rays_only():
    rays = predict_singsupp("radial_odd", c0=1.0, c1=2.0)
    labels = {r.label for r in rays}
    assert labels == {"transmitted+", "refracted+"}
    for r in rays:
        ts, xs = r.sample(1.6)
        assert np.all(xs >= 0.0)


def test_predict_unknown_kind():
    with pytest.raises(ValueError):
        predict_singsupp("spherical_harmonics")


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
    rays = predict_singsupp("radial_odd", c0=1.0, c1=2.0)
    rep = classify(fam, rays, h_fn=ScaleFn("standard"), times=times)
    ft, fx = rep.points[rep.flags, 0], rep.points[rep.flags, 1]
    assert (fx < 0).any() and (fx > 0).any()
    near = np.zeros(ft.size, dtype=bool)
    for ray in rays:
        inside = (ft >= ray.t_min) & (ft <= ray.t_max)
        near |= inside & (np.abs(np.abs(fx) - ray.curve(ft)) <= rep.tube_radius)
    assert rep.precision == pytest.approx(float(near.mean()))
    assert rep.precision >= 0.9 and rep.recall >= 0.9
