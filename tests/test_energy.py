import numpy as np
import pytest

from colwave.coefficients import RegularizedCoeff
from colwave.energy import (
    EnergyTrace,
    energy_trace,
    gronwall_bound,
    trace_csv,
)
from colwave.solvers import solve_wave_x
from colwave.spec import Grid1D, Mollifier, PiecewiseConstantCoeff, ScaleFn


def smooth_bump(x, x0=0.0, w=1.0):
    x = np.asarray(x, dtype=float)
    z = (x - x0) / w
    out = np.zeros_like(z)
    m = np.abs(z) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - z[m] ** 2))
    return out


def _rc(variable, eps=0.1):
    base = PiecewiseConstantCoeff((0.0 if variable == "space" else 1.0,), (1.0, 2.0), variable)
    return RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), eps)


@pytest.fixture(scope="module")
def conservative_record():
    g = Grid1D(-4.0, 4.0, 2048, 2.0)
    return solve_wave_x(_rc("space"), None, lambda x: smooth_bump(x, -1.5, 0.4), g, np.linspace(0.0, 2.0, 21),
                        conservative=True, store_vw=True)


def test_conservative_energy_drift_small(conservative_record):
    tr = energy_trace(conservative_record, 1.0)
    assert tr.E[0] > 0.0
    assert tr.max_relative_drift < 1e-3


def test_energy_matches_direct_sum(conservative_record):
    rec = conservative_record
    tr = energy_trace(rec, 1.0)
    v = rec.fields["v"][3]
    w = rec.fields["w"][3]
    direct = float(np.trapezoid(0.5 * (v**2 + w**2), dx=rec.grid.dx))
    assert tr.E[3] == pytest.approx(direct, rel=1e-12)
    assert tr.eps == rec.eps


def test_energy_trace_requires_vw():
    g = Grid1D(-4.0, 4.0, 2048, 0.2)
    rec = solve_wave_x(_rc("space"), None, lambda x: smooth_bump(x, -1.5, 0.4), g, [0.0, 0.2])
    with pytest.raises(ValueError):
        energy_trace(rec, 1.0)


def test_gronwall_bound_closed_form():
    rc = _rc("time", eps=0.05)
    assert gronwall_bound(rc, 0.0) == pytest.approx(1.0)
    # after the full 1 -> 2 jump: (c1/c0)^2 = 4, independent of eps
    assert gronwall_bound(rc, 3.0) == pytest.approx(4.0, rel=1e-12)
    assert gronwall_bound(_rc("time", eps=0.01), 3.0) == pytest.approx(4.0, rel=1e-12)
    vals = gronwall_bound(rc, np.array([0.0, 3.0]))
    assert vals == pytest.approx([1.0, 4.0])
    with pytest.raises(ValueError):
        gronwall_bound(_rc("space"), 1.0)


def test_gronwall_bound_sums_total_variation_of_log_c():
    # up 1 -> 2 at t = 0.6, down 2 -> 1 at t = 1.2: TV(log c_eps) = 2 log 2
    base = PiecewiseConstantCoeff((0.6, 1.2), (1.0, 2.0, 1.0), "time")
    rc = RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), 0.1)
    assert gronwall_bound(rc, 2.0) == pytest.approx(16.0, rel=1e-12)
    assert gronwall_bound(rc, 0.9) == pytest.approx(4.0, rel=1e-12)
    assert gronwall_bound(rc, 0.4) == pytest.approx(1.0)
    # inside the second kernel the variation is the rise plus the part of the fall so far
    assert gronwall_bound(rc, 1.2) == pytest.approx(4.0 * (2.0 / rc(1.2)) ** 2, rel=1e-12)


def test_nonconservative_x_energy_is_the_conserved_one():
    # dtt u = c^2 dxx u conserves sum (V^2 + W^2)/(2 c^2) dx, not sum (V^2 + W^2)/2 dx
    g = Grid1D(-4.0, 4.0, 2048, 2.0)  # 51 cells per kernel width 2h
    rec = solve_wave_x(_rc("space"), None, lambda x: smooth_bump(x, -1.5, 0.4), g, np.linspace(0.0, 2.0, 21),
                       store_vw=True)
    tr = energy_trace(rec, 1.0 / _rc("space")(g.xs) ** 2)
    assert tr.max_relative_drift < 1e-3
    wrong = np.trapezoid(0.5 * (rec.fields["v"] ** 2 + rec.fields["w"] ** 2), dx=rec.grid.dx, axis=1)
    assert wrong[-1] > 2.0 * wrong[0]


def test_trace_csv_format(tmp_path):
    tr = EnergyTrace(
        eps=0.1, times=np.array([0.0, 0.5]), E=np.array([1.0, 1.000001])
    )
    out = tmp_path / "trace.csv"
    trace_csv(tr, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,E"
    assert lines[1].startswith("0,")
    assert float(lines[2].split(",")[1]) == pytest.approx(1.000001)
