"""The run's family is the ladder of its members, each solved on its own."""

import numpy as np
import pytest

from colwave.characteristics import TanhFlow
from colwave.cli import bundled_scenarios, main, parse_scenario
from colwave.coefficients import RegularizedCoeff
from colwave.mollifier import phi_antideriv, phi_deriv, phi_eval
from colwave.pipeline import Run
from colwave.solvers import (delta_profile, delta_profile_deriv, load_family, solve_transport, solve_wave_t,
                             solve_wave_x, with_support)
from colwave.spec import Mollifier

LADDER = "0.1,0.8,4"


def _bump(x0, w):
    """bump:x0,w data: phi((x - x0)/w), its derivative and antiderivative, with their support."""
    m = Mollifier()
    f = with_support(lambda x: phi_eval(m, (x - x0) / w), x0 - w, x0 + w, lambda x: w * phi_antideriv(m, (x - x0) / w))
    return f, with_support(lambda x: phi_deriv(m, (x - x0) / w, 1) / w, x0 - w, x0 + w)


def _matched(c0, u0, u0d):
    return with_support(lambda x: c0 * u0d(x), *u0d.support, lambda x: c0 * u0(x))


def _thm41(scn, rc, times):
    return solve_wave_x(rc, None, delta_profile(scn.u1.x0, rc), scn.grid, times, store_dtype=np.float32)


def _thm43b(scn, rc, times):
    u0, u0d = delta_profile(scn.u0.x0, rc), delta_profile_deriv(scn.u0.x0, rc)
    return solve_wave_t(rc, u0, _matched(rc(0.0), u0, u0d), scn.grid, times, u0_deriv=u0d)


def _bump_matched(scn, rc, times):
    u0, u0d = _bump(scn.u0.x0, scn.u0.w)
    return solve_wave_t(rc, u0, _matched(rc(0.0), u0, u0d), scn.grid, times, u0_deriv=u0d)


def _ex3_tanh(scn, eps, times):
    return solve_transport(TanhFlow(eps, -1.0), _bump(scn.u0.x0, scn.u0.w)[0], scn.grid, times)


# (bundled scenario, key changes, the direct solve of one member of the parsed scenario)
CASES = {
    "thm41": ("thm41", {}, _thm41),
    "thm43b": ("thm43b", {}, _thm43b),
    "wave_t_bump_matched": ("thm43a", {"id": "bm", "coefficient.values": "1.5,2.0", "data.u0": "bump:0.3,0.5",
                                       "data.u1": "matched", "analyses": ""}, _bump_matched),
    "ex3_tanh": ("ex3_tanh", {}, _ex3_tanh),
}


@pytest.mark.parametrize("case", list(CASES))
def test_run_family_is_the_direct_member_solves(case, tmp_path):
    # the pipeline resolves each member's data (delta data at its eps, matched
    # as c_eps(0) u0' with antiderivative c_eps(0) u0) and stores the member solves unchanged
    name, changes, solve = CASES[case]
    path = tmp_path / f"{case}.scn"
    text = bundled_scenarios()[name].read_text()
    path.write_text(text + "".join(f"{k}={v}\n" for k, v in changes.items()))
    assert main(["run", str(path), "--out", str(tmp_path), "--ladder-override", LADDER]) == 0
    scn = parse_scenario(path, LADDER)
    fam = load_family(tmp_path / scn.id / "family")
    times = np.linspace(0.0, scn.grid.t_end, 23)
    members = [e if scn.coefficient is None else RegularizedCoeff(scn.coefficient, scn.mollifier, scn.scale, e)
               for e in scn.ladder]
    assert [rec.eps for rec in fam] == list(scn.ladder.values)
    for rec, member in zip(fam, members):
        direct = solve(scn, member, times)
        assert rec.fields["u"].tobytes() == np.asarray(direct.fields["u"], dtype="<f8").tobytes(), rec.eps


def test_matched_cancels_the_right_moving_family_of_each_member(tmp_path):
    # with the jump at t = 0.05, t = 0 lies in the kernel window: at eps = 0.1,
    # c(0) = 1 but the solve's c_eps(0) = 1.1035, and V = u1 - c_eps(0) u0' must start at 0
    path = tmp_path / "thm43b.scn"
    path.write_text(bundled_scenarios()["thm43b"].read_text() + "coefficient.breakpoints=0.05\n")
    run = Run(**vars(parse_scenario(path, LADDER)))
    xs = run.grid.xs
    assert run.rcs[0](0.0) != run.coefficient(0.0)
    for rc in run.rcs:
        _, u0d, u1 = run.data(rc)
        assert np.array_equal(u1(xs) - rc(0.0) * u0d(xs), np.zeros_like(xs)), rc.eps
