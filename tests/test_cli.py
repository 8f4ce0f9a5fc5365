import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from colwave import cli, coefficients, pipeline, solvers
from colwave.cli import ValidationError, bundled_scenarios, main, parse_scenario
from colwave.mollifier import phi_antideriv, phi_eval
from colwave.oracle import pair_gridded
from colwave.solvers import NumericalFailure, load_family
from colwave.spec import Mollifier

def test_list_names_all_bundled(capsys):
    assert main(["list"]) == 0
    names = capsys.readouterr().out.split()
    assert len(names) == 9
    assert "corner36" in names and "thm45_d3" in names


def test_validate_every_bundled_scenario(capsys):
    for name in bundled_scenarios():
        assert main(["validate", name]) == 0, name
        assert "OK" in capsys.readouterr().out


def test_validate_rejects_unknown_problem(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("id=bad\nproblem=heat\n")
    assert main(["validate", str(bad)]) == 2
    assert "problem" in capsys.readouterr().err


def test_validate_rejects_missing_file(capsys):
    assert main(["validate", "/nonexistent/file.scn"]) == 2
    capsys.readouterr()


def test_validate_rejects_underresolved_grid(tmp_path, capsys):
    scn = tmp_path / "coarse.scn"
    scn.write_text(
        "id=coarse\nproblem=wave_x\ncoefficient.breakpoints=0.0\n"
        "coefficient.values=1.0,2.0\ncoefficient.variable=space\n"
        "grid.x_min=-2.0\ngrid.x_max=2.0\ngrid.nx=64\ngrid.t_end=1.0\n"
        "data.u1=delta:-1.0\n"
    )
    assert main(["validate", str(scn)]) == 2
    assert "resolution" in capsys.readouterr().err


def test_parse_rejects_bad_ladder_override():
    with pytest.raises(ValidationError):
        parse_scenario(
            next(iter(bundled_scenarios().values())), ladder_override="not,a,ladder"
        )


def test_parse_scenario_fields():
    scn = parse_scenario(bundled_scenarios()["thm43a"])
    assert scn.problem == "wave_t"
    assert scn.coefficient.variable == "time"
    assert scn.analyses == ("detect",)
    assert len(scn.ladder.values) == 10


def test_run_corner_scenario_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["run", "corner36", "--out", str(out), "--ladder-override", "0.1,0.7,4"]) == 0
    csv1 = (out1 / "corner36" / "corner.csv").read_bytes()
    csv2 = (out2 / "corner36" / "corner.csv").read_bytes()
    assert csv1 == csv2
    lines = csv1.decode().splitlines()
    assert lines[0].startswith("eps,t,")
    assert len(lines) == 1 + 4 * 2  # four ladder values, two sample times
    assert (out1 / "corner36" / "report.txt").read_text().startswith("scenario=corner36")


def test_run_transport_scenario_saves_family(tmp_path):
    assert (
        main(["run", "ex3_tanh", "--out", str(tmp_path), "--ladder-override", "0.1,0.7,4"]) == 0
    )
    outdir = tmp_path / "ex3_tanh"
    fam = load_family(outdir / "family")
    assert len(fam) == 4
    assert fam.eps_values[0] == pytest.approx(0.1)
    assert np.isfinite(fam.records[-1].fields["u"]).all()
    assert "associate=" in (outdir / "report.txt").read_text()


def test_run_wave_t_scenario_with_detection(tmp_path):
    assert (
        main(["run", "thm43a", "--out", str(tmp_path), "--ladder-override", "0.1,0.7,4"]) == 0
    )
    outdir = tmp_path / "thm43a"
    assert (outdir / "detect.csv").read_text().startswith("t,x,flagged,slope_excess")
    assert (outdir / "detect.svg").exists()
    assert "precision=" in (outdir / "detect_verdict.txt").read_text()
    assert "detect precision=" in (outdir / "report.txt").read_text()


def test_corner_csv_fields_parse_as_floats(tmp_path):
    assert main(["run", "corner36", "--out", str(tmp_path), "--ladder-override", "0.1,0.7,4"]) == 0
    header, *rows = (tmp_path / "corner36" / "corner.csv").read_text().splitlines()
    assert rows
    for row in rows:
        fields = row.split(",")
        assert len(fields) == len(header.split(","))
        values = [float(f) for f in fields]
        assert np.isfinite(values).all()
    assert float(rows[0].split(",")[0]) == pytest.approx(0.1)


def _edited(name: str, changes: dict) -> str:
    """Bundled scenario NAME with keys set to new values (None drops the key)."""
    lines, seen = [], set()
    for line in bundled_scenarios()[name].read_text().splitlines():
        key = line.split("=", 1)[0]
        if key in changes:
            seen.add(key)
            if changes[key] is None:
                continue
            line = f"{key}={changes[key]}"
        lines.append(line)
    lines += [f"{k}={v}" for k, v in changes.items() if k not in seen and v is not None]
    return "\n".join(lines) + "\n"


NO_GRID = dict.fromkeys(("grid.x_min", "grid.x_max", "grid.nx", "grid.t_end"))
NO_COEFF = dict.fromkeys(("coefficient.variable", "coefficient.breakpoints", "coefficient.values"))

# (bundled scenario, key changes, expected fragment of the error message)
REJECTED = {
    "detect_delta_at_interface": ("thm41", {"coefficient.breakpoints": "-1.0"}, "x0 < b"),
    "radial_energy": ("thm45_d3", {"analyses": "detect,energy"}, "'energy'"),
    "tanh_without_grid": ("ex2_tanh", NO_GRID, "grid"),
    "wave_t_space_coefficient": ("thm43a", {"coefficient.variable": "space"}, "coefficient.variable=time"),
    "wave_x_time_coefficient": ("thm41", {"coefficient.variable": "time"}, "coefficient.variable=space"),
    "corner_without_coefficient": ("corner36", NO_COEFF, "coefficient"),
    "transport_without_coefficient": ("ex2_tanh", {"problem": "transport", "analyses": None}, "coefficient"),
    "tanh_energy": ("ex3_tanh", {"analyses": "associate,energy"}, "'energy'"),
    "wave_t_associate": ("thm43a", {"analyses": "detect,associate"}, "'associate'"),
    "wave_t_oracle_compare": ("thm43a", {"analyses": "oracle_compare"}, "'oracle_compare'"),
    "malformed_data": ("thm41", {"data.u0": "foo:1"}, "'foo:1'"),
    "malformed_delta": ("thm43a", {"data.u1": "delta:left"}, "'delta:left'"),
    "associate_delta_right_of_interface": ("appendix_assoc", {"coefficient.breakpoints": "-1.5",
                                                              "analyses": "associate"}, "x0 < b"),
    "oracle_compare_delta_at_interface": ("appendix_assoc", {"data.u1": "delta:0.0", "analyses": "oracle_compare"},
                                          "x0 < b"),
    "associate_nonzero_u0": ("appendix_assoc", {"data.u0": "bump:-2.0,0.3"}, "data.u0=zero"),
    "detect_two_time_jumps": ("thm43a", {"coefficient.breakpoints": "0.6,1.2",
                                         "coefficient.values": "1.0,2.0,1.0"}, "one coefficient breakpoint"),
    "system_problem": ("thm41", {"problem": "system", "analyses": None}, "problem"),
    "x_jump_detect_bump_data": ("thm41", {"data.u1": "bump:-1.0,0.3"}, "x_jump_delta"),
    "x_jump_delta_right_of_interface": ("thm42", {"data.u1": "delta:0.5"}, "x_jump_delta"),
    "t_jump_point_data_at_two_points": ("thm43a", {"data.u0": "delta:0.0", "data.u1": "delta:0.5"}, "one x0"),
    "t_jump_bump_data": ("thm43a", {"data.u1": "bump:0.3,0.5"}, "one x0"),
    "t_jump_bump_next_to_the_delta": ("thm43a", {"data.u0": "bump:0.0,0.5"}, "one x0"),
    "t_jump_without_point_data": ("thm43a", {"data.u1": "zero", "data.u0": "quadratic"}, "one x0"),
    "detect_kind_of_other_problem": ("thm43a", {"detect.kind": "radial_odd"}, "unknown key(s) 'detect.kind'"),
    "matched_on_wave_x": ("thm41", {"data.u0": "delta:-1.0", "data.u1": "matched", "analyses": None},
                          "matched"),
    "associate_without_test_function": ("ex3_tanh", {"associate.radius": None}, "associate.radius"),
    "tanh_associate_zero_data": ("ex2_tanh", {"data.u0": "zero"}, "data.u0"),
    "energy_time_kernels_overlap": ("thm43a", {"coefficient.breakpoints": "1.0,1.1",
                                               "coefficient.values": "1.0,2.0,1.0", "analyses": "energy"},
                                    "overlap"),
    "radial_d": ("thm45_d3", {"radial.d": "3"}, "unknown key(s) 'radial.d'"),
    "malformed_detect_times": ("thm43a", {"detect.times": "0.5,x"}, "'detect.times'"),
    "malformed_detect_theta": ("thm43a", {"detect.theta": "half"}, "'detect.theta'"),
    "detect_alpha_hi_out_of_range": ("thm43a", {"detect.alpha_hi": "5"}, "'detect.alpha_hi'"),
    "malformed_detect_t_skip": ("thm41", {"detect.t_skip": "0.1s"}, "'detect.t_skip'"),
    "detect_t_skip_past_store_times": ("thm43a", {"detect.times": None, "detect.t_skip": "5"}, "'detect.t_skip'"),
    "malformed_store_times": ("thm43a", {"solver.store_times": "0,1,y"}, "'solver.store_times'"),
    "store_times_past_t_end": ("thm41", {"solver.store_times": "0,1,3.0"}, "'solver.store_times'"),
    "store_times_before_zero": ("thm41", {"solver.store_times": "-1,0,1"}, "'solver.store_times'"),
    "detect_times_past_t_end": ("thm41", {"detect.times": "5.0"}, "'detect.times'"),
    "t_end_negative": ("thm41", {"grid.t_end": "-1"}, "t_end must be positive"),
    "t_end_zero": ("thm41", {"grid.t_end": "0"}, "t_end must be positive"),
    "associate_radius_negative": ("thm41", {"associate.radius": "-1"}, "associate.radius > 0"),
    "malformed_corner_times": ("corner36", {"corner.times": "a"}, "'corner.times'"),
    "conservative_not_boolean": ("thm41", {"solver.conservative": "yes"}, "'solver.conservative'"),
    "unknown_key": ("thm41", {"solver.limitr": "fromm"}, "unknown key(s) 'solver.limitr'"),
    "malformed_delta_without_grid": ("corner36", {"data.u1": "delta:x"}, "'delta:x'"),
    "corner_two_breakpoints": ("corner36", {"coefficient.breakpoints": "0.0,0.5", "coefficient.values": "1.0,2.0,1.0"},
                               "exactly one coefficient breakpoint"),
    "corner_unknown_data": ("corner36", {"data.u0": "foo"}, "unknown data spec 'foo'"),
    "corner_bump_width_negative": ("corner36", {"data.u0": "bump:0,-1"}, "'bump:0,-1' (the width must be > 0)"),
    "corner_matched": ("corner36", {"data.u1": "matched"}, "does not read data.u1"),
    "matched_u0": ("thm43a", {"data.u0": "matched"}, "matched is data.u1"),
    "conservative_detect": ("thm41", {"solver.conservative": "true", "analyses": "detect"}, "a = c"),
    "corner_times_empty": ("corner36", {"corner.times": ""}, "'corner.times'"),
    "corner_times_nan": ("corner36", {"corner.times": "nan"}, "'corner.times'"),
    "corner_times_zero": ("corner36", {"corner.times": "0,0.5"}, "'corner.times'"),
    "associate_support_off_the_grid": ("ex2_tanh", {"associate.x0": "50"}, "associate: the support"),
    "associate_support_after_t_end": ("thm41", {"associate.t0": "100"}, "associate: the support"),
    "associate_support_after_last_stored_time": ("thm41", {"solver.store_times": "0,0.6"},
                                                 "associate: the support"),
    "coefficient_value_inf": ("thm41", {"coefficient.values": "1.0,inf"}, "finite"),
    "coefficient_value_nan": ("thm41", {"coefficient.values": "1.0,nan"}, "finite"),
    "grid_x_min_minus_inf": ("thm41", {"grid.x_min": "-inf"}, "finite"),
    "grid_t_end_inf": ("thm41", {"grid.t_end": "inf"}, "finite"),
    "grid_span_overflows": ("thm41", {"grid.x_min": "-1e308", "grid.x_max": "1e308"}, "grid: cannot convert"),
    "detect_theta_nan": ("thm41", {"detect.theta": "nan"}, "'detect.theta'"),
    "associate_t0_nan": ("thm41", {"associate.t0": "nan"}, "finite associate.t0"),
    "bump_width_inf": ("ex2_tanh", {"data.u0": "bump:0.0,inf"}, "'bump:0.0,inf'"),
    "bump_width_zero": ("ex2_tanh", {"data.u0": "bump:0.0,0"}, "'bump:0.0,0' (the width must be > 0)"),
    "bump_width_negative": ("ex2_tanh", {"data.u0": "bump:0.0,-0.5"}, "'bump:0.0,-0.5' (the width must be > 0)"),
    "transport_u1": ("thm41", {"problem": "transport", "analyses": None, "data.u1": "delta:0"},
                     "does not read data.u1"),
    "tanh_example_2_u1": ("ex2_tanh", {"data.u1": "delta:0"}, "does not read data.u1"),
    "tanh_example_3_u1": ("ex3_tanh", {"data.u1": "bump:0.0,0.3"}, "does not read data.u1"),
    "radial_odd_u1": ("thm45_d3", {"data.u1": "bump:1.0,0.3"}, "does not read data.u1"),
    "tanh_delta_data": ("ex3_tanh", {"data.u0": "delta:0.0", "analyses": None}, "not a delta"),
    "wave_x_delta_left_of_x_min": ("thm41", {"grid.x_min": "-1.5", "data.u1": "delta:-1.8"},
                                   "data.u1: wave_x drops data off [grid.x_min, grid.x_max]"),
    "wave_x_bump_across_x_max": ("thm41", {"analyses": None, "data.u0": "bump:2.5,0.3"},
                                 "data.u0: wave_x drops data off [grid.x_min, grid.x_max]"),
    "budget_nx": ("thm41", {"grid.nx": "100000000000"}, "exceeds 2^28 stored values"),
    "budget_span": ("thm41", {"grid.x_min": "-1e300", "grid.x_max": "1e300"}, "exceeds 2^28 stored values"),
    "budget_t_end": ("thm41", {"grid.t_end": "1e5"}, "exceeds 2^24 lattice steps"),
    "budget_t_end_wave_t": ("thm43a", {"grid.t_end": "1e5", "detect.times": None}, "exceeds 2^24 lattice steps"),
    # min a = 1e-4: about 1.1e9 xi-lattice nodes, 5 GB per label array
    "budget_xi_lattice": ("thm41", {"coefficient.values": "0.0001,2.0"}, "exceeds 2^24 lattice nodes"),
    "grid_cfl": ("thm41", {"grid.cfl": "0.45"}, "unknown key(s) 'grid.cfl'"),
    # r = 0 at x_min: its extrapolation stencil would wrap to x_max
    "radial_grid_from_r0": ("thm45_d3", {"grid.x_min": "0.0"}, "radial_odd needs its r = 0 stencil"),
}


# a bundled scenario of each problem, and the key changes that make it one
PROBLEM_BASES = {
    "transport": ("thm41", {"problem": "transport", "analyses": None, "data.u1": None}),
    "wave_x": ("thm41", {}),
    "wave_t": ("thm43a", {}),
    "radial_odd": ("thm45_d3", {}),
    "tanh_example_2": ("ex2_tanh", {}),
    "tanh_example_3": ("ex3_tanh", {}),
    "corner_3_6": ("corner36", {}),
}
# every data key a problem does not read rejects nonzero data
REJECTED.update({f"{problem}_unread_{key}": (name, {**changes, key: "delta:0.5"}, f"does not read {key}")
                 for problem, (name, changes) in PROBLEM_BASES.items()
                 for key in ("data.u0", "data.u1") if key not in cli.PROBLEMS[problem].data})


def test_problem_bases_cover_every_problem_and_validate(tmp_path):
    assert PROBLEM_BASES.keys() == cli.PROBLEMS.keys()
    for problem, (name, changes) in PROBLEM_BASES.items():
        scn = tmp_path / f"{problem}.scn"
        scn.write_text(_edited(name, changes))
        assert parse_scenario(scn).problem == problem


@pytest.mark.parametrize("case", list(REJECTED))
def test_rejected_with_exit_2_before_any_output(case, tmp_path, capsys):
    name, changes, fragment = REJECTED[case]
    scn = tmp_path / f"{case}.scn"
    scn.write_text(_edited(name, changes))
    assert main(["validate", str(scn)]) == 2
    assert fragment in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out), "--ladder-override", "0.1,0.8,4"]) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_energy_file_names_that_collide_exit_2_before_any_output(tmp_path, capsys):
    # four members within 3e-8 of 0.1 would all write energy_eps0.1.csv; the ladder override
    # of the rejection cases above would name them apart, so this case runs at its own
    scn = tmp_path / "energy_names.scn"
    scn.write_text(_edited("thm43a", {"analyses": "energy", "ladder.ratio": "0.9999999", "ladder.count": "4"}))
    assert main(["validate", str(scn)]) == 2
    assert "energy_eps<eps>.csv" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out), "--ladder-override", "0.1,0.9999999,4"]) == 2
    assert "energy_eps<eps>.csv" in capsys.readouterr().err
    assert not out.exists()


# inputs that cannot be read or written: the scenario file's bytes (None: a directory),
# whether --out names an existing file, and the expected fragment of the error message
UNREADABLE = {
    "scenario_is_a_directory": (None, False, "Is a directory"),
    "scenario_not_utf8": (b"# caf\xe9\n" + bundled_scenarios()["thm41"].read_bytes(), False, "can't decode byte 0xe9"),
    "out_is_a_file": (bundled_scenarios()["thm41"].read_bytes(), True, "Not a directory"),
}


@pytest.mark.parametrize("case", list(UNREADABLE))
def test_unreadable_input_rejected_with_exit_2(case, tmp_path, capsys):
    text, out_is_a_file, fragment = UNREADABLE[case]
    scn, out = tmp_path / "in.scn", tmp_path / "out"
    scn.mkdir() if text is None else scn.write_bytes(text)
    if out_is_a_file:
        out.write_text("")
    else:
        assert main(["validate", str(scn)]) == 2
        assert fragment in capsys.readouterr().err
    assert main(["run", str(scn), "--out", str(out), "--ladder-override", "0.1,0.8,4"]) == 2
    assert fragment in capsys.readouterr().err
    assert out.is_file() if out_is_a_file else not out.exists()


def test_empty_data_spec_is_zero_data(tmp_path):
    scn = tmp_path / "radial.scn"
    scn.write_text(_edited("thm45_d3", {"data.u0": "", "data.u1": ""}))
    assert parse_scenario(scn).u0.kind == "zero"


def test_t_jump_detection_scored_at_the_scenario_jump(tmp_path):
    scn = tmp_path / "tjump06.scn"
    scn.write_text(_edited("thm43a", {"id": "tjump06", "coefficient.breakpoints": "0.6"}))
    assert main(["run", str(scn), "--out", str(tmp_path), "--ladder-override", "0.1,0.8,4"]) == 0
    assert "detect precision=1.000 recall=1.000" in (tmp_path / "tjump06" / "report.txt").read_text()


def _run(tmp_path, name: str, changes: dict) -> Path:
    """Output directory of `colwave run` of bundled NAME with CHANGES (which set its id) at ladder 0.1,0.8,4."""
    scn = tmp_path / f"{changes['id']}.scn"
    scn.write_text(_edited(name, changes))
    assert main(["run", str(scn), "--out", str(tmp_path), "--ladder-override", "0.1,0.8,4"]) == 0
    return tmp_path / changes["id"]


def _detect_columns(outdir: Path):
    """(x, flagged, slope_excess) columns of detect.csv."""
    rows = np.loadtxt(outdir / "detect.csv", delimiter=",", skiprows=1)
    return rows[:, 1], rows[:, 2], rows[:, 3]


def _assert_translated(base: Path, moved: Path, s: float):
    (x0, f0, e0), (x1, f1, e1) = _detect_columns(base), _detect_columns(moved)
    assert np.allclose(x1, x0 + s, rtol=0.0, atol=1e-9)
    assert np.array_equal(f1, f0) and f0.sum() > 0
    assert np.max(np.abs(e1 - e0)) <= 1e-9
    assert (moved / "detect_verdict.txt").read_text() == (base / "detect_verdict.txt").read_text()


def _shift(value: str, s: float) -> str:
    return repr(float(value) + s)


@pytest.mark.parametrize("s", [0.4, -0.37, 1.3])
def test_wave_x_verdicts_follow_a_translation(s, tmp_path):
    # interface, delta, grid and test function moved by s: the same flags,
    # slope excess and pairings, up to the rounding of the moved nodes
    kv = dict(line.split("=", 1) for line in _edited("thm41", {}).splitlines() if "=" in line)
    moved = {k: _shift(kv[k], s) for k in ("coefficient.breakpoints", "grid.x_min", "grid.x_max", "associate.x0")}
    moved.update(id="moved", **{"data.u1": f"delta:{_shift(kv['data.u1'].removeprefix('delta:'), s)}"})
    base, out = _run(tmp_path, "thm41", {"id": "base"}), _run(tmp_path, "thm41", moved)
    _assert_translated(base, out, s)
    scn = {d: parse_scenario(tmp_path / f"{d.name}.scn") for d in (base, out)}
    for a, b in zip(load_family(base / "family"), load_family(out / "family")):
        pa, pb = (pair_gridded(r.times, r.xs, r.fields["u"], scn[d].psi) for r, d in ((a, base), (b, out)))
        assert pb == pytest.approx(pa, rel=1e-9)
    # detect, associate and oracle_compare lines: the oracle moves with the scenario
    assert (out / "report.txt").read_text().splitlines()[1:] == (base / "report.txt").read_text().splitlines()[1:]


@pytest.mark.parametrize("s", [0.37, 1.0, -2.5])
def test_t_jump_verdicts_follow_a_translation(s, tmp_path):
    # grid and point data moved by s: the rays start at the moved delta
    moved = {"id": "moved", "data.u1": f"delta:{s!r}", "grid.x_min": repr(-8.0 + s), "grid.x_max": repr(8.0 + s)}
    _assert_translated(_run(tmp_path, "thm43a", {"id": "base"}), _run(tmp_path, "thm43a", moved), s)


def test_radial_data_may_leave_the_grid(tmp_path):
    # x_min = -0.05 holds the r = 0 stencil but cuts the data [-h, h] of the members
    # h = 0.1, 0.08 and 0.064: the wave_t solve of r u evaluates the data past the grid ends
    out = _run(tmp_path, "thm45_d3", {"id": "cut", "grid.x_min": "-0.05"})
    assert "detect precision=1.000 recall=1.000" in (out / "report.txt").read_text()


def test_t_jump_rays_start_at_the_point_data(tmp_path):
    out = _run(tmp_path, "thm43a", {"id": "off", "data.u1": "delta:0.37"})
    assert "detect precision=1.000 recall=1.000" in (out / "report.txt").read_text()


def test_t_jump_detection_labels_the_stored_times_it_reads(tmp_path):
    # thm43a's detect.times fall between stored times; each is read, labelled and scored
    # at its nearest stored time, where every ray's excess is alpha_hi = 2
    out = _run(tmp_path, "thm43a", {"id": "stored"})
    kv = dict(line.split("=", 1) for line in (out / "family" / "manifest.txt").read_text().splitlines())
    stored = {float(f"{float(t):.10g}") for t in kv["record.0.times"].split(",")}  # detect.csv prints %.10g
    assert set(np.loadtxt(out / "detect.csv", delimiter=",", skiprows=1, usecols=0).tolist()) <= stored
    verdict = (out / "detect_verdict.txt").read_text().splitlines()
    excess = [float(line.rsplit("max_excess=", 1)[1]) for line in verdict if line.startswith("ray.")]
    assert len(excess) == 4 and all(abs(e - 2.0) <= 0.05 for e in excess)


def test_conservative_delta_problem_associates(tmp_path):
    out = _run(tmp_path, "thm41", {"id": "cons", "solver.conservative": "true", "analyses": "associate"})
    _, assoc = (out / "report.txt").read_text().splitlines()[1:]
    assert assoc.startswith("associate=PASS")


def test_conservative_delta_problem_matches_its_oracle(tmp_path):
    # a = Z = sqrt(c): the plateau above the crossing is T/(2 a-) = Z-/(Z- + Z+)
    out = _run(tmp_path, "thm41", {"id": "cons", "solver.conservative": "true", "analyses": "oracle_compare"})
    _, oracle = (out / "report.txt").read_text().splitlines()[1:]
    plateau = 1.0 / (1.0 + np.sqrt(2.0))
    assert float(oracle.split("off_ray_err=")[1]) <= 0.01 * plateau


def test_gronwall_bound_of_an_up_down_time_jump(tmp_path):
    scn = tmp_path / "updown.scn"
    changes = {"id": "updown", "coefficient.breakpoints": "0.6,1.2", "coefficient.values": "1.0,2.0,1.0",
               "analyses": "energy"}
    scn.write_text(_edited("thm43a", changes))
    assert main(["run", str(scn), "--out", str(tmp_path), "--ladder-override", "0.1,0.8,4"]) == 0
    energy = [ln for ln in (tmp_path / "updown" / "report.txt").read_text().splitlines() if ln.startswith("energy")]
    assert len(energy) == 4
    assert all(ln.endswith("gronwall=PASS bound=16") for ln in energy)


def test_numerical_failure_exits_3_without_a_report(tmp_path, capsys, monkeypatch):
    def blow_up(*args, **kwargs):
        raise NumericalFailure("non-finite values at t=0.5")

    monkeypatch.setattr(pipeline, "solve_wave_x", blow_up)
    assert main(["run", "thm41", "--out", str(tmp_path), "--ladder-override", "0.1,0.8,4"]) == 3
    assert "numerical failure: non-finite values at t=0.5" in capsys.readouterr().err
    assert not (tmp_path / "thm41" / "report.txt").exists()


def test_numerical_failure_in_a_ladder_member_exits_3_without_a_report(tmp_path, capsys, monkeypatch):
    # a NaN coupling coefficient turns every member's V and W non-finite in its
    # first step, inside the solver: the data at t = 0 are still finite
    monkeypatch.setattr(solvers.RegularizedCoeff, "deriv", lambda self, x, k=1: np.full_like(x, np.nan))
    assert main(["run", "thm41", "--out", str(tmp_path), "--ladder-override", "0.1,0.8,4"]) == 3
    assert "numerical failure: non-finite values at t=" in capsys.readouterr().err
    assert not (tmp_path / "thm41" / "report.txt").exists()


TRANSPORT_SCN = (
    "id=tr\nproblem=transport\ncoefficient.variable=space\ncoefficient.breakpoints=0.0\n"
    "coefficient.values=1.0,2.0\nladder.eps0=0.1\nladder.ratio=0.7\nladder.count=4\n"
    "grid.x_min=-2.0\ngrid.x_max=2.0\ngrid.nx=auto\ngrid.t_end=0.5\ndata.u0=bump:-0.5,0.5\n"
)


def test_newton_failure_in_a_transport_member_exits_3_without_a_report(tmp_path, capsys, monkeypatch):
    scn = tmp_path / "tr.scn"
    scn.write_text(TRANSPORT_SCN)
    # the data's support [-1, 0] holds the kernel window [-h, h] of the jump,
    # so feet inside the computed slice land in a kernel panel, where they
    # need more than one Newton step
    monkeypatch.setattr(coefficients, "_NEWTON_MAX_ITER", 1)
    assert main(["run", str(scn), "--out", str(tmp_path), "--ladder-override", "0.1,0.7,4"]) == 3
    assert "numerical failure: CumulativeIntegral.invert: no convergence" in capsys.readouterr().err
    assert not (tmp_path / "tr" / "report.txt").exists()


def test_corner_verdict_against_the_criterion_1_tolerance(tmp_path):
    assert main(["run", "corner36", "--out", str(tmp_path / "a"), "--ladder-override", "0.1,0.7,4"]) == 0
    line = (tmp_path / "a" / "corner36" / "report.txt").read_text().splitlines()[-1]
    verdict, err = line.split()
    assert verdict == "corner=PASS"
    assert 0.0 <= float(err.removeprefix("worst_rel_err=")) <= pipeline.CORNER_TOL
    # at t = 0.02 the backward characteristic is still inside the kernel,
    # where the closed forms do not hold
    scn = tmp_path / "early.scn"
    scn.write_text(_edited("corner36", {"id": "early", "corner.times": "0.02"}))
    assert main(["run", str(scn), "--out", str(tmp_path / "b"), "--ladder-override", "0.1,0.7,4"]) == 0
    assert "corner=FAIL" in (tmp_path / "b" / "early" / "report.txt").read_text()


@pytest.mark.parametrize("b, values", [("0.7", "2.0,1.0"), ("0.0", "1.0,3.0"), ("0.7", "0.5,4.0")])
def test_corner_closed_forms_follow_the_scenario_jump(b, values, tmp_path):
    out = _run(tmp_path, "corner36", {"id": "jump", "coefficient.breakpoints": b, "coefficient.values": values})
    assert (out / "report.txt").read_text().splitlines()[-1].startswith("corner=PASS")


def test_oracle_compare_reports_nan_when_its_masks_cover_the_grid(tmp_path):
    # on the logarithmic scale 4 h(eps) = 1.34 masks every cell of [-3.5, 2.7]
    scn = tmp_path / "logoracle.scn"
    scn.write_text(_edited("thm41", {"id": "logoracle", "scale.kind": "logarithmic", "analyses": "oracle_compare"}))
    assert main(["run", str(scn), "--out", str(tmp_path), "--ladder-override", "0.1,0.8,4"]) == 0
    assert "oracle_compare t=1.8 off_ray_err=nan" in (tmp_path / "logoracle" / "report.txt").read_text()


@pytest.mark.parametrize("conservative", ["false", "true"])
def test_wave_x_energy_follows_the_solved_form(conservative, tmp_path):
    scn = tmp_path / "xenergy.scn"
    scn.write_text(_edited("thm41", {"id": "xenergy", "analyses": "energy", "solver.conservative": conservative}))
    assert main(["run", str(scn), "--out", str(tmp_path), "--ladder-override", "0.1,0.8,4"]) == 0
    energy = [ln for ln in (tmp_path / "xenergy" / "report.txt").read_text().splitlines() if ln.startswith("energy")]
    assert len(energy) == 4
    # the conserved functional drifts only by the scheme's dissipation (the
    # conservative_x sum on the non-conservative solve grows by 1.2-1.4x)
    assert all(float(ln.split("drift=")[1]) < 0.2 for ln in energy)


def test_energy_leaves_wave_x_detection_unchanged(tmp_path):
    # u is stored in float32 with or without energy, which reads the float64 v and w
    plain = _run(tmp_path, "thm41", {"id": "plain", "analyses": "detect"})
    energy = _run(tmp_path, "thm41", {"id": "energy", "analyses": "detect,energy"})
    assert (energy / "detect.csv").read_bytes() == (plain / "detect.csv").read_bytes()


@pytest.mark.parametrize("data", [{"data.u0": "delta:0.0", "data.u1": "matched"}, {"data.u1": "bump:0.3,0.5"}])
def test_wave_t_before_the_jump_is_exact_dalembert(data, tmp_path):
    # t = 0.5 is lattice step 256 of dx = 1/512, before the kernel window of the jump at t = 1,
    # where c = 1: with the exact antiderivative of u1, u = (Q - P)/2 is d'Alembert's to rounding
    scn = tmp_path / "dalembert.scn"
    scn.write_text(_edited("thm43a", {"grid.nx": "8192", "solver.store_times": "0.5", "analyses": None, **data}))
    s, t, m = parse_scenario(scn, "0.1,0.8,4"), 0.5, Mollifier()
    run = pipeline.Run(**vars(s))
    for rc in run.rcs:
        rec = pipeline._solve_wave(run, rc)
        x = rec.xs
        if "matched" in data.values():  # u1 = u0': u = u0(x + t)
            want = phi_eval(m, (x + t) / rec.eps) / rec.eps
        else:  # u1 = phi((x - 0.3)/0.5): u = (U1(x + t) - U1(x - t))/2, U1 = 0.5 Phi((x - 0.3)/0.5)
            want = 0.25 * (phi_antideriv(m, (x + t - 0.3) / 0.5) - phi_antideriv(m, (x - t - 0.3) / 0.5))
        assert np.max(np.abs(rec.fields["u"][0] - want)) <= 1e-12 * np.max(np.abs(want)), rec.eps


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ARGS and this colwave on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)


@pytest.mark.parametrize("verb, changes", [("validate", {}), ("validate", {"mollifier.family": "bump"}), ("list", {})])
def test_validate_and_list_leave_numpy_unimported(verb, changes, tmp_path):
    # the scenario layer (cli and spec) is standard library only: numpy, scipy
    # and the numerics load for `colwave run` alone; the bump family's
    # normalizer, a scipy quadrature, is computed on first use
    scn = tmp_path / "thm41.scn"
    scn.write_text(_edited("thm41", changes))
    res = _python("-X", "importtime", "-m", "colwave.cli", verb, *([str(scn)] if verb == "validate" else []))
    loaded = {ln.rsplit("|", 1)[1].strip() for ln in res.stderr.splitlines() if ln.startswith("import time:")}
    assert "colwave.spec" in loaded
    assert sorted(m for m in loaded if m.split(".")[0] in ("numpy", "scipy")) == []


def _loaded_after_run(name: str, ladder: str, packages: tuple, out) -> list:
    """[exit code, loaded modules of PACKAGES] after `colwave run NAME` in a fresh interpreter."""
    code = (
        "import sys\n"
        "from colwave.cli import main\n"
        f"rc = main(['run', {name!r}, '--out', sys.argv[1], '--ladder-override', {ladder!r}])\n"
        f"print(rc, sorted(m for m in sys.modules for p in {packages!r} if m == p or m.startswith(p + '.')))\n"
    )
    return _python("-c", code, str(out)).stdout.split()


@pytest.mark.parametrize("name", ["ex2_tanh", "corner36"])
def test_run_leaves_scipy_unimported(name, tmp_path):
    # importing scipy costs about 0.2 s per process, and neither run needs it
    assert _loaded_after_run(name, "0.1,0.7,4", ("scipy",), tmp_path) == ["0", "[]"]


@pytest.mark.parametrize("name, ladder, unused", [
    ("thm41", "0.1,0.8,4", ("concurrent", "multiprocessing", "numpy.ma")),
    ("corner36", "0.1,0.7,4", ("numpy.ma",)),
    ("ex2_tanh", "0.1,0.7,4", ("concurrent", "multiprocessing", "numpy.ma")),
    ("tr", "0.1,0.7,4", ("concurrent", "multiprocessing", "numpy.ma")),
    ("thm43a", "0.1,0.8,4", ("concurrent", "multiprocessing", "scipy", "numpy.ma")),
    ("thm45_d3", "0.1,0.8,4", ("concurrent", "multiprocessing", "scipy", "numpy.ma")),
])
def test_run_leaves_unused_modules_unimported(name, ladder, unused, tmp_path):
    # every ladder is solved in-process, so no process pool is imported, and no
    # antiderivative table pulls in numpy.ma (17-52 ms) nor a wave_t FFT length scipy
    if name == "tr":
        name = str(tmp_path / "tr.scn")
        Path(name).write_text(TRANSPORT_SCN)
    assert _loaded_after_run(name, ladder, unused, tmp_path / "out") == ["0", "[]"]
