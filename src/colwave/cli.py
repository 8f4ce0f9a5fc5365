"""Scenario-driven command line front end.

Verbs:
    colwave run SCENARIO [--out DIR] [--ladder-override e0,r,n]
    colwave validate SCENARIO
    colwave list

Scenario files are flat key=value text with dotted keys (see the bundled
files under colwave/scenarios/ and FORMATS.md for the column formats).
Exit codes: 0 success, 2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .characteristics import TanhFlow, gamma_partials
from .coefficients import PiecewiseConstantCoeff, RegularizedCoeff
from .detector import classify, predict_singsupp, report_csv, report_svg, verdict_text
from .energy import energy_trace, gronwall_bound, trace_csv
from .mollifier import EpsilonLadder, Mollifier, ScaleFn, phi_antideriv, phi_deriv, phi_eval
from .oracle import (
    DeltaInterface,
    TestFunction,
    associate_check,
    delta_jump_locus,
    delta_solution_eval,
    pair_delta_oracle,
    pair_gridded,
    three_region_limit,
    two_region_limit,
)
from .solvers import (
    Grid1D,
    NumericalFailure,
    PerEps,
    delta_profile,
    delta_profile_deriv,
    save_family,
    solve_radial_odd,
    solve_transport,
    solve_wave_t,
    solve_wave_x,
    speed_impedance,
    with_support,
)

CORNER_TOL = 0.005  # relative error of the corner flow derivatives (Criterion 1)

# tanh transport examples: the sign of their TanhFlow and the distributional limit of u0
TANH = {
    "tanh_example_2": (1.0, two_region_limit),  # converging: u0(x+t) / u0(x-t)
    "tanh_example_3": (-1.0, three_region_limit),  # diverging: three regions
}


class ValidationError(ValueError):
    pass


@dataclass
class Scenario:
    id: str
    problem: str
    raw: dict
    coefficient: PiecewiseConstantCoeff | None
    mollifier: Mollifier
    scale: ScaleFn
    ladder: EpsilonLadder
    grid: Grid1D | None
    analyses: tuple
    data: tuple  # (u0, u0', u1) profiles, None for zero data
    psi: TestFunction | None  # associate test function
    opts: dict  # RUN_KEYS values, parsed

    @cached_property
    def rcs(self) -> list:
        return [RegularizedCoeff(self.coefficient, self.mollifier, self.scale, e) for e in self.ladder]

    @cached_property
    def interface(self) -> DeltaInterface:
        """wave_x: speed and impedance on each side of the one breakpoint, and the data.u1 delta."""
        (am, zm), (ap, zp) = (speed_impedance(c, self.opts["solver.conservative"]) for c in self.coefficient.values)
        return DeltaInterface(am, ap, zm, zp, self.coefficient.breakpoints[0], _delta_x0(self.raw["data.u1"]))

    @property
    def store_times(self):
        times = self.opts["solver.store_times"]
        return np.linspace(0.0, self.grid.t_end, 23) if times is None else times


# --- solves: Scenario -> SolutionFamily -------------------------------------

def _solve_transport(scn: Scenario):
    tanh = TANH.get(scn.problem)
    flows = [TanhFlow(e, tanh[0]) for e in scn.ladder] if tanh else scn.rcs
    return solve_transport(flows, scn.data[0], scn.grid, store_times=scn.store_times, scenario_id=scn.id)


def _solve_wave(scn: Scenario):
    (u0, u0d, u1), want_vw = scn.data, "energy" in scn.analyses
    common = dict(u0_deriv=u0d, store_times=scn.store_times, store_vw=want_vw, scenario_id=scn.id)
    if scn.coefficient.variable == "time":
        return solve_wave_t(scn.rcs, u0, u1, scn.grid, **common)
    return solve_wave_x(scn.rcs, u0, u1, scn.grid, conservative=scn.opts["solver.conservative"],
                        store_dtype=np.float64 if want_vw else np.float32, **common)


def _solve_radial_odd(scn: Scenario):
    return solve_radial_odd(scn.rcs, scn.opts["radial.d"], scn.grid, store_times=scn.store_times,
                            scenario_id=scn.id)


# --- analyses: Scenario, family, output directory -> report.txt line(s) -----

def _detect(scn: Scenario, fam, outdir: Path) -> str:
    kind = PROBLEMS[scn.problem].detect_kind
    if kind == "x_jump_delta":
        m = scn.interface
        where = dict(c0=m.a_minus, c1=m.a_plus, interface=m.b, x0=m.x0)
    else:  # t_jump: the point data sit at one x0 (_check_geometry); radial_odd has none, its data sit at r = 0
        (c0, c1), (b,) = scn.coefficient.values, scn.coefficient.breakpoints
        where = dict(c0=c0, c1=c1, t_jump=b, x0=min(_point_data(scn.raw), default=0.0))
    rays = predict_singsupp(kind, standard_scale=scn.scale.kind == "standard", **where)
    o = scn.opts
    rep = classify(fam, rays, h_fn=scn.scale, times=o["detect.times"], theta=o["detect.theta"],
                   alpha_hi=o["detect.alpha_hi"], t_skip=o["detect.t_skip"])
    report_csv(rep, outdir / "detect.csv")
    report_svg(rep, outdir / "detect.svg")
    (outdir / "detect_verdict.txt").write_text(verdict_text(rep))
    return f"detect precision={rep.precision:.3f} recall={rep.recall:.3f}"


def _energy(scn: Scenario, fam, outdir: Path) -> str:
    lines = []
    for rec, rc in zip(fam, scn.rcs):
        tr = energy_trace(rec)
        trace_csv(tr, outdir / f"energy_eps{rec.eps:.6g}.csv")
        line = f"energy eps={rec.eps:.4g} drift={tr.max_relative_drift:.3e}"
        if scn.coefficient.variable == "time":
            bound = gronwall_bound(rc, scn.grid.t_end)
            ok = bool(np.all(tr.E <= tr.E[0] * bound * (1.0 + 1e-6)))
            line += f" gronwall={'PASS' if ok else 'FAIL'} bound={bound:.4g}"
        lines.append(line)
    return "\n".join(lines)


def _associate(scn: Scenario, fam, outdir: Path) -> str:
    psi = scn.psi
    if scn.problem in TANH:
        limit = TANH[scn.problem][1](scn.data[0])
        tt, xx = np.linspace(*psi.t_support, 401), np.linspace(*psi.x_support, 801)
        g = limit(tt[:, None], xx[None, :]) * psi(tt[:, None], xx[None, :])
        target = float(np.trapezoid(np.trapezoid(g, xx, axis=1), tt))
    else:
        target = pair_delta_oracle(scn.interface, psi)
    pairings = [pair_gridded(r.times, r.xs, r.fields["u"], psi) for r in fam]
    v = associate_check(fam.eps_values, pairings, target)
    return f"associate={'PASS' if v.passed else 'FAIL'} final_err={v.errors[-1]:.3e}"


def _oracle_compare(scn: Scenario, fam, outdir: Path) -> str:
    rec = fam.records[-1]
    t = float(rec.times[int(0.8 * len(rec.times))])
    mask = np.ones(rec.xs.shape, dtype=bool)
    h = rec.meta.get("h", rec.eps)
    for _, curve, (t_min, t_max) in delta_jump_locus(scn.interface):
        if t_min <= t <= t_max:
            mask &= np.abs(rec.xs - float(curve(t))) > 4 * h
    off_ray = np.abs(rec.slice_at(t) - delta_solution_eval(scn.interface, t, rec.xs))[mask]
    err = float(np.max(off_ray)) if off_ray.size else np.nan  # nan: the masks cover the grid
    return f"oracle_compare t={t:.3g} off_ray_err={err:.3e}"


def _corner(scn: Scenario, fam, outdir: Path) -> str:
    rows = ["eps,t,dgamma,expected1,d2gamma,expected2,d3gamma,expected3"]
    a = phi_eval(scn.mollifier, 0.0)
    worst = 0.0
    for rc in scn.rcs:
        h = rc.h
        for t in scn.opts["corner.times"]:
            got = gamma_partials(rc, t, 0.0)
            want = (2 / 3, -4 * a / (9 * h), 16 * a * a / (27 * h * h))
            rows.append(f"{float(rc.eps)!r},{t}," + ",".join(f"{g!r},{w!r}" for g, w in zip(got, want)))
            worst = max(worst, *(abs(g - w) / abs(w) for g, w in zip(got, want)))
    (outdir / "corner.csv").write_text("\n".join(rows) + "\n")
    return f"corner={'PASS' if worst <= CORNER_TOL else 'FAIL'} worst_rel_err={worst:.3e}"


ANALYSES = dict(detect=_detect, energy=_energy, associate=_associate, oracle_compare=_oracle_compare,
                corner=_corner)


# Per problem: the coefficient.variable it needs (None: no coefficient), whether it
# needs a grid, the analyses it runs in report.txt order, the detect.kind its
# detection is scored with, its solve (Scenario -> family) and the
# default data.u0.
Problem = namedtuple("Problem", "variable grid analyses detect_kind solve u0", defaults=(None, None, "zero"))
PROBLEMS = {
    "transport": Problem("space", True, (), solve=_solve_transport, u0="bump:0.0,0.5"),
    "wave_x": Problem("space", True, ("detect", "energy", "associate", "oracle_compare"), "x_jump_delta",
                      _solve_wave),
    "wave_t": Problem("time", True, ("detect", "energy"), "t_jump", _solve_wave),
    "radial_odd": Problem("time", True, ("detect",), "radial_odd", _solve_radial_odd),
    "tanh_example_2": Problem(None, True, ("associate",), solve=_solve_transport, u0="bump:0.0,0.5"),
    "tanh_example_3": Problem(None, True, ("associate",), solve=_solve_transport, u0="bump:0.0,0.5"),
    "corner_3_6": Problem("space", False, ("corner",)),
}


def _parse_kv(path: Path) -> dict:
    kv = {}
    for ln, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path.name}:{ln}: expected key=value, got {line!r}")
        key, val = line.split("=", 1)
        kv[key.strip()] = val.strip()
    return kv


def _float(s: str) -> float:
    v = float(s)
    if not np.isfinite(v):
        raise ValueError(f"expected a finite number, got {s!r}")
    return v


def _floats(s: str):
    return tuple(_float(v) for v in s.split(",")) if s else ()


def _positive_times(s: str):
    times = _floats(s)
    if not times or min(times) <= 0.0:
        raise ValueError(f"expected a non-empty comma list of times > 0, got {s!r}")
    return times


def _one_of(*allowed):
    """Parser of a value cast to the type of the allowed values."""
    cast = type(allowed[0])

    def parse(s: str):
        if cast(s) not in allowed:
            raise ValueError(f"expected one of {', '.join(map(str, allowed))}, got {s!r}")
        return cast(s)
    return parse


def _boolean(s: str) -> bool:
    if s.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {s!r}")
    return s.lower() == "true"


# Keys that only a solve or an analysis reads: parser and default.  All are parsed
# in parse_scenario, so a malformed value exits 2 before any output exists.
RUN_KEYS = {
    "solver.store_times": (lambda s: sorted(_floats(s)) or None, None),  # empty: 23 even steps
    "detect.times": (lambda s: _floats(s) or None, None),  # empty: the stored times after t_skip
    "detect.theta": (_float, 0.5),
    "detect.alpha_hi": (_one_of(1, 2, 3), 2),
    "detect.t_skip": (_float, 0.1),
    "corner.times": (_positive_times, (0.5, 1.0)),
    "radial.d": (_one_of(3), 3),
    "solver.conservative": (_boolean, False),
}


def parse_scenario(path, ladder_override: str | None = None) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"scenario file not found: {path}")
    kv = _parse_kv(path)
    unknown = sorted(kv.keys() - RUN_KEYS.keys() - {  # RUN_KEYS and the keys read here
        "id", "problem", "coefficient.variable", "coefficient.breakpoints", "coefficient.values", "mollifier.family",
        "mollifier.n", "scale.kind", "scale.p", "ladder.eps0", "ladder.ratio", "ladder.count", "grid.x_min",
        "grid.x_max", "grid.nx", "grid.t_end", "grid.cfl", "data.u0", "data.u1", "analyses", "detect.kind",
        "associate.t0", "associate.x0", "associate.radius"})
    if unknown:
        raise ValidationError(f"unknown key(s) {', '.join(map(repr, unknown))}")
    problem = kv.get("problem", "")
    if problem not in PROBLEMS:
        kinds = ", ".join(PROBLEMS)
        raise ValidationError(f"field 'problem': unknown kind {problem!r} (expected one of {kinds})")
    prob = PROBLEMS[problem]
    try:
        moll = Mollifier(kv.get("mollifier.family", "polynomial"), int(kv.get("mollifier.n", 2)))
        scale = ScaleFn(kv.get("scale.kind", "standard"), _float(kv.get("scale.p", 4.0)))
        ladder_kv = (kv.get("ladder.eps0", 0.1), kv.get("ladder.ratio", 0.7), kv.get("ladder.count", 10))
        e0, r, n = ladder_override.split(",") if ladder_override else ladder_kv
        ladder = EpsilonLadder(_float(e0), _float(r), int(n))
    except (ValueError, TypeError) as exc:
        raise ValidationError(str(exc)) from exc
    coeff = None
    if "coefficient.values" in kv:
        try:
            coeff = PiecewiseConstantCoeff(
                _floats(kv.get("coefficient.breakpoints", "")),
                _floats(kv["coefficient.values"]),
                kv.get("coefficient.variable", "space"),
            )
        except ValueError as exc:
            raise ValidationError(f"field 'coefficient': {exc}") from exc
    if prob.variable and (coeff is None or coeff.variable != prob.variable):
        raise ValidationError(f"problem {problem!r} needs a coefficient.variable={prob.variable} coefficient")
    grid = None
    if "grid.x_min" in kv:
        h_min = scale(ladder.eps_min)
        try:
            x_min, x_max = _float(kv["grid.x_min"]), _float(kv["grid.x_max"])
            nx_raw = kv.get("grid.nx", "auto")
            nx = int(np.ceil((x_max - x_min) / (h_min / 16.0))) if nx_raw == "auto" else int(nx_raw)
            grid = Grid1D(x_min, x_max, nx, _float(kv["grid.t_end"]), _float(kv.get("grid.cfl", 0.45)))
            grid.check_resolution(h_min)
        except (KeyError, ValueError) as exc:
            raise ValidationError(f"grid: {exc}") from exc
    elif prob.grid:
        raise ValidationError(f"problem {problem!r} requires a grid section")
    analyses = tuple(a for a in kv.get("analyses", "").split(",") if a)
    for a in analyses:
        if a not in prob.analyses:
            runs = ", ".join(prob.analyses) or "no analysis"
            raise ValidationError(f"field 'analyses': problem {problem!r} runs {runs}, not {a!r}")
    if problem == "radial_odd" and kv.get("data.u0", "zero") != "zero":
        raise ValidationError("radial problems require data.u0=zero")
    if prob.grid and prob.solve is not _solve_wave and kv.get("data.u1", "zero") not in ("", "zero"):
        # transport has no initial velocity, and radial_odd builds in its own
        raise ValidationError(f"problem {problem!r} does not read data.u1: leave it out or set it to zero, "
                              f"not {kv['data.u1']!r}")
    data = _data(kv, problem, coeff, grid) if prob.grid else (None, None, None)
    psi = None
    if "associate" in analyses:
        try:
            psi = TestFunction(*(_float(kv[f"associate.{k}"]) for k in ("t0", "x0", "radius")))
        except (KeyError, ValueError) as exc:
            raise ValidationError("associate needs finite associate.t0, associate.x0 and associate.radius > 0") from exc
    opts = {}
    for key, (parse, default) in RUN_KEYS.items():
        try:
            opts[key] = parse(kv[key]) if key in kv else default
        except ValueError as exc:
            raise ValidationError(f"field {key!r}: {exc}") from exc
    _check_geometry(kv, problem, coeff, data[0], set(analyses), scale(ladder.eps0), opts["solver.conservative"])
    for key in ("solver.store_times", "detect.times"):
        if grid is not None and opts[key] is not None and not all(0.0 <= t <= grid.t_end for t in opts[key]):
            raise ValidationError(f"field {key!r}: every time must lie in [0, grid.t_end = {grid.t_end:g}]")
    scn = Scenario(kv.get("id") or path.stem, problem, kv, coeff, moll, scale, ladder, grid, analyses, data, psi,
                   opts)
    if "detect" in analyses and opts["detect.times"] is None and max(scn.store_times) <= opts["detect.t_skip"]:
        raise ValidationError("field 'detect.t_skip': no stored time after it is left to detect at")
    if psi is not None:
        (t_lo, t_hi), (x_lo, x_hi) = psi.t_support, psi.x_support
        if not (min(scn.store_times) <= t_lo and t_hi <= max(scn.store_times) and grid.x_min <= x_lo
                and x_hi <= grid.x_max):
            raise ValidationError("associate: the support [t0 +- radius] x [x0 +- radius] must lie between the first"
                                  " and last stored time and within [grid.x_min, grid.x_max]")
    return scn


def _check_geometry(kv, problem, coeff, u0, asked: set, h0: float, conservative: bool):
    """Reject analyses whose rays, oracles or bounds cannot model the scenario."""
    kind, bps = PROBLEMS[problem].detect_kind, coeff.breakpoints if coeff else None
    x1, points = _delta_x0(kv.get("data.u1", "zero")), _point_data(kv)
    if bps is not None and asked & {"detect", "associate", "oracle_compare"} and len(bps) != 1:
        raise ValidationError("detect, associate and oracle_compare need exactly one coefficient breakpoint")
    if "detect" in asked:
        if (kv.get("detect.kind") or kind) != kind:
            raise ValidationError(f"field 'detect.kind': problem {problem!r} is scored with {kind!r}")
        if kind == "x_jump_delta" and conservative:
            raise ValidationError("solver.conservative=true moves at a = sqrt(c), and the reflected-ray rule of the "
                                  "x_jump_delta lower set is derived only for the non-conservative form, a = c")
        bumps = [k for k in ("data.u0", "data.u1") if kv.get(k, "").startswith("bump")]
        if kind == "t_jump" and (len(points) != 1 or bumps):
            raise ValidationError("t_jump rays start at the point data: data.u0 and data.u1 need delta data at one x0 "
                                  "(bump data is singular at its edges)")
    if problem == "wave_x" and asked & {"detect", "associate", "oracle_compare"} and (x1 is None or x1 >= bps[0]):
        raise ValidationError("x_jump_delta rays and the delta oracle need data.u1=delta:x0 with x0 < b, the interface")
    if "energy" in asked and coeff.variable == "time" and np.any(np.diff(bps) < 2.0 * h0):
        raise ValidationError("energy: kernel neighbourhoods of the time breakpoints overlap at ladder.eps0")
    if "corner" in asked and (bps, coeff.values) != ((0.0,), (1.0, 2.0)):
        raise ValidationError("corner closed forms need the 1 -> 2 jump at x = 0 (coefficient.values=1,2)")
    if problem in TANH:
        if isinstance(u0, PerEps):  # a tanh flow has no regularized coefficient to mollify a delta with
            raise ValidationError("a tanh example takes data.u0=bump:x0,w, quadratic or zero, not a delta")
        if "associate" in asked and u0 is None:
            raise ValidationError("associate on a tanh example needs data.u0=bump:x0,w or quadratic")
    elif asked & {"associate", "oracle_compare"} and u0 is not None:
        raise ValidationError("associate and oracle_compare need data.u0=zero: the delta-data oracle starts from u = 0")


def _point_data(kv) -> set:
    """x0 of each 'delta:x0' spec among data.u0 and data.u1."""
    return {x for x in (_delta_x0(kv.get(k, "zero")) for k in ("data.u0", "data.u1")) if x is not None}


def _delta_x0(spec: str) -> float | None:
    """x0 of 'delta:x0' data, None for any other data spec."""
    kind, _, arg = spec.partition(":")
    if kind != "delta":
        return None
    try:
        return _float(arg)
    except ValueError as exc:
        raise ValidationError(f"malformed data spec {spec!r} ({exc})") from exc


def _data(kv, problem, coeff, grid):
    """(u0, u0', u1) from data.u0 / data.u1; u1=matched is c(0) u0' (wave_t only)."""
    u0, u0d = _profile(kv.get("data.u0", PROBLEMS[problem].u0), grid)
    if kv.get("data.u1") != "matched":
        return u0, u0d, _profile(kv.get("data.u1", "zero"), grid)[0]
    if problem != "wave_t" or u0 is None or u0d is None:
        raise ValidationError("data.u1=matched needs problem wave_t and differentiable nonzero data.u0")
    c00 = coeff(0.0)  # cancels the left-moving characteristic component
    if isinstance(u0d, PerEps):
        return u0, u0d, PerEps(lambda rc: (lambda x, f=u0d(rc): c00 * f(x)))
    return u0, u0d, lambda x: c00 * u0d(x)


def _profile(spec: str, grid: Grid1D | None):
    """Data profile and its derivative from 'zero' | 'delta:x0' | 'bump:x0,w' | 'quadratic'."""
    if spec in ("", "zero"):
        return None, None
    x0 = _delta_x0(spec)
    if x0 is not None:
        return delta_profile(x0), delta_profile_deriv(x0)
    kind, _, args = spec.partition(":")
    try:
        if kind == "bump":
            x0, w = (_float(v) for v in args.split(","))
            if not w > 0.0:
                raise ValueError("the width must be > 0")
    except ValueError as exc:
        raise ValidationError(f"malformed data spec {spec!r} ({exc})") from exc
    if kind == "bump":
        bm = Mollifier()
        f = lambda x: phi_eval(bm, (np.asarray(x, dtype=float) - x0) / w)
        fd = lambda x: phi_deriv(bm, (np.asarray(x, dtype=float) - x0) / w, 1) / w
        return with_support(f, x0 - w, x0 + w), with_support(fd, x0 - w, x0 + w)
    if kind == "quadratic":  # only problems with a grid read data
        bm = Mollifier("bump")
        span = grid.x_max - grid.x_min
        lo, hi = grid.x_min + span / 8.0, grid.x_max - span / 8.0
        w = span / 16.0

        def chi(x):
            x = np.asarray(x, dtype=float)
            return phi_antideriv(bm, (x - lo) / w) * (1.0 - phi_antideriv(bm, (x - hi) / w))

        return with_support(lambda x: 0.5 * np.asarray(x, dtype=float) ** 2 * chi(x), lo - w, hi + w), None
    raise ValidationError(f"unknown data spec {spec!r}")


def run_scenario(scn: Scenario, outdir: Path) -> int:
    outdir = outdir / scn.id
    outdir.mkdir(parents=True, exist_ok=True)
    prob = PROBLEMS[scn.problem]
    fam = prob.solve(scn) if prob.solve else None
    if fam is not None:
        save_family(fam, outdir / "family")
    lines = [f"scenario={scn.id}", f"problem={scn.problem}"]
    lines += [ANALYSES[a](scn, fam, outdir) for a in prob.analyses if a in scn.analyses]
    (outdir / "report.txt").write_text("\n".join(lines) + "\n")
    return 0


def bundled_scenarios() -> dict:
    root = resources.files("colwave") / "scenarios"
    return {entry.name[:-4]: entry for entry in sorted(root.iterdir()) if entry.name.endswith(".scn")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="colwave", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="run a scenario end to end")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--ladder-override", default=None, metavar="eps0,ratio,count")
    p_val = sub.add_parser("validate", help="static checks only")
    p_val.add_argument("scenario")
    sub.add_parser("list", help="list bundled scenarios")
    ns = ap.parse_args(argv)

    if ns.verb == "list":
        for name in bundled_scenarios():
            print(name)
        return 0

    bundled = bundled_scenarios()
    if ns.scenario in bundled:
        with resources.as_file(bundled[ns.scenario]) as p:
            return _dispatch(ns, p)
    return _dispatch(ns, Path(ns.scenario))


def _dispatch(ns, path: Path) -> int:
    try:
        scn = parse_scenario(path, getattr(ns, "ladder_override", None))
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    if ns.verb == "validate":
        print(f"{scn.id}: OK (problem={scn.problem}, ladder={len(scn.ladder.values)} values)")
        return 0
    try:
        return run_scenario(scn, Path(ns.out))
    except (NumericalFailure, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
