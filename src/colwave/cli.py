"""Scenario-driven command line front end.

Verbs:
    colwave run SCENARIO [--out DIR] [--ladder-override e0,r,n]
    colwave validate SCENARIO
    colwave list

Scenario files are flat key=value text with dotted keys (see the bundled
files under colwave/scenarios/ and FORMATS.md for the column formats).
Exit codes: 0 success, 2 validation failure, 3 numerical failure.  Parsing and
validation need the standard library alone; `run` imports colwave.pipeline, and
numpy with it, once the scenario is valid.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .spec import EpsilonLadder, Grid1D, Mollifier, PiecewiseConstantCoeff, ScaleFn, TestFunction


class ValidationError(ValueError):
    pass


# A parsed data.u0 / data.u1 spec: kind zero, delta, bump, quadratic or matched; x0 of
# delta and bump data, w of bump data
DataSpec = namedtuple("DataSpec", "kind x0 w", defaults=(None, None))


@dataclass
class Scenario:
    id: str
    problem: str
    coefficient: PiecewiseConstantCoeff | None
    mollifier: Mollifier
    scale: ScaleFn
    ladder: EpsilonLadder
    grid: Grid1D | None
    analyses: tuple
    u0: DataSpec
    u1: DataSpec
    psi: TestFunction | None  # associate test function
    opts: dict  # RUN_KEYS values, parsed


# Per problem: the coefficient.variable it needs (None: no coefficient, the closed-form
# flow of a tanh example), whether it needs a grid, the analyses it runs in report.txt
# order, the rays its detection is scored with, the data keys it reads and the default
# data.u0.  Its solve is colwave.pipeline.SOLVES[problem].
Problem = namedtuple("Problem", "variable grid analyses detect_kind data u0", defaults=(None, (), "zero"))
WAVE_DATA = ("data.u0", "data.u1")
PROBLEMS = {
    "transport": Problem("space", True, (), data=("data.u0",), u0="bump:0.0,0.5"),
    "wave_x": Problem("space", True, ("detect", "energy", "associate", "oracle_compare"), "x_jump_delta",
                      WAVE_DATA),
    "wave_t": Problem("time", True, ("detect", "energy"), "t_jump", WAVE_DATA),
    "radial_odd": Problem("time", True, ("detect",), "radial_odd"),
    "tanh_example_2": Problem(None, True, ("associate",), data=("data.u0",), u0="bump:0.0,0.5"),
    "tanh_example_3": Problem(None, True, ("associate",), data=("data.u0",), u0="bump:0.0,0.5"),
    "corner_3_6": Problem("space", False, ("corner",)),
}


def _parse_kv(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no read permission, not UTF-8
        raise ValidationError(f"cannot read scenario file {path} as UTF-8 text: {exc}") from exc
    kv = {}
    for ln, line in enumerate(text.splitlines(), 1):
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
    if not math.isfinite(v):
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


STORE_STEPS = 23  # the stored times when solver.store_times is empty: even steps over [0, t_end]

# Keys that only a solve or an analysis reads: parser and default.  All are parsed
# in parse_scenario, so a malformed value exits 2 before any output exists.
RUN_KEYS = {
    "solver.store_times": (lambda s: sorted(_floats(s)) or None, None),  # empty: STORE_STEPS
    "detect.times": (lambda s: _floats(s) or None, None),  # empty: the stored times after t_skip
    "detect.theta": (_float, 0.5),
    "detect.alpha_hi": (_one_of(1, 2, 3), 2),
    "detect.t_skip": (_float, 0.1),
    "corner.times": (_positive_times, (0.5, 1.0)),
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
        "grid.x_max", "grid.nx", "grid.t_end", "data.u0", "data.u1", "analyses", "associate.t0",
        "associate.x0", "associate.radius"})
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
            nx = math.ceil((x_max - x_min) / (h_min / 16.0)) if nx_raw == "auto" else int(nx_raw)
            grid = Grid1D(x_min, x_max, nx, _float(kv["grid.t_end"]))
            grid.check_resolution(h_min)
        except (KeyError, ValueError, OverflowError) as exc:  # overflow: an infinite span in cells
            raise ValidationError(f"grid: {exc}") from exc
    elif prob.grid:
        raise ValidationError(f"problem {problem!r} requires a grid section")
    analyses = tuple(a for a in kv.get("analyses", "").split(",") if a)
    for a in analyses:
        if a not in prob.analyses:
            runs = ", ".join(prob.analyses) or "no analysis"
            raise ValidationError(f"field 'analyses': problem {problem!r} runs {runs}, not {a!r}")
    u0, u1 = _spec(kv.get("data.u0", prob.u0)), _spec(kv.get("data.u1", "zero"))
    for key, spec in (("data.u0", u0), ("data.u1", u1)):
        if spec.kind != "zero" and key not in prob.data:
            raise ValidationError(f"problem {problem!r} does not read {key}: leave it out or set it to zero, "
                                  f"not {kv[key]!r}")
    if "matched" in (u0.kind, u1.kind) and (problem != "wave_t" or u0.kind not in ("delta", "bump")):
        raise ValidationError("matched is data.u1 = c(0) u0' of problem wave_t, with delta or bump data.u0")
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
    scn = Scenario(kv.get("id") or path.stem, problem, coeff, moll, scale, ladder, grid, analyses, u0, u1, psi,
                   opts)
    _check_geometry(scn)
    for key in ("solver.store_times", "detect.times"):
        if grid is not None and opts[key] is not None and not all(0.0 <= t <= grid.t_end for t in opts[key]):
            raise ValidationError(f"field {key!r}: every time must lie in [0, grid.t_end = {grid.t_end:g}]")
    # first and last stored time (default: STORE_STEPS over [0, t_end]); detect and associate have a grid
    stored = (opts["solver.store_times"] or (0.0, grid.t_end)) if grid else ()
    if "detect" in analyses and opts["detect.times"] is None and stored[-1] <= opts["detect.t_skip"]:
        raise ValidationError("field 'detect.t_skip': no stored time after it is left to detect at")
    if psi is not None:
        (t_lo, t_hi), (x_lo, x_hi) = psi.t_support, psi.x_support
        if not (stored[0] <= t_lo and t_hi <= stored[-1] and grid.x_min <= x_lo and x_hi <= grid.x_max):
            raise ValidationError("associate: the support [t0 +- radius] x [x0 +- radius] must lie between the first"
                                  " and last stored time and within [grid.x_min, grid.x_max]")
    if prob.grid:  # the budget of a solve: its stored values, and the lattice of a wave member
        n_times = len(opts["solver.store_times"] or range(STORE_STEPS))
        if ladder.count * n_times * (grid.nx + 1) > 2**28:
            raise ValidationError("budget: ladder.count x stored times x (grid.nx + 1) exceeds 2^28 stored values")
        if problem in ("wave_x", "wave_t", "radial_odd"):  # speeds a (sqrt(c) in the conservative wave_x form)
            a = [math.sqrt(c) if problem == "wave_x" and opts["solver.conservative"] else c for c in coeff.values]
            step = grid.dt(max(a)) if problem == "wave_x" else grid.dx / max(a)  # dxi, or dtau
            if grid.t_end / step > 2**24:
                raise ValidationError("budget: grid.t_end x max speed / dx exceeds 2^24 lattice steps")
            if problem == "wave_x" and (grid.x_max - grid.x_min) / (min(a) * step) > 2**24:  # xi spans <= span/min a
                raise ValidationError("budget: grid span / (min speed x travel-time step) exceeds 2^24 lattice nodes")
    if "energy" in analyses:  # energy_eps<eps>.csv names a member by %.6g of its eps: only a neighbour can share it
        e = [ladder.eps0 * ladder.ratio**k for k in range(ladder.count)]  # numpy's ladder agrees to 5e-16
        if any(f"{a * (1.0 - 1e-15):.6g}" == f"{b * (1.0 + 1e-15):.6g}" for a, b in zip(e, e[1:])):
            raise ValidationError("energy: two ladder members share the 6-digit eps that names energy_eps<eps>.csv")
    return scn


def _check_geometry(scn: Scenario):
    """Reject analyses whose rays, oracles or bounds cannot model the scenario."""
    asked, kind, coeff = set(scn.analyses), PROBLEMS[scn.problem].detect_kind, scn.coefficient
    bps, points = coeff.breakpoints if coeff else None, {d.x0 for d in (scn.u0, scn.u1) if d.kind == "delta"}
    if bps is not None and asked & {"detect", "associate", "oracle_compare", "corner"} and len(bps) != 1:
        raise ValidationError("detect, associate, oracle_compare and corner need exactly one coefficient breakpoint")
    if "detect" in asked:
        if kind == "x_jump_delta" and scn.opts["solver.conservative"]:
            raise ValidationError("solver.conservative=true moves at a = sqrt(c), and the reflected-ray rule of the "
                                  "x_jump_delta lower set is derived only for the non-conservative form, a = c")
        if kind == "t_jump" and (len(points) != 1 or "bump" in (scn.u0.kind, scn.u1.kind)):
            raise ValidationError("t_jump rays start at the point data: data.u0 and data.u1 need delta data at one x0 "
                                  "(bump data is singular at its edges)")
    if (scn.problem == "wave_x" and asked & {"detect", "associate", "oracle_compare"}
            and not (scn.u1.kind == "delta" and scn.u1.x0 < bps[0])):
        raise ValidationError("x_jump_delta rays and the delta oracle need data.u1=delta:x0 with x0 < b, the interface")
    if "energy" in asked and coeff.variable == "time" and any(
            b2 - b1 < 2.0 * scn.scale(scn.ladder.eps0) for b1, b2 in zip(bps, bps[1:])):
        raise ValidationError("energy: kernel neighbourhoods of the time breakpoints overlap at ladder.eps0")
    if PROBLEMS[scn.problem].variable is None:  # a tanh example
        if scn.u0.kind == "delta":  # a tanh flow has no regularized coefficient to mollify a delta with
            raise ValidationError("a tanh example takes data.u0=bump:x0,w, quadratic or zero, not a delta")
        if "associate" in asked and scn.u0.kind == "zero":
            raise ValidationError("associate on a tanh example needs data.u0=bump:x0,w or quadratic")
    elif asked & {"associate", "oracle_compare"} and scn.u0.kind != "zero":
        raise ValidationError("associate and oracle_compare need data.u0=zero: the delta-data oracle starts from u = 0")
    if scn.problem == "wave_x":  # its travel-time lattice holds data on the grid alone
        for key, d in (("data.u0", scn.u0), ("data.u1", scn.u1)):
            half = {"delta": scn.ladder.eps0, "bump": d.w}.get(d.kind)  # the support's half-width at ladder.eps0
            if half is not None and not (scn.grid.x_min <= d.x0 - half and d.x0 + half <= scn.grid.x_max):
                raise ValidationError(f"{key}: wave_x drops data off [grid.x_min, grid.x_max], and the support "
                                      f"[{d.x0 - half:g}, {d.x0 + half:g}] at ladder.eps0 leaves it")
    if scn.problem == "radial_odd":  # u = w/r is extrapolated to r = 0 from two nodes on each side
        g = scn.grid
        if not (g.x_min <= -2.0 * g.dx and 2.0 * g.dx <= g.x_max):
            raise ValidationError(f"radial_odd needs its r = 0 stencil, [{-2.0 * g.dx:g}, {2.0 * g.dx:g}], "
                                  f"inside [grid.x_min, grid.x_max]")


def _spec(spec: str) -> DataSpec:
    """Parse 'zero' (or empty) | 'delta:x0' | 'bump:x0,w' | 'quadratic' | 'matched'."""
    kind, _, args = spec.partition(":")
    try:
        if kind == "delta":
            return DataSpec(kind, _float(args))
        if kind == "bump":
            x0, w = (_float(v) for v in args.split(","))
            if not w > 0.0:
                raise ValueError("the width must be > 0")
            return DataSpec(kind, x0, w)
    except ValueError as exc:
        raise ValidationError(f"malformed data spec {spec!r} ({exc})") from exc
    if spec not in ("", "zero", "quadratic", "matched"):
        raise ValidationError(f"unknown data spec {spec!r}")
    return DataSpec(spec or "zero")


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
        if ns.verb == "run":
            outdir = Path(ns.out) / scn.id
            try:
                outdir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:  # --out names a file, no write permission
                raise ValidationError(f"cannot make the output directory {outdir}: {exc.strerror}") from exc
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    if ns.verb == "validate":
        print(f"{scn.id}: OK (problem={scn.problem}, ladder={scn.ladder.count} values)")
        return 0
    from .pipeline import run_scenario  # numpy and the numerics load here, for a valid run only
    from .solvers import NumericalFailure

    try:
        return run_scenario(scn, outdir)
    except (NumericalFailure, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.modules.setdefault("colwave.cli", sys.modules[__name__])  # colwave.pipeline imports this copy, not a second
    sys.exit(main())
