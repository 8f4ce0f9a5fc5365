"""Scenario-driven command line front end.

Verbs:
    colwave run SCENARIO [--out DIR] [--threads N] [--ladder-override e0,r,n]
    colwave validate SCENARIO
    colwave list

Scenario files are flat key=value text with dotted keys (see the bundled
files under colwave/scenarios/ and FORMATS.md for the column formats).
Exit codes: 0 success, 2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .characteristics import CharCurve, gamma_partials
from .coefficients import PiecewiseConstantCoeff, RegularizedCoeff
from .detector import classify, predict_singsupp, report_csv, report_svg, verdict_text
from .energy import energy_trace, gronwall_bound, trace_csv
from .mollifier import EpsilonLadder, Mollifier, ScaleFn, phi_antideriv, phi_eval
from .oracle import (
    TestFunction,
    associate_check,
    delta_solution_eval,
    pair_delta_oracle,
    pair_gridded,
    three_region_limit,
    two_region_limit,
)
from .solvers import (
    LIMITERS,
    Grid1D,
    NumericalFailure,
    PerEps,
    abel_forward,
    abel_invert,
    delta_profile,
    delta_profile_deriv,
    save_family,
    solve_radial_odd,
    solve_transport,
    solve_wave_t,
    solve_wave_x,
)

PROBLEMS = (
    "transport",
    "wave_x",
    "wave_t",
    "radial_odd",
    "radial_even_abel",
    "tanh_example_2",
    "tanh_example_3",
    "corner_3_6",
)

# default detect.kind per solved problem
DETECT_KINDS = {"wave_x": "x_jump_delta", "wave_t": "t_jump", "radial_odd": "radial_odd"}


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
    options: dict = field(default_factory=dict)


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


def _floats(s: str):
    return tuple(float(v) for v in s.split(",")) if s else ()


def parse_scenario(path, ladder_override: str | None = None) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"scenario file not found: {path}")
    kv = _parse_kv(path)
    sid = kv.get("id") or path.stem
    problem = kv.get("problem", "")
    if problem not in PROBLEMS:
        raise ValidationError(f"field 'problem': unknown kind {problem!r} (expected one of {PROBLEMS})")
    try:
        moll = Mollifier(kv.get("mollifier.family", "polynomial"), int(kv.get("mollifier.n", 2)))
        scale = ScaleFn(kv.get("scale.kind", "standard"), float(kv.get("scale.p", 4.0)))
        if ladder_override:
            e0, r, n = ladder_override.split(",")
            ladder = EpsilonLadder(float(e0), float(r), int(n))
        else:
            ladder = EpsilonLadder(
                float(kv.get("ladder.eps0", 0.1)),
                float(kv.get("ladder.ratio", 0.7)),
                int(kv.get("ladder.count", 10)),
            )
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
    grid = None
    if "grid.x_min" in kv:
        h_min = scale(ladder.eps_min)
        nx_raw = kv.get("grid.nx", "auto")
        x_min, x_max = float(kv["grid.x_min"]), float(kv["grid.x_max"])
        if nx_raw == "auto":
            nx = int(np.ceil((x_max - x_min) / (h_min / 16.0)))
        else:
            nx = int(nx_raw)
        try:
            grid = Grid1D(x_min, x_max, nx, float(kv["grid.t_end"]), float(kv.get("grid.cfl", 0.45)))
            grid.check_resolution(h_min)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
    analyses = tuple(a for a in kv.get("analyses", "").split(",") if a)
    for a in analyses:
        if a not in ("detect", "energy", "associate", "oracle_compare", "corner", "abel"):
            raise ValidationError(f"field 'analyses': unknown analysis {a!r}")
    if problem in ("wave_x", "wave_t", "radial_odd") and coeff is None:
        raise ValidationError(f"problem {problem!r} requires a coefficient section")
    if problem == "radial_odd" and kv.get("data.u0", "zero") != "zero":
        raise ValidationError("radial problems require data.u0=zero")
    if kv.get("solver.limiter", "vanleer") not in LIMITERS:
        raise ValidationError(f"field 'solver.limiter': unknown limiter {kv['solver.limiter']!r}")
    if "detect" in analyses and problem in DETECT_KINDS:
        kind = kv.get("detect.kind") or DETECT_KINDS[problem]
        if kind not in DETECT_KINDS.values():
            raise ValidationError(f"field 'detect.kind': unknown kind {kind!r}")
        if kind == "x_jump_delta" and _delta_x0(kv.get("data.u1", "zero")) is None:
            raise ValidationError("detect.kind=x_jump_delta requires data.u1=delta:x0")
    return Scenario(sid, problem, kv, coeff, moll, scale, ladder, grid, analyses, dict(kv))


def _delta_x0(spec: str) -> float | None:
    """x0 of 'delta:x0' data, None for any other data spec."""
    kind, _, arg = spec.partition(":")
    try:
        return float(arg) if kind == "delta" else None
    except ValueError:
        return None


def _profile(spec: str, grid: Grid1D | None):
    """Data profile from 'zero' | 'delta:x0' | 'bump:x0,w' | 'quadratic'."""
    if spec in ("", "zero"):
        return None, None
    kind, _, args = spec.partition(":")
    if kind == "delta":
        x0 = float(args)
        return delta_profile(x0), delta_profile_deriv(x0)
    if kind == "bump":
        x0, w = (float(v) for v in args.split(","))
        bm = Mollifier()
        f = lambda x: phi_eval(bm, (np.asarray(x, dtype=float) - x0) / w)
        from .mollifier import phi_deriv

        fd = lambda x: phi_deriv(bm, (np.asarray(x, dtype=float) - x0) / w, 1) / w
        return f, fd
    if kind == "quadratic":
        if grid is None:
            raise ValidationError("quadratic data needs a grid")
        bm = Mollifier("bump")
        span = grid.x_max - grid.x_min
        a = grid.x_min + 0.75 * span / 6.0  # cutoff ramps inside the outer quarter
        lo, hi = grid.x_min + span / 8.0, grid.x_max - span / 8.0
        w = span / 16.0

        def chi(x):
            x = np.asarray(x, dtype=float)
            return phi_antideriv(bm, (x - lo) / w) * (1.0 - phi_antideriv(bm, (x - hi) / w))

        return (lambda x: 0.5 * np.asarray(x, dtype=float) ** 2 * chi(x)), None
    raise ValidationError(f"unknown data spec {spec!r}")


def _store_times(kv, grid):
    raw = kv.get("solver.store_times", "")
    if raw:
        return sorted(float(v) for v in raw.split(","))
    return np.linspace(0.0, grid.t_end, 23)


def run_scenario(scn: Scenario, outdir: Path, threads: int | None = None) -> int:
    outdir = outdir / scn.id
    outdir.mkdir(parents=True, exist_ok=True)
    kv = scn.raw
    rcs = [RegularizedCoeff(scn.coefficient, scn.mollifier, scn.scale, e) for e in scn.ladder] if scn.coefficient else []
    report_lines = [f"scenario={scn.id}", f"problem={scn.problem}"]

    if scn.problem == "corner_3_6":
        rows = ["eps,t,dgamma,expected1,d2gamma,expected2,d3gamma,expected3"]
        from .coefficients import CoeffAntideriv

        a = phi_eval(scn.mollifier, 0.0)
        for rc in rcs:
            cv = CharCurve.x_dependent(CoeffAntideriv(rc))
            h = rc.h
            for t in _floats(kv.get("corner.times", "0.5,1.0")):
                (g1, g2, g3), _ = gamma_partials(cv, t, 0.0)
                rows.append(
                    f"{float(rc.eps)!r},{t},{g1!r},{2 / 3},{g2!r},{-4 * a / (9 * h)!r},"
                    f"{g3!r},{16 * a * a / (27 * h * h)!r}"
                )
        (outdir / "corner.csv").write_text("\n".join(rows) + "\n")
        report_lines.append("corner=written")
        (outdir / "report.txt").write_text("\n".join(report_lines) + "\n")
        return 0

    if scn.problem == "radial_even_abel":
        w0 = lambda r: np.exp(-4.0 * np.asarray(r, dtype=float) ** 2)
        vf = lambda r: abel_forward(lambda t, rr: w0(rr), 0.0, r)
        wi = abel_invert(vf, fd_step=1e-5)
        rr = np.linspace(-1.5, 1.5, 61)
        err = float(np.max(np.abs(wi(rr) - w0(rr))))
        rows = ["r,w,roundtrip"]
        for r in rr:
            rows.append(f"{r:.6g},{w0(r):.10g},{float(wi(r)):.10g}")
        (outdir / "abel.csv").write_text("\n".join(rows) + "\n")
        report_lines.append(f"abel_roundtrip_max_err={err:.3e}")
        (outdir / "report.txt").write_text("\n".join(report_lines) + "\n")
        return 0

    if scn.problem in ("tanh_example_2", "tanh_example_3", "transport"):
        grid = scn.grid
        u0, _ = _profile(kv.get("data.u0", "bump:0.0,0.5"), grid)
        if scn.problem == "tanh_example_2":
            # converging flow c = -tanh(x/eps): limit u0(x+t) / u0(x-t)
            curves = [CharCurve.tanh_minus(e) for e in scn.ladder]
            limit = two_region_limit(u0)
        elif scn.problem == "tanh_example_3":
            # diverging flow c = +tanh(x/eps): three-region limit
            curves = [CharCurve.tanh_plus(e) for e in scn.ladder]
            limit = three_region_limit(u0)
        else:
            curves = rcs
            limit = None
        fam = solve_transport(curves, u0, grid, store_times=_store_times(kv, grid), scenario_id=scn.id)
        save_family(fam, outdir / "family")
        if "associate" in scn.analyses and limit is not None:
            psi = TestFunction(
                float(kv.get("associate.t0", 0.5)),
                float(kv.get("associate.x0", 0.0)),
                float(kv.get("associate.radius", 0.3)),
            )
            pairings = [pair_gridded(r.times, r.xs, r.fields["u"], psi) for r in fam]
            tt = np.linspace(psi.t_support[0], psi.t_support[1], 401)
            xx = np.linspace(psi.x_support[0], psi.x_support[1], 801)
            target = float(
                np.trapezoid(np.trapezoid(limit(tt[:, None], xx[None, :]) * psi(tt[:, None], xx[None, :]), xx, axis=1), tt)
            )
            v = associate_check(fam.eps_values, pairings, target)
            report_lines.append(f"associate={'PASS' if v.passed else 'FAIL'} final_err={v.errors[-1]:.3e}")
        (outdir / "report.txt").write_text("\n".join(report_lines) + "\n")
        return 0

    grid = scn.grid
    store_times = _store_times(kv, grid)
    u0, u0d = _profile(kv.get("data.u0", "zero"), grid)
    u1_spec = kv.get("data.u1", "zero")
    conservative = kv.get("solver.conservative", "false").lower() == "true"
    limiter = kv.get("solver.limiter", "vanleer")
    want_vw = "energy" in scn.analyses

    if scn.problem == "wave_x":
        u1, _ = _profile(u1_spec, grid)
        fam = solve_wave_x(
            rcs, u0, u1, grid, u0_deriv=u0d, conservative=conservative, limiter=limiter,
            store_times=store_times, store_dtype=np.float32 if not want_vw else np.float64,
            store_vw=want_vw, scenario_id=scn.id, threads=threads,
        )
    elif scn.problem == "wave_t":
        if u1_spec == "matched":
            # u1 = c(0) * u0': cancels the left-moving characteristic component
            if u0 is None or u0d is None:
                raise ValidationError("data.u1=matched requires differentiable nonzero data.u0")
            c00 = scn.coefficient(0.0)
            if isinstance(u0d, PerEps):
                u1 = PerEps(lambda rc, d=u0d: (lambda x, f=d(rc): c00 * f(x)))
            else:
                u1 = lambda x: c00 * u0d(x)
        else:
            u1, _ = _profile(u1_spec, grid)
        fam = solve_wave_t(
            rcs, u0, u1, grid, u0_deriv=u0d, store_times=store_times,
            store_vw=want_vw, scenario_id=scn.id, threads=threads,
        )
    elif scn.problem == "radial_odd":
        fam = solve_radial_odd(rcs, int(kv.get("radial.d", 3)), grid, store_times=store_times,
                               scenario_id=scn.id, threads=threads)
    else:
        raise ValidationError(f"problem {scn.problem!r} has no run handler")

    save_family(fam, outdir / "family")

    if "detect" in scn.analyses:
        kind = kv.get("detect.kind") or DETECT_KINDS[scn.problem]
        vals = scn.coefficient.values
        rays = predict_singsupp(
            kind, c0=vals[0], c1=vals[-1], standard_scale=scn.scale.kind == "standard",
            x0=_delta_x0(kv["data.u1"]) if kind == "x_jump_delta" else 0.0,
        )
        rep = classify(
            fam, rays, h_fn=scn.scale,
            theta=float(kv.get("detect.theta", 0.5)),
            alpha_hi=int(kv.get("detect.alpha_hi", 2)),
            times=[float(v) for v in kv["detect.times"].split(",")] if "detect.times" in kv else None,
            t_skip=float(kv.get("detect.t_skip", 0.1)),
        )
        report_csv(rep, outdir / "detect.csv")
        report_svg(rep, outdir / "detect.svg")
        (outdir / "detect_verdict.txt").write_text(verdict_text(rep))
        report_lines.append(f"detect precision={rep.precision:.3f} recall={rep.recall:.3f}")

    if "energy" in scn.analyses:
        form = "conservative_x" if scn.problem == "wave_x" else "nonconservative_t"
        for rec in fam:
            tr = energy_trace(rec, form)
            trace_csv(tr, outdir / f"energy_eps{rec.eps:.6g}.csv")
            line = f"energy eps={rec.eps:.4g} drift={tr.max_relative_drift:.3e}"
            if form == "nonconservative_t":
                rc = next(r for r in rcs if abs(r.eps - rec.eps) < 1e-15)
                bound = gronwall_bound(rc, grid.t_end)
                ok = bool(np.all(tr.E <= tr.E[0] * bound * (1.0 + 1e-6)))
                line += f" gronwall={'PASS' if ok else 'FAIL'} bound={bound:.4g}"
            report_lines.append(line)

    if "associate" in scn.analyses and scn.problem == "wave_x":
        psi = TestFunction(
            float(kv.get("associate.t0", 1.8)),
            float(kv.get("associate.x0", 0.3)),
            float(kv.get("associate.radius", 0.15)),
        )
        vals = scn.coefficient.values
        target = pair_delta_oracle(vals[0], vals[-1], psi)
        pairings = [pair_gridded(r.times, r.xs, r.fields["u"], psi) for r in fam]
        v = associate_check(fam.eps_values, pairings, target)
        report_lines.append(f"associate={'PASS' if v.passed else 'FAIL'} final_err={v.errors[-1]:.3e}")

    if "oracle_compare" in scn.analyses and scn.problem == "wave_x":
        vals = scn.coefficient.values
        rec = fam.records[-1]
        t = rec.times[int(0.8 * len(rec.times))]
        uo = delta_solution_eval(vals[0], vals[-1], float(t), rec.xs)
        mask = np.ones(rec.xs.shape, dtype=bool)
        h = rec.meta.get("h", rec.eps)
        for ray in predict_singsupp("x_jump_delta", c0=vals[0], c1=vals[-1]):
            if ray.t_min <= t <= ray.t_max:
                mask &= np.abs(rec.xs - float(np.asarray(ray.curve(t)))) > 4 * h
        err = float(np.max(np.abs(rec.slice_at(float(t)) - uo)[mask]))
        report_lines.append(f"oracle_compare t={float(t):.3g} off_ray_err={err:.3e}")

    (outdir / "report.txt").write_text("\n".join(report_lines) + "\n")
    return 0


def bundled_scenarios() -> dict:
    out = {}
    root = resources.files("colwave") / "scenarios"
    for entry in sorted(root.iterdir()):
        if entry.name.endswith(".scn"):
            out[entry.name[:-4]] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="colwave", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="run a scenario end to end")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--threads", type=int, default=None)
    p_run.add_argument("--ladder-override", default=None, metavar="eps0,ratio,count")
    p_val = sub.add_parser("validate", help="static checks only")
    p_val.add_argument("scenario")
    sub.add_parser("list", help="list bundled scenarios")
    ns = ap.parse_args(argv)

    if ns.verb == "list":
        for name in bundled_scenarios():
            print(name)
        return 0

    target = ns.scenario
    bundled = bundled_scenarios()
    if target in bundled:
        with resources.as_file(bundled[target]) as p:
            return _dispatch(ns, p)
    return _dispatch(ns, Path(target))


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
        return run_scenario(scn, Path(ns.out), ns.threads)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
