"""The run of a validated scenario: its solve, its analyses and report.txt.

colwave.cli imports this module for `colwave run` only, once the scenario is
valid, so numpy and the numerics load for runs alone.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path

import numpy as np

from .characteristics import TanhFlow, gamma_partials
from .cli import PROBLEMS, STORE_STEPS, DataSpec, Scenario
from .coefficients import RegularizedCoeff
from .detector import classify, predict_singsupp, report_csv, report_svg, verdict_text
from .energy import energy_trace, gronwall_bound, trace_csv
from .mollifier import phi_antideriv, phi_deriv, phi_eval
from .oracle import (DeltaInterface, associate_check, delta_jump_locus, delta_solution_eval, pair_delta_oracle,
                     pair_gridded, three_region_limit, two_region_limit)
from .solvers import (SolutionFamily, delta_profile, delta_profile_deriv, save_family, solve_radial_odd,
                      solve_transport, solve_wave_t, solve_wave_x, speed_impedance, with_support)
from .spec import Grid1D, Mollifier

CORNER_TOL = 0.005  # relative error of the corner flow derivatives (Criterion 1)

# tanh transport examples: the sign of their TanhFlow and the distributional limit of u0
TANH = {
    "tanh_example_2": (1.0, two_region_limit),  # converging: u0(x+t) / u0(x-t)
    "tanh_example_3": (-1.0, three_region_limit),  # diverging: three regions
}


class Run(Scenario):
    """A validated Scenario with the numerics its solve and analyses share, each built once."""

    @cached_property
    def rcs(self) -> list:
        return [RegularizedCoeff(self.coefficient, self.mollifier, self.scale, e) for e in self.ladder]

    def data(self, member) -> tuple:
        """(u0, u0', u1) profiles of a ladder member, None for zero data: delta data
        mollified at the member's eps, u1=matched c_eps(0) u0' with antiderivative c_eps(0) u0."""
        u0, u0d = _profile(self.u0, self.grid, member)
        if self.u1.kind != "matched":
            return u0, u0d, _profile(self.u1, self.grid, member)[0]
        c00 = member(0.0)  # the solve's c_eps(0): V = u1 - c_eps(0) u0', the right-moving family, starts at 0
        return u0, u0d, with_support(lambda x: c00 * u0d(x), *u0d.support, lambda x: c00 * u0(x))

    @cached_property
    def interface(self) -> DeltaInterface:
        """wave_x: speed and impedance on each side of the one breakpoint, and the data.u1 delta."""
        (am, zm), (ap, zp) = (speed_impedance(c, self.opts["solver.conservative"]) for c in self.coefficient.values)
        return DeltaInterface(am, ap, zm, zp, self.coefficient.breakpoints[0], self.u1.x0)

    @property
    def store_times(self):
        times = self.opts["solver.store_times"]
        return np.linspace(0.0, self.grid.t_end, STORE_STEPS) if times is None else times


# --- solves: Run, ladder member -> SolutionRecord ---------------------------

def _solve_transport(scn: Run, member):
    return solve_transport(member, scn.data(member)[0], scn.grid, scn.store_times)


def _solve_wave(scn: Run, rc: RegularizedCoeff):
    u0, u0d, u1 = scn.data(rc)
    common = dict(u0_deriv=u0d, store_vw="energy" in scn.analyses)
    if scn.coefficient.variable == "time":
        return solve_wave_t(rc, u0, u1, scn.grid, scn.store_times, **common)
    return solve_wave_x(rc, u0, u1, scn.grid, scn.store_times, conservative=scn.opts["solver.conservative"],
                        store_dtype=np.float32, **common)


def _solve_radial_odd(scn: Run, rc: RegularizedCoeff):
    return solve_radial_odd(rc, scn.grid, scn.store_times)


# the member solve of each problem that has one (corner_3_6 evaluates closed forms only)
SOLVES = {"transport": _solve_transport, "wave_x": _solve_wave, "wave_t": _solve_wave,
          "radial_odd": _solve_radial_odd, "tanh_example_2": _solve_transport, "tanh_example_3": _solve_transport}


# --- analyses: Run, family, output directory -> report.txt line(s) ----------

def _detect(scn: Run, fam, outdir: Path) -> str:
    kind = PROBLEMS[scn.problem].detect_kind
    if kind == "x_jump_delta":
        m = scn.interface
        where = dict(c0=m.a_minus, c1=m.a_plus, interface=m.b, x0=m.x0)
    else:  # t_jump: the point data sit at one x0 (_check_geometry); radial_odd has none, its data sit at r = 0
        (c0, c1), (b,) = scn.coefficient.values, scn.coefficient.breakpoints
        x0 = next((d.x0 for d in (scn.u0, scn.u1) if d.kind == "delta"), 0.0)
        where = dict(c0=c0, c1=c1, t_jump=b, x0=x0)
    rays = predict_singsupp(kind, standard_scale=scn.scale.kind == "standard", **where)
    o = scn.opts
    rep = classify(fam, rays, h_fn=scn.scale, times=o["detect.times"], theta=o["detect.theta"],
                   alpha_hi=o["detect.alpha_hi"], t_skip=o["detect.t_skip"])
    report_csv(rep, outdir / "detect.csv")
    report_svg(rep, outdir / "detect.svg")
    (outdir / "detect_verdict.txt").write_text(verdict_text(rep))
    return f"detect precision={rep.precision:.3f} recall={rep.recall:.3f}"


def _energy(scn: Run, fam, outdir: Path) -> str:
    lines, time = [], scn.coefficient.variable == "time"
    for rec, rc in zip(fam, scn.rcs):
        # rho = Z/a: 1 for dtt u = c(t)^2 dxx u, else of the solved form as wave_x evaluates it
        a, z = (1.0, 1.0) if time else speed_impedance(rc(rec.xs), scn.opts["solver.conservative"])
        tr = energy_trace(rec, z / a)
        trace_csv(tr, outdir / f"energy_eps{rec.eps:.6g}.csv")
        line = f"energy eps={rec.eps:.4g} drift={tr.max_relative_drift:.3e}"
        if time:
            bound = gronwall_bound(rc, scn.grid.t_end)
            ok = bool(np.all(tr.E <= tr.E[0] * bound * (1.0 + 1e-6)))
            line += f" gronwall={'PASS' if ok else 'FAIL'} bound={bound:.4g}"
        lines.append(line)
    return "\n".join(lines)


def _associate(scn: Run, fam, outdir: Path) -> str:
    psi = scn.psi
    if scn.problem in TANH:
        limit = TANH[scn.problem][1](_profile(scn.u0, scn.grid, None)[0])  # tanh data depend on no member
        tt, xx = np.linspace(*psi.t_support, 401), np.linspace(*psi.x_support, 801)
        target = pair_gridded(tt, xx, limit(tt[:, None], xx[None, :]), psi)
    else:
        target = pair_delta_oracle(scn.interface, psi)
    pairings = [pair_gridded(r.times, r.xs, r.fields["u"], psi) for r in fam]
    v = associate_check(fam.eps_values, pairings, target)
    return f"associate={'PASS' if v.passed else 'FAIL'} final_err={v.errors[-1]:.3e}"


def _oracle_compare(scn: Run, fam, outdir: Path) -> str:
    rec = fam.records[-1]
    t = float(rec.times[int(0.8 * len(rec.times))])
    mask = np.ones(rec.xs.shape, dtype=bool)
    h = scn.scale(rec.eps)
    for _, curve, (t_min, t_max) in delta_jump_locus(scn.interface):
        if t_min <= t <= t_max:
            mask &= np.abs(rec.xs - float(curve(t))) > 4 * h
    off_ray = np.abs(rec.slice_at(t) - delta_solution_eval(scn.interface, t, rec.xs))[mask]
    err = float(np.max(off_ray)) if off_ray.size else np.nan  # nan: the masks cover the grid
    return f"oracle_compare t={t:.3g} off_ray_err={err:.3e}"


def _corner(scn: Run, fam, outdir: Path) -> str:
    rows = ["eps,t,dgamma,expected1,d2gamma,expected2,d3gamma,expected3"]
    a = phi_eval(scn.mollifier, 0.0)
    (c0, c1), (b,) = scn.coefficient.values, scn.coefficient.breakpoints
    s, d = c0 + c1, c1 - c0
    worst = 0.0
    for rc in scn.rcs:
        h = rc.h
        for t in scn.opts["corner.times"]:
            got = gamma_partials(rc, t, b)
            # the foot past the kernel sees c0; at b, c_eps = s/2, c_eps' = a d/h and c_eps'' = 0
            want = (2 * c0 / s, -4 * a * c0 * d / (s * s * h), 16 * a * a * c0 * d * d / (s**3 * h * h))
            rows.append(f"{float(rc.eps)!r},{t}," + ",".join(f"{g!r},{w!r}" for g, w in zip(got, want)))
            worst = max(worst, *(abs(g - w) / abs(w) for g, w in zip(got, want)))
    (outdir / "corner.csv").write_text("\n".join(rows) + "\n")
    return f"corner={'PASS' if worst <= CORNER_TOL else 'FAIL'} worst_rel_err={worst:.3e}"


ANALYSES = dict(detect=_detect, energy=_energy, associate=_associate, oracle_compare=_oracle_compare,
                corner=_corner)


def _profile(spec: DataSpec, grid: Grid1D | None, member):
    """Data profile and its derivative of a parsed data spec other than matched, delta data
    mollified at the ladder member's eps; None for zero data."""
    if spec.kind == "delta":
        return delta_profile(spec.x0, member), delta_profile_deriv(spec.x0, member)
    if spec.kind == "bump":
        bm, x0, w = Mollifier(), spec.x0, spec.w
        f = lambda x: phi_eval(bm, (np.asarray(x, dtype=float) - x0) / w)
        fd = lambda x: phi_deriv(bm, (np.asarray(x, dtype=float) - x0) / w, 1) / w
        F = lambda x: w * phi_antideriv(bm, (np.asarray(x, dtype=float) - x0) / w)
        return with_support(f, x0 - w, x0 + w, F), with_support(fd, x0 - w, x0 + w)
    if spec.kind == "quadratic":  # only problems with a grid read data
        bm = Mollifier("bump")
        span = grid.x_max - grid.x_min
        lo, hi = grid.x_min + span / 8.0, grid.x_max - span / 8.0
        w = span / 16.0

        def chi(x):
            x = np.asarray(x, dtype=float)
            return phi_antideriv(bm, (x - lo) / w) * (1.0 - phi_antideriv(bm, (x - hi) / w))

        return with_support(lambda x: 0.5 * np.asarray(x, dtype=float) ** 2 * chi(x), lo - w, hi + w), None
    return None, None


def run_scenario(scn: Scenario, outdir: Path) -> int:
    """Solve SCN one ladder member after the other and run its analyses into OUTDIR, an
    existing directory: family/, the artifacts, report.txt."""
    scn = Run(**vars(scn))
    fam = None
    if scn.problem in SOLVES:
        tanh = TANH.get(scn.problem)
        members = [TanhFlow(e, tanh[0]) for e in scn.ladder] if tanh else scn.rcs
        records = [SOLVES[scn.problem](scn, m) for m in members]
        fam = SolutionFamily(scn.id, "transport" if tanh else scn.problem, records)
        save_family(fam, outdir / "family")
    lines = [f"scenario={scn.id}", f"problem={scn.problem}"]
    lines += [ANALYSES[a](scn, fam, outdir) for a in PROBLEMS[scn.problem].analyses if a in scn.analyses]
    (outdir / "report.txt").write_text("\n".join(lines) + "\n")
    return 0
