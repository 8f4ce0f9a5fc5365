"""Independent references and output checks for the colwave benchmark.

Nothing here imports colwave: the families are read from their raw files, the
mollifier, the regularized speeds, the exact solutions, the ray geometry and
the pairings are coded again from their definitions (see FORMATS.md and the
scenario files).  Each ``check_*`` function takes the output directory of one
``colwave run`` and returns ``(checks, ref_err)``: a list of
``(name, ok, detail)`` triples and the operation's reference error (or None).

Tolerances are the acceptance-gate tolerances where the gate has one
(plateau 1%, amplitude ratios 5%, association 1e-2, corner 0.5%, spherical
shell 1e-4); the others are stated next to the check with their reason.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

# polynomial mollifier of order 2 (the only family the scenarios use):
# phi(z) = A (1 - z^2)^2 on |z| < 1, A = 15/16
A2 = 15.0 / 16.0
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
ASSOC_TOL = 1e-2
REPORT_ROUNDING = 6e-4  # report.txt prints precision/recall with 3 decimals


def phi(z):
    z = np.asarray(z, dtype=float)
    return np.where(np.abs(z) < 1.0, A2 * (1.0 - z * z) ** 2, 0.0)


def Phi(z):
    """Antiderivative of phi with Phi(-1) = 0, Phi(1) = 1."""
    z = np.clip(np.asarray(z, dtype=float), -1.0, 1.0)
    return 0.5 + A2 * (z - 2.0 * z**3 / 3.0 + z**5 / 5.0)


def shell_moment(z):
    """M(z) = int_{-1}^z y phi(y) dy = -A (1 - z^2)^3 / 6, zero outside [-1, 1]."""
    z = np.clip(np.asarray(z, dtype=float), -1.0, 1.0)
    return -A2 * (1.0 - z * z) ** 3 / 6.0


def ladder(eps0, ratio, count):
    return eps0 * ratio ** np.arange(count)


# --- reading colwave output ---------------------------------------------------

def read_kv(path: Path) -> dict:
    kv = {}
    for line in Path(path).read_text().splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            kv[k.strip()] = v.strip()
    return kv


class Record:
    def __init__(self, eps, grid, times, fields):
        self.eps, self.times, self.fields = eps, times, fields
        self.x_min, self.x_max, self.nx, self.t_end, self.cfl = grid
        self.dx = (self.x_max - self.x_min) / self.nx

    def xs(self, name="u"):
        n = self.fields[name].shape[1]
        return self.x_min + self.dx * np.arange(n)  # nx+1 nodes, or nx periodic

    def at(self, t, name="u"):
        return self.fields[name][int(np.argmin(np.abs(self.times - t)))]


def load_family(famdir: Path) -> list:
    """Records in manifest order (largest eps first), fields memory-mapped."""
    famdir = Path(famdir)
    kv = read_kv(famdir / "manifest.txt")
    if (kv.get("byte_order"), kv.get("dtype")) != ("little", "float64"):
        raise ValueError("family is not little-endian float64")
    recs = []
    for i in range(int(kv["n_records"])):
        g = kv[f"record.{i}.grid"].split(",")
        grid = (float(g[0]), float(g[1]), int(g[2]), float(g[3]), float(g[4]))
        times = np.array([float(t) for t in kv[f"record.{i}.times"].split(",")])
        fields = {}
        for name in kv[f"record.{i}.fields"].split(","):
            shape = tuple(int(s) for s in kv[f"record.{i}.shape.{name}"].split("x"))
            fields[name] = np.memmap(
                famdir / kv[f"record.{i}.file.{name}"], dtype="<f8", mode="r", shape=shape
            )
        recs.append(Record(float(kv[f"record.{i}.eps"]), grid, times, fields))
    return recs


def read_detect_csv(path: Path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 0], rows[:, 1], rows[:, 2] > 0.5


def read_report(outdir: Path) -> list:
    return (Path(outdir) / "report.txt").read_text().splitlines()


def report_value(report: list, prefix: str, key: str) -> float:
    """Value of KEY on the report.txt line that starts with PREFIX."""
    for line in report:
        if line.startswith(prefix):
            for tok in line.split():
                if tok.startswith(key + "="):
                    return float(tok.split("=", 1)[1])
    raise KeyError(f"{prefix} {key} not in report.txt")


def _family_checks(recs, eps_expected, fields):
    eps = np.array([r.eps for r in recs])
    ok = len(recs) == len(eps_expected) and np.allclose(
        np.sort(eps)[::-1], eps_expected, rtol=1e-12, atol=0.0
    )
    finite = all(np.isfinite(np.asarray(r.fields[f])).all() for r in recs for f in fields)
    have = all(f in r.fields for r in recs for f in fields)
    return [
        ("family.ladder", bool(ok), f"{len(recs)} records, eps {eps.min():.4g}..{eps.max():.4g}"),
        ("family.fields_finite", bool(finite and have), f"fields {fields}"),
    ]


# --- detector scoring in the predicted ray geometry ---------------------------

def score_detect(t, x, flags, rays, tube, detect_times, x_lo, x_hi):
    """(precision, recall) of flagged cells against rays [(curve, t_min, t_max)]."""
    ft, fx = t[flags], x[flags]
    if ft.size:
        near = np.zeros(ft.size, dtype=bool)
        for curve, t0, t1 in rays:
            inside = (ft >= t0 - 1e-12) & (ft <= t1 + 1e-12)
            near |= inside & (np.abs(fx - curve(ft)) <= tube)
        precision = float(near.mean())
    else:
        precision = 1.0
    hits = total = 0
    for curve, t0, t1 in rays:
        for tt in detect_times:
            if not t0 - 1e-12 <= tt <= t1 + 1e-12:
                continue
            rx = float(curve(np.float64(tt)))
            if rx < x_lo or rx > x_hi:
                continue
            total += 1
            sel = fx[np.abs(ft - tt) < 1e-9]
            hits += bool(sel.size and np.min(np.abs(sel - rx)) <= tube)
    return precision, (hits / total if total else 1.0)


def _detect_checks(outdir, report, rays, tube, fold_abs=False, floor=0.9):
    t, x, flags = read_detect_csv(Path(outdir) / "detect.csv")
    times = sorted(set(np.round(t, 10)))
    if fold_abs:
        x = np.abs(x)
    prec, rec = score_detect(t, x, flags, rays, tube, times, float(x.min()), float(x.max()))
    rp = report_value(report, "detect", "precision")
    rr = report_value(report, "detect", "recall")
    where = "|x| against the r >= 0 rays" if fold_abs else "x against the rays"
    return [
        ("detect.own_scoring", prec >= floor and rec >= floor,
         f"scored in {where}: precision {prec:.4f} recall {rec:.4f} (>= {floor}), "
         f"{int(flags.sum())} of {flags.size} cells flagged"),
        ("detect.report_matches_own_scoring",
         abs(rp - prec) <= REPORT_ROUNDING and abs(rr - rec) <= REPORT_ROUNDING,
         f"report.txt precision={rp:.3f} recall={rr:.3f}, own {prec:.4f} / {rec:.4f}"),
    ]


# --- xjump: speed c0 -> c1 at x = xb, imbedded delta at x0 < xb ---------------

def xjump_fronts(c0, c1, x0, xb):
    tc = (xb - x0) / c0
    return [
        (lambda t: x0 - c0 * t, 0.0, np.inf),               # incident, left-moving
        (lambda t: x0 + c0 * t, 0.0, tc),                   # incident, right-moving
        (lambda t: xb - c0 * (t - tc), tc, np.inf),         # reflected
        (lambda t: xb + c1 * (t - tc), tc, np.inf),         # transmitted
    ]


def xjump_exact(c0, c1, x0, xb, t, x):
    """u for u0 = 0, u1 = delta(x - x0) with u and u_x continuous at xb.

    Incident plateau 1/(2 c0); reflection R = (c1-c0)/(c0+c1), transmission
    T = 2 c1/(c0+c1) (amplitude ratios of u for dtt u = c^2 dxx u).
    """
    t, x = np.broadcast_arrays(np.asarray(t, float), np.asarray(x, float))
    tc = (xb - x0) / c0
    R, T = (c1 - c0) / (c0 + c1), 2.0 * c1 / (c0 + c1)
    inc = ((x > x0 - c0 * t) & (x < np.minimum(x0 + c0 * t, xb))).astype(float)
    refl = (t > tc) & (x < xb) & (x > xb - c0 * (t - tc))
    trans = (t > tc) & (x > xb) & (x < xb + c1 * (t - tc))
    return (inc + R * refl + T * trans) / (2.0 * c0)


def _trapezoid_pairing(times, xs, u, pt, px):
    """trapezoid-in-x then trapezoid-in-t pairing with psi = pt(t) px(x)."""
    inner = np.trapezoid(np.asarray(u) * px[None, :], xs, axis=1) * pt
    return float(np.trapezoid(inner, times))


def xjump_limit_pairing(c0, c1, x0, xb, tc0, xc0, r):
    """<u, psi> for psi = phi((t-tc0)/r) phi((x-xc0)/r) / r^2, exact in x.

    At fixed t, u is piecewise constant, so the x-integral is a sum of Phi
    differences; in t the integrand is a polynomial between the times at
    which a front crosses the x-support, so Gauss-Legendre on those pieces
    is exact up to rounding.
    """
    fronts = xjump_fronts(c0, c1, x0, xb)
    tc = (xb - x0) / c0
    lo, hi = max(tc0 - r, 0.0), tc0 + r
    cuts = {lo, hi, tc}
    for edge in (xc0 - r, xc0 + r):
        for speed, start_t, start_x in ((-c0, 0.0, x0), (c0, 0.0, x0), (-c0, tc, xb), (c1, tc, xb)):
            tt = start_t + (edge - start_x) / speed
            cuts.add(tt)
    cuts = sorted(c for c in cuts if lo <= c <= hi)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        ts = 0.5 * (a + b) + 0.5 * (b - a) * GL_NODES
        vals = []
        for t in ts:
            pts = sorted({xc0 - r, xc0 + r, *[
                float(f(t)) for f, t0, t1 in fronts if t0 <= t <= t1
            ], xb})
            pts = [p for p in pts if xc0 - r <= p <= xc0 + r]
            acc = 0.0
            for p, q in zip(pts[:-1], pts[1:]):
                uval = float(xjump_exact(c0, c1, x0, xb, t, 0.5 * (p + q)))
                acc += uval * (Phi((q - xc0) / r) - Phi((p - xc0) / r))
            vals.append(acc * phi((t - tc0) / r) / r)
        total += 0.5 * (b - a) * float(np.dot(GL_WEIGHTS, vals))
    return total


def check_xjump(outdir: Path, p: dict):
    """thm41: rays, plateau, amplitude ratios, off-ray error, association."""
    c0, c1, x0, xb = p["c0"], p["c1"], p["x0"], p["xb"]
    recs = load_family(Path(outdir) / "family")
    report = read_report(outdir)
    checks = _family_checks(recs, ladder(*p["ladder"]), ["u"])
    fin = min(recs, key=lambda r: r.eps)
    xs = fin.xs()
    h = fin.eps  # standard scale
    plateau_ref = (1.0 + (c1 - c0) / (c0 + c1)) / (2.0 * c0)
    plateau = float(fin.at(p["plateau_t"])[np.argmin(np.abs(xs - p["plateau_x"]))])
    checks.append(("xjump.plateau", abs(plateau - plateau_ref) <= 0.01 * plateau_ref,
                   f"u({p['plateau_t']}, {p['plateau_x']}) = {plateau:.5f}, exact {plateau_ref:.5f} (1%)"))

    def jump(t, xr):
        u = fin.at(t)
        return float(u[np.argmin(np.abs(xs - (xr + 0.15)))] - u[np.argmin(np.abs(xs - (xr - 0.15)))])

    tc = (xb - x0) / c0
    t_in, t_out = p["incident_t"], p["plateau_t"]
    inc = abs(jump(t_in, x0 - c0 * t_in))
    r_ratio = abs(jump(t_out, xb - c0 * (t_out - tc))) / inc
    t_ratio = abs(jump(t_out, xb + c1 * (t_out - tc))) / inc
    r_ref, t_ref = (c1 - c0) / (c0 + c1), 2.0 * c1 / (c0 + c1)
    checks.append(("xjump.amplitude_ratios",
                   abs(r_ratio - r_ref) <= 0.05 * r_ref and abs(t_ratio - t_ref) <= 0.05 * t_ref,
                   f"reflected/incident {r_ratio:.5f} (exact {r_ref:.5f}), "
                   f"transmitted/incident {t_ratio:.5f} (exact {t_ref:.5f}) (5%)"))
    # off-ray error: nodes farther than 4h from every front, t >= t_off
    err = 0.0
    for i, t in enumerate(fin.times):
        if t < p["off_ray_t_min"]:
            continue
        mask = np.ones(xs.shape, dtype=bool)
        for f, t0, t1 in xjump_fronts(c0, c1, x0, xb):
            if t0 - 4 * h / c0 <= t <= t1 + 4 * h / c0:
                mask &= np.abs(xs - f(t)) > 4.0 * h
        err = max(err, float(np.max(np.abs(fin.fields["u"][i] - xjump_exact(c0, c1, x0, xb, t, xs))[mask])))
    checks.append(("xjump.off_ray_error", err <= 0.01 * plateau_ref,
                   f"finest member, t >= {p['off_ray_t_min']}: {err:.3e} (<= 1% of the plateau)"))
    # detector, scored in the predicted geometry with the 4 h(eps0) tube
    rays = xjump_fronts(c0, c1, x0, xb)
    checks += _detect_checks(outdir, report, rays, 4.0 * p["ladder"][0])
    # association with the piecewise-constant limit
    tc0, xc0, r = p["assoc"]
    pt = phi((fin.times - tc0) / r) / r
    px = phi((xs - xc0) / r) / r
    target = xjump_limit_pairing(c0, c1, x0, xb, tc0, xc0, r)
    own = abs(_trapezoid_pairing(fin.times, xs, fin.fields["u"], pt, px) - target)
    rep_err = report_value(report, "associate", "final_err")
    checks.append(("xjump.association", own <= ASSOC_TOL and abs(own - rep_err) <= 1e-4
                   and any(line.startswith("associate=PASS") for line in report),
                   f"finest pairing error {own:.4e} against the exact limit pairing "
                   f"{target:.6f} (<= {ASSOC_TOL}); report final_err {rep_err:.4e}"))
    return checks, err


# --- tjump: speed c0 -> c1 at t = tj, u1 = imbedded delta at 0 ----------------

def tjump_rays(c0, c1, tj):
    T = lambda t: np.where(t <= tj, c0 * t, c0 * tj + c1 * (t - tj))
    return [
        (lambda t: T(t), 0.0, np.inf),
        (lambda t: -T(t), 0.0, np.inf),
        (lambda t: 2.0 * T(tj) - T(t), tj, np.inf),
        (lambda t: -(2.0 * T(tj) - T(t)), tj, np.inf),
    ]


def tjump_reference(c0, c1, tj, eps, t, x):
    """d'Alembert before the jump; sharp-jump re-expansion after it.

    u0 = 0, u1 = phi_eps: F = -I/(2 c0), G = I/(2 c0) with I = Phi(./eps) - 1/2;
    after tj each family re-expands with (c1 + c0)/(2 c1) and (c1 - c0)/(2 c1).
    """
    I = lambda z: Phi(z / eps) - 0.5
    F = lambda z: -I(z) / (2.0 * c0)
    G = lambda z: I(z) / (2.0 * c0)
    if t <= tj:
        return F(x - c0 * t) + G(x + c0 * t)
    a, b = (c1 + c0) / (2.0 * c1), (c1 - c0) / (2.0 * c1)
    s = t - tj
    xm, xp = x - c1 * s, x + c1 * s
    return a * F(xm - c0 * tj) + b * G(xm + c0 * tj) + b * F(xp - c0 * tj) + a * G(xp + c0 * tj)


def check_tjump(outdir: Path, p: dict):
    """thm43a with energy: d'Alembert, re-expansion, energy, detector."""
    c0, c1, tj = p["c0"], p["c1"], p["tj"]
    recs = load_family(Path(outdir) / "family")
    report = read_report(outdir)
    checks = _family_checks(recs, ladder(*p["ladder"]), ["u", "v", "w"])
    pre_err, post_err = 0.0, {}
    e_csv_err = e_const = e_zero = 0.0
    e_bound_ok = True
    for rec in recs:
        xs, h = rec.xs(), rec.eps
        post = 0.0
        for i, t in enumerate(rec.times):
            u = rec.fields["u"][i]
            ref = tjump_reference(c0, c1, tj, rec.eps, t, xs)
            if t <= tj - h:
                pre_err = max(pre_err, float(np.max(np.abs(u - ref))))
            elif t >= tj + h:
                mask = np.ones(xs.shape, dtype=bool)
                for f, _, _ in tjump_rays(c0, c1, tj):
                    mask &= np.abs(xs - f(t)) > 4.0 * h
                post = max(post, float(np.max(np.abs(u - ref)[mask])))
        post_err[rec.eps] = post
        # energy: own sum over the periodic grid against energy_eps*.csv
        v, w = np.asarray(rec.fields["v"]), np.asarray(rec.fields["w"])
        E = 0.5 * (v * v + w * w).sum(axis=1) * rec.dx
        rows = np.loadtxt(Path(outdir) / f"energy_eps{rec.eps:.6g}.csv", delimiter=",", skiprows=1)
        e_csv_err = max(e_csv_err, float(np.max(np.abs(rows[:, 1] - E) / E[0])))
        E0_exact = A2 * A2 * (256.0 / 315.0) / rec.eps  # int phi_eps^2
        e_zero = max(e_zero, abs(E[0] - E0_exact) / E0_exact)
        before, after = rec.times <= tj - h, rec.times >= tj + h
        e_const = max(e_const, float(np.max(np.abs(E[before] - E[0]))) / E[0],
                      float(np.ptp(E[after])) / E[0])
        e_bound_ok &= bool(np.all(E <= E[0] * (c1 / c0) ** 2 * (1.0 + 1e-9)))
    fin_eps = min(post_err)
    ref_err = post_err[fin_eps]
    # the spectral solve is exact per mode; what is left is the trigonometric
    # interpolation of the sampled data, whose second derivative jumps at the
    # edges of its support: 1e-4 is 0.02% of the 1/(2 c0) plateau
    checks.append(("tjump.dalembert_before_window", pre_err <= 1e-4,
                   f"max |u - d'Alembert| for t <= 1 - h, all members: {pre_err:.3e} (<= 1e-4)"))
    checks.append(("tjump.reexpansion_after_window", ref_err <= 0.01 / (2.0 * c0),
                   f"finest member off-ray error after the window {ref_err:.3e} "
                   f"(<= 1% of the plateau); per member "
                   + ", ".join(f"{e:.4g}:{post_err[e]:.2e}" for e in sorted(post_err, reverse=True))))
    checks.append(("tjump.energy", e_bound_ok and e_const <= 1e-9 and e_csv_err <= 1e-9 and e_zero <= 1e-6,
                   f"relative change outside the window {e_const:.2e} (<= 1e-9), E <= E(0)(c1/c0)^2 "
                   f"{e_bound_ok}, energy csv vs own sum {e_csv_err:.1e}, E(0) vs "
                   f"int phi_eps^2 {e_zero:.1e} (<= 1e-6)"))
    checks += _detect_checks(outdir, report, tjump_rays(c0, c1, tj), 4.0 * p["ladder"][0])
    return checks, ref_err


def check_radial(outdir: Path, p: dict):
    """thm45_d3: constant-speed spherical shell before the window, detector in |x|."""
    c0, c1, tj = p["c0"], p["c1"], p["tj"]
    recs = load_family(Path(outdir) / "family")
    report = read_report(outdir)
    checks = _family_checks(recs, ladder(*p["ladder"]), ["u", "v"])
    err = 0.0
    for rec in recs:
        xs, h = rec.xs(), rec.eps
        r = np.abs(xs)
        mask = r > 0.1
        for i, t in enumerate(rec.times):
            if t <= 0.0 or t > tj - h:
                continue
            ref = h * (shell_moment((r + c0 * t) / h) - shell_moment((r - c0 * t) / h)) / (2.0 * c0 * np.where(mask, r, 1.0))
            err = max(err, float(np.max(np.abs(rec.fields["u"][i] - ref)[mask])))
    checks.append(("radial.spherical_shell_before_window", err <= 1e-4,
                   f"max |u - (1/(2cr)) int s phi_h(s) ds| for t <= 1 - h, |r| > 0.1: {err:.3e} (<= 1e-4)"))
    # r >= 0 rays: the transmitted shell T(t) and the refracted shell
    # |2T(tj) - T(t)|, which collapses through the origin and re-expands
    rays = [((lambda f: (lambda t: np.abs(f(t))))(f), t0, t1) for f, t0, t1 in tjump_rays(c0, c1, tj)[::2]]
    checks += _detect_checks(outdir, report, rays, 4.0 * p["ladder"][0], fold_abs=True)
    return checks, None


# --- transport: x-dependent speed with several jumps --------------------------

class SharpSpeed:
    """c(x) = values[i] between breakpoints, and its mollified regularization."""

    def __init__(self, breakpoints, values):
        self.b = np.asarray(breakpoints, dtype=float)
        self.v = np.asarray(values, dtype=float)
        # C(x) = int_0^x dy / c(y), piecewise affine through the breakpoints
        knots = np.unique(np.concatenate([[-1e3, 0.0, 1e3], self.b]))
        c_mid = self(0.5 * (knots[:-1] + knots[1:]))
        cum = np.concatenate([[0.0], np.cumsum(np.diff(knots) / c_mid)])
        cum -= np.interp(0.0, knots, cum)
        self.knots, self.cum = knots, cum

    def __call__(self, x):
        return self.v[np.searchsorted(self.b, np.asarray(x, dtype=float), side="right")]

    def mollified(self, x, h):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.v[0])
        for b, lo, hi in zip(self.b, self.v[:-1], self.v[1:]):
            out = out + (hi - lo) * Phi((x - b) / h)
        return out

    def C(self, x):
        return np.interp(x, self.knots, self.cum)

    def C_inv(self, y):
        return np.interp(y, self.cum, self.knots)

    def limit_foot(self, t, x):
        return self.C_inv(self.C(x) - t)


def bump_u0(x0, w):
    """data.u0=bump:x0,w of the scenario format: phi((x - x0)/w)."""
    return lambda x: phi((np.asarray(x, dtype=float) - x0) / w)


def feet_ivp(speed: SharpSpeed, h: float, ts, xs):
    """Feet gamma(t_i, x_i, 0) by integrating dX/ds = -t_i c_eps(X), s in [0, 1].

    The step is capped so that no node moves more than h per step and the
    error control cannot step over a kernel layer of width 2h.
    """
    ts = np.asarray(ts, dtype=float)
    sol = solve_ivp(
        lambda s, X: -ts * speed.mollified(X, h), (0.0, 1.0), np.asarray(xs, dtype=float),
        method="DOP853", rtol=1e-11, atol=1e-12, max_step=h / (float(ts.max()) * speed.v.max()),
    )
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y[:, -1]


def transport_limit_pairing(speed: SharpSpeed, u0_x0, u0_w, t, xc, r):
    """int u0(foot_0(t, x)) phi((x - xc)/r)/r dx, Gauss-Legendre between kinks."""
    lo, hi = xc - r, xc + r
    cuts = {lo, hi, *speed.b}
    for y in (*speed.b, u0_x0 - u0_w, u0_x0 + u0_w):
        cuts.add(float(speed.C_inv(speed.C(y) + t)))
    cuts = sorted(c for c in cuts if lo <= c <= hi)
    u0 = bump_u0(u0_x0, u0_w)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        xx = 0.5 * (a + b) + 0.5 * (b - a) * GL_NODES
        total += 0.5 * (b - a) * float(np.dot(GL_WEIGHTS, u0(speed.limit_foot(t, xx)) * phi((xx - xc) / r) / r))
    return total


def check_transport(outdir: Path, p: dict, rng: np.random.Generator):
    """Generated multi-jump transport: characteristic feet and association."""
    speed = SharpSpeed(p["breakpoints"], p["values"])
    u0 = bump_u0(*p["u0"])
    recs = load_family(Path(outdir) / "family")
    checks = _family_checks(recs, ladder(*p["ladder"]), ["u"])
    # characteristic feet at seeded nodes of three members
    members = sorted({0, int(rng.integers(1, len(recs) - 1)), len(recs) - 1})
    foot_err, n_nodes = 0.0, 0
    for k in members:
        rec = recs[k]
        xs = rec.xs()
        ti = rng.integers(1, len(rec.times), size=24)
        u_all = rec.fields["u"]
        xi = np.empty(24, dtype=int)
        for j, i in enumerate(ti):
            live = np.nonzero(np.abs(u_all[i]) > 1e-3)[0]
            pool = live if (j % 2 == 0 and live.size) else np.arange(xs.size)
            xi[j] = pool[rng.integers(pool.size)]
        feet = feet_ivp(speed, rec.eps, rec.times[ti], xs[xi])
        foot_err = max(foot_err, float(np.max(np.abs(u_all[ti, xi] - u0(feet)))))
        n_nodes += 24
    # rtol 1e-11 leaves the feet good to ~1e-8; u0 has slope <= 1.5/w = 3
    checks.append(("transport.characteristic_feet", foot_err <= 1e-6,
                   f"max |u - u0(foot)| at {n_nodes} seeded nodes, feet by solve_ivp: {foot_err:.2e} (<= 1e-6)"))
    # association of each member with the sharp-speed limit at fixed times
    xc, r = p["assoc_x"]
    errs = []
    for rec in recs:
        xs = rec.xs()
        px = phi((xs - xc) / r) / r
        e = 0.0
        for t in p["assoc_t"]:
            i = int(np.argmin(np.abs(rec.times - t)))
            own = float(np.trapezoid(rec.fields["u"][i] * px, xs))
            e = max(e, abs(own - transport_limit_pairing(speed, *p["u0"], rec.times[i], xc, r)))
        errs.append(e)
    errs = np.array(errs)
    half = errs[len(errs) // 2:]
    decreasing = bool(np.all(np.diff(half) <= np.maximum(1e-12, 0.05 * half[:-1])))
    checks.append(("transport.association", decreasing and errs[-1] <= ASSOC_TOL,
                   f"pairing errors against the sharp-speed limit, coarse to fine: "
                   + ", ".join(f"{e:.2e}" for e in errs) + f" (decreasing over the last half, final <= {ASSOC_TOL})"))
    return checks, float(errs[-1])


def tanh_foot(kind, eps, t, x):
    """Foot of c = -tanh(x/eps) (kind 2) or +tanh(x/eps) (kind 3), overflow-safe.

    gamma = eps * arsinh(e^s sinh(x/eps)), s = +t/eps (kind 2) or -t/eps (kind 3).
    """
    s = (t if kind == 2 else -t) / eps
    r = np.asarray(x, dtype=float) / eps
    R = np.abs(r)
    with np.errstate(divide="ignore"):
        log_sinh = R + np.log(-np.expm1(-2.0 * R)) - math.log(2.0)
    lq = s + log_sinh  # log |e^s sinh r|
    q = np.exp(np.minimum(lq, 700.0))
    direct = np.arcsinh(q)
    far = lq + np.log1p(np.sqrt(1.0 + np.exp(-2.0 * np.minimum(lq, 350.0))))
    val = np.where(lq > 30.0, far, direct)
    return np.sign(r) * eps * val


def tanh_limit_pairing(kind, u0, tc0, xc0, r):
    """Exact limit pairing: kind 2 -> u0(x + sign(x) t); kind 3 -> three regions."""
    lo_t, hi_t = max(tc0 - r, 0.0), tc0 + r
    tcuts = sorted({lo_t, hi_t} | {tt for tt in (abs(xc0 - r), abs(xc0 + r)) if lo_t < tt < hi_t})
    total = 0.0
    for a, b in zip(tcuts[:-1], tcuts[1:]):
        for t, wt in zip(0.5 * (a + b) + 0.5 * (b - a) * GL_NODES, GL_WEIGHTS):
            xcuts = {xc0 - r, xc0 + r, 0.0, t, -t}
            for e in (-0.5, 0.5):  # edges of the bump support, carried along
                xcuts |= {e - t, e + t}
            xcuts = sorted(c for c in xcuts if xc0 - r <= c <= xc0 + r)
            acc = 0.0
            for p, q in zip(xcuts[:-1], xcuts[1:]):
                xx = 0.5 * (p + q) + 0.5 * (q - p) * GL_NODES
                if kind == 2:
                    lim = u0(xx + np.sign(xx) * t)
                else:
                    lim = np.where(xx > t, u0(xx - t), np.where(xx < -t, u0(xx + t), u0(0.0)))
                acc += 0.5 * (q - p) * float(np.dot(GL_WEIGHTS, lim * phi((xx - xc0) / r) / r))
            total += 0.5 * (b - a) * wt * acc * float(phi((t - tc0) / r)) / r
    return total


def check_tanh(outdir: Path, p: dict, rng: np.random.Generator):
    """ex2_tanh / ex3_tanh: closed-form feet at seeded nodes and association."""
    kind = p["kind"]
    u0 = bump_u0(0.0, 0.5)
    recs = load_family(Path(outdir) / "family")
    report = read_report(outdir)
    checks = _family_checks(recs, ladder(*p["ladder"]), ["u"])
    err = 0.0
    for rec in (recs[0], recs[-1]):
        xs = rec.xs()
        ti = rng.integers(0, len(rec.times), size=32)
        xi = rng.integers(0, xs.size, size=32)
        ref = u0(tanh_foot(kind, rec.eps, rec.times[ti], xs[xi]))
        err = max(err, float(np.max(np.abs(rec.fields["u"][ti, xi] - ref))))
    checks.append(("tanh.closed_form_feet", err <= 1e-9,
                   f"max |u - u0(foot)| at 64 seeded nodes of the coarsest and finest members: {err:.2e} (<= 1e-9)"))
    tc0, xc0, r = p["assoc"]
    fin = recs[-1]
    xs = fin.xs()
    target = tanh_limit_pairing(kind, u0, tc0, xc0, r)
    own = abs(_trapezoid_pairing(fin.times, xs, fin.fields["u"], phi((fin.times - tc0) / r) / r,
                                 phi((xs - xc0) / r) / r) - target)
    rep_err = report_value(report, "associate", "final_err")
    checks.append(("tanh.association", own <= ASSOC_TOL and abs(own - rep_err) <= 1e-4
                   and any(line.startswith("associate=PASS") for line in report),
                   f"finest pairing error {own:.4e} against the exact limit pairing {target:.6f} "
                   f"(<= {ASSOC_TOL}); report final_err {rep_err:.4e}"))
    return checks, None


def check_corner(outdir: Path, p: dict):
    """corner36: corner.csv parses as floats and matches the closed forms to 0.5%."""
    rows = list(csv.reader((Path(outdir) / "corner.csv").read_text().splitlines()))
    header, body = rows[0], rows[1:]
    try:
        vals = np.array([[float(v) for v in row] for row in body])
    except ValueError as exc:
        return [("corner.csv_parses_as_floats", False, f"{exc} (FORMATS.md: float columns)")], None
    checks = [("corner.csv_parses_as_floats", True, f"{len(body)} rows, columns {','.join(header)}")]
    col = {name: vals[:, i] for i, name in enumerate(header)}
    eps_ok = np.allclose(np.unique(col["eps"])[::-1], ladder(*p["ladder"]), rtol=1e-12)
    h = col["eps"]  # standard scale
    ref = (2.0 / 3.0, -4.0 * A2 / (9.0 * h), 16.0 * A2 * A2 / (27.0 * h * h))
    worst = max(float(np.max(np.abs(col[k] - r) / np.abs(r)))
                for k, r in zip(("dgamma", "d2gamma", "d3gamma"), ref))
    expected_ok = all(np.allclose(col[k], r, rtol=1e-12)
                      for k, r in zip(("expected1", "expected2", "expected3"), ref))
    checks.append(("corner.closed_forms", bool(eps_ok and expected_ok and worst <= 0.005),
                   f"worst relative error {worst:.2e} (<= 0.5%), expected columns exact {expected_ok}"))
    return checks, None
