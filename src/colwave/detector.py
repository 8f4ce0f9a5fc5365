"""Growth-exponent detector for the singular support of epsilon-families.

classify estimates, per grid cell of a stored slice and derivative order
alpha, the exponent N in |d^alpha u_eps| ~ eps^(-N) by least squares of log
magnitude against log(1/eps) over the ladder (_slope, one fit per order and
detect time, vectorized over the cells), then flags cells whose slope excess
slope(alpha_hi) - slope(0) reaches a threshold (derivatives gain a full power
of 1/eps per order on singular rays, but not on regular ones).  That excess
is the one statistic detect.csv, detect_verdict.txt and report.txt carry;
each predicted ray is scored in one pass over the flagged cells (precision)
and the detect times (recall, max excess).

Practical guards:

* the sup over a small compact set is realized as a running max over a
  2h(eps)-radius neighborhood (peaks drift by O(h) along the ladder);
* finite differences of a stored field cannot resolve magnitudes below
  ~ machine_eps * max|u| / s^alpha (catastrophic cancellation); samples under
  32x that floor are dropped, and cells with fewer than 4 significant
  samples are degenerate: excess 0, never flagged;
* magnitudes under a contrast threshold (1%) of the slice's dominant
  magnitude at the same order are dropped too.  The floor once hid the
  dispersive wake of grid solvers; the travel-time lattices leave none, and
  the floor now stands in for a per-cell numerical error bar, which ROADMAP
  item 3 is to derive from the data.  Criteria 6 and 7(c) rest on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .solvers import SolutionFamily, SolutionRecord

__all__ = [
    "RaySegment",
    "SingSuppReport",
    "derivative_profile",
    "classify",
    "predict_singsupp",
    "report_csv",
    "report_svg",
]

_FLOOR = 1e-300
_SIG_FACTOR = 32.0
_CONTRAST = 1e-2


@dataclass(frozen=True)
class RaySegment:
    label: str
    curve: Callable  # t -> x
    t_min: float
    t_max: float

    def sample(self, t_cap: float, n: int = 200):
        hi = min(self.t_max, t_cap)
        if hi <= self.t_min:
            return np.empty(0), np.empty(0)
        ts = np.linspace(self.t_min, hi, n)
        return ts, np.asarray(self.curve(ts), dtype=float)


@dataclass
class SingSuppReport:
    points: np.ndarray  # (n, 2) rows (t, x)
    flags: np.ndarray  # bool (n,)
    excess: np.ndarray  # slope(alpha_hi) - slope(0) per point
    predicted: list
    tube_radius: float
    precision: float
    recall: float
    per_ray_recall: dict = field(default_factory=dict)
    per_ray_max_excess: dict = field(default_factory=dict)


# --- finite-difference magnitude sampling ----------------------------------

def _fd_stride(u: np.ndarray, m: int, dx: float, alpha: int) -> np.ndarray:
    """Centered FD of order alpha at spacing s = m*dx over a 1D slice, the
    ends edge-replicated (no fabricated jump at the window edge)."""
    if alpha == 0:
        return np.abs(np.asarray(u, dtype=float))
    s, n = m * dx, len(u)
    p = np.pad(np.asarray(u, dtype=float), 2 * m, mode="edge")
    um2, um1, u0, up1, up2 = (p[k * m : k * m + n] for k in range(5))  # u shifted by -2m .. 2m
    if alpha == 1:
        return np.abs(up1 - um1) / (2.0 * s)
    if alpha == 2:
        return np.abs(up1 - 2.0 * u0 + um1) / s**2
    if alpha == 3:
        return np.abs(up2 - 2.0 * up1 + 2.0 * um1 - um2) / (2.0 * s**3)
    raise ValueError("derivative order must be 0..3")


def _running_max(a: np.ndarray, w: int) -> np.ndarray:
    """max of a[i - w : i + w + 1], the ends held (edge padding): doubling
    maxima over shifted views, then the two power-of-two windows that cover
    each 2w + 1 window."""
    m = np.pad(a, w, mode="edge")
    size, span = 2 * w + 1, 1
    while 2 * span <= size:
        m = np.maximum(m[:-span], m[span:])
        span *= 2
    return np.maximum(m[: len(a)], m[size - span : size - span + len(a)])


def derivative_profile(rec: SolutionRecord, t: float, alpha: int, h: float):
    """(magnitudes, floor): neighborhood-max |d^alpha u| over the slice at t.

    Spacing s = max(dx, h/8); running max over radius 2h.  The floor is the
    larger of the FD cancellation noise level 32*machine_eps*max|u|/s^alpha
    and 1% of the slice's dominant magnitude at this order (the global
    contrast floor, a stand-in for a per-cell error bar).
    """
    u = rec.slice_at(t)
    dx = rec.grid.dx
    m = max(1, int(round(max(dx, h / 8.0) / dx)))
    s = m * dx
    mags = _fd_stride(u, m, dx, alpha)
    w = max(1, int(round(2.0 * h / dx)))
    mags = _running_max(mags, w)
    eps_mach = np.finfo(rec.fields["u"].dtype).eps
    floor = _SIG_FACTOR * eps_mach * float(np.max(np.abs(u))) / s**alpha
    floor = max(floor, _CONTRAST * float(np.max(mags)))
    return mags, floor


# --- classification against predicted rays ---------------------------------

def _slope(family, t, alpha, h_fn):
    """(slope, n_valid) per cell of the slice at t: the least-squares slope of
    log|d^alpha u_eps| against log(1/eps) over the n_valid members whose
    magnitude clears the floor; slope 0 where n_valid < 4 or the fit is
    degenerate."""
    X = np.log(1.0 / family.eps_values)
    Y = np.empty((len(X), family.records[0].xs.size))
    K = np.empty_like(Y)
    for j, rec in enumerate(family):
        mags, floor = derivative_profile(rec, t, alpha, h_fn(rec.eps))
        np.log(np.maximum(mags, _FLOOR), out=Y[j])
        K[j] = mags > floor
    n = K.sum(0)
    sx = (K * X[:, None]).sum(0)
    sy = (K * Y).sum(0)
    sxx = (K * X[:, None] ** 2).sum(0)
    sxy = (K * X[:, None] * Y).sum(0)
    den = n * sxx - sx * sx
    ok = (n >= 4) & (den > 0)
    return np.where(ok, (n * sxy - sx * sy) / np.where(ok, den, 1.0), 0.0), n


def classify(
    family: SolutionFamily,
    predicted: Sequence[RaySegment],
    h_fn: Callable,
    times: Optional[Sequence[float]] = None,
    theta: float = 0.5,
    alpha_hi: int = 2,
    t_skip: float = 0.0,
) -> SingSuppReport:
    """Flag grid cells of u whose slope excess over alpha = 0 is >= theta;
    score against ray tubes of radius 4 h(eps_max).

    precision: flagged cells lying within tube_radius of some predicted ray /
    all flagged cells.  recall: predicted-ray sample points with a flagged
    cell within tube_radius / all sample points (per ray and overall).
    A radial_odd family is scored in r = |x|, where its predicted rays live;
    the reported points keep their signed x.  Each time is read at its nearest
    stored time (slice_at); the report labels and scores those, once, ascending.
    """
    rec0 = family.records[0]
    tube_radius = 4.0 * h_fn(rec0.eps)
    stored = np.asarray(rec0.times, dtype=float)
    want = stored[stored > t_skip] if times is None else np.asarray(times, dtype=float)
    read = stored[np.abs(stored[:, None] - want).argmin(0)]  # slice_at's pick
    ts = np.array(sorted(set(read.tolist())), dtype=float)  # not np.unique, which imports numpy.ma
    xs = rec0.xs
    rs = np.abs(xs) if family.solver_id == "radial_odd" else xs
    # (time x cell); the raveled rows are the rows of detect.csv
    excess = np.empty((len(ts), xs.size))
    flags = np.empty(excess.shape, dtype=bool)
    for i, t in enumerate(ts):
        s_hi, n_hi = _slope(family, t, alpha_hi, h_fn)
        s_ref, n_ref = _slope(family, t, 0, h_fn)
        valid = (n_hi >= 4) & (n_ref >= 4)
        excess[i] = np.where(valid, s_hi - s_ref, 0.0)
        flags[i] = valid & (excess[i] >= theta)
    ti, ci = np.nonzero(flags)  # the flagged cells, time-major
    fx = rs[ci]
    near = np.zeros(ti.size, dtype=bool)
    per_ray_recall, per_ray_excess = {}, {}
    hits_total = n_total = 0
    for ray in predicted:
        with np.errstate(invalid="ignore"):
            rx = np.asarray(ray.curve(ts), dtype=float)
        on = (ts >= ray.t_min - 1e-12) & (ts <= ray.t_max + 1e-12)
        # precision: the flagged cells in this ray's tube
        near |= on[ti] & (np.abs(fx - rx[ti]) <= tube_radius)
        # recall: a flagged cell in the tube at each detect time the ray is on the grid
        hit = cnt = 0
        max_exc = -np.inf
        for i in np.flatnonzero(on & ~((rx < rs.min()) | (rx > rs.max()))):
            cnt += 1
            fr = rs[flags[i]]
            hit += bool(fr.size and np.min(np.abs(fr - rx[i])) <= tube_radius)
            max_exc = max(max_exc, float(excess[i, np.argmin(np.abs(rs - rx[i]))]))
        per_ray_recall[ray.label] = hit / cnt if cnt else math.nan
        per_ray_excess[ray.label] = max_exc if cnt else math.nan
        hits_total += hit
        n_total += cnt
    return SingSuppReport(
        points=np.column_stack([np.repeat(ts, xs.size), np.tile(xs, len(ts))]),
        flags=flags.ravel(),
        excess=excess.ravel(),
        predicted=list(predicted),
        tube_radius=tube_radius,
        precision=float(near.mean()) if near.size else 1.0,
        recall=hits_total / n_total if n_total else 1.0,
        per_ray_recall=per_ray_recall,
        per_ray_max_excess=per_ray_excess,
    )


# --- ray predictions --------------------------------------------------------

def predict_singsupp(kind: str, *, c0: float, c1: float, standard_scale: bool, x0: Optional[float] = None,
                     interface: Optional[float] = None, t_jump: Optional[float] = None) -> list:
    """Predicted singular-support rays for the supported scenario families.

    kind = "x_jump_delta": speed jump c0 -> c1 at x = interface, delta data at
      x0 < interface.  Rays: incident left/right, reflected (standard scale only,
      and only when 2 < sqrt(c0/c1) + sqrt(c1/c0) < 4), transmitted.
    kind = "t_jump": speed jump c0 -> c1 at t_jump, point data at x0.  Rays:
      transmitted x0 +- T(t); refracted x0 +- (2T(t_jump) - T(t)) (standard scale only).
    kind = "radial_odd": the t_jump rays of point data at r = 0, in |x| = r >= 0.
    The geometry values the kind needs have no default.
    """
    if kind == "x_jump_delta":
        if x0 is None or interface is None:
            raise ValueError("x_jump_delta rays need the interface and the delta position x0")
        tc = (interface - x0) / c0  # arrival time at the interface
        rays = [
            RaySegment("incident_left", lambda t: x0 - c0 * np.asarray(t, dtype=float), 0.0, np.inf),
            RaySegment("incident_right", lambda t: x0 + c0 * np.asarray(t, dtype=float), 0.0, tc),
            RaySegment("transmitted", lambda t: interface + c1 * (np.asarray(t, dtype=float) - tc), tc, np.inf),
        ]
        if standard_scale and 2.0 < math.sqrt(c0 / c1) + math.sqrt(c1 / c0) < 4.0:
            reflected = lambda t: (2.0 * interface - x0) - c0 * np.asarray(t, dtype=float)
            rays.insert(2, RaySegment("reflected", reflected, tc, np.inf))
        return rays
    if kind in ("t_jump", "radial_odd"):
        x0 = 0.0 if kind == "radial_odd" else x0
        if t_jump is None or x0 is None:
            raise ValueError(f"{kind} rays need the jump time t_jump and the point data position x0")

        def T(t):
            t = np.asarray(t, dtype=float)
            return np.where(t <= t_jump, c0 * t, c0 * t_jump + c1 * (t - t_jump))

        rays = [
            RaySegment("transmitted+", lambda t: x0 + T(t), 0.0, np.inf),
            RaySegment("transmitted-", lambda t: x0 - T(t), 0.0, np.inf),
        ]
        if standard_scale:
            rays += [
                RaySegment("refracted+", lambda t: x0 + (2.0 * T(t_jump) - T(t)), t_jump, np.inf),
                RaySegment("refracted-", lambda t: x0 - (2.0 * T(t_jump) - T(t)), t_jump, np.inf),
            ]
        if kind == "radial_odd":
            # r >= 0: keep the positive-side rays; the refracted shell collapses
            # through the origin and re-expands, so its radius folds to |.|
            rays = [
                RaySegment(r.label, (lambda f: lambda t: np.abs(f(t)))(r.curve), r.t_min, r.t_max)
                for r in rays
                if not r.label.endswith("-")
            ]
        return rays
    raise ValueError(f"unsupported scenario kind {kind!r}")


# --- report serialization ---------------------------------------------------

def report_csv(report: SingSuppReport, path):
    # one formatting call over the flattened rows; a flag 0.0 / 1.0 prints as 0 / 1 under %d
    rows = np.column_stack([report.points, report.flags, report.excess])
    body = "%.10g,%.10g,%d,%.6g\n" * len(rows) % tuple(rows.ravel().tolist())
    Path(path).write_text("t,x,flagged,slope_excess\n" + body)


def verdict_text(report: SingSuppReport) -> str:
    lines = [
        f"tube_radius={report.tube_radius:.6g}",
        f"precision={report.precision:.4f}",
        f"recall={report.recall:.4f}",
    ]
    for label in sorted(report.per_ray_recall):
        lines.append(
            f"ray.{label}: recall={report.per_ray_recall[label]:.4f} "
            f"max_excess={report.per_ray_max_excess[label]:.4f}"
        )
    return "\n".join(lines) + "\n"


def report_svg(report: SingSuppReport, path, width: int = 640, height: int = 480):
    """Self-contained overlay: flagged cells (dots) + predicted rays (lines)."""
    pts = report.points
    t_lo, t_hi = float(pts[:, 0].min()), float(pts[:, 0].max())
    x_lo, x_hi = float(pts[:, 1].min()), float(pts[:, 1].max())
    t_span = (t_hi - t_lo) or 1.0
    x_span = (x_hi - x_lo) or 1.0
    pad = 40

    def X(x):
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def Y(t):
        return height - pad - (t - t_lo) / t_span * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for (t, x) in pts[report.flags]:
        parts.append(f'<circle cx="{X(x):.1f}" cy="{Y(t):.1f}" r="1.5" fill="crimson"/>')
    for ray in report.predicted:
        ts, rx = ray.sample(t_hi)
        ok = np.isfinite(rx) & (rx >= x_lo) & (rx <= x_hi)
        if not ok.any():
            continue
        pl = " ".join(f"{X(xx):.1f},{Y(tt):.1f}" for tt, xx in zip(ts[ok], rx[ok]))
        parts.append(
            f'<polyline points="{pl}" fill="none" stroke="steelblue" stroke-width="1"/>'
        )
        i0 = int(np.argmax(ok))
        parts.append(
            f'<text x="{X(rx[i0]):.1f}" y="{Y(ts[i0]) - 4:.1f}" font-size="10" '
            f'fill="steelblue">{ray.label}</text>'
        )
    parts.append(
        f'<text x="{pad}" y="{height - 8}" font-size="11" fill="black">'
        f"precision={report.precision:.3f} recall={report.recall:.3f}</text>"
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
