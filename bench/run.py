"""colwave benchmark: x-jump, t-jump and transport scenario workloads.

    python3 bench/run.py --workload {xjump,tjump,transport} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --smoke [--workload W]

Run from the root of a colwave source tree: the program is taken from
./src (nothing is installed) and all output goes under ./.bench_work.

--trace 0 measures the end-to-end metrics: set-up (input generation and
`colwave validate` of every scenario, repeated SETUP_REPEATS times), then
whole passes of `colwave run` subprocesses, one per scenario of the workload:
at least MIN_PASSES, and more while the mean pass so far still fits in S
seconds of passes.  --trace 1 runs one untraced and one
traced pass in-process through colwave.cli.main and reports the per-layer
metrics and the tracing overhead.  Every pass is checked against the
independent references in refs.py.  The last line of standard output is the
JSON result; a fuller record is written to .bench_work/results/.

--smoke runs every workload (or the one given) once, each ladder cut to 4
members with the same largest and smallest eps, with every check, and exits
0 when all outputs are correct.
"""

import os
import sys

# pin native thread pools before numpy loads; the ladder threads keep the
# program's default (COLWAVE_THREADS unset)
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
os.environ.pop("COLWAVE_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import refs  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
MIN_PASSES = 3  # so that the median outvotes one disturbed pass
SMOKE_COUNT = 4

X_JUMP = dict(c0=1.0, c1=2.0, x0=-1.0, xb=0.0, plateau_t=1.8, plateau_x=0.3,
              incident_t=0.6, off_ray_t_min=0.5, assoc=(1.8, 0.3, 0.15))
T_JUMP = dict(c0=1.0, c1=2.0, tj=1.0)
TRANSPORT3 = dict(breakpoints=(-0.8, 0.0, 0.9), values=(1.0, 2.0, 0.7, 1.4), u0=(-1.2, 0.5),
                  assoc_x=(0.2, 0.6), assoc_t=(0.4, 0.8, 1.2))

TRANSPORT3_SCN = f"""# three-jump x-dependent speed, bump data: Newton inversion of C_eps
id=transport3
problem=transport
coefficient.variable=space
coefficient.breakpoints={','.join(map(str, TRANSPORT3['breakpoints']))}
coefficient.values={','.join(map(str, TRANSPORT3['values']))}
mollifier.family=polynomial
mollifier.n=2
scale.kind=standard
ladder.eps0=0.1
ladder.ratio=0.7
ladder.count=10
grid.x_min=-3.0
grid.x_max=3.0
grid.nx=auto
grid.t_end=1.2
data.u0=bump:{TRANSPORT3['u0'][0]},{TRANSPORT3['u0'][1]}
"""


def bthm43a_scn() -> str:
    """Bundled thm43a with the energy analysis added (writes v/w fields)."""
    lines = []
    for line in (SRC / "colwave" / "scenarios" / "thm43a.scn").read_text().splitlines():
        if line.startswith("id="):
            line = "id=bthm43a"
        elif line.startswith("analyses="):
            line = "analyses=detect,energy"
        lines.append(line)
    return "\n".join(lines) + "\n"


@dataclass
class Op:
    """One scenario run: a bundled name, or a file generated into inputs/."""

    id: str
    ladder: tuple  # eps0, ratio, count (passed as --ladder-override)
    check: object  # refs.check_*(outdir, params[, rng]) -> (checks, ref_err)
    params: dict = field(default_factory=dict)
    generate: object = None  # () -> scenario text, for generated scenarios
    known_fault: str = ""  # check that a named program fault fails every time
    seeded: bool = False  # check takes the seeded generator
    max_c: float = 0.0  # largest wave speed (wave_x cell-step count)

    def scenario(self) -> str:
        return str(WORK / "inputs" / f"{self.id}.scn") if self.generate else self.id


WORKLOADS = {
    "xjump": [
        Op("thm41", (0.1, 0.8, 5), refs.check_xjump, dict(X_JUMP, ladder=(0.1, 0.8, 5)), max_c=2.0),
    ],
    "tjump": [
        Op("bthm43a", (0.1, 0.8, 4), refs.check_tjump, dict(T_JUMP, ladder=(0.1, 0.8, 4)),
           generate=bthm43a_scn),
        Op("thm45_d3", (0.1, 0.8, 4), refs.check_radial, dict(T_JUMP, ladder=(0.1, 0.8, 4)),
           known_fault="detect.report_matches_own_scoring"),
    ],
    "transport": [
        Op("transport3", (0.1, 0.7, 10), refs.check_transport, dict(TRANSPORT3, ladder=(0.1, 0.7, 10)),
           generate=lambda: TRANSPORT3_SCN, seeded=True),
        Op("ex2_tanh", (0.1, 0.7, 10), refs.check_tanh,
           dict(kind=2, ladder=(0.1, 0.7, 10), assoc=(0.5, 0.0, 0.3)), seeded=True),
        Op("ex3_tanh", (0.1, 0.7, 10), refs.check_tanh,
           dict(kind=3, ladder=(0.1, 0.7, 10), assoc=(0.5, 0.0, 0.3)), seeded=True),
        Op("corner36", (0.1, 0.7, 10), refs.check_corner, dict(ladder=(0.1, 0.7, 10)),
           known_fault="corner.csv_parses_as_floats"),
    ],
}


def smoke_ops(ops):
    """The same ladders cut to SMOKE_COUNT members with the same end points,
    so every check keeps its tolerance."""
    out = []
    for op in ops:
        eps0, ratio, count = op.ladder
        lad = (eps0, ratio ** ((count - 1) / (SMOKE_COUNT - 1)), SMOKE_COUNT)
        out.append(Op(**{**op.__dict__, "ladder": lad, "params": {**op.params, "ladder": lad}}))
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def colwave(*args) -> list:
    return [sys.executable, "-m", "colwave.cli", *args]


def ladder_arg(op) -> str:
    return ",".join(repr(v) for v in op.ladder)


# --- set-up -----------------------------------------------------------------

def setup(ops) -> float:
    """Generate the inputs and validate every scenario; wall seconds."""
    t0 = time.perf_counter()
    inputs = WORK / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    for op in ops:
        if op.generate:
            Path(op.scenario()).write_text(op.generate())
    for op in ops:
        res = subprocess.run(colwave("validate", op.scenario()), env=child_env(),
                             capture_output=True, text=True)
        if res.returncode != 0 or ": OK" not in res.stdout:
            raise RuntimeError(f"validate {op.id} failed ({res.returncode}): {res.stderr.strip()}")
    return time.perf_counter() - t0


# --- passes -----------------------------------------------------------------

def fresh_out() -> Path:
    out = WORK / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return out


def subprocess_pass(ops) -> dict:
    """One pass of `colwave run` subprocesses, back to back."""
    out = fresh_out()
    logs = WORK / "logs"
    logs.mkdir(exist_ok=True)
    rcs, rss, walls = {}, {}, {}
    t0 = time.perf_counter()
    for op in ops:
        t_op = time.perf_counter()
        with open(logs / f"{op.id}.stderr", "w") as err:
            p = subprocess.Popen(
                colwave("run", op.scenario(), "--out", str(out), "--ladder-override", ladder_arg(op)),
                env=child_env(), stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        rcs[op.id] = p.returncode
        rss[op.id] = usage.ru_maxrss / 1024.0  # KiB on Linux
        walls[op.id] = time.perf_counter() - t_op
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "rc": rcs, "rss_mb": rss, "op_wall_s": walls, "out": out}


def inprocess_pass(ops, main) -> dict:
    """One pass through colwave.cli.main in this process."""
    import colwave.characteristics as ch

    out = fresh_out()
    rcs = {}
    t0 = time.perf_counter()
    for op in ops:
        ch._TI_CACHE.clear()  # a fresh process starts with an empty cache
        try:
            rcs[op.id] = main(["run", op.scenario(), "--out", str(out), "--ladder-override", ladder_arg(op)])
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            print(f"{op.id}: {type(exc).__name__}: {exc}", file=sys.stderr)
            rcs[op.id] = 1
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "rc": rcs, "out": out}


def check_pass(ops, res, rng) -> dict:
    """Run every operation's checks; classify failures as known or not."""
    ops_out = {}
    for op in ops:
        rec = {"rc": res["rc"][op.id], "checks": [], "ref_err": None}
        if rec["rc"] == 0:
            args = (res["out"] / op.id, op.params) + ((rng,) if op.seeded else ())
            try:
                checks, rec["ref_err"] = op.check(*args)
            except Exception as exc:  # unreadable output fails the operation
                checks = [("outputs.readable", False, f"{type(exc).__name__}: {exc}")]
            rec["checks"] = [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks]
        bad = [c["name"] for c in rec["checks"] if not c["ok"]]
        rec["failed"] = rec["rc"] != 0 or bool(bad)
        rec["unexpected"] = rec["rc"] != 0 or any(b != op.known_fault for b in bad)
        ops_out[op.id] = rec
    return ops_out


def wave_x_cell_steps(ops, out: Path) -> int:
    """sum over wave_x records of (nx + 1) * n_steps, dt = cfl * dx / max c."""
    total = 0
    for op in ops:
        man = out / op.id / "family" / "manifest.txt"
        if not op.max_c or not man.exists():
            continue
        kv = refs.read_kv(man)
        if kv.get("solver") != "wave_x":
            continue
        for i in range(int(kv["n_records"])):
            x0, x1, nx, t_end, cfl = (float(v) for v in kv[f"record.{i}.grid"].split(","))
            dt = cfl * (x1 - x0) / nx / op.max_c
            total += (int(nx) + 1) * int(np.ceil(t_end / dt - 1e-12))
    return total


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_env": {**THREAD_ENV, "COLWAVE_THREADS": "unset",
                       "ladder_threads_default": min(4, os.cpu_count() or 1)},
    }


def tally(pass_checks) -> tuple:
    attempted = sum(len(pc) for pc in pass_checks)
    failed = sum(r["failed"] for pc in pass_checks for r in pc.values())
    correct = not any(r["unexpected"] for pc in pass_checks for r in pc.values())
    return attempted, failed, correct


def ref_err(pc) -> float:
    return max(r["ref_err"] for r in pc.values() if r["ref_err"] is not None)


# --- modes --------------------------------------------------------------------

def measure(ops, seconds, rng) -> tuple:
    setups = [setup(ops) for _ in range(SETUP_REPEATS)]
    passes, checks = [], []
    while True:
        res = subprocess_pass(ops)
        passes.append(res)
        checks.append(check_pass(ops, res, rng))
        spent = sum(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and spent + spent / len(passes) > seconds:
            break
    attempted, failed, correct = tally(checks)
    per_pass = {
        "run_s": [p["wall_s"] for p in passes],
        "peak_rss_mb": [max(p["rss_mb"].values()) for p in passes],
        "ref_err": [ref_err(c) for c in checks],
    }
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(per_pass["run_s"]), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(per_pass["peak_rss_mb"]), "unit": "MB"},
        "ref_err": {"value": statistics.median(per_pass["ref_err"]), "unit": "1"},
    }
    detail = {"setup_s": setups, **per_pass,
              "rss_mb_by_scenario": [p["rss_mb"] for p in passes],
              "wall_s_by_scenario": [p["op_wall_s"] for p in passes], "checks": checks}
    return correct, attempted, failed, metrics, detail


def trace(ops, rng, spans_path: Path) -> tuple:
    from tracer import AFTER_HOOKS, Tracer, layer_metrics

    sys.path.insert(0, str(SRC))
    import colwave
    import colwave.cli as cli

    modules = [sys.modules[m] for m in sorted(sys.modules) if m.startswith("colwave.")]
    setups = [setup(ops)]
    plain = inprocess_pass(ops, cli.main)
    plain_checks = check_pass(ops, plain, rng)
    tracer = Tracer(AFTER_HOOKS)
    tracer.install(modules + [colwave])
    try:
        traced = inprocess_pass(ops, cli.main)
    finally:
        tracer.uninstall()
    traced_checks = check_pass(ops, traced, rng)
    tracer.write(spans_path)
    layers = layer_metrics(tracer, wave_x_cell_steps(ops, traced["out"]))
    layers["trace.overhead"] = (100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0), "%")
    layers["trace.traced_pass_s"] = (traced["wall_s"], "s")
    layers["trace.untraced_pass_s"] = (plain["wall_s"], "s")
    attempted, failed, correct = tally([plain_checks, traced_checks])
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    detail = {"setup_s": setups, "spans_file": str(spans_path.relative_to(ROOT)),
              "checks": [plain_checks, traced_checks]}
    return correct, attempted, failed, metrics, detail


def smoke(names, rng) -> int:
    ok_all = True
    for name in names:
        ops = smoke_ops(WORKLOADS[name])
        setup(ops)
        res = subprocess_pass(ops)
        pc = check_pass(ops, res, rng)
        attempted, failed, correct = tally([pc])
        ok_all &= correct
        for op_id, r in pc.items():
            bad = [c["name"] for c in r["checks"] if not c["ok"]]
            print(f"{name}/{op_id}: rc={r['rc']} {'FAILED ' + ','.join(bad) if r['failed'] else 'ok'}"
                  f"{' (unexpected)' if r['unexpected'] else ''}")
        print(json.dumps({"workload": name, "correct": correct, "attempted": attempted,
                          "failed": failed, "run_s": res["wall_s"], "ref_err": ref_err(pc)}))
    return 0 if ok_all else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ns = ap.parse_args(argv)
    if not (SRC / "colwave" / "cli.py").is_file():
        print(f"colwave sources not found under {SRC}; run from the root of the source tree",
              file=sys.stderr)
        return 2
    rng = np.random.default_rng(ns.seed)
    if ns.smoke:
        return smoke([ns.workload] if ns.workload else list(WORKLOADS), rng)
    if ns.workload is None:
        ap.error("--workload is required")
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[ns.workload]
    if ns.trace:
        spans = WORK / "results" / f"spans_{ns.workload}_seed{ns.seed}.jsonl"
        correct, attempted, failed, metrics, detail = trace(ops, rng, spans)
    else:
        correct, attempted, failed, metrics, detail = measure(ops, ns.seconds, rng)
    record = {
        "workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds, "trace": ns.trace,
        "machine": machine(),
        "scenarios": {op.id: {"scenario": op.scenario(), "ladder": ladder_arg(op),
                              "known_fault": op.known_fault} for op in ops},
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "per_run": detail,
    }
    out = WORK / "results" / f"{ns.workload}_seed{ns.seed}_trace{ns.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
