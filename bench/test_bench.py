"""Tests of the benchmark itself, run from the source root:

    python3 -m pytest bench/test_bench.py

They are not part of the package's suite (pytest's testpaths is tests/).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def test_smoke_every_workload():
    res = _run("--smoke")
    assert res.returncode == 0, res.stdout + res.stderr
    by = {d["workload"]: d for d in map(json.loads, [l for l in res.stdout.splitlines() if l.startswith("{")])}
    assert all(d["correct"] for d in by.values())
    # one operation per named fault fails: thm45_d3 (detector precision
    # scored against folded rays) and corner36 (np.float64 repr in corner.csv)
    assert {w: (d["attempted"], d["failed"]) for w, d in by.items()} == {
        "xjump": (1, 0), "tjump": (2, 1), "transport": (4, 1)}


def _last_json(stdout):
    out = json.loads(stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def test_result_line_carries_every_metric_of_benchmark_json():
    names = {"0": [m["name"] for m in SPEC["end_to_end"]],
             "1": [m["name"] for m in SPEC["per_layer"]]}
    for trace in ("0", "1"):
        res = _run("--workload", "transport", "--seed", "3", "--seconds", "1", "--trace", trace)
        assert res.returncode == 0, res.stderr
        out = _last_json(res.stdout)
        assert out["correct"] and out["failed"] * 4 == out["attempted"]
        assert sorted(out["metrics"]) == sorted(names[trace])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _run("--workload", "xjump", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert not res.stdout.strip()
