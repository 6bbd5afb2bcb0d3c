"""Self-test of the benchmark at tiny sizes: ``python3 perfbench/selftest.py``.

1. Every check passes on the expected results and fails on a planted
   error: one perturbed PageRank value, one perturbed Jacobi value, two
   merged components, a foreign ChineseWhispers label, a triangle count
   off by one.
2. ``run.py --size tiny`` succeeds for every workload, traced and not,
   when started from a working directory outside the checkout root, and
   leaves no process and no work dir behind.
3. In a directory that holds only ``BENCHMARK.json`` and the benchmark,
   ``run.py`` exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def planted_errors(tmp: str) -> None:
    rng = np.random.default_rng(7)
    tiny = inputs.SIZES["tiny"]

    exp = inputs.crawl_inputs(rng, os.path.join(tmp, "crawl"), tiny)
    vid, pr, deg = exp["vid"], exp["pagerank"].copy(), exp["out_degree"]
    expect(not checks.check_pagerank(vid, pr, deg, exp), "pagerank check passes on the fixpoint")
    pr[len(pr) // 2] += 1e-3
    expect(checks.check_pagerank(vid, pr, deg, exp), "pagerank check fails on one perturbed value")

    exp = inputs.checkpoint_inputs(rng, os.path.join(tmp, "ckpt"), tiny)
    state = exp["state_2k"].copy()
    expect(not checks.check_jacobi(exp["vid"], state, exp["vid"], exp["state_2k"], 4),
           "jacobi check passes on the numpy steps")
    state[0] *= 1 + 1e-8
    expect(checks.check_jacobi(exp["vid"], state, exp["vid"], exp["state_2k"], 4),
           "jacobi check fails on one value off by 1e-8 relative")

    exp = inputs.hub_inputs(rng, os.path.join(tmp, "hub"), tiny)
    vid, cc = exp["vid"], exp["cc"].copy()
    expect(not checks.check_components(vid, cc, exp), "components check passes on union-find")
    expect(not checks.check_labelprop(vid, cc, exp), "labelprop check passes on component minima")
    roots = np.unique(cc)
    expect(len(roots) >= 2, "hub input has several components")
    cc[cc == roots[1]] = roots[0]
    expect(checks.check_components(vid, cc, exp), "components check fails on two merged components")
    expect(checks.check_labelprop(vid, cc, exp), "labelprop check fails on a foreign label")
    n = int(exp["triangles"])
    expect(not checks.check_triangles(n, exp), "triangle check passes on the DuckDB count")
    expect(checks.check_triangles(n + 1, exp), "triangle check fails on a count off by one")


def _ray_processes() -> set[int]:
    found = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as f:
                    cmd = f.read()
            except OSError:
                continue
            if b"raylet" in cmd or b"gcs_server" in cmd or b"ray::" in cmd:
                found.add(int(entry))
    return found


def runs_outside_root(tmp: str) -> None:
    before = _ray_processes()
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=tmp, capture_output=True, text=True, timeout=300,
            )
            what = f"{name} --trace {trace} from {os.path.basename(tmp)}"
            if out.returncode != 0:
                print(out.stderr[-4000:], file=sys.stderr)
            expect(out.returncode == 0, f"{what} exits 0")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            wanted = (
                [n for n, _, _ in workloads.LAYER_METRICS] if trace
                else [n for n, _ in workloads.E2E_METRICS]
            )
            expect(result["correct"] and result["failed"] == 0, f"{what} checks pass")
            expect(sorted(result["metrics"]) == sorted(wanted), f"{what} reports every metric")
    expect(_ray_processes() <= before, "no Ray process is left behind")
    expect(not os.path.exists(os.path.join(ROOT, ".perfbench_work"))
           or os.listdir(os.path.join(ROOT, ".perfbench_work")) == [os.path.basename(tmp)],
           "no run work dir is left behind")


def fails_without_program(tmp: str) -> None:
    bare = os.path.join(tmp, "bare")
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"), "--workload",
         "crawl_pagerank", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(out.returncode != 0 and not out.stdout.strip(),
           "without the program the run exits non-zero and prints no result")


def main() -> None:
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=base)
    try:
        planted_errors(tmp)
        fails_without_program(tmp)
        runs_outside_root(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    print("selftest passed")


if __name__ == "__main__":
    main()
