"""Link-graph benchmark: one workload per run, in a Ray session of 1 CPU.

    python3 perfbench/run.py --workload crawl_pagerank --seed 1 --seconds 20 --trace 0

Set-up starts Ray, writes the seeded inputs and their expected results
(``inputs.py``, in a child process) and runs one warm-up round. The run
then repeats whole rounds for ``--seconds``, checks every round's
outputs, and prints one JSON object as the last line of standard output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from
spans around each call into the program with ``--trace 1``. Each metric
is the median over the measured rounds; ``setup_s`` is the one cold
set-up of this process.

Works from any working directory: the checkout root is found from this
file's path, put on the workers' ``PYTHONPATH`` and never assumed to be
the current directory. All files go to a private dir under
``<root>/.perfbench_work``, removed at the end together with every
process the run started.
"""

from __future__ import annotations

import os
import time


def _process_age() -> float:
    """Seconds since this process started, from /proc (0 where unavailable)."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


PROCESS_START = time.monotonic() - _process_age()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# Ray names its sockets <temp_dir>/session_<date>_<time>_<us>_<pid>/sockets/
# plasma_store, and AF_UNIX paths stop at 107 bytes.
_RAY_SOCKET_SUFFIX = 64


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size; tiny serves the self-test")
    return ap.parse_args(argv)


def _children_of(pid: int) -> set[int]:
    """Every live descendant of ``pid``, from /proc."""
    parent = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    parent[int(entry)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
    found, frontier = set(), [pid]
    while frontier:
        p = frontier.pop()
        for child, par in parent.items():
            if par == p and child not in found:
                found.add(child)
                frontier.append(child)
    return found


def _zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def _reap(pids: set[int], timeout: float = 20.0) -> None:
    """Wait until every pid has ended; SIGKILL what is left at the timeout."""
    deadline = time.monotonic() + timeout
    while True:
        alive = {p for p in pids if os.path.exists(f"/proc/{p}") and not _zombie(p)}
        if not alive:
            return
        if time.monotonic() > deadline:
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
            pids = alive
        time.sleep(0.1)


def _steal_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies of the machine, from /proc/stat."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return v[7], sum(v)


def _steal_pct(before, after) -> float:
    """Share of the machine's CPU time the hypervisor took between two readings."""
    return 100.0 * (after[0] - before[0]) / max(1, after[1] - before[1])


class Session:
    """The run's work dir and Ray session; ``close`` removes both."""

    def __init__(self):
        base = os.path.join(ROOT, ".perfbench_work")
        os.makedirs(base, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=base)
        self.link = None
        self.ray = None

    def start_ray(self):
        ray_dir = os.path.join(self.work, "ray")
        os.makedirs(ray_dir)
        if len(ray_dir) + _RAY_SOCKET_SUFFIX > 107:
            # a short name that points into the work dir keeps Ray's files
            # inside the checkout and its socket paths within the limit
            self.link = tempfile.mkdtemp(prefix="pb-")
            os.symlink(ray_dir, os.path.join(self.link, "r"))
            ray_dir = os.path.join(self.link, "r")
        # workers start from the raylet's environment: without the root on
        # PYTHONPATH they cannot import the package from any other cwd
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
        )
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        import logging

        import ray

        self.ray = ray
        ray.init(
            address="local",
            num_cpus=1,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            object_store_memory=256 * 1024 * 1024,
            _node_ip_address="127.0.0.1",
            _temp_dir=ray_dir,
        )
        logging.getLogger("ray.data").setLevel(logging.CRITICAL)
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False

    def close(self):
        try:
            started = _children_of(os.getpid())
            if self.ray is not None:
                self.ray.shutdown()
            _reap(started)
        finally:
            if self.link:
                shutil.rmtree(self.link)
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(self.work))
            except OSError:
                pass  # another run still uses it


def make_inputs(args, work: str) -> dict:
    import numpy as np

    subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), args.workload,
         str(args.seed), work, args.size],
        check=True,
    )
    with np.load(os.path.join(work, "expected.npz")) as z:
        return {k: z[k] for k in z.files}


def measure(args, session, round_fn):
    """Set-up (inputs and one warm-up round), then whole rounds for ``args.seconds``.

    Returns (rounds, problems, setup_s); each round is (end-to-end phase
    times, per-layer metrics, problems).
    """
    from signal_collect_ray import EngineConfig

    session.start_ray()
    expected = make_inputs(args, session.work)

    def cfg_factory(**kw):
        return EngineConfig(
            num_partitions=workloads.NUM_PARTITIONS,
            max_supersteps=workloads.MAX_SUPERSTEPS,
            checkpoint_root=os.path.join(session.work, "runs"),
            **kw,
        )

    ctx = workloads.Context(session.work, expected, Tracer(enabled=False))
    _, _, problems = round_fn(ctx, cfg_factory)
    setup_s = time.monotonic() - PROCESS_START

    ctx.tracer = Tracer(enabled=bool(args.trace))
    rounds = []
    deadline = time.monotonic() + args.seconds
    while not rounds or time.monotonic() < deadline:
        before = _steal_jiffies()
        rounds.append(round_fn(ctx, cfg_factory))
        problems += rounds[-1][2]
        print(f"round {len(rounds)}: " + " ".join(
            f"{k}={v:.4g}" for k, v in rounds[-1][0].items())
            + f" cpu_steal_pct={_steal_pct(before, _steal_jiffies()):.2f}", file=sys.stderr)
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        ctx.tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    return rounds, problems, setup_s


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "signal_collect_ray")):
        print(f"no signal_collect_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    # a caller that times out sends SIGTERM: unwind so that cleanup runs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    round_fn, calls_per_round = workloads.WORKLOADS[args.workload]
    session = Session()
    try:
        rounds, problems, setup_s = measure(args, session, round_fn)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        session.close()

    for p in dict.fromkeys(problems):
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        names = [(n, u) for n, u, _ in workloads.LAYER_METRICS]
        values = {n: statistics.median(r[1].get(n, 0) for r in rounds) for n, _ in names}
    else:
        names = workloads.E2E_METRICS
        values = {n: statistics.median(r[0][n] for r in rounds) for n in rounds[0][0]}
        values["setup_s"] = setup_s
        values["driver_peak_rss_mb"] = peak_rss_mb
    result = {
        "correct": not problems,
        "attempted": calls_per_round * len(rounds),
        "failed": 0,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names},
    }
    print(f"{args.workload}: {len(rounds)} rounds measured", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
