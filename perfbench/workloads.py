"""The three workloads. One round runs the workload's whole path once.

A round returns its end-to-end phase times, its per-layer metrics (when
tracing) and the problems its checks found. Each round starts from the
Parquet input written in set-up and from empty graph and run dirs.
"""

from __future__ import annotations

import os
import shutil
import time

import pyarrow.parquet as pq

import checks

NUM_PARTITIONS = 4
LABELPROP_ROUNDS = 5
MAX_SUPERSTEPS = 100_000

RESIDENT_ALGOS = ("pagerank", "cc", "labelprop")
RESIDENT_FIELDS = (
    ("supersteps", "count", "lower"),
    ("s_per_superstep", "s", "lower"),
    ("edges_traversed", "count", "lower"),
    ("edges_per_s", "1/s", "higher"),
    ("signal_rows", "count", "lower"),
    ("max_group_rows", "count", "lower"),
    ("compute_s", "s", "lower"),
    ("other_s", "s", "lower"),
)

# (name, unit, better) of every per-layer metric; a workload that does
# not call a layer reports its metrics as 0.
LAYER_METRICS = [
    ("sources.extract_s", "s", "lower"),
    ("sources.pages", "count", "higher"),
    ("sources.html_mb", "MB", "higher"),
    ("sources.links", "count", "higher"),
    ("sources.links_per_s", "1/s", "higher"),
    ("graph.build_s", "s", "lower"),
    ("graph.vertices", "count", "higher"),
    ("graph.edges", "count", "higher"),
    ("graph.on_disk_mb", "MB", "lower"),
    ("graph.partition_edge_skew", "ratio", "lower"),
    *[
        (f"engine_resident.{algo}.{field}", unit, better)
        for algo in RESIDENT_ALGOS
        for field, unit, better in RESIDENT_FIELDS
    ],
    ("engine.supersteps", "count", "lower"),
    ("engine.s_per_superstep", "s", "lower"),
    ("engine.compute_s", "s", "lower"),
    ("engine.other_s", "s", "lower"),
    ("engine.checkpoint_mb_per_superstep", "MB", "lower"),
    ("engine.checkpoint_files", "count", "lower"),
    ("engine.resume_s", "s", "lower"),
    ("engine.resume_overhead_s", "s", "lower"),
    ("triangles.s", "s", "lower"),
    ("triangles.undirected_edges", "count", "higher"),
    ("triangles.count", "count", "higher"),
    ("driver.state_read_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


class Context:
    """What a round needs: its dirs, the expected results and the tracer."""

    def __init__(self, work: str, expected: dict, tracer):
        self.work = work
        self.input = os.path.join(work, "input")
        self.expected = expected
        self.tracer = tracer

    def fresh(self, name: str) -> str:
        path = os.path.join(self.work, "round", name)
        shutil.rmtree(path, ignore_errors=True)
        return path


def dir_usage(path: str) -> tuple[float, int]:
    """(MB, files) under ``path``; hard links count once."""
    seen, total = set(), 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            st = os.stat(os.path.join(dirpath, f))
            if (st.st_dev, st.st_ino) not in seen:
                seen.add((st.st_dev, st.st_ino))
                total += st.st_size
    return total / 1e6, len(seen)


def read_state(ctx, info):
    with ctx.tracer.span("driver.state_table"):
        t = info.state_table()
    return (
        t.column("vid").to_numpy(),
        t.column("state").to_numpy(),
        t.column("out_degree").to_numpy(),
    )


def graph_layer(g, build_s: float) -> dict:
    rows = [pq.ParquetFile(f).metadata.num_rows for f in g.edge_files()]
    rows += [0] * (g.num_partitions - len(rows))
    return {
        "graph.build_s": build_s,
        "graph.vertices": g.num_vertices,
        "graph.edges": g.num_edges,
        "graph.on_disk_mb": dir_usage(g.graph_dir)[0],
        "graph.partition_edge_skew": max(rows) / (sum(rows) / len(rows)),
    }


def _step_compute_s(manifests) -> float:
    return sum(p["signal_s"] + p["collect_s"] for m in manifests for p in m["parts"])


def resident_layer(algo: str, info, run_s: float) -> dict:
    steps = info.per_step[1:]  # per_step[0] is the initial state
    compute = _step_compute_s(steps)
    p = f"engine_resident.{algo}"
    return {
        f"{p}.supersteps": info.supersteps,
        f"{p}.s_per_superstep": run_s / info.supersteps,
        f"{p}.edges_traversed": info.edges_traversed_total,
        f"{p}.edges_per_s": info.edges_traversed_total / run_s,
        f"{p}.signal_rows": sum(m["signal_rows"] for m in steps),
        f"{p}.max_group_rows": max(
            (q["max_group_rows"] for m in steps for q in m["parts"]), default=0
        ),
        f"{p}.compute_s": compute,
        f"{p}.other_s": run_s - compute,
    }


class Round:
    """Phase timer for one round: ingest, compute and state read-back.

    Checks are queued with ``check`` and run after the round's wall time
    is taken.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.start = time.perf_counter()
        self.phase = {"ingest_s": 0.0, "compute_s": 0.0}
        self.layers: dict = {}
        self._checks: list = []
        self._first_span = len(ctx.tracer.spans)

    def check(self, fn, *args) -> None:
        self._checks.append((fn, args))

    def timed(self, phase: str, span: str, fn):
        t = time.perf_counter()
        with self.ctx.tracer.span(span):
            out = fn()
        dt = time.perf_counter() - t
        self.phase[phase] += dt
        return out, dt

    def finish(self, checkpoint_dirs) -> tuple[dict, dict, list[str]]:
        wall = time.perf_counter() - self.start
        problems = [p for fn, args in self._checks for p in fn(*args)]
        e2e = dict(self.phase, wall_s=wall)
        e2e["checkpoint_mb"] = sum(dir_usage(d)[0] for d in checkpoint_dirs)
        if self.ctx.tracer.enabled:
            tr = self.ctx.tracer
            self.layers["driver.state_read_s"] = tr.total("driver.state_table", self._first_span)
            self.layers["trace.wall_s"] = wall
            self.layers["trace.spans"] = len(tr.spans) - self._first_span
        return e2e, self.layers, problems


def crawl_pagerank(ctx, cfg_factory) -> tuple[dict, dict, list[str]]:
    """pages → sources.pages_to_edges → Graph.build → ResidentEngine PageRank to eps 1e-6."""
    import ray.data as rd

    from signal_collect_ray import Graph
    from signal_collect_ray.algorithms import PageRank
    from signal_collect_ray.engine_resident import ResidentEngine
    from signal_collect_ray.sources import pages_to_edges

    exp, tracer = ctx.expected, ctx.tracer
    gdir, rdir = ctx.fresh("graph"), ctx.fresh("run_pagerank")
    r = Round(ctx)

    def ingest():
        edges = pages_to_edges(rd.read_parquet(ctx.input))
        if tracer.enabled:
            # materialise so that extraction is timed apart from the build
            t = time.perf_counter()
            with tracer.span("sources.pages_to_edges"):
                edges = edges.materialize()
            extract_s = time.perf_counter() - t
            links = edges.count()
            r.layers.update({
                "sources.extract_s": extract_s,
                "sources.pages": int(exp["pages"]),
                "sources.html_mb": float(exp["html_bytes"]) / 1e6,
                "sources.links": links,
                "sources.links_per_s": links / extract_s,
            })
        t = time.perf_counter()
        with tracer.span("graph.Graph.build"):
            g = Graph.build(edges, gdir, num_partitions=NUM_PARTITIONS)
        return g, time.perf_counter() - t

    (g, build_s), _ = r.timed("ingest_s", "ingest", ingest)
    r.check(checks.check_count, "graph edges", g.num_edges, int(exp["links"]))
    info, run_s = r.timed(
        "compute_s", "engine_resident.ResidentEngine.run:pagerank",
        lambda: ResidentEngine(cfg_factory(eps=1e-6)).run(
            g, PageRank(), run_dir=rdir, resume=False, checkpoint_interval=0
        ),
    )
    vid, state, outdeg = read_state(ctx, info)
    r.check(checks.check_converged, "pagerank", info)
    r.check(checks.check_pagerank, vid, state, outdeg, exp)
    if tracer.enabled:
        r.layers.update(graph_layer(g, build_s))
        r.layers.update(resident_layer("pagerank", info, run_s))
    return r.finish([rdir])


def checkpoint_resume(ctx, cfg_factory) -> tuple[dict, dict, list[str]]:
    """edges → Graph.build → durable SuperstepEngine PageRank for k supersteps
    with a checkpoint each superstep, then run(resume=True) on to 2k."""
    import ray.data as rd

    from signal_collect_ray import Graph, SuperstepEngine
    from signal_collect_ray.algorithms import PageRank

    exp, tracer = ctx.expected, ctx.tracer
    k = int(exp["k"])
    gdir, rdir = ctx.fresh("graph"), ctx.fresh("run_durable")
    r = Round(ctx)
    g, build_s = r.timed(
        "ingest_s", "graph.Graph.build",
        lambda: Graph.build(rd.read_parquet(ctx.input), gdir, num_partitions=NUM_PARTITIONS),
    )
    # eps 0 never converges, so each call runs to exactly its superstep limit
    engine = SuperstepEngine(cfg_factory(eps=0.0, checkpoint_interval=1))
    first, first_s = r.timed(
        "compute_s", "engine.SuperstepEngine.run",
        lambda: engine.run(g, PageRank(), run_dir=rdir, resume=False, max_supersteps=k),
    )
    vid, state, _ = read_state(ctx, first)
    r.check(checks.check_jacobi, vid, state, exp["vid"], exp["state_k"], k)
    resumed, resume_s = r.timed(
        "compute_s", "engine.SuperstepEngine.run:resume",
        lambda: engine.run(g, PageRank(), run_dir=rdir, resume=True, max_supersteps=2 * k),
    )
    vid, state, _ = read_state(ctx, resumed)
    r.check(checks.check_count, "supersteps before the resume", first.supersteps, k)
    r.check(checks.check_count, "supersteps after the resume", resumed.supersteps, 2 * k)
    r.check(checks.check_jacobi, vid, state, exp["vid"], exp["state_2k"], 2 * k)
    if tracer.enabled:
        r.layers.update(graph_layer(g, build_s))
        mb, files = dir_usage(rdir)
        # per_step[0] of each call is the state it started from
        steps = first.per_step[1:] + resumed.per_step[1:]
        s_per = sum(m["wall_s"] for m in steps) / len(steps)
        compute = _step_compute_s(steps)
        r.layers.update({
            "engine.supersteps": resumed.supersteps,
            "engine.s_per_superstep": s_per,
            "engine.compute_s": compute,
            "engine.other_s": first_s + resume_s - compute,
            "engine.checkpoint_mb_per_superstep": mb / resumed.supersteps,
            "engine.checkpoint_files": files,
            "engine.resume_s": resume_s,
            "engine.resume_overhead_s": resume_s - k * s_per,
        })
    return r.finish([rdir])


def hub_components(ctx, cfg_factory) -> tuple[dict, dict, list[str]]:
    """skewed edges + long paths → symmetrise → Graph.build(dedup=True) →
    ResidentEngine ConnectedComponents, ChineseWhispers (5 rounds), total_triangles."""
    import ray.data as rd

    from signal_collect_ray import Graph
    from signal_collect_ray.algorithms import (
        ChineseWhispers,
        ConnectedComponents,
        total_triangles,
    )
    from signal_collect_ray.engine_resident import ResidentEngine
    from signal_collect_ray.pipelines.queries import sym_edges

    exp, tracer = ctx.expected, ctx.tracer
    gdir = ctx.fresh("graph")
    cc_dir, cw_dir = ctx.fresh("run_cc"), ctx.fresh("run_cw")
    r = Round(ctx)
    g, build_s = r.timed(
        "ingest_s", "graph.Graph.build",
        lambda: Graph.build(
            sym_edges(rd.read_parquet(ctx.input)), gdir,
            num_partitions=NUM_PARTITIONS, dedup=True,
        ),
    )
    cc, cc_s = r.timed(
        "compute_s", "engine_resident.ResidentEngine.run:cc",
        lambda: ResidentEngine(cfg_factory()).run(
            g, ConnectedComponents(), run_dir=cc_dir, resume=False, checkpoint_interval=0
        ),
    )
    vid, label, _ = read_state(ctx, cc)
    r.check(checks.check_converged, "components", cc)
    r.check(checks.check_components, vid, label, exp)
    cw, cw_s = r.timed(
        "compute_s", "engine_resident.ResidentEngine.run:labelprop",
        lambda: ResidentEngine(cfg_factory()).run(
            g, ChineseWhispers(), run_dir=cw_dir, resume=False,
            max_supersteps=LABELPROP_ROUNDS, checkpoint_interval=0,
        ),
    )
    vid, label, _ = read_state(ctx, cw)
    r.check(checks.check_labelprop, vid, label, exp)
    count, tri_s = r.timed(
        "compute_s", "algorithms.triangles.total_triangles",
        lambda: total_triangles(g.edges_ds(), num_partitions=NUM_PARTITIONS),
    )
    r.check(checks.check_triangles, count, exp)
    if tracer.enabled:
        r.layers.update(graph_layer(g, build_s))
        r.layers.update(resident_layer("cc", cc, cc_s))
        r.layers.update(resident_layer("labelprop", cw, cw_s))
        r.layers.update({
            "triangles.s": tri_s,
            "triangles.undirected_edges": int(exp["undirected_edges"]),
            "triangles.count": count,
        })
    return r.finish([cc_dir, cw_dir])


WORKLOADS = {
    "crawl_pagerank": (crawl_pagerank, 3),
    "checkpoint_resume": (checkpoint_resume, 5),
    "hub_components": (hub_components, 6),
}
"""name → (round function, program calls per round)."""

E2E_METRICS = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ingest_s", "s"),
    ("compute_s", "s"),
    ("checkpoint_mb", "MB"),
    ("driver_peak_rss_mb", "MB"),
]
