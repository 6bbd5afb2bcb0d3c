"""Interactive console server — the reference's debugging console
(``console/ConsoleServer.scala``, ``console/DataProvider.scala``,
``console/AggregationOperation.scala``) rebuilt as a localhost JSON/HTTP
service over :class:`~signal_collect_ray.engine_resident.InteractiveComputation`.

The reference serves a web UI over WebSockets; this rebuild keeps the
entire *data* surface — the seven providers dispatched at
``ConsoleServer.scala:436-447`` (``configuration``, ``log``, ``graph``,
``resources``, ``state``, ``controls``, ``breakconditions``) with the
same request/response JSON shapes — behind plain HTTP POST so any client
(curl, a notebook, a browser fetch) can drive and inspect a running
computation. The visualization assets themselves are out of scope
(SURVEY §2.2); everything the UI *asks the coordinator for* is here.

Scale notes: every graph query is a two-phase aggregation — vectorized
per-partition partials on the resident workers, a tiny driver-side
merge bounded by ``targetCount`` (≤1000, the reference's cap) — plus
O(log S) CSR probes for vicinity expansion. Nothing materializes vertex
state on the driver beyond the requested view.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

import numpy as np

from signal_collect_ray.modes import BreakCondition

# ---------------------------------------------------------------------------
# console aggregators (reference console/AggregationOperation.scala)
# ---------------------------------------------------------------------------
# Each implements the engine's two-phase aggregation protocol
# (aggregate_partition(cols) over {vid,out_degree,sum_out_weight,state,
# last,active,residual} numpy columns; reduce(partials) on the driver).


def _as_float(arr):
    """interpretState (AggregationOperation.scala:62-70): numeric states
    map to double, anything else to 0.0."""
    try:
        return np.asarray(arr, dtype=np.float64)
    except (TypeError, ValueError):
        return np.zeros(len(arr), dtype=np.float64)


class FindVerticesByIdsAggregator:
    """≙ FindVerticesByIdsAggregator: per-partition gather of the
    requested ids' (state, residual, out_degree)."""

    def __init__(self, ids):
        self.ids = np.asarray(sorted(set(int(v) for v in ids)), dtype=np.int64)

    def aggregate_partition(self, cols):
        if len(self.ids) == 0:
            return None
        idx = np.flatnonzero(np.isin(cols["vid"], self.ids))
        if len(idx) == 0:
            return None
        st = _as_float(cols["state"])
        return [
            (
                int(cols["vid"][i]),
                float(st[i]),
                float(cols["residual"][i]),
                int(cols["out_degree"][i]),
            )
            for i in idx
        ]

    def reduce(self, partials):
        out = {}
        for p in partials:
            if p:
                for vid, s, r, d in p:
                    out[vid] = (s, r, d)
        return out


class TopStateAggregator:
    """≙ TopStateAggregator (AggregationOperation.scala:131-150): the k
    highest- (or lowest-) state vertex ids; per-partition argpartition
    top-k, merged once."""

    def __init__(self, k: int, inverted: bool = False):
        self.k = int(k)
        self.inverted = bool(inverted)

    def aggregate_partition(self, cols):
        st = _as_float(cols["state"])
        if len(st) == 0:
            return None
        key = st if self.inverted else -st
        take = min(self.k, len(st))
        idx = np.argpartition(key, take - 1)[:take]
        return [(float(st[i]), int(cols["vid"][i])) for i in idx]

    def reduce(self, partials):
        rows = [r for p in partials if p for r in p]
        rows.sort(key=lambda t: (t[0] if self.inverted else -t[0], t[1]))
        return rows[: self.k]


class TopDegreeAggregator:
    """≙ TopDegreeAggregator: the k highest out-degree vertex ids."""

    def __init__(self, k: int):
        self.k = int(k)

    def aggregate_partition(self, cols):
        d = np.asarray(cols["out_degree"], dtype=np.int64)
        if len(d) == 0:
            return None
        take = min(self.k, len(d))
        idx = np.argpartition(-d, take - 1)[:take]
        return [(int(d[i]), int(cols["vid"][i])) for i in idx]

    def reduce(self, partials):
        rows = [r for p in partials if p for r in p]
        rows.sort(key=lambda t: (-t[0], t[1]))
        return [vid for _, vid in rows[: self.k]]


class AboveThresholdAggregator:
    """≙ AboveThresholdAggregator: vertex ids whose signal score (this
    engine's residual) exceeds the threshold; deterministic (residual
    desc, vid asc) head of k."""

    def __init__(self, k: int, threshold: float):
        self.k = int(k)
        self.threshold = float(threshold)

    def aggregate_partition(self, cols):
        r = np.asarray(cols["residual"], dtype=np.float64)
        idx = np.flatnonzero(r > self.threshold)
        if len(idx) == 0:
            return None
        if len(idx) > self.k:
            idx = idx[np.argpartition(-r[idx], self.k - 1)[: self.k]]
        return [(float(r[i]), int(cols["vid"][i])) for i in idx]

    def reduce(self, partials):
        rows = [r for p in partials if p for r in p]
        rows.sort(key=lambda t: (-t[0], t[1]))
        return [vid for _, vid in rows[: self.k]]


class SampleAggregator:
    """≙ SampleAggregator — but deterministic: the k vertex ids with the
    smallest mix64 hash (stable across runs/pool sizes, unlike the
    reference's Random.shuffle)."""

    def __init__(self, k: int):
        self.k = int(k)

    def aggregate_partition(self, cols):
        from signal_collect_ray.util import mix64

        v = np.asarray(cols["vid"], dtype=np.int64)
        if len(v) == 0:
            return None
        h = mix64(v.astype(np.uint64))
        take = min(self.k, len(v))
        idx = np.argpartition(h, take - 1)[:take]
        return [(int(h[i]), int(v[i])) for i in idx]

    def reduce(self, partials):
        rows = [r for p in partials if p for r in p]
        rows.sort()
        return [vid for _, vid in rows[: self.k]]


class FindVertexIdsBySubstringAggregator:
    """≙ FindVertexIdsBySubstringAggregator: ids whose decimal string
    contains the substring (vertex ids are int64 here)."""

    def __init__(self, s: str, k: int):
        self.s = str(s)
        self.k = int(k)

    def aggregate_partition(self, cols):
        hits = [int(v) for v in cols["vid"] if self.s in str(int(v))]
        return hits[: self.k] if hits else None

    def reduce(self, partials):
        out = sorted({v for p in partials if p for v in p})
        return out[: self.k]


class StateBoundsAggregator:
    """(lowestState, highestState) across all partitions — the graph
    provider's header fields (DataProvider.scala:437-443)."""

    def aggregate_partition(self, cols):
        st = _as_float(cols["state"])
        if len(st) == 0:
            return None
        return (float(st.min()), float(st.max()))

    def reduce(self, partials):
        vals = [p for p in partials if p is not None]
        if not vals:
            return (0.0, 0.0)
        return (min(v[0] for v in vals), max(v[1] for v in vals))


# ---------------------------------------------------------------------------
# break-condition name mapping (ConsoleServer.scala:74-83)
# ---------------------------------------------------------------------------

BREAK_CONDITION_NAMES = {
    "state changes": "state_changes",
    "state above": "state_above",
    "state below": "state_below",
    "signal score above threshold": "signal_score_above",
    "signal score below threshold": "signal_score_below",
    # the reference's collect-score variants have no equivalent: this
    # engine's collectThreshold is fixed at 0.0 (every delivered signal
    # is collected) — requesting them returns an error, mirroring the
    # reference's invalid-name path (DataProvider.scala:326-329).
}


class ConsoleServer:
    """Localhost JSON console over an :class:`InteractiveComputation`.

    ``POST /api`` with ``{"provider": ...}`` dispatches exactly like the
    reference's WebSocket frame handler (ConsoleServer.scala:429-453);
    ``GET /`` serves a one-page status summary. The server runs in a
    daemon thread; all computation access is serialized through one lock
    so control actions and live reads interleave safely with a running
    ``continue`` loop.

    ``reset_fn`` (optional) recreates the computation for the console's
    reset button (ControlsProvider "reset"); without it, reset returns
    an error (the reference requires graph-reload support too).
    """

    def __init__(
        self,
        computation,
        host: str = "127.0.0.1",
        port: int = 0,
        reset_fn=None,
    ):
        self._lock = threading.RLock()
        self.computation = computation
        self._reset_fn = reset_fn
        self._log: list = []  # ring buffer of console events
        self._conditions: dict = {}  # cid -> (name, props)
        self._reached: dict = {}  # cid -> observed value at last pause
        self._continue_thread: Optional[threading.Thread] = None
        self._pause = threading.Event()

        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *a):  # silence stdlib access log
                pass

            def _send(self, code: int, payload, ctype="application/json"):
                body = (
                    payload.encode()
                    if isinstance(payload, str)
                    else json.dumps(payload).encode()
                )
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                if self.path in ("/", "/index.html"):
                    self._send(200, server._status_html(), "text/html")
                elif self.path.startswith("/api/"):
                    provider = self.path.rsplit("/", 1)[-1]
                    self._send(200, server.dispatch({"provider": provider}))
                else:
                    self._send(404, {"error": "not found"})

            def do_POST(self):
                if self.path != "/api":
                    self._send(404, {"error": "not found"})
                    return
                try:
                    n = int(self.headers.get("Content-Length", 0))
                    msg = json.loads(self.rfile.read(n) or b"{}")
                except (ValueError, json.JSONDecodeError):
                    self._send(400, {"provider": "invalid", "msg": "bad JSON"})
                    return
                self._send(200, server.dispatch(msg))

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self.host, self.port = self._httpd.server_address[:2]
        self.url = f"http://{self.host}:{self.port}"
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()

    # -- lifecycle ----------------------------------------------------------
    def shutdown(self):
        self.pause()
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()

    # -- dispatch (ConsoleServer.scala:436-447) ------------------------------
    def dispatch(self, msg: dict) -> dict:
        provider = msg.get("provider")
        try:
            if provider == "configuration":
                return self._configuration()
            if provider == "log":
                return {"provider": "log", "messages": list(self._log[-200:])}
            if provider == "graph":
                return self._graph(msg)
            if provider == "resources":
                return self._resources()
            if provider == "state":
                return self._state()
            if provider == "controls":
                return self._controls(msg)
            if provider == "breakconditions":
                return self._breakconditions(msg)
        except Exception as e:  # fetchStacktrace path, DataProvider.scala:71-93
            return {
                "provider": "error",
                "msg": f"{type(e).__name__}: {e}",
            }
        return {
            "provider": "invalid",
            "msg": json.dumps(msg),
            "comment": f"invalid provider: {provider!r}",
        }

    def _event(self, text: str):
        self._log.append(text)
        if len(self._log) > 1000:
            del self._log[:-500]

    # -- providers ------------------------------------------------------------
    def _configuration(self) -> dict:
        with self._lock:
            ns = self.computation._ns
            return {
                "provider": "configuration",
                "executionConfiguration": {
                    "mode": "Interactive",
                    "signalThreshold": ns.threshold,
                    "collectThreshold": 0.0,
                    "eps": ns.eps,
                    "stepsLimit": ns.max_supersteps,
                    "checkpointInterval": ns.ckpt_int,
                    "runDir": ns.run_dir,
                },
                "graphConfiguration": {
                    "numVertices": ns.graph.num_vertices,
                    "numEdges": ns.graph.num_edges,
                    "numPartitions": ns.graph.num_partitions,
                    "numWorkers": ns.rounds.W,
                    "graphDir": ns.graph.graph_dir,
                },
                "systemProperties": {
                    "algorithm": ns.algo.name,
                    "engine": "signal_collect_ray.ResidentEngine",
                },
            }

    def _state(self) -> dict:
        with self._lock:
            comp = self.computation
            running = (
                self._continue_thread is not None
                and self._continue_thread.is_alive()
            )
            if comp.converged:
                state = "converged"
            elif comp.reason == "StepsLimitReached":
                state = "stepsLimitReached"
            elif running:
                state = "continuing"
            else:
                state = "pausing"
            return {
                "provider": "state",
                "state": state,
                "iteration": comp.superstep,
                "residualMax": comp.last_manifest.get("residual_max"),
                "nActive": comp.last_manifest.get("n_active"),
                "terminationReason": comp.reason,
            }

    def _resources(self) -> dict:
        with self._lock:
            ns = self.computation._ns
            parts = ns.last.get("parts", [])
            return {
                "provider": "resources",
                "workerStatistics": [
                    {
                        "partition": p.get("part"),
                        "numVertices": p.get("n_vertices"),
                        "toCollectSize": p.get("signal_rows_in", 0),
                        "toSignalSize": p.get("n_active"),
                        "residualMax": p.get("residual_max"),
                        "edgesTraversed": p.get("edges_traversed"),
                    }
                    for p in parts
                ],
                "senderStatistics": {
                    "iteration": ns.k,
                    "wallSeconds": ns.last.get("wall_s", 0.0),
                },
            }

    # -- controls (DataProvider.scala:208-273) --------------------------------
    def _controls(self, msg: dict) -> dict:
        control = msg.get("control")
        if control not in (
            "step", "collect", "pause", "continue", "reset", "terminate",
        ):
            return {
                "provider": "invalid",
                "msg": json.dumps(msg),
                "comment": f"invalid control: {control!r}",
            }
        self._event(f"control: {control}")
        if control in ("step", "collect"):
            # BSP steps here are fused collect+signal; the reference's
            # separate "collect" button maps to one fused step.
            with self._lock:
                self.computation.step(1)
                self._note_reached()
        elif control == "continue":
            self._start_continue()
        elif control == "pause":
            self.pause()
        elif control == "terminate":
            self.pause()
            with self._lock:
                self.computation.finish()
        elif control == "reset":
            if self._reset_fn is None:
                return {
                    "provider": "controls",
                    "control": control,
                    "error": "reset requires a reset_fn",
                }
            self.pause()
            with self._lock:
                self.computation = self._reset_fn()
                self._reached.clear()
                # re-attach surviving break conditions to the fresh run
                # (fresh engine ids — the payload reflects the new ids)
                old = self._conditions
                self._conditions = {}
                for _cid, (name, props) in sorted(old.items()):
                    self._attach_condition(name, dict(props))
        return {"provider": "controls", "control": control}

    def _start_continue(self):
        if self._continue_thread is not None and self._continue_thread.is_alive():
            return
        self._pause.clear()

        def loop():
            while not self._pause.is_set():
                with self._lock:
                    comp = self.computation
                    if comp.converged:
                        break
                    k0 = comp.superstep
                    comp.step(1)
                    if comp.triggered:
                        self._note_reached()
                        break
                    if comp.superstep == k0:
                        break  # step limit: step() set the reason

        self._continue_thread = threading.Thread(target=loop, daemon=True)
        self._continue_thread.start()

    def pause(self):
        self._pause.set()
        t = self._continue_thread
        if t is not None and t.is_alive():
            t.join(timeout=60)

    def _note_reached(self):
        comp = self.computation
        if comp.triggered:
            self._reached = {str(k): v for k, v in comp.triggered.items()}
            self._event(f"break conditions reached: {self._reached}")

    # -- break conditions (DataProvider.scala:275-345) -------------------------
    def _attach_condition(self, name: str, props: dict) -> int:
        """Create + attach one condition; returns the engine-assigned
        condition id (the id used by remove and by ``reached``)."""
        comp = self.computation
        kind = BREAK_CONDITION_NAMES[name]
        value = None
        if kind in ("state_above", "state_below"):
            value = float(props["expectedState"])
        elif kind in ("signal_score_above", "signal_score_below"):
            # auto-filled from the execution configuration like the
            # reference (ConsoleServer.scala:149-156)
            value = float(
                props.get("threshold", self.computation._ns.threshold)
            )
            props["signalThreshold"] = str(value)
        cond = BreakCondition(int(props["vertexId"]), kind, value)
        # validate the vertex exists, and capture currentState like the
        # reference (ConsoleServer.scala:113-127)
        st = comp.aggregate(FindVerticesByIdsAggregator([cond.vid]))
        if cond.vid not in st:
            raise KeyError("Missing or invalid vertexId!")
        cid = comp.add_break_condition(cond)
        props["currentState"] = str(st[cond.vid][0])
        self._conditions[cid] = (name, props)
        return cid

    def _breakconditions(self, msg: dict) -> dict:
        action = msg.get("action")
        with self._lock:
            if action == "add":
                name = msg.get("name")
                if name not in BREAK_CONDITION_NAMES:
                    return {
                        "provider": "invalid",
                        "msg": json.dumps(msg),
                        "comment": "invalid Name!",
                    }
                props = dict(msg.get("props") or {})
                if "vertexId" not in props:
                    return self._conditions_payload(
                        error="Missing or invalid vertexId!"
                    )
                try:
                    self._attach_condition(name, props)
                    self._event(f"break condition added: {name} {props}")
                except (KeyError, ValueError) as e:
                    return self._conditions_payload(error=str(e))
            elif action == "remove":
                cid = msg.get("id")
                if cid is None:
                    return self._conditions_payload(error="Missing id!")
                self._conditions.pop(int(cid), None)
                self.computation.remove_break_condition(int(cid))
                self._reached.pop(str(cid), None)
            return self._conditions_payload()

    def _conditions_payload(self, error: Optional[str] = None) -> dict:
        out = {
            "provider": "breakconditions",
            "active": [
                {"id": cid, "name": name, "props": props}
                for cid, (name, props) in sorted(self._conditions.items())
            ],
            "reached": dict(self._reached),
        }
        if error:
            out["error"] = error
        return out

    # -- graph provider (DataProvider.scala:368-548) ----------------------------
    def _graph(self, msg: dict) -> dict:
        comp = self.computation
        target = min(int(msg.get("targetCount", 5)), 1000)
        radius = min(int(msg.get("vicinityRadius", 0)), 4)
        incoming = bool(msg.get("vicinityIncoming", False))
        query = msg.get("query", "vertexIds")

        with self._lock:
            if query == "vertexIds":
                base = {int(v) for v in msg.get("vertexIds", [])}
            elif query == "topState":
                rows = comp.aggregate(
                    TopStateAggregator(target, bool(msg.get("topStateInverted", False)))
                )
                base = {vid for _, vid in rows}
            elif query == "topDegree":
                base = set(comp.aggregate(TopDegreeAggregator(target)))
            elif query == "aboveThreshold":
                thr = float(
                    msg.get("signalThreshold", comp._ns.threshold)
                )
                base = set(
                    comp.aggregate(AboveThresholdAggregator(target, thr))
                )
            elif query == "substring":
                base = set(
                    comp.aggregate(
                        FindVertexIdsBySubstringAggregator(
                            str(msg.get("substring", "")), target
                        )
                    )
                )
            elif query == "sample":
                base = set(comp.aggregate(SampleAggregator(target)))
            else:
                return {
                    "provider": "invalid",
                    "msg": json.dumps(msg),
                    "comment": f"invalid query: {query!r}",
                }

            # vicinity expansion (findVicinity, DataProvider.scala:384-415)
            view = set(base)
            frontier = set(base)
            for _ in range(radius):
                nxt = set()
                out_nb = comp.out_neighbors(frontier)
                for ds in out_nb.values():
                    nxt.update(ds)
                if incoming:
                    nxt.update(comp.in_neighbor_sources(frontier))
                frontier = nxt - view
                view |= nxt
                if not frontier:
                    break

            data = comp.aggregate(FindVerticesByIdsAggregator(view))
            lo, hi = comp.aggregate(StateBoundsAggregator())
            nbrs = comp.out_neighbors(view)

        vertices = {}
        edges = {}
        vtype = type(comp._ns.algo).__name__
        for vid in sorted(view):
            if vid not in data:
                continue
            s, resid, _deg = data[vid]
            in_view = sorted(d for d in nbrs.get(vid, []) if d in view)
            # vertex shape ≙ AggregationOperation.scala:84-97: s=state,
            # es=#edges shown, ss=scoreSignal (this engine's residual),
            # cs=scoreCollect (fixed collectThreshold 0.0 → always 0)
            vertices[str(vid)] = {
                "s": s,
                "es": len(in_view),
                "ss": resid,
                "cs": 0.0,
                "t": vtype,
            }
            if in_view:
                edges[str(vid)] = [str(d) for d in in_view]
        return {
            "provider": "graph",
            "highestState": hi,
            "lowestState": lo,
            "vertices": vertices,
            "edges": edges,
        }

    # -- status page -----------------------------------------------------------
    def _status_html(self) -> str:
        st = self._state()
        cfg = self._configuration()
        rows = "".join(
            f"<tr><td>{k}</td><td>{v}</td></tr>"
            for k, v in [
                ("algorithm", cfg["systemProperties"]["algorithm"]),
                ("state", st["state"]),
                ("iteration", st["iteration"]),
                ("residualMax", st["residualMax"]),
                ("nActive", st["nActive"]),
                ("vertices", cfg["graphConfiguration"]["numVertices"]),
                ("edges", cfg["graphConfiguration"]["numEdges"]),
                ("workers", cfg["graphConfiguration"]["numWorkers"]),
            ]
        )
        return (
            "<!doctype html><title>signal-collect-ray console</title>"
            "<h1>signal-collect-ray console</h1>"
            f"<table border=1 cellpadding=4>{rows}</table>"
            "<p>POST JSON to <code>/api</code> with "
            '<code>{"provider": "graph"|"state"|"controls"|'
            '"breakconditions"|"configuration"|"resources"|"log"}</code>.</p>'
        )
