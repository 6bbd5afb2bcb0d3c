"""Hash exchanges as Ray tasks on object refs, with no Ray Data shuffle.

One idiom serves ``Graph.build`` and the triangle pipeline: the tables
of a stage (a Dataset's blocks, or the outputs of R earlier tasks) each
go through one split task with R returns that routes their rows to
reducer ``key % R`` (``route``); reducer r is one task that takes the
r-th piece of every split. ``key`` holds a partition id in [0, P), so
partition p belongs to reducer p % R, the executors' ownership rule,
and R = min(P, cluster CPUs). A reducer that feeds a further exchange
splits its own output in the same task.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
import pyarrow as pa

from signal_collect_ray.util import segment_starts


def _to_np(tbl: pa.Table, col: str) -> np.ndarray:
    return tbl.column(col).combine_chunks().to_numpy(zero_copy_only=False)


def num_reducers(P: int) -> int:
    """R = min(P, cluster CPUs): the reducer count of every exchange."""
    import ray

    return max(1, min(P, int(ray.cluster_resources().get("CPU", 1))))


def block_refs(ds) -> Iterable:
    """The refs of a Dataset's non-empty blocks, yielded as they are
    produced, so split tasks start while later blocks are still read."""
    for bundle in ds.iter_internal_ref_bundles():
        for ref, md in bundle.blocks:
            if md.num_rows != 0:
                yield ref


def concat(pieces) -> Optional[pa.Table]:
    """The non-empty pieces (Arrow blocks or split outputs) as one
    table, or None when every piece is empty."""
    tbls = [t for t in pieces if t is not None and t.num_rows]
    return pa.concat_tables(tbls, promote_options="permissive") if tbls else None


def by_owner(tbl: Optional[pa.Table], key: str, R: int) -> list:
    """Rows of ``tbl`` routed to reducer ``key % R``: R tables (None
    where a reducer gets no rows), arrival order kept within each."""
    if tbl is None or not tbl.num_rows:
        return [None] * R
    if R == 1:
        return [tbl]
    owner = _to_np(tbl, key) % R
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(R + 1))
    return [
        tbl.take(order[a:b]) if b > a else None
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


def groups(tbl: pa.Table, key: str) -> list:
    """One sub-table per distinct ``key`` value, arrival order kept."""
    k = _to_np(tbl, key)
    order = np.argsort(k, kind="stable")
    tbl = tbl.take(order)
    starts = segment_starts(k[order])
    ends = np.append(starts[1:], len(k))
    return [tbl.slice(a, b - a) for a, b in zip(starts, ends)]


def returns(outs: list):
    """A task's list of returns: Ray hands back a one-return task's
    value as is."""
    return outs if len(outs) > 1 else outs[0]


def submit(fn, n: int, *args) -> list:
    """Submit ``fn`` as a Ray task with n returns; the n refs as a list."""
    from signal_collect_ray.engine import remote

    refs = remote(fn).options(num_returns=n).remote(*args)
    return refs if n > 1 else [refs]


def _route_task(key: str, R: int, fn, n_args: int, *rest):
    # fn's arguments come first in ``rest``, then the pieces: both are
    # top-level task arguments, so Ray resolves the refs among them
    tbl = concat(rest[n_args:])
    if fn is not None and tbl is not None:
        tbl = fn(tbl, *rest[:n_args])
    return returns(by_owner(tbl, key, R))


def route(sources: Iterable, key: str, R: int, fn=None, *args) -> list:
    """R lists of piece refs, one per reducer. Each source (a list of
    table refs) is one task that concatenates its tables, applies
    ``fn(table, *args)`` when given (never to an empty input) and routes
    the rows to reducer ``key % R``: a split task per block, or a
    reducer that splits its output for the next exchange. Without ``fn``
    at R == 1 the tables go to the one reducer as they are, with no
    task."""
    if fn is None and R == 1:
        return [[ref for src in sources for ref in src]]
    outs = [submit(_route_task, R, key, R, fn, len(args), *args, *src) for src in sources]
    return [[o[r] for o in outs] for r in range(R)]
