"""Compare the program's outputs with the expected results from inputs.py.

Every check returns a list of problems; an empty list means it passed.
The state arguments are (vid, state) numpy arrays sorted by vid, as read
back from the program's final checkpoint.
"""

from __future__ import annotations

import numpy as np

# PageRank at eps 1e-6 stops while residuals of up to 1e-6 are still
# unsent. Against the converged power iteration that left a largest
# error of 3.5e-6 to 4.1e-6 and a fixpoint-identity gap of 1.5e-5 to
# 1.7e-5 on eight seeds of the full crawl input, so both tolerances sit
# about five times above what was measured. A planted error of 1e-3 in
# one value stays far outside them.
PAGERANK_ABS_TOL = 2e-5
IDENTITY_ABS_TOL = 1e-4
# Fixed k-step runs do the same arithmetic as the numpy Jacobi steps up
# to summation order (measured relative error at most 2.6e-15 on three
# seeds).
JACOBI_REL_TOL = 1e-12


def check_count(what: str, got: int, want: int) -> list[str]:
    return [] if got == want else [f"{what}: {got}, expected {want}"]


def check_converged(what: str, info) -> list[str]:
    return [] if info.converged else [f"{what} stopped unconverged ({info.termination_reason})"]


def _same_vertices(vid: np.ndarray, expected_vid: np.ndarray) -> list[str]:
    if len(vid) != len(expected_vid):
        return [f"{len(vid)} vertices, expected {len(expected_vid)}"]
    if not np.array_equal(vid, expected_vid):
        return [f"{int((vid != expected_vid).sum())} vertex ids differ from the url hashes"]
    return []


def check_pagerank(vid, state, out_degree, expected) -> list[str]:
    problems = _same_vertices(vid, expected["vid"])
    if problems:
        return problems
    if not np.array_equal(out_degree, expected["out_degree"]):
        problems.append(
            f"out-degree differs on {int((out_degree != expected['out_degree']).sum())} vertices"
        )
    err = np.abs(state - expected["pagerank"])
    if err.max() > PAGERANK_ABS_TOL:
        problems.append(
            f"pagerank off by {err.max():.3g} at vid {int(vid[err.argmax()])} "
            f"(tolerance {PAGERANK_ABS_TOL:g})"
        )
    # fixpoint identity: Σx = 0.15·N + 0.85·Σ_{outdeg>0} x
    lhs = state.sum()
    rhs = 0.15 * len(state) + 0.85 * state[out_degree > 0].sum()
    if abs(lhs - rhs) > IDENTITY_ABS_TOL:
        problems.append(f"fixpoint identity off by {abs(lhs - rhs):.3g}")
    return problems


def check_jacobi(vid, state, expected_vid, expected_state, steps: int) -> list[str]:
    problems = _same_vertices(vid, expected_vid)
    if problems:
        return problems
    rel = np.abs(state - expected_state) / np.abs(expected_state)
    if rel.max() > JACOBI_REL_TOL:
        return [
            f"state after {steps} supersteps off by {rel.max():.3g} relative "
            f"at vid {int(vid[rel.argmax()])}"
        ]
    return []


def check_components(vid, label, expected) -> list[str]:
    problems = _same_vertices(vid, expected["vid"])
    if problems:
        return problems
    wrong = label != expected["cc"]
    if wrong.any():
        problems.append(
            f"{int(wrong.sum())} component labels differ from the union-find minimum"
        )
    return problems


def check_labelprop(vid, label, expected) -> list[str]:
    """Each ChineseWhispers label must be the vid of a vertex in the same component."""
    problems = _same_vertices(vid, expected["vid"])
    if problems:
        return problems
    pos = np.searchsorted(vid, label).clip(0, len(vid) - 1)
    unknown = vid[pos] != label
    if unknown.any():
        return [f"{int(unknown.sum())} labels are not vertex ids"]
    foreign = expected["cc"][pos] != expected["cc"]
    if foreign.any():
        problems.append(f"{int(foreign.sum())} labels name a vertex of another component")
    return problems


def check_triangles(count: int, expected) -> list[str]:
    return check_count("triangles against the DuckDB count", count, int(expected["triangles"]))
