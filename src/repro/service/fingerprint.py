"""Canonical graph fingerprints for request-level caching.

The solver service (:mod:`repro.service.service`) treats a *request* — a
graph plus a solver configuration — as its unit of work, so two requests
must share one cache entry whenever their graphs are the same up to node
relabeling.  This module computes a canonical relabeling by iterated
degree refinement (1-WL colour refinement over the weighted neighbour
multisets) followed, when the refinement leaves colour ties, by
individualisation backtracking that picks the permutation minimising the
canonical edge list.  The resulting fingerprint carries:

* ``digest``  — a stable hash of the canonically relabelled edge arrays
  (plus weights), shared by every relabelling of the same graph;
* ``perm``    — the relabeling (original node ``i`` → canonical label
  ``perm[i]``) used to map cached assignments back into the request's
  own labels (:meth:`GraphFingerprint.from_canonical`);
* the canonical edge arrays themselves, so cache lookups can verify a
  digest match exactly instead of trusting the hash.

Highly symmetric graphs can make the exact search explode (every
automorphism is a tie), so the search is capped: past ``max_leaves``
leaves — or past ``max_search_nodes`` nodes — the fingerprint falls back
to refinement colours with original-index tie-breaks.  Fallback
fingerprints are still *sound* (byte-identical graphs collide, different
graphs never do, thanks to the stored canonical arrays); they may merely
miss some isomorphic-relabeling cache hits, and they carry
``exact=False`` folded into the digest so the two regimes never mix.

Weights participate exactly (raw float64 values): relabeling a graph
permutes but never perturbs its weights, so float equality is the right
notion and no rounding tolerance is needed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import Graph

# Exact-search budget: number of discrete leaf colourings examined before
# the canonicalisation falls back to refinement-only mode.  Only graphs
# with large automorphism groups (cycles, complete graphs, ...) ever
# branch this much; the weighted ER instances the service actually sees
# discretise after one or two refinement rounds.
DEFAULT_MAX_LEAVES = 64
# Above this node count the backtracking search is skipped outright; the
# refinement-only fingerprint is used.  Requests this large are far past
# the direct-solver regime anyway (they get partitioned by QAOA²).
DEFAULT_MAX_SEARCH_NODES = 256


class _SearchBudgetExceeded(Exception):
    """Raised internally when the exact canonical search overruns."""


@dataclass(frozen=True)
class GraphFingerprint:
    """Canonical identity of one graph plus the relabeling that proves it."""

    digest: str
    n_nodes: int
    perm: np.ndarray  # original label i -> canonical label perm[i]
    canon_u: np.ndarray
    canon_v: np.ndarray
    canon_w: np.ndarray
    exact: bool

    def to_canonical(self, assignment: np.ndarray) -> np.ndarray:
        """Re-index an assignment from request labels to canonical labels."""
        assignment = np.asarray(assignment)
        canon = np.empty_like(assignment)
        canon[self.perm] = assignment
        return canon

    def from_canonical(self, canonical_assignment: np.ndarray) -> np.ndarray:
        """Re-index a canonical-label assignment back to request labels."""
        return np.asarray(canonical_assignment)[self.perm]


# ---------------------------------------------------------------------------
# Colour refinement
# ---------------------------------------------------------------------------
def _neighbor_lists(graph: Graph) -> List[List[Tuple[int, float]]]:
    nbrs: List[List[Tuple[int, float]]] = [[] for _ in range(graph.n_nodes)]
    for a, b, w in zip(
        graph.u.tolist(), graph.v.tolist(), graph.w.tolist(), strict=True
    ):
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))
    return nbrs


def _initial_colors(graph: Graph, nbrs) -> List[int]:
    """Label-free starting colours: (degree, sorted incident weights)."""
    sigs = [
        (len(adj), tuple(sorted(w for _, w in adj)))
        for adj in nbrs
    ]
    ranking = {sig: rank for rank, sig in enumerate(sorted(set(sigs)))}
    return [ranking[sig] for sig in sigs]


def _refine(colors: List[int], nbrs) -> List[int]:
    """Iterate 1-WL refinement to a stable (equitable) colouring.

    Signatures are built only from colour values and edge weights — both
    label-free — and renumbered by sorted order each round, so the final
    colouring is invariant under node relabeling.
    """
    n = len(colors)
    n_colors = len(set(colors))
    if n_colors == n:
        # Already discrete, hence stable: each signature leads with the
        # node's own colour, so a round would only renumber by that order.
        return colors
    while True:
        sigs = [
            (colors[i], tuple(sorted((colors[j], w) for j, w in nbrs[i])))
            for i in range(n)
        ]
        ranking = {sig: rank for rank, sig in enumerate(sorted(set(sigs)))}
        colors = [ranking[sig] for sig in sigs]
        if len(ranking) == n_colors:
            return colors
        n_colors = len(ranking)


def _cells(colors: List[int]) -> Dict[int, List[int]]:
    cells: Dict[int, List[int]] = {}
    for node, color in enumerate(colors):
        cells.setdefault(color, []).append(node)
    return cells


# ---------------------------------------------------------------------------
# Canonical permutation
# ---------------------------------------------------------------------------
def _perm_from_discrete(colors: List[int]) -> np.ndarray:
    """All-singleton colouring -> permutation (node i -> rank of its colour)."""
    order = np.argsort(np.asarray(colors, dtype=np.int64), kind="stable")
    perm = np.empty(len(colors), dtype=np.int64)
    perm[order] = np.arange(len(colors))
    return perm


def _canonical_edges(
    graph: Graph, perm: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    cu = perm[graph.u]
    cv = perm[graph.v]
    lo = np.minimum(cu, cv)
    hi = np.maximum(cu, cv)
    order = np.lexsort((hi, lo))
    return lo[order], hi[order], graph.w[order]


def _edge_key(graph: Graph, perm: np.ndarray) -> Tuple[bytes, bytes, bytes]:
    lo, hi, w = _canonical_edges(graph, perm)
    return lo.tobytes(), hi.tobytes(), w.tobytes()


def _search_canonical_perm(
    graph: Graph, nbrs, colors: List[int], max_leaves: int
) -> np.ndarray:
    """Individualisation-refinement backtracking.

    Explores every member of the first non-singleton cell at each level
    (the branch set is a full cell, which is itself label-free, so the
    minimum over leaves is relabeling-invariant) and keeps the permutation
    whose canonical edge list is lexicographically smallest.
    """
    best: Optional[Tuple[Tuple[bytes, bytes, bytes], np.ndarray]] = None
    leaves = 0

    def recurse(colors: List[int]) -> None:
        nonlocal best, leaves
        colors = _refine(colors, nbrs)
        cells = _cells(colors)
        target: Optional[List[int]] = None
        for color in sorted(cells):
            if len(cells[color]) > 1:
                target = cells[color]
                break
        if target is None:
            leaves += 1
            if leaves > max_leaves:
                raise _SearchBudgetExceeded
            perm = _perm_from_discrete(colors)
            key = _edge_key(graph, perm)
            if best is None or key < best[0]:
                best = (key, perm)
            return
        for node in target:
            # Individualise: `node` gets a colour sorting just below its
            # cellmates; doubling keeps all other colour orderings intact.
            branched = [2 * c for c in colors]
            branched[node] = 2 * colors[node] - 1
            recurse(branched)

    recurse(colors)
    assert best is not None
    return best[1]


def _fallback_perm(colors: List[int]) -> np.ndarray:
    """Refinement colours with original-index tie-breaks (inexact mode)."""
    n = len(colors)
    order = np.lexsort((np.arange(n), np.asarray(colors, dtype=np.int64)))
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.arange(n)
    return perm


def canonical_fingerprint(
    graph: Graph,
    *,
    max_leaves: int = DEFAULT_MAX_LEAVES,
    max_search_nodes: int = DEFAULT_MAX_SEARCH_NODES,
) -> GraphFingerprint:
    """Compute the canonical fingerprint of ``graph`` (see module docs).

    Default-budget fingerprints are memoised on the (frozen) graph's own
    cache dict — like its adjacency views — so the hot cache-hit path of
    a repeatedly requested graph object pays the WL refinement once.
    """
    default_budgets = (
        max_leaves == DEFAULT_MAX_LEAVES
        and max_search_nodes == DEFAULT_MAX_SEARCH_NODES
    )
    if default_budgets:
        cached = graph._cache.get("canonical_fingerprint")
        if cached is not None:
            return cached
    fp = _compute_fingerprint(graph, max_leaves, max_search_nodes)
    if default_budgets:
        graph._cache["canonical_fingerprint"] = fp
    return fp


def _compute_fingerprint(
    graph: Graph, max_leaves: int, max_search_nodes: int
) -> GraphFingerprint:
    n = graph.n_nodes
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        digest = _digest_for(0, empty, empty, np.empty(0), True)
        return GraphFingerprint(digest, 0, empty, empty, empty, np.empty(0), True)
    if graph.n_edges == 0:
        # Every relabeling of an edgeless graph is the same graph; skip
        # the search (which would otherwise branch over one big cell).
        perm = np.arange(n, dtype=np.int64)
        canon_u, canon_v, canon_w = _canonical_edges(graph, perm)
        digest = _digest_for(n, canon_u, canon_v, canon_w, True)
        return GraphFingerprint(digest, n, perm, canon_u, canon_v, canon_w, True)
    nbrs = _neighbor_lists(graph)
    colors = _refine(_initial_colors(graph, nbrs), nbrs)
    exact = True
    if len(set(colors)) == n:
        perm = _perm_from_discrete(colors)
    elif n > max_search_nodes:
        perm = _fallback_perm(colors)
        exact = False
    else:
        try:
            perm = _search_canonical_perm(graph, nbrs, colors, max_leaves)
        except _SearchBudgetExceeded:
            perm = _fallback_perm(colors)
            exact = False
    canon_u, canon_v, canon_w = _canonical_edges(graph, perm)
    digest = _digest_for(n, canon_u, canon_v, canon_w, exact)
    return GraphFingerprint(digest, n, perm, canon_u, canon_v, canon_w, exact)


def _digest_for(
    n_nodes: int,
    canon_u: np.ndarray,
    canon_v: np.ndarray,
    canon_w: np.ndarray,
    exact: bool,
) -> str:
    h = hashlib.sha256()
    h.update(f"graph|{n_nodes}|{int(exact)}|".encode())
    h.update(np.ascontiguousarray(canon_u, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(canon_v, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(canon_w, dtype=np.float64).tobytes())
    return h.hexdigest()[:32]


# ---------------------------------------------------------------------------
# Request fingerprints
# ---------------------------------------------------------------------------
def _jsonable(obj):
    """Canonicalise a config value for stable JSON hashing."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(item) for item in obj]
    if hasattr(obj, "tolist"):  # numpy scalars and arrays
        return _jsonable(obj.tolist())
    if isinstance(obj, (str, bool)) or obj is None:
        return obj
    if isinstance(obj, (int, float)):
        return obj
    return repr(obj)


def config_token(config) -> str:
    """Stable serialisation of a solver-configuration mapping/sequence."""
    return json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))


def solver_config(
    *,
    method: str,
    options: Optional[dict] = None,
    qaoa_grid: Optional[Sequence[dict]] = None,
    gw_options: Optional[dict] = None,
) -> str:
    """A request's solver configuration, serialised for :func:`config_digest`.

    A request's seed-less and seeded digests both cover this string, so a
    caller that needs both serialises the configuration once.  An absent
    or empty field is written as ``config_token`` writes an empty one.
    """
    return "|".join(
        (
            str(method),
            config_token(options) if options else "{}",
            config_token(list(qaoa_grid)) if qaoa_grid else "[]",
            config_token(gw_options) if gw_options else "{}",
        )
    )


def config_digest(graph_digest: str, config: str, seed: Optional[int]) -> str:
    """The request digest of a graph digest, a :func:`solver_config` and a seed."""
    payload = "|".join(
        (
            graph_digest,
            config,
            "auto" if seed is None else str(int(seed)),
            # A constant now, kept so digests stay where they were: seeds
            # of requests that carry none derive from this digest, so the
            # zipf_http checksums and every disk-log record depend on it.
            "batched",
        )
    )
    return hashlib.sha256(("request|" + payload).encode()).hexdigest()[:32]


def request_digest(
    graph_digest: str,
    *,
    method: str,
    options: Optional[dict] = None,
    qaoa_grid: Optional[Sequence[dict]] = None,
    gw_options: Optional[dict] = None,
    seed: Optional[int] = None,
) -> str:
    """Cache key for one solve request: graph identity + full solver config.

    The seed is part of the key: a cached entry is only ever returned for
    a request that a from-scratch solve would answer with the very same
    deterministic computation (bit-identical for byte-equal graphs,
    isomorphism-mapped for relabelled ones).
    """
    config = solver_config(
        method=method, options=options, qaoa_grid=qaoa_grid, gw_options=gw_options
    )
    return config_digest(graph_digest, config, seed)


__all__ = [
    "DEFAULT_MAX_LEAVES",
    "DEFAULT_MAX_SEARCH_NODES",
    "GraphFingerprint",
    "canonical_fingerprint",
    "config_digest",
    "config_token",
    "request_digest",
    "solver_config",
]
