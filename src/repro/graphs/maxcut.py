"""MaxCut objective, baselines and exact solvers.

The MaxCut problem (paper §3.1): split nodes into two groups maximising the
total weight of edges whose endpoints land in different groups.  Assignments
are ``uint8`` arrays of 0/1 labels; spin (+1/-1) conversions are provided for
the Hamiltonian view.

Includes the random-partition baseline used in Fig. 4 (the networkx
``approximation.maxcut`` analogue), a one-exchange local search, an exact
brute-force solver via the vectorised cut diagonal (the same vector powers the
fast QAOA simulator) and a branch-and-bound exact solver for slightly larger
instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graphs.graph import Graph
from repro.util.rng import RngLike, ensure_rng


# ---------------------------------------------------------------------------
# Cut evaluation
# ---------------------------------------------------------------------------
def as_binary(assignment: np.ndarray) -> np.ndarray:
    """Coerce a 0/1 or ±1 assignment into canonical uint8 0/1 labels."""
    arr = np.asarray(assignment)
    if arr.dtype == np.uint8:
        return arr
    vals = np.unique(arr)
    if np.all(np.isin(vals, (-1, 1))):
        return ((1 - arr) // 2).astype(np.uint8)  # +1 -> 0, -1 -> 1
    if np.all(np.isin(vals, (0, 1))):
        return arr.astype(np.uint8)
    raise ValueError(f"assignment values must be 0/1 or ±1, got {vals}")


def as_spins(assignment: np.ndarray) -> np.ndarray:
    """0/1 labels -> ±1 spins (0 -> +1, 1 -> -1), the Z eigenvalue view."""
    return (1 - 2 * as_binary(assignment).astype(np.int64)).astype(np.float64)


def cut_value(graph: Graph, assignment: np.ndarray) -> float:
    """Total weight of edges cut by ``assignment`` (vectorised)."""
    x = as_binary(assignment)
    if len(x) != graph.n_nodes:
        raise ValueError(
            f"assignment length {len(x)} != n_nodes {graph.n_nodes}"
        )
    if graph.n_edges == 0:
        return 0.0
    return float(graph.w[x[graph.u] != x[graph.v]].sum())


def cut_diagonal(graph: Graph, dtype=np.float64) -> np.ndarray:
    """Cut value of *every* bitstring, as a vector of length ``2**n``.

    Index ``i`` encodes the assignment whose node-``q`` label is bit ``q``
    of ``i`` (little-endian, matching the statevector qubit convention).
    This is simultaneously the diagonal of the problem Hamiltonian
    ``H_C = ½ Σ w (1 − Z_i Z_j)`` (paper Eq. 1) and is the workhorse of the
    fast QAOA simulator and the brute-force exact solver.

    Each edge ``(u, v)`` (``u < v``) adds its weight in place to the two
    strided quarters of the ``(2**(n-1-v), 2, 2**(v-u-1), 2, 2**u)`` view
    where bits ``u`` and ``v`` differ, so no temporaries are allocated and
    memory stays at ``8 * 2**n`` bytes.  Every entry receives its edges'
    weights in edge order, so the result is bit-identical to accumulating
    ``w * (bit_u XOR bit_v)`` edge by edge.
    """
    n = graph.n_nodes
    if n > 28:
        raise ValueError(f"cut_diagonal infeasible for n={n} (2**n entries)")
    diag = np.zeros(1 << n, dtype=dtype)
    for a, b, weight in zip(graph.u.tolist(), graph.v.tolist(), graph.w, strict=True):
        view = diag.reshape(1 << (n - 1 - b), 2, 1 << (b - a - 1), 2, 1 << a)
        view[:, 0, :, 1] += weight
        view[:, 1, :, 0] += weight
    return diag


def bitstring_to_assignment(bits: int, n: int) -> np.ndarray:
    """Integer bitstring index -> uint8 assignment array (little-endian)."""
    return ((bits >> np.arange(n, dtype=np.uint64)) & 1).astype(np.uint8)


def assignment_to_bitstring(assignment: np.ndarray) -> int:
    """uint8 assignment array -> integer index (little-endian)."""
    x = as_binary(assignment).astype(np.uint64)
    return int((x << np.arange(len(x), dtype=np.uint64)).sum())


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------
@dataclass
class CutResult:
    """Solution container: assignment (uint8 0/1), cut value, metadata."""

    assignment: np.ndarray
    cut: float
    method: str = ""
    extra: dict = None

    def __post_init__(self) -> None:
        self.assignment = as_binary(self.assignment)
        if self.extra is None:
            self.extra = {}


def random_cut(graph: Graph, rng: RngLike = None) -> CutResult:
    """Uniform random partition (expected cut = total_weight / 2)."""
    gen = ensure_rng(rng)
    x = gen.integers(0, 2, size=graph.n_nodes, dtype=np.uint8)
    return CutResult(x, cut_value(graph, x), "random")


def randomized_partitioning(
    graph: Graph, *, trials: int = 1, p: float = 0.5, rng: RngLike = None
) -> CutResult:
    """Best of ``trials`` random cuts — the networkx
    ``approximation.maxcut.randomized_partitioning`` analogue used as the
    "Random" series in Fig. 4."""
    gen = ensure_rng(rng)
    best: Optional[CutResult] = None
    for _ in range(max(1, trials)):
        x = (gen.random(graph.n_nodes) < p).astype(np.uint8)
        c = cut_value(graph, x)
        if best is None or c > best.cut:
            best = CutResult(x, c, "randomized_partitioning")
    return best


def one_exchange(
    graph: Graph,
    assignment: Optional[np.ndarray] = None,
    *,
    max_sweeps: int = 100,
    rng: RngLike = None,
) -> CutResult:
    """Greedy single-node-flip local search to a 1-exchange local optimum.

    Flip gain for node ``i`` is ``d_same(i) - d_cross(i)`` where the two
    terms are the weights to same-side and other-side neighbours.  Runs
    sweeps until no improving flip exists (or ``max_sweeps``).
    """
    gen = ensure_rng(rng)
    if assignment is None:
        x = gen.integers(0, 2, size=graph.n_nodes, dtype=np.uint8)
    else:
        x = as_binary(assignment).copy()
    indptr, indices, weights = graph.neighbors()
    for _ in range(max_sweeps):
        improved = False
        order = gen.permutation(graph.n_nodes)
        for i in order:
            nbr = indices[indptr[i] : indptr[i + 1]]
            wn = weights[indptr[i] : indptr[i + 1]]
            if len(nbr) == 0:
                continue
            cross = wn[x[nbr] != x[i]].sum()
            same = wn[x[nbr] == x[i]].sum()
            if same > cross + 1e-12:
                x[i] ^= 1
                improved = True
        if not improved:
            break
    return CutResult(x, cut_value(graph, x), "one_exchange")


# ---------------------------------------------------------------------------
# Exact solvers
# ---------------------------------------------------------------------------
def exact_maxcut_bruteforce(graph: Graph) -> CutResult:
    """Exact optimum by enumerating the cut diagonal (n <= ~22).

    Only half the bitstrings are examined since ``cut(x) == cut(~x)``.
    """
    n = graph.n_nodes
    if n > 24:
        raise ValueError(f"brute force infeasible for n={n}")
    if n == 0:
        return CutResult(np.zeros(0, dtype=np.uint8), 0.0, "exact_bruteforce")
    diag = cut_diagonal(graph)
    half = diag[: max(1, len(diag) // 2)]  # fix node n-1 to side 0
    best_idx = int(np.argmax(half))
    return CutResult(
        bitstring_to_assignment(best_idx, n), float(half[best_idx]), "exact_bruteforce"
    )


def exact_maxcut_branch_and_bound(
    graph: Graph, *, time_budget_nodes: int = 5_000_000
) -> CutResult:
    """Exact optimum via DFS branch-and-bound with an additive bound.

    Bound: current cut + total |weight| of all edges not yet decided.
    Handles negative weights (which QAOA² merge graphs produce).  The node
    budget guards against pathological instances; on exhaustion the
    incumbent (still a valid cut, possibly suboptimal) is returned with
    ``extra['optimal'] = False``.
    """
    n = graph.n_nodes
    if n == 0:
        return CutResult(np.zeros(0, dtype=np.uint8), 0.0, "exact_bnb")
    # Order nodes by weighted degree (descending) for stronger early bounds.
    order = np.argsort(-graph.degrees(weighted=True)).astype(np.int64)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    # For each node (in assignment order), edges to already-assigned nodes.
    earlier: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    remaining_after = np.zeros(n + 1)
    for a, b, weight in zip(graph.u, graph.v, graph.w, strict=True):
        pa, pb = pos[a], pos[b]
        hi, lo = (pa, pb) if pa > pb else (pb, pa)
        earlier[hi].append((int(lo), float(weight)))
        remaining_after[: hi + 1] += abs(weight)
    # remaining_after[k] = total |w| of edges whose later endpoint is at
    # position >= k, i.e. still undecided once k nodes are fixed.
    incumbent = one_exchange(graph, rng=0)
    best_cut = incumbent.cut
    best_x = incumbent.assignment[order].copy()  # in assignment order
    x = np.zeros(n, dtype=np.uint8)
    visited = 0
    optimal = True

    def dfs(k: int, cur: float) -> None:
        nonlocal best_cut, best_x, visited, optimal
        if visited > time_budget_nodes:
            optimal = False
            return
        visited += 1
        if k == n:
            if cur > best_cut:
                best_cut = cur
                best_x = x.copy()
            return
        if cur + remaining_after[k] <= best_cut + 1e-12:
            return
        gains = [0.0, 0.0]
        for j, weight in earlier[k]:
            gains[1 ^ x[j]] += weight  # placing opposite side cuts the edge
        # Symmetry break: first node pinned to side 0.
        sides = (0,) if k == 0 else ((0, 1) if gains[0] >= gains[1] else (1, 0))
        for side in sides:
            x[k] = side
            dfs(k + 1, cur + gains[side])
        x[k] = 0

    dfs(0, 0.0)
    assignment = np.empty(n, dtype=np.uint8)
    assignment[order] = best_x
    return CutResult(
        assignment, float(best_cut), "exact_bnb", {"optimal": optimal, "visited": visited}
    )


def exact_maxcut(graph: Graph) -> CutResult:
    """Dispatch to the cheapest exact solver for this size."""
    if graph.n_nodes <= 20:
        return exact_maxcut_bruteforce(graph)
    return exact_maxcut_branch_and_bound(graph)


__all__ = [
    "CutResult",
    "as_binary",
    "as_spins",
    "cut_value",
    "cut_diagonal",
    "bitstring_to_assignment",
    "assignment_to_bitstring",
    "random_cut",
    "randomized_partitioning",
    "one_exchange",
    "exact_maxcut_bruteforce",
    "exact_maxcut_branch_and_bound",
    "exact_maxcut",
]
