"""Immutable weighted graph used throughout the library.

The paper works with undirected weighted graphs (Erdős–Rényi instances,
§4).  Instead of carrying :mod:`networkx` objects through the hot paths we
use a flat edge-array representation (``u``, ``v``, ``w`` NumPy arrays with
``u < v`` canonical ordering) which vectorises cut evaluation, Hamiltonian
construction and SDP assembly.  Conversion helpers to/from networkx are
provided for interoperability and for the partitioning backend comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np
from scipy.sparse import coo_matrix

try:  # networkx is a declared dependency but keep import failure local
    import networkx as nx
except ImportError:  # pragma: no cover - networkx is always installed here
    nx = None


def _check_finite(weights: np.ndarray) -> None:
    """Raise ``ValueError`` on a NaN or infinite edge weight: every cut,
    diagonal and relaxation built from it would be NaN or meaningless."""
    if not np.isfinite(weights).all():
        raise ValueError("edge weights must be finite")


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph with nodes ``0..n_nodes-1``.

    Attributes
    ----------
    n_nodes:
        Number of nodes; nodes are consecutive integers starting at 0.
    u, v:
        Edge endpoint arrays (``int64``), canonicalised so ``u[k] < v[k]``
        and edges sorted lexicographically.  No self loops, no duplicates.
    w:
        Edge weights (``float64``).  Negative weights are allowed — the
        QAOA² merge step (paper §3.3 step 4) produces them — but every
        weight must be finite (construction raises ``ValueError``).
    """

    n_nodes: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_edges(
        n_nodes: int,
        edges: Iterable[Tuple[int, int, float]] | Sequence,
        *,
        sum_duplicates: bool = True,
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v, weight)`` triples.

        Self loops are rejected.  Duplicate edges are merged by summing
        weights when ``sum_duplicates`` (needed by the QAOA² merge, which
        aggregates all cross edges between two communities into one edge).
        """
        edge_list = list(edges)
        if not edge_list:
            empty = np.empty(0)
            return Graph(
                int(n_nodes),
                empty.astype(np.int64),
                empty.astype(np.int64),
                empty.astype(np.float64),
            )
        arr = np.asarray(edge_list, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] not in (2, 3):
            raise ValueError("edges must be (u, v) or (u, v, w) triples")
        uu = arr[:, 0].astype(np.int64)
        vv = arr[:, 1].astype(np.int64)
        ww = arr[:, 2] if arr.shape[1] == 3 else np.ones(len(arr))
        return Graph._from_arrays(int(n_nodes), uu, vv, ww, sum_duplicates)

    @staticmethod
    def _from_arrays(
        n_nodes: int,
        uu: np.ndarray,
        vv: np.ndarray,
        ww: np.ndarray,
        sum_duplicates: bool = True,
    ) -> "Graph":
        if len(uu) and (uu.min() < 0 or vv.min() < 0):
            raise ValueError("node indices must be non-negative")
        if len(uu) and max(uu.max(), vv.max()) >= n_nodes:
            raise ValueError("edge endpoint exceeds n_nodes")
        if np.any(uu == vv):
            raise ValueError("self loops are not allowed")
        lo = np.minimum(uu, vv)
        hi = np.maximum(uu, vv)
        order = np.lexsort((hi, lo))
        lo, hi, ww = lo[order], hi[order], np.asarray(ww, dtype=np.float64)[order]
        if len(lo) > 1:
            same = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
            if same.any():
                if not sum_duplicates:
                    raise ValueError("duplicate edges present")
                # Group-by consecutive identical (lo, hi) pairs and sum weights
                boundary = np.concatenate(([True], ~same))
                group = np.cumsum(boundary) - 1
                n_groups = group[-1] + 1
                wsum = np.zeros(n_groups)
                with np.errstate(over="ignore"):  # rejected just below
                    np.add.at(wsum, group, ww)
                keep = np.flatnonzero(boundary)
                lo, hi, ww = lo[keep], hi[keep], wsum
        # After the duplicate sums: two finite duplicates can overflow.
        _check_finite(ww)
        return Graph(int(n_nodes), lo, hi, ww)

    @staticmethod
    def from_networkx(g: "nx.Graph", weight: str = "weight") -> "Graph":
        """Convert a networkx graph (nodes relabelled to 0..n-1, sorted)."""
        nodes = sorted(g.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [
            (index[a], index[b], float(data.get(weight, 1.0)))
            for a, b, data in g.edges(data=True)
        ]
        return Graph.from_edges(len(nodes), edges)

    def to_networkx(self) -> "nx.Graph":
        """Convert to a networkx graph with ``weight`` edge attributes."""
        g = nx.Graph()
        g.add_nodes_from(range(self.n_nodes))
        for a, b, weight in zip(self.u, self.v, self.w, strict=True):
            g.add_edge(int(a), int(b), weight=float(weight))
        return g

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        return len(self.u)

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights (the trivial upper bound on the cut)."""
        return float(self.w.sum())

    @property
    def is_weighted(self) -> bool:
        """True unless every edge weight equals 1 (paper's "unweighted")."""
        return bool(self.n_edges) and not np.allclose(self.w, 1.0)

    @property
    def density(self) -> float:
        """Edge density |E| / C(n, 2); the paper's "edge probability" analogue."""
        if self.n_nodes < 2:
            return 0.0
        return 2.0 * self.n_edges / (self.n_nodes * (self.n_nodes - 1))

    def degrees(self, weighted: bool = False) -> np.ndarray:
        """Per-node degree (or weighted degree / strength)."""
        deg = np.zeros(self.n_nodes)
        inc = self.w if weighted else np.ones(self.n_edges)
        np.add.at(deg, self.u, inc)
        np.add.at(deg, self.v, inc)
        return deg

    def edge_index(self) -> Dict[Tuple[int, int], int]:
        """Map from canonical ``(u, v)`` pair to edge position."""
        return {
            (int(a), int(b)): k for k, (a, b) in enumerate(zip(self.u, self.v, strict=True))
        }

    # ------------------------------------------------------------------
    # Matrix views (cached; graphs are frozen so caching is safe)
    # ------------------------------------------------------------------
    def adjacency(self) -> np.ndarray:
        """Dense symmetric weighted adjacency matrix (small graphs only)."""
        key = "adjacency"
        if key not in self._cache:
            a = np.zeros((self.n_nodes, self.n_nodes))
            a[self.u, self.v] = self.w
            a[self.v, self.u] = self.w
            self._cache[key] = a
        return self._cache[key]

    def adjacency_sparse(self):
        """Sparse CSR adjacency (used by the SDP mixing solver and spectra)."""
        key = "adjacency_sparse"
        if key not in self._cache:
            row = np.concatenate([self.u, self.v])
            col = np.concatenate([self.v, self.u])
            dat = np.concatenate([self.w, self.w])
            self._cache[key] = coo_matrix(
                (dat, (row, col)), shape=(self.n_nodes, self.n_nodes)
            ).tocsr()
        return self._cache[key]

    def laplacian(self) -> np.ndarray:
        """Dense weighted Laplacian L = D - A."""
        a = self.adjacency()
        return np.diag(a.sum(axis=1)) - a

    def neighbors(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR-style neighbor lists: (indptr, indices, weights)."""
        key = "neighbors"
        if key not in self._cache:
            csr = self.adjacency_sparse()
            self._cache[key] = (csr.indptr.copy(), csr.indices.copy(), csr.data.copy())
        return self._cache[key]

    # ------------------------------------------------------------------
    # Subgraphs & edge partitions (the QAOA² divide step uses these)
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Sequence[int]) -> Tuple["Graph", np.ndarray]:
        """Induced subgraph on ``nodes``.

        Returns the subgraph (relabelled ``0..len(nodes)-1`` following the
        order of ``nodes``) and the original-node array so solutions can be
        lifted back (``original = nodes[local]``).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(np.unique(nodes)) != len(nodes):
            raise ValueError("duplicate nodes in subgraph selection")
        inv = np.full(self.n_nodes, -1, dtype=np.int64)
        inv[nodes] = np.arange(len(nodes))
        mask = (inv[self.u] >= 0) & (inv[self.v] >= 0)
        sub = Graph._from_arrays(
            len(nodes), inv[self.u[mask]], inv[self.v[mask]], self.w[mask]
        )
        return sub, nodes

    def cross_edges(
        self, membership: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Edges whose endpoints lie in different parts.

        Parameters
        ----------
        membership:
            Array of length ``n_nodes`` mapping node -> part id.

        Returns
        -------
        (u, v, w, part_u, part_v) restricted to cross edges.
        """
        membership = np.asarray(membership)
        pu = membership[self.u]
        pv = membership[self.v]
        mask = pu != pv
        return self.u[mask], self.v[mask], self.w[mask], pu[mask], pv[mask]

    def relabel(self, permutation: Sequence[int]) -> "Graph":
        """Return the graph with node ``i`` renamed ``permutation[i]``."""
        perm = np.asarray(permutation, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(self.n_nodes)):
            raise ValueError("permutation must be a bijection on nodes")
        return Graph._from_arrays(self.n_nodes, perm[self.u], perm[self.v], self.w)

    def with_weights(self, new_w: np.ndarray) -> "Graph":
        """Same topology with replaced weights (used in tests/ablations)."""
        new_w = np.asarray(new_w, dtype=np.float64)
        if new_w.shape != self.w.shape:
            raise ValueError("weight array shape mismatch")
        _check_finite(new_w)
        return Graph(self.n_nodes, self.u, self.v, new_w)

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "weighted" if self.is_weighted else "unweighted"
        return f"Graph(n={self.n_nodes}, m={self.n_edges}, {kind})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.v, other.v)
            and np.allclose(self.w, other.w)
        )

    def __hash__(self) -> int:
        return hash((self.n_nodes, self.n_edges, float(self.w.sum())))


__all__ = ["Graph"]
