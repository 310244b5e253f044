"""Checkpoint/restart for long-running QAOA² solves.

The Fig. 2 caption notes that aligning classical and quantum resource
consumption "can be achieved by splitting, checkpointing, and restarting
the classical part appropriately".  This module provides exactly that for
a whole QAOA² solve: :func:`checkpointed_qaoa2` drives
:meth:`repro.qaoa2.QAOA2Solver.steps` and journals each leaf's result to
disk as it finishes, at every level.  A restarted run re-draws the same
partitions and seeds, answers every journaled leaf from the journal, and
so resumes wherever the last run stopped and returns the uninterrupted
result.

A leaf's journal key is :func:`repro.service.fingerprint.request_digest`
over a sha256 of the leaf graph's ``n_nodes``, ``u``, ``v`` and ``w`` and
the payload's method, QAOA options, option grid, GW options and seed:
everything :func:`repro.qaoa2.solver._solve_subgraph_job` reads, so a
changed option or seed solves again instead of reusing a stale result.

Format: one JSON object per line (append-only journal), so a crash between
writes loses at most the in-flight record: the next append first cuts a
torn last line back to the newline before it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.optim import drive


@dataclass
class CheckpointStore:
    """Append-only journal of keyed job results."""

    path: Path

    def __init__(self, path) -> None:
        self.path = Path(path)

    def load(self) -> Dict[str, dict]:
        """Read all committed records; later duplicates win."""
        if not self.path.exists():
            return {}
        records: Dict[str, dict] = {}
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue  # truncated in-flight record from a crash
            records[payload["key"]] = payload["value"]
        return records

    def append(self, key: str, value: dict) -> None:
        record = (json.dumps({"key": key, "value": value}) + "\n").encode()
        with self.path.open("a+b") as fh:
            size = fh.seek(0, os.SEEK_END)
            fh.seek(max(size - 1, 0))
            if size and fh.read(1) != b"\n":
                # A crash tore the last record; appending to its line would
                # make this record unreadable too.
                fh.seek(0)
                fh.truncate(fh.read().rfind(b"\n") + 1)
            fh.write(record)

    def clear(self) -> None:
        if self.path.exists():
            self.path.unlink()


def _encode_result(result: dict) -> dict:
    out = dict(result)
    out["assignment"] = np.asarray(result["assignment"], dtype=np.uint8).tolist()
    return out


def _decode_result(value: dict) -> dict:
    out = dict(value)
    out["assignment"] = np.asarray(value["assignment"], dtype=np.uint8)
    return out


def run_with_checkpoints(
    jobs: Sequence[dict],
    keys: Sequence[str],
    solve: Callable[[dict], dict],
    store: CheckpointStore,
) -> List[dict]:
    """Execute ``solve`` per job, skipping keys already in the journal.

    ``keys`` must identify jobs stably across restarts (e.g.
    ``"level0/part3/seed12345"``).  Results are journaled immediately after
    each completion; the return list is ordered like ``jobs``.
    """
    if len(jobs) != len(keys):
        raise ValueError("jobs and keys must align")
    done = store.load()
    results: List[dict] = []
    for job, key in zip(jobs, keys, strict=True):
        if key in done:
            results.append(_decode_result(done[key]))
            continue
        result = solve(job)
        store.append(key, _encode_result(result))
        results.append(result)
    return results


def solve_journaled(payloads: List[dict], store: CheckpointStore) -> List[dict]:
    """Answer a batch of QAOA² leaf payloads from ``store``.

    A leaf whose key (see the module docstring) is journaled is read back;
    every other one is solved with
    :func:`repro.qaoa2.solver._solve_subgraph_job` and journaled.
    :func:`checkpointed_qaoa2` answers every batch of
    :meth:`repro.qaoa2.QAOA2Solver.steps` with it.
    """
    from repro.qaoa2.solver import _solve_subgraph_job
    from repro.service.fingerprint import request_digest

    keys = []
    for payload in payloads:
        graph = payload["graph"]
        leaf = hashlib.sha256(f"leaf|{graph.n_nodes}|".encode())
        for edges in (graph.u, graph.v, graph.w):
            leaf.update(edges.tobytes())
        keys.append(
            request_digest(
                leaf.hexdigest(),
                method=payload["method"],
                options=payload["qaoa_options"],
                qaoa_grid=payload["qaoa_grid"],
                gw_options=payload["gw_options"],
                seed=payload["seed"],
            )
        )
    return run_with_checkpoints(payloads, keys, _solve_subgraph_job, store)


def checkpointed_qaoa2(solver, graph: Graph, store: CheckpointStore):
    """``solver.solve(graph)`` with every leaf journaled in ``store``.

    Each leaf the journal already holds is read back instead of solved, so
    a run restarted after an interruption at any level resumes there and
    returns the uninterrupted :class:`repro.qaoa2.QAOA2Result` (cut and
    assignment bit for bit; journaled leaves keep their first ``elapsed``).
    ``solver.rng`` must be an integer seed, not ``None`` or a shared
    generator, for a restart to re-draw the same partitions and seeds.
    """
    return drive(
        solver.steps(graph), lambda payloads: solve_journaled(payloads, store)
    )


__all__ = [
    "CheckpointStore",
    "run_with_checkpoints",
    "solve_journaled",
    "checkpointed_qaoa2",
]
