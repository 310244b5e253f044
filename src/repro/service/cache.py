"""Two-tier result cache: in-memory LRU (byte budget) + append-only disk log.

Entries are keyed by the request digest (:func:`repro.service.fingerprint.
request_digest`) and store the solution in *canonical* node labels, so a
single entry serves every relabeling of the same graph; the service maps
the assignment back through each request's own fingerprint permutation.
Each entry also keeps the canonical edge arrays so a digest hit can be
verified exactly — a hash collision degrades to a miss, never to a wrong
answer.

Tiers
-----
* **memory** — an ``OrderedDict`` LRU bounded by ``max_bytes`` (entry
  sizes are estimated from their array payloads).  Hot entries cost one
  dict lookup plus the assignment re-index.
* **disk** — optional (``disk_dir``): every ``put`` appends one record to
  ``<disk_dir>/cache.log`` and memory misses read it back (then promote),
  so a restarted service warms up from its predecessor's work.  A record
  is an 8-byte little-endian header ``(len(payload), zlib.crc32(payload))``
  followed by the entry's JSON.  Opening a cache scans the log once into
  a ``{digest: (offset, length)}`` index of each digest's newest record
  and cuts the file back to the end of the last record whose header,
  length and CRC check out, so a crash at any byte loses at most the
  record being written.  Every disk read re-checks the CRC and the
  digest, and any mismatch is a miss.  :meth:`ResultCache.compact`
  (``repro service-stats --compact``) atomically replaces the log with
  the newest record per digest.  Files of any other name in ``disk_dir``
  are ignored.

Thread safety: one lock serialises every public operation
(get/put/compact/clear), so the async server's shard worker threads can
share an instance without torn LRU state or interleaved appends.  Across
processes, a handle does not see records another handle appends after it
opened the log, a compaction elsewhere leaves its offsets stale, and
opening a log while another process appends to it can cut that record;
the CRC and digest re-checks turn all three into misses, never wrong
answers.

Entries that carry optimal QAOA angles can be exported into the paper's
Fig. 3 knowledge base (:meth:`ResultCache.export_knowledge`), turning the
serving cache into warm-start data for future parameterisations.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ml.knowledge import GridRecord, KnowledgeBase
from repro.service.fingerprint import GraphFingerprint
from repro.service.metrics import ServiceMetrics

DEFAULT_MAX_BYTES = 32 * 1024 * 1024
# Fixed per-entry overhead estimate (dict/dataclass plumbing, small
# scalars) added on top of the array payload sizes.
ENTRY_OVERHEAD_BYTES = 512
# The disk tier's one file, and its record header: little-endian
# (payload length, zlib.crc32(payload)).
LOG_FILE = "cache.log"
_HEADER = struct.Struct("<II")


@dataclass
class CacheEntry:
    """One cached solve, stored in canonical node labels."""

    digest: str
    n_nodes: int
    canon_u: np.ndarray
    canon_v: np.ndarray
    canon_w: np.ndarray
    assignment: np.ndarray  # canonical labels, uint8
    cut: float
    method: str
    seed: Optional[int] = None
    params: Optional[List[float]] = None  # optimal angles, when QAOA ran
    layers: Optional[int] = None
    rhobeg: Optional[float] = None
    extra: dict = field(default_factory=dict)
    hits: int = 0

    def __post_init__(self) -> None:
        self.canon_u = np.asarray(self.canon_u, dtype=np.int64)
        self.canon_v = np.asarray(self.canon_v, dtype=np.int64)
        self.canon_w = np.asarray(self.canon_w, dtype=np.float64)
        self.assignment = np.asarray(self.assignment, dtype=np.uint8)

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return int(
            ENTRY_OVERHEAD_BYTES
            + self.canon_u.nbytes
            + self.canon_v.nbytes
            + self.canon_w.nbytes
            + self.assignment.nbytes
        )

    @property
    def n_edges(self) -> int:
        return len(self.canon_u)

    @property
    def density(self) -> float:
        if self.n_nodes < 2:
            return 0.0
        return 2.0 * self.n_edges / (self.n_nodes * (self.n_nodes - 1))

    @property
    def weighted(self) -> bool:
        return bool(self.n_edges) and not np.allclose(self.canon_w, 1.0)

    def matches(self, fp: GraphFingerprint) -> bool:
        """Exact canonical-graph verification for a digest hit."""
        return (
            self.n_nodes == fp.n_nodes
            and np.array_equal(self.canon_u, fp.canon_u)
            and np.array_equal(self.canon_v, fp.canon_v)
            and np.array_equal(self.canon_w, fp.canon_w)
        )

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        payload = asdict(self)
        for key in ("canon_u", "canon_v", "canon_w", "assignment"):
            payload[key] = payload[key].tolist()
        return payload

    @staticmethod
    def from_json(payload: dict) -> "CacheEntry":
        return CacheEntry(**payload)


def _scan(log: bytes) -> Tuple[Dict[str, Tuple[int, int]], int, int]:
    """Index a log image.

    Returns ``(index, end, records)``: each digest's newest record as
    ``(offset, payload length)``, the end of the last whole record, and
    the number of whole records.  The scan stops at the first record
    whose header, length or CRC does not check out — nothing after it can
    be framed.  A CRC-clean record that is not an entry is skipped.
    """
    index: Dict[str, Tuple[int, int]] = {}
    end = records = 0
    while end + _HEADER.size <= len(log):
        length, crc = _HEADER.unpack_from(log, end)
        payload = log[end + _HEADER.size : end + _HEADER.size + length]
        if len(payload) != length or zlib.crc32(payload) != crc:
            break
        try:
            index[str(json.loads(payload)["digest"])] = (end, length)
        except (ValueError, TypeError, KeyError):
            pass  # framed but not an entry: nothing to serve
        records += 1
        end += _HEADER.size + length
    return index, end, records


class ResultCache:
    """LRU-over-bytes result store with an optional append-only disk log."""

    # LRU state and the disk index are shared between shard worker threads
    # and the event-loop thread; every mutation must happen under the
    # cache lock (reads of the scalar/dict attributes are deliberately
    # lock-free snapshots).  Machine-checked by the guarded-by rule in
    # repro.analysis.
    # repro: guarded-by=_lock writes=_entries,_nbytes,_index

    def __init__(
        self,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        disk_dir: Optional[str | Path] = None,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._entries: Dict[str, CacheEntry] = {}  # insertion = LRU order
        self._nbytes = 0
        self._log: Optional[Path] = None
        # digest -> (offset, payload length) of its newest log record
        self._index: Dict[str, Tuple[int, int]] = {}
        self._lock = threading.Lock()
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            self._log = self.disk_dir / LOG_FILE
            log = self._read_log()
            self._index, end, _ = _scan(log)
            if end < len(log):
                # Cut the torn tail: an append after it could never be
                # framed by the next scan.
                os.truncate(self._log, end)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return self._nbytes

    # ------------------------------------------------------------------
    def get(self, digest: str) -> Optional[CacheEntry]:
        """Memory first, then disk (promoting); ``None`` on a full miss."""
        return self.get_tiered(digest)[0]

    def get_tiered(self, digest: str) -> Tuple[Optional[CacheEntry], Optional[str]]:
        """Like :meth:`get` but also names the serving tier.

        Returns ``(entry, "memory"|"disk")`` on a hit, ``(None, None)`` on
        a miss.  Callers must still verify :meth:`CacheEntry.matches`
        against the request's fingerprint before trusting the entry.
        """
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                # LRU touch: re-insert at the most-recent end.
                del self._entries[digest]
                self._entries[digest] = entry
                entry.hits += 1
                return entry, "memory"
            entry = self._disk_get(digest)
            if entry is not None:
                entry.hits += 1
                self._admit(entry)
                return entry, "disk"
            return None, None

    def put(self, entry: CacheEntry) -> None:
        with self._lock:
            self._admit(entry)
            if self._log is not None:
                self._append(entry)

    # repro: holds-lock -- put() and get_tiered() hold the lock
    def _admit(self, entry: CacheEntry) -> None:
        old = self._entries.pop(entry.digest, None)
        if old is not None:
            self._nbytes -= old.nbytes
        self._entries[entry.digest] = entry
        self._nbytes += entry.nbytes
        while self._nbytes > self.max_bytes and len(self._entries) > 1:
            digest = next(iter(self._entries))  # least recently used
            self._nbytes -= self._entries.pop(digest).nbytes
            self.metrics.increment("evictions")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes = 0

    # ------------------------------------------------------------------
    # Disk tier: one append-only log of CRC-framed JSON records
    # ------------------------------------------------------------------
    def _read_log(self) -> bytes:
        assert self._log is not None
        try:
            return self._log.read_bytes()
        except FileNotFoundError:
            return b""

    # repro: holds-lock -- put() holds the lock
    def _append(self, entry: CacheEntry) -> None:
        assert self._log is not None
        payload = json.dumps(entry.to_json()).encode()
        record = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        # One write in append mode: a crash tears at most this record,
        # which the next open cuts away.
        with open(self._log, "ab") as fh:
            fh.write(record)
            end = fh.tell()
        self._index[entry.digest] = (end - len(record), len(payload))

    # repro: holds-lock -- get_tiered() holds the lock
    def _disk_get(self, digest: str) -> Optional[CacheEntry]:
        pos = self._index.get(digest)
        if pos is None:
            return None
        assert self._log is not None
        offset, length = pos
        try:
            with open(self._log, "rb") as fh:
                fh.seek(offset)
                record = fh.read(_HEADER.size + length)
            payload = record[_HEADER.size :]
            header = _HEADER.pack(length, zlib.crc32(payload))
            if len(payload) != length or record[: _HEADER.size] != header:
                return None  # cut, rewritten or corrupted since the scan
            entry = CacheEntry.from_json(json.loads(payload))
        except (OSError, ValueError, TypeError, KeyError):
            return None
        # A clean record of another digest: the log was compacted by
        # another handle since this one indexed it.
        return entry if entry.digest == digest else None

    def disk_entries(self) -> int:
        """Distinct digests this handle can read from the log."""
        return len(self._index)

    def compact(self) -> Dict[str, int]:
        """Replace the log with the newest record per digest.

        Rescans the file, so records other handles appended since this
        one opened it survive, writes the live records in log order to a
        per-process tmp file and ``os.replace``-es the log with it.
        Returns ``{"entries", "dropped", "log_bytes"}``: records kept,
        whole records dropped, and the new log size.
        """
        if self._log is None:
            raise ValueError("compact() requires a disk_dir-backed cache")
        with self._lock:
            log = self._read_log()
            live, _, records = _scan(log)
            out = bytearray()
            index: Dict[str, Tuple[int, int]] = {}
            for digest, (offset, length) in sorted(
                live.items(), key=lambda item: item[1][0]
            ):
                index[digest] = (len(out), length)
                out += log[offset : offset + _HEADER.size + length]
            # Per-process tmp name: concurrent compactions race only on the
            # atomic replace (last one wins wholesale).
            tmp = self._log.with_name(f"{LOG_FILE}.{os.getpid()}.tmp")
            tmp.write_bytes(out)
            os.replace(tmp, self._log)
            self._index = index
            self.metrics.increment("compactions")
        return {
            "entries": len(index),
            "dropped": records - len(index),
            "log_bytes": len(out),
        }

    # ------------------------------------------------------------------
    def export_knowledge(self, kb: Optional[KnowledgeBase] = None) -> KnowledgeBase:
        """Fold cached QAOA outcomes into a Fig. 3 knowledge base.

        Entries with stored angles become :class:`GridRecord`s keyed by the
        entry's graph class; ``gw_cut`` uses the entry's recorded GW value
        when the request compared both solvers (method ``best``) and falls
        back to the QAOA cut itself otherwise (ratio 1 — the record then
        contributes its angles for warm starts without skewing win rates).
        """
        kb = kb if kb is not None else KnowledgeBase()
        for entry in self._entries.values():
            if entry.params is None or entry.layers is None:
                continue
            qaoa_cut = entry.extra.get("qaoa_cut")
            qaoa_cut = float(qaoa_cut) if qaoa_cut is not None else float(entry.cut)
            gw_cut = entry.extra.get("gw_cut")
            kb.add(
                GridRecord(
                    n_nodes=entry.n_nodes,
                    edge_probability=entry.density,
                    weighted=entry.weighted,
                    layers=int(entry.layers),
                    rhobeg=float(entry.rhobeg if entry.rhobeg is not None else 0.5),
                    qaoa_cut=qaoa_cut,
                    gw_cut=float(gw_cut) if gw_cut is not None else qaoa_cut,
                    qaoa_params=list(entry.params),
                )
            )
        return kb

    # ------------------------------------------------------------------
    def format_summary(self) -> str:
        lines = [
            f"cache: {len(self)} entries, {self._nbytes / 1024:.1f} KiB "
            f"of {self.max_bytes / 1024:.1f} KiB budget",
        ]
        if self.disk_dir is not None:
            lines.append(
                f"disk tier: {self.disk_entries()} entries under {self.disk_dir}"
            )
        return "\n".join(lines)


__all__ = [
    "DEFAULT_MAX_BYTES",
    "ENTRY_OVERHEAD_BYTES",
    "LOG_FILE",
    "CacheEntry",
    "ResultCache",
]
