"""End-to-end HTTP serving: endpoints, keep-alive, parity with the
in-process service, graceful drain, and the CLI entry point (ISSUE 8)."""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import erdos_renyi
from repro.service import HttpMaxCutClient, MaxCutService
from repro.service.http import HttpServerThread

pytestmark = pytest.mark.timeout(120)

OPTIONS = {"layers": 1, "maxiter": 15}
REPO_ROOT = Path(__file__).resolve().parent.parent


class GatedService(MaxCutService):
    """solve_many blocks until ``gate`` is set (see test_service_server)."""

    def __init__(self, gate, entered, **kwargs):
        super().__init__(**kwargs)
        self._gate = gate
        self._entered = entered

    def solve_many(self, requests, **kwargs):
        self._entered.set()
        assert self._gate.wait(timeout=60), "test gate never opened"
        return super().solve_many(requests, **kwargs)


def raw_exchange(host, port, payload: bytes, *, read_all: bool = True) -> bytes:
    """Send raw bytes on a fresh socket; return everything the server sends."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while read_all:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)


# ---------------------------------------------------------------------------
# Endpoints
# ---------------------------------------------------------------------------
class TestEndpoints:
    def test_healthz_round_trip(self):
        with HttpServerThread(n_shards=2, seed=0) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                assert client.healthz() == {"status": "ok", "shards": 2}

    def test_solve_parity_with_in_process_service(self):
        graph = erdos_renyi(11, 0.4, weighted=True, rng=3)
        ref = MaxCutService(seed=0).solve(graph, seed=5, **OPTIONS)
        with HttpServerThread(n_shards=2, seed=0) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                result = client.solve(graph, seed=5, **OPTIONS)
        assert result.cut == ref.cut
        assert np.array_equal(result.assignment, ref.assignment)
        assert result.seed == ref.seed
        assert result.digest == ref.digest

    def test_repeat_solve_is_a_cache_hit(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=7)
        with HttpServerThread(n_shards=1, seed=0) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                first = client.solve(graph, seed=2, **OPTIONS)
                second = client.solve(graph, seed=2, **OPTIONS)
            merged = handle.merged_metrics()
        assert first.status == "solved"
        assert second.status == "hit-memory"
        assert second.cut == first.cut
        assert merged.count("hits_memory") == 1

    def test_stats_round_trip_documented_shape(self):
        graph = erdos_renyi(9, 0.4, weighted=True, rng=1)
        with HttpServerThread(n_shards=2, seed=0) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                client.solve(graph, seed=1, **OPTIONS)
                stats = client.stats()
        assert set(stats) == {"shards", "draining", "loads", "metrics", "http"}
        assert stats["shards"] == 2
        assert stats["draining"] is False
        assert len(stats["loads"]) == 2
        counters = stats["metrics"]["counters"]
        assert counters["requests"] == (
            counters.get("hits_memory", 0)
            + counters.get("hits_disk", 0)
            + counters.get("coalesced", 0)
            + counters.get("misses", 0)
        )
        # The HTTP layer records its own request counters and latency
        # percentiles (the /stats request itself may or may not have been
        # counted yet, so only the solve is a lower bound).
        assert stats["http"]["counters"]["http_requests"] >= 1
        assert stats["http"]["counters"]["http_200"] >= 1
        http_latency = stats["http"]["latencies"]["http"]
        assert http_latency["count"] >= 1
        assert http_latency["p50"] is not None
        assert http_latency["p95"] is not None

    def test_unknown_path_and_wrong_method(self):
        with HttpServerThread(n_shards=1, seed=0) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                status, payload = client.request("GET", "/nope")
                assert (status, payload["code"]) == (404, "not-found")
                status, payload = client.request("GET", "/solve")
                assert (status, payload["code"]) == (405, "method-not-allowed")
                status, payload = client.request("POST", "/healthz", {})
                assert (status, payload["code"]) == (405, "method-not-allowed")


# ---------------------------------------------------------------------------
# Connection handling
# ---------------------------------------------------------------------------
class TestConnections:
    def test_keep_alive_reuses_one_socket(self):
        with HttpServerThread(n_shards=1, seed=0) as handle:
            with socket.create_connection(
                (handle.host, handle.port), timeout=30
            ) as sock:
                reader = sock.makefile("rb")
                for _ in range(3):
                    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                    status_line = reader.readline()
                    assert status_line.startswith(b"HTTP/1.1 200")
                    length = None
                    while True:
                        line = reader.readline()
                        if line in (b"\r\n", b"\n"):
                            break
                        name, _, value = line.decode("latin-1").partition(":")
                        if name.strip().lower() == "content-length":
                            length = int(value)
                        if name.strip().lower() == "connection":
                            assert value.strip() == "keep-alive"
                    assert length is not None
                    reader.read(length)

    def test_client_object_keeps_its_connection(self):
        graph = erdos_renyi(9, 0.4, weighted=True, rng=2)
        with HttpServerThread(n_shards=1, seed=0) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                client.solve(graph, seed=1, **OPTIONS)
                conn = client._conn
                client.healthz()
                assert client._conn is conn

    def test_http10_gets_connection_close(self):
        with HttpServerThread(n_shards=1, seed=0) as handle:
            raw = raw_exchange(
                handle.host,
                handle.port,
                b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n",
            )
        assert raw.startswith(b"HTTP/1.1 200")
        assert b"Connection: close" in raw

    def test_idle_connection_closes_after_keepalive_s(self):
        with HttpServerThread(
            n_shards=1, seed=0, http_options={"keepalive_s": 0.3}
        ) as handle:
            with socket.create_connection(
                (handle.host, handle.port), timeout=30
            ) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                reader = sock.makefile("rb")
                assert reader.readline().startswith(b"HTTP/1.1 200")
                t0 = time.monotonic()
                rest = reader.read()  # returns at the server's close
                waited = time.monotonic() - t0
        assert rest.endswith(b'"shards":1}')
        assert 0.2 < waited < 10

    def test_idle_timer_spares_a_request_in_progress(self):
        # The keep-alive timer runs only while a connection waits for its
        # next request: a solve that outlasts keepalive_s still answers,
        # and the connection stays usable after it.
        graph = erdos_renyi(9, 0.4, weighted=True, rng=5)
        gate, entered = threading.Event(), threading.Event()
        with HttpServerThread(
            service_factory=lambda k, metrics: GatedService(
                gate, entered, seed=0, metrics=metrics
            ),
            http_options={"keepalive_s": 0.2},
        ) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                results: dict = {}

                def solve():
                    results["result"] = client.solve(graph, seed=1, **OPTIONS)
                    results["conn"] = client._conn

                solver = threading.Thread(target=solve)
                solver.start()
                try:
                    assert entered.wait(timeout=60)
                    time.sleep(0.8)  # four keep-alive periods mid-request
                finally:
                    gate.set()
                solver.join(timeout=60)
                assert not solver.is_alive()
                assert results["result"].status == "solved"
                assert client.healthz()["status"] == "ok"
                assert client._conn is results["conn"]  # no reconnect

    def test_explicit_connection_close_honoured(self):
        with HttpServerThread(n_shards=1, seed=0) as handle:
            raw = raw_exchange(
                handle.host,
                handle.port,
                b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            )
        assert raw.startswith(b"HTTP/1.1 200")
        assert b"Connection: close" in raw


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------
class TestDrain:
    def test_stop_finishes_in_flight_solve(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=4)
        gate, entered = threading.Event(), threading.Event()
        handle = HttpServerThread(
            max_batch=1,
            service_factory=lambda k, metrics: GatedService(
                gate, entered, seed=0, metrics=metrics
            ),
        ).start()
        results: dict = {}

        def solve():
            with HttpMaxCutClient(handle.host, handle.port) as client:
                results["result"] = client.solve(graph, seed=1, **OPTIONS)

        solver = threading.Thread(target=solve)
        solver.start()
        try:
            assert entered.wait(timeout=60)
            # Shutdown begins while the solve is physically in flight.
            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            # The listener closes promptly; new connections are refused.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    with socket.create_connection(
                        (handle.host, handle.port), timeout=1
                    ):
                        pass
                    time.sleep(0.05)
                except OSError:
                    break
            else:
                pytest.fail("listener never closed during drain")
        finally:
            gate.set()
        solver.join(timeout=60)
        stopper.join(timeout=60)
        assert not stopper.is_alive() and not solver.is_alive()
        # The in-flight request still got its full, correct response.
        ref = MaxCutService(seed=0).solve(graph, seed=1, **OPTIONS)
        assert results["result"].cut == ref.cut


    def test_stop_closes_idle_keepalive_connections_at_once(self):
        handle = HttpServerThread(
            n_shards=1, seed=0, http_options={"keepalive_s": 60.0}
        ).start()
        with socket.create_connection((handle.host, handle.port), timeout=30) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            reader = sock.makefile("rb")
            assert reader.readline().startswith(b"HTTP/1.1 200")
            t0 = time.monotonic()
            handle.stop()  # the connection idles, kept alive for 60 s
            stopped = time.monotonic() - t0
            rest = reader.read()  # the drain closed it
        assert stopped < 10
        assert rest.endswith(b'"shards":1}')


# ---------------------------------------------------------------------------
# CLI: python -m repro serve --http HOST:PORT
# ---------------------------------------------------------------------------
class TestCli:
    def test_serve_http_cli_round_trip_and_sigint_drain(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.setdefault("PYTHONUNBUFFERED", "1")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--http",
                "127.0.0.1:0",
                "--shards",
                "1",
            ],
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            address = None
            for _ in range(50):
                line = proc.stdout.readline()
                if not line:
                    break
                if line.startswith("listening on http://"):
                    address = line.strip().rpartition("//")[2]
                    break
            assert address, "server never printed its listening address"
            host, _, port = address.rpartition(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=30)
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            body = response.read()
            conn.close()
            assert response.status == 200
            assert b'"status":"ok"' in body
            proc.send_signal(signal.SIGINT)
            remainder, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "draining" in remainder
        # After a clean drain the CLI prints the server's stats report.
        assert "counters" in remainder
