"""JSON wire codecs for the HTTP transport: graph/request/result schemas,
strict validation, and the error-contract table itself (ISSUE 8)."""

from __future__ import annotations

import json
import math
import re
import warnings

import numpy as np
import pytest

from repro.graphs import erdos_renyi
from repro.service import MaxCutService, build_request
from repro.service.http import (
    ERROR_CONTRACT,
    ROUTES,
    WireFormatError,
    graph_from_wire,
    graph_to_wire,
    jsonable,
    request_from_wire,
    request_to_wire,
    result_from_wire,
    result_to_wire,
)

pytestmark = pytest.mark.timeout(120)

# (payload, the exact WireFormatError text it must raise).
GRAPH_REJECTIONS = [
    ("not a dict", "'graph' must be an object"),
    ({"edges": []}, "'graph.n_nodes' is required"),
    ({"n_nodes": "4", "edges": []}, "'graph.n_nodes' must be an integer"),
    ({"n_nodes": True, "edges": []}, "'graph.n_nodes' must be an integer"),
    ({"n_nodes": -1, "edges": []}, "'graph.n_nodes' must be non-negative"),
    ({"n_nodes": 4, "edges": [], "extra": 1}, "unknown graph keys ['extra']"),
    ({"n_nodes": 4, "edges": "nope"}, "'graph.edges' must be a list"),
    ({"n_nodes": 4, "edges": [[0]]}, "edge 0 must be [u, v] or [u, v, weight]"),
    (
        {"n_nodes": 4, "edges": [[0, 1, 2, 3]]},
        "edge 0 must be [u, v] or [u, v, weight]",
    ),
    ({"n_nodes": 4, "edges": [[0.5, 1]]}, "edge 0 endpoints must be integers"),
    ({"n_nodes": 4, "edges": [[0, True]]}, "edge 0 endpoints must be integers"),
    ({"n_nodes": 4, "edges": [[0, 1, "heavy"]]}, "edge 0 weight must be a number"),
    ({"n_nodes": 4, "edges": [[0, 1, float("inf")]]}, "edge 0 weight must be finite"),
    (
        {"n_nodes": 4, "edges": [[0, 9]]},  # endpoint out of range
        "invalid graph: edge endpoint exceeds n_nodes",
    ),
    ({"n_nodes": 4, "edges": [[0, 1, float("nan")]]}, "edge 0 weight must be finite"),
    ({"n_nodes": 4, "edges": [[0, 1, -float("inf")]]}, "edge 0 weight must be finite"),
    ({"n_nodes": 4, "edges": [[0, 1], [2, 3, True]]}, "edge 1 weight must be a number"),
    (
        {"n_nodes": 4, "edges": [[-1, 2]]},
        "invalid graph: node indices must be non-negative",
    ),
    ({"n_nodes": 4, "edges": [[1, 1]]}, "invalid graph: self loops are not allowed"),
    (
        # Finite weights whose duplicate sum overflows float64.
        {"n_nodes": 4, "edges": [[0, 1, 1e308], [1, 0, 1e308]]},
        "invalid graph: edge weights must be finite",
    ),
]

_TWO_NODES = {"n_nodes": 2, "edges": []}
REQUEST_REJECTIONS = [
    ([], "request body must be a JSON object"),  # not an object
    ({}, "'graph' is required"),
    ({"graph": _TWO_NODES, "surprise": 1}, "unknown request keys ['surprise']"),
    ({"graph": _TWO_NODES, "method": 7}, "'method' must be a string"),
    ({"graph": _TWO_NODES, "options": []}, "'options' must be an object"),
    *(
        ({"graph": _TWO_NODES, "qaoa_grid": g}, "'qaoa_grid' must be a list of objects")
        for g in ({"p": 1}, [1, 2])
    ),
    ({"graph": _TWO_NODES, "gw_options": 0}, "'gw_options' must be an object"),
    ({"graph": _TWO_NODES, "seed": "5"}, "'seed' must be an integer or null"),
    ({"graph": _TWO_NODES, "seed": True}, "'seed' must be an integer or null"),
    # A removed key.
    ({"graph": _TWO_NODES, "exact": True}, "unknown request keys ['exact']"),
    ({"graph": _TWO_NODES, "deadline_s": "soon"}, "'deadline_s' must be a number"),
    ({"graph": _TWO_NODES, "deadline_s": 0}, "'deadline_s' must be positive"),
    ({"graph": _TWO_NODES, "deadline_s": -1.0}, "'deadline_s' must be positive"),
    ({"graph": _TWO_NODES, "deadline_s": math.nan}, "'deadline_s' must be positive"),
    (
        {"graph": {"n_nodes": 2, "edges": [[0, 1, float("nan")]]}},
        "edge 0 weight must be finite",
    ),
]


def payload_ids(cases):
    """pytest's own ids for the payloads alone (a string, else ``payload<k>``),
    so each case keeps its name whatever its message."""
    return [
        payload if isinstance(payload, str) else f"payload{k}"
        for k, (payload, _) in enumerate(cases)
    ]


# ---------------------------------------------------------------------------
# jsonable: everything the service emits must survive strict JSON
# ---------------------------------------------------------------------------
class TestJsonable:
    def test_numpy_scalars_become_builtins(self):
        out = jsonable({"a": np.int64(3), "b": np.float64(2.5), "c": np.bool_(True)})
        assert out == {"a": 3, "b": 2.5, "c": True}
        assert type(out["a"]) is int
        assert type(out["b"]) is float

    def test_arrays_become_lists(self):
        assert jsonable(np.arange(3)) == [0, 1, 2]
        assert jsonable((1, np.float32(2.0))) == [1, 2.0]

    def test_non_finite_floats_become_none(self):
        assert jsonable(float("nan")) is None
        assert jsonable({"x": np.inf, "y": -np.inf}) == {"x": None, "y": None}

    def test_bools_are_not_coerced_to_int(self):
        assert jsonable(True) is True
        assert jsonable({"flag": False}) == {"flag": False}

    def test_output_is_strict_json(self):
        payload = jsonable({"cut": np.nan, "params": np.array([1.5, np.inf])})
        encoded = json.dumps(payload, allow_nan=False)  # raises on NaN leaks
        assert json.loads(encoded) == {"cut": None, "params": [1.5, None]}

    def test_numpy_scalars_go_through_item(self):
        out = jsonable(
            {
                "method": np.str_("gw"),
                "rounds": np.uint8(7),
                "x": np.float32(0.5),
                "wide": np.longdouble(1.5),
                "when": np.datetime64("NaT"),
            }
        )
        assert out == {"method": "gw", "rounds": 7, "x": 0.5, "wide": 1.5, "when": None}
        assert type(out["method"]) is str
        assert type(out["wide"]) is float

    @pytest.mark.parametrize(
        "value, kind",
        [
            (np.complex128(1 + 2j), "complex"),
            (np.clongdouble(1 + 2j), "clongdouble"),
            (np.datetime64("2024-01-01"), "date"),
            (np.timedelta64(5, "s"), "timedelta"),
            (np.bytes_(b"gw"), "bytes"),
            (np.array([1 + 1j]), "complex"),
            (1 + 2j, "complex"),
            ({1, 2}, "set"),
        ],
        ids=[
            "complex128",
            "clongdouble",
            "datetime64",
            "timedelta64",
            "bytes_",
            "complex-array",
            "complex",
            "set",
        ],
    )
    def test_values_strict_json_cannot_carry_raise_type_error(self, value, kind):
        with pytest.raises(TypeError, match=f"^{kind} value .* is not strict JSON$"):
            jsonable({"nested": [value]})


# ---------------------------------------------------------------------------
# Graph schema
# ---------------------------------------------------------------------------
class TestGraphWire:
    def test_round_trip_preserves_weights(self):
        graph = erdos_renyi(12, 0.4, weighted=True, rng=3)
        back = graph_from_wire(graph_to_wire(graph))
        assert back.n_nodes == graph.n_nodes
        assert np.array_equal(back.u, graph.u)
        assert np.array_equal(back.v, graph.v)
        assert np.allclose(back.w, graph.w)

    def test_wire_shape_is_documented_schema(self):
        graph = erdos_renyi(6, 0.5, weighted=True, rng=0)
        wire = graph_to_wire(graph)
        assert set(wire) == {"n_nodes", "edges"}
        assert all(len(edge) == 3 for edge in wire["edges"])

    def test_edges_default_weight_one(self):
        graph = graph_from_wire({"n_nodes": 3, "edges": [[0, 1], [1, 2, 2.5]]})
        assert np.allclose(sorted(graph.w), [1.0, 2.5])

    def test_empty_graph(self):
        graph = graph_from_wire({"n_nodes": 0, "edges": []})
        assert graph.n_nodes == 0 and graph.n_edges == 0

    @pytest.mark.parametrize(
        "payload, message", GRAPH_REJECTIONS, ids=payload_ids(GRAPH_REJECTIONS)
    )
    def test_invalid_graph_rejected(self, payload, message):
        with pytest.raises(WireFormatError, match=f"^{re.escape(message)}$"):
            graph_from_wire(payload)

    def test_weight_beyond_float64_is_not_finite(self):
        # json.loads turns a 401-digit literal into a Python int, which
        # neither np.isfinite nor math.isfinite accepts.
        payload = json.loads('{"n_nodes": 4, "edges": [[0, 1, 1' + "0" * 400 + "]]}")
        with pytest.raises(WireFormatError, match="^edge 0 weight must be finite$"):
            graph_from_wire(payload)

    @pytest.mark.parametrize("endpoint", [10**30, -(10**30), 2**63])
    def test_endpoint_beyond_int64_is_out_of_range(self, endpoint):
        payload = {"n_nodes": 4, "edges": [[0, 1], [2, endpoint]]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no float64 -> int64 cast warning
            with pytest.raises(
                WireFormatError,
                match=re.escape("edge 1 endpoint is out of range [0, 4)"),
            ):
                graph_from_wire(payload)

    def test_largest_in_range_numbers_decode(self):
        graph = graph_from_wire(
            {"n_nodes": 4, "edges": [[3, 0, 2**60 + 1], [1, 2, 1e308]]}
        )
        assert graph.u.tolist() == [0, 1] and graph.v.tolist() == [3, 2]
        assert graph.w.tolist() == [float(2**60 + 1), 1e308]

    def test_max_nodes_cap(self):
        with pytest.raises(WireFormatError, match="service limit"):
            graph_from_wire({"n_nodes": 100, "edges": []}, max_nodes=50)


# ---------------------------------------------------------------------------
# Request schema
# ---------------------------------------------------------------------------
class TestRequestWire:
    def test_round_trip_full_request(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=1)
        request = build_request(
            graph,
            method="qaoa",
            layers=2,
            maxiter=30,
            seed=7,
        )
        wire = request_to_wire(request, deadline_s=1.5)
        back, deadline_s = request_from_wire(wire)
        assert deadline_s == 1.5
        assert back.method == request.method
        assert back.options == request.options
        assert back.seed == request.seed
        # Identical digests: the wire hop is invisible to the cache.
        probe = MaxCutService(seed=0)
        assert probe.describe(back).digest == probe.describe(request).digest

    def test_defaults_are_omitted_from_the_wire(self):
        graph = erdos_renyi(8, 0.4, weighted=True, rng=2)
        wire = request_to_wire(build_request(graph))
        assert set(wire) == {"graph"}

    def test_minimal_request_decodes(self):
        request, deadline_s = request_from_wire(
            {"graph": {"n_nodes": 2, "edges": [[0, 1]]}}
        )
        assert request.method == "qaoa"
        assert request.options == {}
        assert request.seed is None
        assert deadline_s is None

    @pytest.mark.parametrize(
        "payload, message", REQUEST_REJECTIONS, ids=payload_ids(REQUEST_REJECTIONS)
    )
    def test_invalid_request_rejected(self, payload, message):
        with pytest.raises(WireFormatError, match=f"^{re.escape(message)}$"):
            request_from_wire(payload)

    def test_deadline_beyond_float64_waits_without_limit(self):
        # As a 1e400 literal does, which json.loads reads as infinity.
        for literal in ("1e400", "1" + "0" * 400):
            _, deadline_s = request_from_wire(
                json.loads(
                    '{"graph": {"n_nodes": 2, "edges": []}, "deadline_s": '
                    + literal
                    + "}"
                )
            )
            assert deadline_s == float("inf")


# ---------------------------------------------------------------------------
# Result schema
# ---------------------------------------------------------------------------
class TestResultWire:
    def test_round_trip_preserves_solution(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=5)
        result = MaxCutService(seed=0).solve(graph, seed=3, layers=1, maxiter=15)
        back = result_from_wire(json.loads(json.dumps(result_to_wire(result))))
        assert back.digest == result.digest
        assert back.status == result.status
        assert back.cut == result.cut
        assert np.array_equal(back.assignment, result.assignment)
        assert back.seed == result.seed
        assert back.method == result.method

    def test_malformed_result_payload(self):
        with pytest.raises(WireFormatError, match="malformed result"):
            result_from_wire({"digest": "abc"})


# ---------------------------------------------------------------------------
# The protocol tables themselves
# ---------------------------------------------------------------------------
class TestProtocolTables:
    def test_error_contract_statuses_are_unique_http_errors(self):
        statuses = list(ERROR_CONTRACT.values())
        assert len(set(statuses)) == len(statuses)
        assert all(400 <= status <= 599 for status in statuses)

    def test_error_contract_is_the_documented_set(self):
        assert ERROR_CONTRACT == {
            "bad-request": 400,
            "not-found": 404,
            "method-not-allowed": 405,
            "payload-too-large": 413,
            "internal-error": 500,
            "solve-failed": 502,
            "overloaded": 503,
            "deadline-exceeded": 504,
        }

    def test_route_table(self):
        assert ROUTES == {
            "/solve": "POST",
            "/healthz": "GET",
            "/stats": "GET",
            "/metrics": "GET",
        }
