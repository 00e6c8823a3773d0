"""End-to-end tests of the ``repro serve`` HTTP front-end.

The server runs on a real ephemeral socket inside a background event loop
and the tests speak actual HTTP through the ``repro submit`` client helper,
so the request parsing, error mapping and executor hand-off are all
exercised -- not mocked away.
"""

import asyncio
import threading

import pytest

from repro.coding import make_scheme
from repro.core.config import EvaluationConfig
from repro.evaluation.parallel import (
    ParallelRunner,
    WorkUnit,
    shutdown_shared_runners,
)
from repro.serve.results import ResultStore, trace_content_digest
from repro.serve.service import (
    EvaluationService,
    save_upload_body,
    submit_request,
)
from repro.workloads.generator import generate_benchmark_trace

#: The request every cache-behaviour test reuses.
REQUEST = {
    "scheme": "wlcrc-16",
    "trace": {"profile": "gcc", "length": 150, "seed": 9},
    "config": {"chunk_size": 64},
}


@pytest.fixture()
def server(tmp_path):
    """A live service on an ephemeral port; yields ``(service, base_url)``."""
    store = ResultStore(tmp_path / "store")
    service = EvaluationService(
        store, n_jobs=1, backend="process", trace_dir=tmp_path / "corpus", queue_size=8
    )
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    asyncio.run_coroutine_threadsafe(service.start(), loop).result(timeout=30)
    try:
        yield service, f"http://127.0.0.1:{service.port}"
    finally:
        asyncio.run_coroutine_threadsafe(service.stop(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        loop.close()
        shutdown_shared_runners()


class TestEndpoints:
    def test_healthz(self, server):
        _, url = server
        status, payload = submit_request(url, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["schemes"] > 0
        assert payload["backend"] == "process"

    def test_evaluate_caches_and_matches_fresh_computation(self, server):
        _, url = server
        status, first = submit_request(url, "/evaluate", payload=REQUEST)
        assert status == 200 and first["cached"] is False
        status, second = submit_request(url, "/evaluate", payload=REQUEST)
        assert status == 200 and second["cached"] is True
        assert second["metrics"] == first["metrics"]
        assert second["key"] == first["key"]
        # Bit-identical to an in-process evaluation of the same request.
        trace = generate_benchmark_trace("gcc", 150, seed=9)
        unit = WorkUnit(
            "x", make_scheme("wlcrc-16"), trace, EvaluationConfig(chunk_size=64)
        )
        fresh = ParallelRunner(n_jobs=1).map([unit])[0]
        assert first["metrics"]["data_energy_pj"] == fresh.data_energy_pj
        assert first["metrics"]["requests"] == fresh.requests
        assert first["trace_digest"] == trace_content_digest(trace)

    def test_upload_then_evaluate_by_digest(self, server):
        _, url = server
        trace = generate_benchmark_trace("libq", 120, seed=4)
        status, upload = submit_request(url, "/traces", body=save_upload_body(trace))
        assert status == 200
        assert upload["digest"] == trace_content_digest(trace)
        assert upload["n_lines"] == len(trace)
        request = {
            "scheme": "flipmin",
            "trace": {"digest": upload["digest"]},
            "config": {"chunk_size": 64},
        }
        status, payload = submit_request(url, "/evaluate", payload=request)
        assert status == 200
        assert payload["trace_digest"] == upload["digest"]

    def test_metrics_counters(self, server):
        service, url = server
        submit_request(url, "/evaluate", payload=REQUEST)
        submit_request(url, "/evaluate", payload=REQUEST)
        status, metrics = submit_request(url, "/metrics")
        assert status == 200
        assert metrics["store"] == {
            "hits": 1,
            "misses": 1,
            "corrupted": 0,
            "entries": 1,
        }
        assert metrics["evaluations"] == 1
        assert metrics["queue"]["capacity"] == service.queue_size
        assert metrics["queue"]["rejected"] == 0
        assert metrics["inflight"] == 0
        assert metrics["requests_expired"] == 0
        assert metrics["drain"] == {
            "workers": service.drain_workers,
            "alive": service.drain_workers,
            "busy": 0,
            "restarts": 0,
        }


class TestErrorMapping:
    @pytest.mark.parametrize(
        "request_payload, status, code",
        [
            ({"scheme": "no-such-scheme", "trace": {"profile": "gcc"}}, 404, "unknown_scheme"),
            ({"scheme": "fnw-0", "trace": {"profile": "gcc"}}, 404, "unknown_scheme"),
            ({"scheme": "fnw-abc", "trace": {"profile": "gcc"}}, 404, "unknown_scheme"),
            ({"trace": {"profile": "gcc"}}, 400, "bad_request"),
            ({"scheme": "wlcrc-16"}, 400, "bad_request"),
            ({"scheme": "wlcrc-16", "trace": {"digest": "f" * 64}}, 404, "unknown_trace"),
            ({"scheme": "wlcrc-16", "trace": {"corpus": "nope"}}, 404, "unknown_trace"),
            ({"scheme": "wlcrc-16", "trace": {"profile": "no-such-profile"}}, 404, "unknown_trace"),
            (
                {"scheme": "wlcrc-16", "trace": {"profile": "gcc"}, "config": {"n_jobs": 4}},
                400,
                "bad_request",
            ),
        ],
    )
    def test_evaluate_errors(self, server, request_payload, status, code):
        _, url = server
        got_status, payload = submit_request(url, "/evaluate", payload=request_payload)
        assert (got_status, payload["error"]) == (status, code)

    def test_bad_json_body(self, server):
        _, url = server
        status, payload = submit_request(url, "/evaluate", body=b"not json {")
        assert (status, payload["error"]) == (400, "bad_json")

    def test_empty_upload(self, server):
        _, url = server
        status, payload = submit_request(url, "/traces", body=b"")
        assert (status, payload["error"]) == (400, "bad_request")

    def test_garbage_upload(self, server):
        _, url = server
        status, payload = submit_request(url, "/traces", body=b"\x00garbage")
        assert (status, payload["error"]) == (400, "bad_trace")

    def test_unknown_route_and_wrong_method(self, server):
        _, url = server
        status, payload = submit_request(url, "/nope")
        assert (status, payload["error"]) == (404, "not_found")
        status, payload = submit_request(url, "/evaluate")  # GET
        assert (status, payload["error"]) == (405, "method_not_allowed")
