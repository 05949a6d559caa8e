"""HTTP front end: endpoints, error mapping, client round trip."""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.service import (
    EvaluationRequest,
    EvaluationService,
    ServiceClient,
    ServiceClientError,
    make_server,
)


@pytest.fixture
def served(tmp_path):
    """A live server on an ephemeral port + a client bound to it."""
    service = EvaluationService(tmp_path / "registry",
                                cache=tmp_path / "cache")
    url, stop = start_server(service)
    try:
        yield ServiceClient(url), service
    finally:
        stop()


def start_server(service, **knobs):
    """A live server on an ephemeral port; returns (url, stop)."""
    server = make_server(service, port=0, **knobs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]

    def stop():
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    return f"http://{host}:{port}", stop


def accepted_connections(service) -> float:
    return service.metrics.counter("http_connections_total", "").value


def raw_reply(sock: socket.socket, request: bytes
              ) -> http.client.HTTPResponse:
    """Send ``request`` on ``sock`` and read exactly one reply."""
    sock.sendall(request)
    response = http.client.HTTPResponse(sock)
    response.begin()
    response.read()
    return response


class TestEndpoints:
    def test_health(self, served):
        client, _ = served
        health = client.health()
        assert health["status"] == "ok"
        assert health["models"] == 0
        assert health["instance"]  # replica identity for the router

    def test_ingest_and_list(self, served):
        client, _ = served
        record = client.ingest_sample("kernel6", label="k6")
        assert record["name"] == "Kernel6Model"
        assert "k6" in record["labels"]
        listed = client.list_models()
        assert [m["ref"] for m in listed] == [record["ref"]]

    def test_ingest_xml_document(self, served):
        client, _ = served
        from repro.samples import build_sample_model
        from repro.xmlio.writer import model_to_xml
        record = client.ingest_xml(model_to_xml(build_sample_model()))
        assert record["name"] == "SampleModel"

    def test_evaluate_round_trip(self, served):
        client, _ = served
        record = client.ingest_sample("kernel6")
        requests = [EvaluationRequest(model_ref=record["ref"], backend=b,
                                      params={"processes": p})
                    for b in ("analytic", "codegen") for p in (1, 2)]
        response = client.evaluate(requests)
        assert len(response["results"]) == 4
        assert all(r["status"] == "ok" for r in response["results"])
        assert response["stats"]["unique_jobs"] == 4
        # Resubmit: served from the shared cache.
        again = client.evaluate(requests)
        assert again["stats"]["cache_hits"] == 4

    def test_stats_endpoint(self, served):
        client, _ = served
        record = client.ingest_sample("kernel6")
        client.evaluate([{"model_ref": record["ref"]}])
        stats = client.stats()
        assert stats["batches_served"] == 1
        assert stats["requests_served"] == 1
        assert stats["models"] == 1


class TestErrorMapping:
    def test_unknown_path_is_404(self, served):
        client, _ = served
        with pytest.raises(ServiceClientError, match="404"):
            client._get("/nope")

    def test_malformed_json_is_400(self, served):
        client, _ = served
        request = client._request("POST", "/evaluate", b"{not json")
        with pytest.raises(ServiceClientError, match="not JSON"):
            client._call(request)

    def test_bad_request_field_is_400(self, served):
        client, _ = served
        with pytest.raises(ServiceClientError, match="unknown request"):
            client.evaluate([{"model_ref": "m", "turbo": True}])

    def test_ingest_without_body_keys_is_400(self, served):
        client, _ = served
        with pytest.raises(ServiceClientError, match="ingest body"):
            client._post("/models", {"label": "x"})

    def test_unknown_model_ref_is_captured_not_http_error(self, served):
        client, _ = served
        response = client.evaluate([{"model_ref": "missing"}])
        [result] = response["results"]
        assert result["status"] == "error"
        assert "unknown model" in result["error"]

    def test_bad_param_value_fails_only_that_request(self, served):
        """Regression: a non-integer process count must not 500 the
        batch — the valid request alongside it still runs."""
        client, _ = served
        record = client.ingest_sample("kernel6")
        response = client.evaluate([
            {"model_ref": record["ref"],
             "params": {"processes": "abc"}},
            {"model_ref": record["ref"]},
        ])
        first, second = response["results"]
        assert first["status"] == "error"
        assert second["status"] == "ok"

    def test_get_on_corrupt_registry_returns_json_error(self, served):
        """Regression: GET /models over a registry containing a torn
        model file must answer with a JSON error, not a dropped
        connection."""
        client, service = served
        record = client.ingest_sample("kernel6")
        service.registry.path_for(record["ref"]).write_text(
            "<model", encoding="utf-8")
        service.registry._parsed.clear()
        # Also drop the name index so the listing's fallback path has
        # to parse the torn file (the index otherwise masks it).
        service.registry.names_path.unlink()
        with pytest.raises(ServiceClientError, match="service error"):
            client.list_models()
        # The server survives and keeps answering.
        assert client.health()["status"] == "ok"

    def test_unreachable_server(self, tmp_path):
        client = ServiceClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ServiceClientError, match="cannot reach"):
            client.health()

    def test_peer_dying_mid_response_is_a_transport_error(self):
        """Regression: a replica SIGKILLed mid-response surfaces as
        ``http.client.IncompleteRead``, which must map to a transport
        ``ServiceClientError`` (status None) so retries and the shard
        router's failover see it — not escape as a raw exception."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def torn_reply() -> None:
                conn, _ = listener.accept()
                with conn:
                    conn.recv(65536)
                    conn.sendall(b"HTTP/1.1 200 OK\r\n"
                                 b"Content-Length: 2217\r\n\r\n{")

            peer = threading.Thread(target=torn_reply, daemon=True)
            peer.start()
            port = listener.getsockname()[1]
            client = ServiceClient(f"http://127.0.0.1:{port}", timeout=5)
            with pytest.raises(ServiceClientError,
                               match="cannot reach") as excinfo:
                client.health()
            peer.join(timeout=5)
        assert excinfo.value.status is None

    def test_handler_crash_returns_json_500(self, served):
        """Regression: an unexpected exception inside a handler must
        come back as ``500 {"error": ...}``, not a raw traceback or a
        hung connection — and the server must keep serving."""
        client, service = served
        service.stats = lambda: (_ for _ in ()).throw(
            RuntimeError("stats exploded"))
        with pytest.raises(ServiceClientError,
                           match="500.*stats exploded"):
            client.stats()
        assert client.health()["status"] == "ok"

    def test_unsupported_method_returns_json_501(self, served):
        """Regression: methods outside the route table used to get
        http.server's stock HTML error page; the wire contract is JSON
        everywhere."""
        client, _ = served
        request = urllib.request.Request(client.base_url + "/health",
                                         method="DELETE")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 501
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert "error" in body
        assert client.health()["status"] == "ok"


class TestKeepAlive:
    def test_sequential_calls_share_one_connection(self, served):
        client, service = served
        record = client.ingest_sample("kernel6")
        for processes in (1, 2, 3):
            client.evaluate([{"model_ref": record["ref"],
                              "params": {"processes": processes}}])
        client.health()
        assert accepted_connections(service) == 1

    def test_idle_connection_closed_by_server_is_redialled(
            self, tmp_path):
        service = EvaluationService(tmp_path / "registry")
        url, stop = start_server(service, socket_timeout=0.2)
        try:
            client = ServiceClient(url)
            client.health()
            time.sleep(0.6)  # the server closes the idle connection
            assert client.health()["status"] == "ok"
            assert accepted_connections(service) == 2
        finally:
            stop()

    def test_closed_server_hangs_up_open_connections(self, tmp_path):
        service = EvaluationService(tmp_path / "registry")
        url, stop = start_server(service)
        client = ServiceClient(url, timeout=5)
        client.health()  # leaves a pooled connection open
        stop()
        with pytest.raises(ServiceClientError) as excinfo:
            client.health()
        assert excinfo.value.status is None

    def test_only_replies_that_end_the_connection_say_close(self, served):
        client, _ = served
        parts = urllib.parse.urlsplit(client.base_url)
        address = (parts.hostname, parts.port)
        with socket.create_connection(address, timeout=5) as sock:
            for _ in range(2):
                response = raw_reply(
                    sock, b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
                assert response.status == 200
                assert response.getheader("Connection") is None
        with socket.create_connection(address, timeout=5) as sock:
            # The unread body would be parsed as the next request.
            response = raw_reply(
                sock, b"POST /nope HTTP/1.1\r\nHost: t\r\n"
                      b"Content-Length: 5\r\n\r\nhello")
            assert response.status == 404
            assert response.getheader("Connection") == "close"


class TestMetricsEndpoint:
    def test_prometheus_text_default(self, served):
        client, _ = served
        record = client.ingest_sample("kernel6")
        client.evaluate([{"model_ref": record["ref"]}])
        text = client.metrics_text()
        assert "# TYPE prophet_service_batches_total counter" in text
        assert "prophet_service_batches_total 1" in text
        assert "prophet_service_requests_total 1" in text
        # Layer metrics from the global registry ride along.
        assert "prophet_estimator_runs_total" in text

    def test_json_format_matches_stats(self, served):
        client, _ = served
        record = client.ingest_sample("kernel6")
        client.evaluate([{"model_ref": record["ref"]},
                         {"model_ref": record["ref"]}])
        payload = client.metrics()
        batches = payload["prophet_service_batches_total"]
        assert batches["type"] == "counter"
        assert batches["series"] == [{"labels": {}, "value": 1.0}]
        coalesced = payload["prophet_service_coalesced_total"]
        assert coalesced["series"][0]["value"] == 1.0
        # /stats and /metrics are derived from the same registry.
        stats = client.stats()
        assert stats["batches_served"] == 1
        assert stats["coalesced_total"] == 1

    def test_accept_header_selects_json(self, served):
        client, _ = served
        request = urllib.request.Request(
            client.base_url + "/metrics",
            headers={"Accept": "application/json"})
        with urllib.request.urlopen(request, timeout=5) as response:
            assert response.headers["Content-Type"] == "application/json"
            json.loads(response.read().decode("utf-8"))

    def test_unknown_format_is_400(self, served):
        client, _ = served
        with pytest.raises(ServiceClientError, match="metrics format"):
            client._get("/metrics?format=yaml")

    def test_http_request_metrics_recorded(self, served):
        client, _ = served
        client.health()
        payload = client.metrics()
        requests_series = payload["prophet_http_requests_total"]["series"]
        health = [s for s in requests_series
                  if s["labels"].get("route") == "/health"]
        assert health and health[0]["labels"]["status"] == "200"
        assert health[0]["value"] >= 1.0


class TestWireDeterminism:
    def test_payloads_identical_across_restart(self, tmp_path):
        """Same registry + cache dirs ⇒ a restarted server serves the
        same bytes (the JSON payload subset, not HTTP metadata)."""
        def run_batch():
            service = EvaluationService(tmp_path / "registry",
                                        cache=tmp_path / "cache")
            server = make_server(service, port=0)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            try:
                client = ServiceClient(
                    f"http://127.0.0.1:{server.server_address[1]}")
                record = client.ingest_sample("sample")
                response = client.evaluate(
                    [{"model_ref": record["ref"], "backend": b,
                      "params": {"processes": 2}} for b in
                     ("analytic", "codegen", "interp")])
                payload = [{k: r[k] for k in ("predicted_time", "events",
                                              "trace_records", "backend")}
                           for r in response["results"]]
                return json.dumps(payload, sort_keys=True)
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)

        assert run_batch() == run_batch()
