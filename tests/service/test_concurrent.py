"""Concurrent serving tier: identity under threads, admission, drain.

The contracts under test:

* concurrency never changes a payload — N threads hammering
  overlapping batches get byte-identical results to serial submission;
* the bounded admission queue sheds overflow as immediate ``429`` +
  ``Retry-After`` (and keeps ``/health`` responsive while saturated);
* per-client token buckets return ``429`` keyed on ``X-Client-Id``;
* drain-on-shutdown finishes in-flight batches and refuses new ones
  with ``503``;
* the cross-connection batch window merges concurrent submissions into
  one ``submit`` without changing anyone's payload;
* a client that lies about ``Content-Length`` gets ``408`` once the
  socket timeout fires, instead of parking a handler thread forever.
"""

import json
import socket
import threading
import time

import pytest

from repro.service import (
    BatchResponse,
    BatchWindow,
    DrainingError,
    EvaluationRequest,
    EvaluationService,
    QueueFullError,
    RateLimitedError,
    RequestGateway,
    ServiceClient,
    ServiceClientError,
    make_server,
)
from repro.service.loadgen import SlowExecutor
from repro.service.service import RESULT_PAYLOAD_KEYS


def canonical(result: dict) -> str:
    """The deterministic face of one per-request result."""
    return json.dumps({key: result.get(key)
                       for key in RESULT_PAYLOAD_KEYS}, sort_keys=True)


def overlapping_batches(ref: str) -> list[list[EvaluationRequest]]:
    """Batches that share jobs with each other (cache + coalescing
    cross-talk is the point)."""
    return [
        [EvaluationRequest(model_ref=ref, backend="codegen",
                           params={"processes": p}, seed=0)
         for p in (1, 2)],
        [EvaluationRequest(model_ref=ref, backend="analytic",
                           params={"processes": p})
         for p in (1, 2, 4)],
        [EvaluationRequest(model_ref=ref, backend="codegen",
                           params={"processes": 2}, seed=0),
         EvaluationRequest(model_ref=ref, backend="interp",
                           params={"processes": 2}, seed=1),
         EvaluationRequest(model_ref=ref, backend="analytic",
                           params={"processes": 4})],
    ]


def heavy_request(ref: str, seed: int) -> EvaluationRequest:
    """A cache-missing simulated request (unique seed per call)."""
    return EvaluationRequest(model_ref=ref, backend="codegen",
                             params={"processes": 2}, seed=seed)


@pytest.fixture
def service(tmp_path):
    return EvaluationService(tmp_path / "registry",
                             cache=tmp_path / "cache")


def serve(service, **knobs):
    """A live server on an ephemeral port; returns (server, base_url,
    stop)."""
    server = make_server(service, port=0, **knobs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]

    def stop():
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    return server, f"http://{host}:{port}", stop


class TestConcurrentIdentity:
    def test_threaded_submissions_match_serial(self, tmp_path):
        # Serial reference: a plain service on its own registry/cache,
        # submitting one batch at a time.
        serial = EvaluationService(tmp_path / "serial-reg",
                                   cache=tmp_path / "serial-cache")
        ref = serial.ingest_sample("kernel6").ref
        batches = overlapping_batches(ref)
        reference = [[canonical(r) for r in serial.submit(b).results]
                     for b in batches]

        concurrent = EvaluationService(tmp_path / "conc-reg",
                                       cache=tmp_path / "conc-cache")
        assert concurrent.ingest_sample("kernel6").ref == ref
        mismatches = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            for round_index in range(4):
                which = (index + round_index) % len(batches)
                response = concurrent.submit(batches[which])
                got = [canonical(r) for r in response.results]
                if got != reference[which]:
                    with lock:
                        mismatches.append((index, which))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert mismatches == []
        assert concurrent.batches_served == 24

    def test_per_batch_cache_deltas_are_exact(self, service):
        # Concurrent batches must report their *own* hits/misses, not
        # a slice of the global counters.
        ref = service.ingest_sample("kernel6").ref
        batch = overlapping_batches(ref)[0]
        service.submit(batch)  # warm: everything below is a pure hit
        deltas = []
        lock = threading.Lock()

        def worker() -> None:
            response = service.submit(batch)
            with lock:
                deltas.append((response.stats["cache_hits"],
                               response.stats["cache_misses"]))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert deltas == [(len(batch), 0)] * 8


class TestAdmission:
    def test_queue_overflow_returns_429(self, tmp_path):
        service = EvaluationService(tmp_path / "reg",
                                    cache=tmp_path / "cache",
                                    executor=SlowExecutor(0.4))
        ref = service.ingest_sample("kernel6").ref
        server, url, stop = serve(service, queue_depth=1,
                                  retry_after_s=2.0)
        try:
            outcomes = []
            lock = threading.Lock()
            barrier = threading.Barrier(4)

            def poster(index: int) -> None:
                client = ServiceClient(url, client_id=f"c{index}")
                barrier.wait()
                start = time.perf_counter()
                try:
                    client.evaluate([heavy_request(ref, 100 + index)])
                    outcome = (200, None, 0.0)
                except ServiceClientError as exc:
                    outcome = (exc.status, exc.retry_after,
                               time.perf_counter() - start)
                with lock:
                    outcomes.append(outcome)

            threads = [threading.Thread(target=poster, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            # While saturated, health must still answer (separate
            # thread in ThreadingHTTPServer, no admission gate).
            assert ServiceClient(url).health()["status"] == "ok"
            for t in threads:
                t.join()

            rejected = [o for o in outcomes if o[0] == 429]
            assert {o[0] for o in outcomes} <= {200, 429}
            assert len(rejected) >= 1
            assert all(o[1] == 2.0 for o in rejected)  # Retry-After
            # Rejection is immediate — far inside the socket timeout.
            assert all(o[2] < 5.0 for o in rejected)
            family = service.metrics.counter(
                "service_admission_total",
                "Admission decisions, by outcome.",
                labelnames=("outcome",))
            assert family.labels("rejected_queue_full").value \
                == len(rejected)
            assert service.metrics.gauge(
                "service_queue_depth",
                "Batches currently admitted and in flight.").value == 0
        finally:
            stop()

    def test_rate_limit_keyed_on_client_id(self, service):
        ref = service.ingest_sample("kernel6").ref
        server, url, stop = serve(service, rate_limit=0.001, burst=1)
        try:
            batch = [EvaluationRequest(model_ref=ref,
                                       backend="analytic")]
            chatty = ServiceClient(url, client_id="chatty")
            chatty.evaluate(batch)  # burst token spent
            with pytest.raises(ServiceClientError) as err:
                chatty.evaluate(batch)
            assert err.value.status == 429
            assert err.value.retry_after is not None
            assert err.value.retry_after >= 1
            # A different client has its own bucket.
            other = ServiceClient(url, client_id="other")
            assert other.evaluate(batch)["results"][0]["status"] == "ok"
        finally:
            stop()

    def test_gateway_rejections_in_process(self, service):
        ref = service.ingest_sample("kernel6").ref
        gateway = RequestGateway(service, queue_depth=1,
                                 rate_limit=0.001, burst=1)
        batch = [EvaluationRequest(model_ref=ref, backend="analytic")]
        gateway.submit(batch, client_id="a")
        with pytest.raises(RateLimitedError):
            gateway.submit(batch, client_id="a")
        gateway.begin_drain()
        with pytest.raises(DrainingError):
            gateway.submit(batch, client_id="b")
        # The queue path, exercised directly.
        gateway.queue.acquire()
        with pytest.raises(QueueFullError):
            gateway.queue.acquire()
        gateway.queue.release()


class TestDrain:
    def test_drain_completes_inflight_batches(self, tmp_path):
        service = EvaluationService(tmp_path / "reg",
                                    cache=tmp_path / "cache",
                                    executor=SlowExecutor(0.5))
        ref = service.ingest_sample("kernel6").ref
        server, url, stop = serve(service)
        try:
            inflight_result = {}

            def poster() -> None:
                client = ServiceClient(url, client_id="inflight")
                inflight_result["payload"] = client.evaluate(
                    [heavy_request(ref, 7)])

            thread = threading.Thread(target=poster)
            thread.start()
            deadline = time.monotonic() + 5.0
            while server.gateway.queue.inflight == 0:
                assert time.monotonic() < deadline, \
                    "batch never became in-flight"
                time.sleep(0.01)

            assert server.drain(timeout=10.0) is True
            thread.join(timeout=5)
            results = inflight_result["payload"]["results"]
            assert [r["status"] for r in results] == ["ok"]

            with pytest.raises(ServiceClientError) as err:
                ServiceClient(url).evaluate([heavy_request(ref, 8)])
            assert err.value.status == 503
            assert err.value.retry_after is not None
        finally:
            stop()


class TestBatchWindow:
    def test_coalesces_concurrent_callers(self, service):
        ref = service.ingest_sample("kernel6").ref
        solo = {canonical(r)
                for r in service.submit(
                    overlapping_batches(ref)[0]).results}
        window = BatchWindow(service.submit, window_s=0.5)
        responses = {}
        barrier = threading.Barrier(2)

        def caller(name: str, processes: int) -> None:
            barrier.wait()
            responses[name] = window.submit(
                [EvaluationRequest(model_ref=ref, backend="codegen",
                                   params={"processes": processes},
                                   seed=0)])

        before = service.batches_served
        threads = [threading.Thread(target=caller, args=("a", 1)),
                   threading.Thread(target=caller, args=("b", 2))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # One merged submit served both callers...
        assert service.batches_served == before + 1
        assert responses["a"].stats["window_callers"] == 2
        assert responses["b"].stats["window_requests"] == 2
        # ...and each caller got exactly its own request's payload,
        # byte-identical to a solo submission.
        assert len(responses["a"].results) == 1
        assert len(responses["b"].results) == 1
        assert canonical(responses["a"].results[0]) in solo
        assert canonical(responses["b"].results[0]) in solo
        assert canonical(responses["a"].results[0]) \
            != canonical(responses["b"].results[0])

    def test_full_window_flushes_early(self, service):
        ref = service.ingest_sample("kernel6").ref
        window = BatchWindow(service.submit, window_s=30.0,
                             max_requests=2)
        barrier = threading.Barrier(2)
        done = []

        def caller(processes: int) -> None:
            barrier.wait()
            done.append(window.submit(
                [EvaluationRequest(model_ref=ref, backend="analytic",
                                   params={"processes": processes})]))

        start = time.perf_counter()
        threads = [threading.Thread(target=caller, args=(p,))
                   for p in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        # Filling to max_requests sealed the 30s window immediately.
        assert time.perf_counter() - start < 10.0
        assert len(done) == 2

    def test_zero_window_is_passthrough(self, service):
        ref = service.ingest_sample("kernel6").ref
        window = BatchWindow(service.submit, window_s=0.0)
        response = window.submit(
            [EvaluationRequest(model_ref=ref, backend="analytic")])
        assert response.results[0]["status"] == "ok"
        assert "window_callers" not in response.stats

    def test_submit_error_wakes_every_caller(self):
        boom = RuntimeError("executor died")

        def exploding_submit(requests):
            raise boom

        window = BatchWindow(exploding_submit, window_s=0.05)
        errors = []
        barrier = threading.Barrier(2)

        def caller() -> None:
            barrier.wait()
            try:
                window.submit([object()])
            except RuntimeError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=caller) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert errors == [boom, boom]

    def test_slicing_uses_batch_response(self):
        # The window returns real BatchResponse objects, sliced.
        def fake_submit(requests):
            return BatchResponse(
                results=[{"status": "ok", "n": i}
                         for i in range(len(requests))],
                stats={"requests": len(requests)})

        window = BatchWindow(fake_submit, window_s=0.0)
        response = window.submit([object(), object()])
        assert isinstance(response, BatchResponse)
        assert [r["n"] for r in response.results] == [0, 1]


class TestLyingClient:
    def test_lying_content_length_gets_408(self, service):
        service.ingest_sample("kernel6")
        server, url, stop = serve(service, socket_timeout=1.0)
        host, port = server.server_address[:2]
        try:
            with socket.create_connection((host, port),
                                          timeout=10) as sock:
                sock.sendall(
                    b"POST /evaluate HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 4096\r\n"
                    b"\r\n"
                    b'{"requests": [')  # ...and never the rest
                start = time.perf_counter()
                reply = sock.recv(65536)
            elapsed = time.perf_counter() - start
            assert b"408" in reply.split(b"\r\n", 1)[0]
            body = reply.split(b"\r\n\r\n", 1)[1]
            assert b"timed out" in body
            # The 408 arrived on the socket-timeout clock, not after
            # some multi-minute default.
            assert elapsed < 8.0
            # The handler thread is free and the server healthy.
            assert ServiceClient(url).health()["status"] == "ok"
        finally:
            stop()

    def test_truncated_body_gets_408(self, service):
        service.ingest_sample("kernel6")
        server, url, stop = serve(service, socket_timeout=1.0)
        host, port = server.server_address[:2]
        try:
            with socket.create_connection((host, port),
                                          timeout=10) as sock:
                sock.sendall(
                    b"POST /evaluate HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Content-Length: 4096\r\n"
                    b"\r\n"
                    b'{"requests"')
                sock.shutdown(socket.SHUT_WR)  # client gave up
                reply = sock.recv(65536)
            assert b"408" in reply.split(b"\r\n", 1)[0]
            assert ServiceClient(url).health()["status"] == "ok"
        finally:
            stop()
