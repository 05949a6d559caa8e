"""Shard router: shard map, failover, degraded mode, hedged reads."""

import collections
import threading
import time

import pytest

from repro.service import (
    EvaluationService,
    Fleet,
    RouterError,
    ServiceClient,
    ServiceClientError,
    ShardMap,
    ShardRouter,
)
from repro.service.router import make_router_server


@pytest.fixture
def fleet(tmp_path):
    with Fleet(tmp_path / "fleet", size=3) as fleet:
        yield fleet


def routed_client(fleet, **router_kwargs):
    url = fleet.start_router(probe_interval_s=30.0, **router_kwargs)
    return ServiceClient(url)


class TestShardMap:
    def test_owner_is_deterministic(self):
        shard_map = ShardMap(["r0", "r1", "r2"])
        key = "a" * 64
        assert shard_map.owners(key, 2) == shard_map.owners(key, 2)
        again = ShardMap(["r0", "r1", "r2"])
        assert shard_map.owners(key, 2) == again.owners(key, 2)

    def test_owners_are_distinct_replicas(self):
        shard_map = ShardMap(["r0", "r1", "r2"])
        for seed in range(20):
            owners = shard_map.owners(f"key-{seed}", 2)
            assert len(owners) == 2
            assert len(set(owners)) == 2

    def test_spread_is_roughly_balanced(self):
        shard_map = ShardMap(["r0", "r1", "r2"])
        keys = [f"model-{i}" for i in range(600)]
        spread = shard_map.spread(keys)
        assert sum(spread.values()) == 600
        # Consistent hashing with 64 vnodes: no replica should own a
        # wildly lopsided share.
        assert min(spread.values()) > 600 / 3 / 3

    def test_removing_a_replica_only_remaps_its_keys(self):
        before = ShardMap(["r0", "r1", "r2"])
        after = ShardMap(["r0", "r1"])
        keys = [f"model-{i}" for i in range(300)]
        moved = sum(
            1 for key in keys
            if before.owners(key)[0] != after.owners(key)[0]
            and before.owners(key)[0] != "r2")
        # Keys not owned by the removed replica overwhelmingly stay put.
        assert moved < 30

    def test_rejects_empty_and_duplicate(self):
        with pytest.raises(RouterError, match="at least one"):
            ShardMap([])
        with pytest.raises(RouterError, match="duplicate"):
            ShardMap(["r0", "r0"])


class TestRouting:
    def test_ingest_broadcasts_to_every_replica(self, fleet):
        client = routed_client(fleet)
        record = client.ingest_sample("kernel6", label="k6")
        assert record["name"] == "Kernel6Model"
        for service in fleet.services:
            assert len(service.registry) == 1

    def test_evaluate_lands_on_owning_replica(self, fleet):
        client = routed_client(fleet)
        record = client.ingest_sample("kernel6")
        response = client.evaluate([
            {"model_ref": record["ref"], "params": {"processes": p}}
            for p in (1, 2)])
        assert all(r["status"] == "ok" for r in response["results"])
        replicas = {r["replica"] for r in response["results"]}
        assert len(replicas) == 1  # one model = one shard = one owner
        owner = fleet.router.shard_map.owners(record["ref"])[0]
        assert replicas == {owner}
        assert not response["stats"]["degraded"]

    def test_multi_model_batch_reassembles_in_order(self, fleet):
        client = routed_client(fleet)
        refs = [client.ingest_sample(kind)["ref"]
                for kind in ("kernel6", "sample", "pipeline")]
        requests = [{"model_ref": ref, "params": {"processes": p}}
                    for ref in refs for p in (1, 2)]
        response = client.evaluate(requests)
        assert len(response["results"]) == len(requests)
        assert all(r["status"] == "ok" for r in response["results"])
        owners = collections.Counter(
            fleet.router.shard_map.owners(ref)[0] for ref in refs)
        assert response["stats"]["shards"] == len(owners)

    def test_results_match_direct_service_bytes(self, fleet):
        """Router metadata rides alongside the payload keys; the
        payload subset stays byte-identical to a direct service run."""
        from repro.service.service import RESULT_PAYLOAD_KEYS
        client = routed_client(fleet)
        record = client.ingest_sample("kernel6")
        routed = client.evaluate([{"model_ref": record["ref"]}])
        [routed_result] = routed["results"]
        direct_client = ServiceClient(fleet.urls[0])
        direct = direct_client.evaluate([{"model_ref": record["ref"]}])
        [direct_result] = direct["results"]
        for key in RESULT_PAYLOAD_KEYS:
            assert routed_result[key] == direct_result[key]
        assert routed_result["replica"] in ("r0", "r1", "r2")

    def test_label_and_hash_route_to_the_same_shard(self, fleet):
        client = routed_client(fleet)
        record = client.ingest_sample("kernel6", label="k6")
        router = fleet.router
        assert router.shard_key("k6") == router.shard_key(record["ref"])


class TestFailover:
    def test_dead_primary_fails_over_to_another_replica(self, fleet):
        client = routed_client(fleet)
        record = client.ingest_sample("kernel6")
        owner = fleet.router.shard_map.owners(record["ref"])[0]
        fleet.kill(int(owner[1:]))
        response = client.evaluate([{"model_ref": record["ref"]}])
        [result] = response["results"]
        assert result["status"] == "ok"
        assert result["replica"] != owner
        assert "degraded" not in result

    def test_all_dead_recomputes_locally_degraded(self, tmp_path):
        fleet = Fleet(tmp_path / "fleet", size=2)
        local = EvaluationService(tmp_path / "local" / "registry",
                                  cache=tmp_path / "local" / "cache",
                                  instance_id="local")
        try:
            url = fleet.start_router(probe_interval_s=30.0,
                                     local_service=local,
                                     circuit_reset_s=60.0)
            client = ServiceClient(url)
            record = client.ingest_sample("kernel6")
            fleet.kill(0)
            fleet.kill(1)
            response = client.evaluate([{"model_ref": record["ref"]}])
            [result] = response["results"]
            assert result["status"] == "ok"
            assert result["degraded"] is True
            assert result["replica"] == "local"
            assert response["stats"]["degraded"] is True
        finally:
            fleet.close()

    def test_all_dead_without_local_gives_partial_errors(self, fleet):
        client = routed_client(fleet, circuit_reset_s=60.0)
        record = client.ingest_sample("kernel6")
        for index in range(3):
            fleet.kill(index)
        # Still a 200 with per-request error entries, never a 502.
        response = client.evaluate([{"model_ref": record["ref"]},
                                    {"model_ref": record["ref"]}])
        assert len(response["results"]) == 2
        for result in response["results"]:
            assert result["status"] == "error"
            assert "no replica" in result["error"]

    def test_circuit_opens_after_consecutive_failures(self, fleet):
        client = routed_client(fleet, circuit_threshold=2,
                               circuit_reset_s=60.0)
        record = client.ingest_sample("kernel6")
        owner = fleet.router.shard_map.owners(record["ref"])[0]
        fleet.kill(int(owner[1:]))
        for _ in range(2):
            client.evaluate([{"model_ref": record["ref"]}])
        replica = fleet.router.replicas[owner]
        assert not replica.healthy
        assert replica.consecutive_failures >= 2

    def test_active_probe_flips_health_both_ways(self, fleet):
        fleet.start_router(probe_interval_s=30.0)
        router = fleet.router
        verdict = router.probe()
        assert verdict == {"r0": True, "r1": True, "r2": True}
        fleet.kill(1)
        verdict = router.probe()
        assert verdict["r1"] is False
        assert router.health()["status"] == "degraded"

    def test_router_health_reports_fleet_view(self, fleet):
        client = routed_client(fleet)
        health = client.health()
        assert health["status"] == "ok"
        assert health["role"] == "router"
        assert set(health["replicas"]) == {"r0", "r1", "r2"}
        for payload in health["replicas"].values():
            assert payload["healthy"] is True


class TestHedging:
    def test_single_owner_warm_batch_is_not_hedged(self, fleet):
        """With replication factor 1 the shard has one owner; every
        other replica's cache is cold for it, so nothing is hedged."""
        client = routed_client(fleet, hedge_delay_s=0.0)
        record = client.ingest_sample("kernel6")
        batch = [{"model_ref": record["ref"]}]
        client.evaluate(batch)  # cold: marks the signature warm
        [result] = client.evaluate(batch)["results"]
        assert result["status"] == "ok"
        assert "hedged" not in result
        assert result["replica"] == fleet.router.shard_map.owners(
            record["ref"])[0]
        hedges = fleet.router.metrics.counter(
            "router_hedges_total", "", labelnames=("winner",))
        assert sum(child.value for child in hedges.children()) == 0

    def test_warm_batch_is_hedged(self, fleet):
        client = routed_client(fleet, replication_factor=2,
                               hedge_delay_s=0.0)
        record = client.ingest_sample("kernel6")
        batch = [{"model_ref": record["ref"]}]
        client.evaluate(batch)  # cold: marks the signature warm
        response = client.evaluate(batch)  # warm: hedged
        [result] = response["results"]
        assert result["status"] == "ok"
        assert result.get("hedged") is True
        hedges = fleet.router.metrics.counter(
            "router_hedges_total", "", labelnames=("winner",))
        total = sum(child.value for child in hedges.children())
        assert total == 1

    def test_hedge_survives_a_dead_primary(self, fleet):
        client = routed_client(fleet, replication_factor=2,
                               hedge_delay_s=0.0)
        record = client.ingest_sample("kernel6")
        batch = [{"model_ref": record["ref"]}]
        client.evaluate(batch)
        owner = fleet.router.shard_map.owners(record["ref"], 1)[0]
        fleet.kill(int(owner[1:]))
        response = client.evaluate(batch)
        [result] = response["results"]
        assert result["status"] == "ok"
        assert result["replica"] != owner


class TestPersistentConnections:
    def test_idle_closed_connection_is_redialled_not_a_failure(
            self, fleet):
        for server in fleet.servers:
            server.RequestHandlerClass.timeout = 0.2  # idle close
        client = routed_client(fleet, circuit_threshold=1)
        record = client.ingest_sample("kernel6")
        batch = [{"model_ref": record["ref"]}]
        client.evaluate(batch)
        owner = fleet.router.shard_map.owners(record["ref"])[0]
        service = fleet.services[int(owner[1:])]
        before = service.metrics.counter(
            "http_connections_total", "").value
        time.sleep(0.6)  # the owner closes the router's idle connection
        [result] = client.evaluate(batch)["results"]
        assert result["status"] == "ok"
        assert result["replica"] == owner
        replica = fleet.router.replicas[owner]
        assert replica.healthy and replica.consecutive_failures == 0
        assert service.metrics.counter(
            "http_connections_total", "").value == before + 1

    def test_kill_fails_over_despite_a_warm_connection(self, fleet):
        client = routed_client(fleet)
        record = client.ingest_sample("kernel6")
        batch = [{"model_ref": record["ref"]}]
        client.evaluate(batch)  # the router keeps a warm connection
        owner = fleet.router.shard_map.owners(record["ref"])[0]
        fleet.kill(int(owner[1:]))
        [result] = client.evaluate(batch)["results"]
        assert result["status"] == "ok"
        assert result["replica"] != owner
        assert "degraded" not in result


class TestRouterEndpoints:
    def test_models_listing_comes_from_a_replica(self, fleet):
        client = routed_client(fleet)
        client.ingest_sample("kernel6")
        listed = client.list_models()
        assert len(listed) == 1

    def test_stats_and_metrics(self, fleet):
        client = routed_client(fleet)
        record = client.ingest_sample("kernel6", label="k6")
        client.evaluate([{"model_ref": record["ref"]}])
        stats = client.stats()
        assert stats["role"] == "router"
        assert stats["labels_learned"] >= 1  # "k6" at minimum
        text = client.metrics_text()
        assert "prophet_router_forwards_total" in text
        assert "prophet_router_ingest_total 1" in text

    def test_validation_error_is_still_400(self, fleet):
        client = routed_client(fleet)
        with pytest.raises(ServiceClientError, match="unknown request"):
            client.evaluate([{"model_ref": "m", "turbo": True}])

    def test_rejects_bad_replication_factor(self):
        with pytest.raises(RouterError, match="replication_factor"):
            ShardRouter(["http://127.0.0.1:1"], replication_factor=3)


class TestStandaloneRouter:
    def test_router_server_lifecycle(self, tmp_path):
        """make_router_server + close() leaves no probe thread behind."""
        with Fleet(tmp_path / "fleet", size=1) as fleet:
            router = ShardRouter(fleet.urls, probe_interval_s=0.05)
            server = make_router_server(router, port=0)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            try:
                host, port = server.server_address[:2]
                client = ServiceClient(f"http://{host}:{port}")
                assert client.health()["role"] == "router"
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)
                router.close()
            assert router._probe_thread is None
