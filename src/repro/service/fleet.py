"""In-process serving fleets: N replicas + a router, on threads.

Tests and the ``fleet_failover`` benchmark need a whole fleet — several
:class:`~repro.service.service.EvaluationService` replicas behind a
:class:`~repro.service.router.ShardRouter` — without paying subprocess
startup or fighting port races.  :class:`Fleet` builds one: each
replica gets its own registry/cache root (shared-nothing, like real
machines), its own HTTP server on an ephemeral port, and a stable
``replica_id`` matching the router's shard map order.  The CI chaos
harness (``benchmarks/run_fleet_chaos.py``) uses real subprocesses
instead, because SIGKILL is the point there.

``kill(i)`` stops one replica's HTTP server abruptly (no drain) and
hangs up its open keep-alive connections, which is how tests exercise
failover without process machinery.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.service.httpd import ServiceHTTPServer, make_server
from repro.service.router import ShardRouter, make_router_server
from repro.service.service import EvaluationService


class Fleet:
    """N live replicas, optionally fronted by a router."""

    def __init__(self, root: str | Path, size: int = 3, *,
                 durable: bool = False,
                 queue_depth: int = 64,
                 rate_limit: float = 0.0) -> None:
        if size < 1:
            raise ValueError(f"a fleet needs at least 1 replica, "
                             f"got {size}")
        self.root = Path(root)
        self.services: list[EvaluationService] = []
        self.servers: list[ServiceHTTPServer | None] = []
        self.threads: list[threading.Thread | None] = []
        self.urls: list[str] = []
        for index in range(size):
            replica_root = self.root / f"replica{index}"
            service = EvaluationService(
                replica_root / "registry",
                cache=replica_root / "cache",
                instance_id=f"r{index}", durable=durable)
            server = make_server(service, port=0,
                                 queue_depth=queue_depth,
                                 rate_limit=rate_limit)
            thread = threading.Thread(target=server.serve_forever,
                                      name=f"fleet-r{index}",
                                      daemon=True)
            thread.start()
            self.services.append(service)
            self.servers.append(server)
            self.threads.append(thread)
            host, port = server.server_address[:2]
            self.urls.append(f"http://{host}:{port}")
        self.router: ShardRouter | None = None
        self.router_server: ServiceHTTPServer | None = None
        self.router_thread: threading.Thread | None = None

    def start_router(self, **kwargs) -> str:
        """Put a router in front; returns its base URL.

        Keyword arguments go to :class:`ShardRouter` (e.g.
        ``replication_factor=2``, ``local_service=...``,
        ``probe_interval_s=0.2``).
        """
        self.router = ShardRouter(self.urls, **kwargs)
        self.router_server = make_router_server(self.router, port=0)
        self.router_thread = threading.Thread(
            target=self.router_server.serve_forever,
            name="fleet-router", daemon=True)
        self.router_thread.start()
        host, port = self.router_server.server_address[:2]
        return f"http://{host}:{port}"

    def kill(self, index: int) -> None:
        """Stop one replica dead (no drain) to exercise failover."""
        server = self.servers[index]
        if server is None:
            return
        server.shutdown()
        server.server_close()
        thread = self.threads[index]
        if thread is not None:
            thread.join(timeout=5)
        self.servers[index] = None
        self.threads[index] = None

    def close(self) -> None:
        if self.router_server is not None:
            self.router_server.shutdown()
            self.router_server.server_close()
            if self.router_thread is not None:
                self.router_thread.join(timeout=5)
            self.router_server = None
            self.router_thread = None
        if self.router is not None:
            self.router.close()
            self.router = None
        for index in range(len(self.servers)):
            self.kill(index)

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["Fleet"]
