"""The interconnect model (Hockney): t(m) = L + m/B.

Inter-node messages pay full latency and bandwidth; intra-node messages
(same node, shared memory) use a configurable cheaper path.  Optional
contention routes every transfer through a shared-link facility so
concurrent messages queue.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.errors import EstimatorError
from repro.util.hashing import stable_hash
from repro.sim.core import Simulation, hold
from repro.sim.facility import Facility


@dataclass(frozen=True)
class NetworkConfig:
    latency: float = 1.0e-6          # seconds
    bandwidth: float = 1.0e9         # bytes/second
    intra_node_latency_factor: float = 0.1
    intra_node_bandwidth_factor: float = 10.0
    eager_threshold: float = 65536.0  # bytes; above: rendezvous send
    contention: bool = False
    links: int = 1

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise EstimatorError("network latency must be >= 0")
        if self.bandwidth <= 0:
            raise EstimatorError("network bandwidth must be > 0")
        if self.links < 1:
            raise EstimatorError("network links must be >= 1")
        for name in ("intra_node_latency_factor",
                     "intra_node_bandwidth_factor"):
            if getattr(self, name) <= 0:
                raise EstimatorError(f"{name} must be > 0")

    def fingerprint(self) -> dict:
        """JSON-serializable canonical form (sweep cache key component)."""
        return asdict(self)

    def structural_hash(self) -> str:
        """Stable SHA-256 content hash of this network configuration."""
        return stable_hash(self.fingerprint())


def effective_parameters(config: NetworkConfig,
                         intra_node: bool) -> tuple[float, float]:
    """The (latency, bandwidth) pair one placement actually pays.

    The single source of the intra-node discount, shared by the
    simulator's :class:`Network` and the analytic plan runtimes
    (:mod:`repro.estimator.analytic_plan`) so the Hockney algebra
    cannot drift between backends.
    """
    if intra_node:
        return (config.latency * config.intra_node_latency_factor,
                config.bandwidth * config.intra_node_bandwidth_factor)
    return (config.latency, config.bandwidth)


def tree_depth(participants: int) -> int:
    """Binomial-tree depth for collective algorithms."""
    if participants < 1:
        raise EstimatorError("collective needs >= 1 participant")
    depth = 0
    span = 1
    while span < participants:
        span *= 2
        depth += 1
    return depth


class Network:
    def __init__(self, sim: Simulation,
                 config: NetworkConfig | None = None) -> None:
        self.sim = sim
        self.config = config or NetworkConfig()
        self.link: Facility | None = (
            Facility(sim, "network.link", servers=self.config.links)
            if self.config.contention else None)
        self.bytes_moved = 0.0
        self.messages = 0

    def transfer_time(self, nbytes: float, intra_node: bool) -> float:
        """Hockney time for one message of ``nbytes``."""
        if nbytes < 0:
            raise EstimatorError(f"negative message size {nbytes}")
        latency, bandwidth = effective_parameters(self.config, intra_node)
        return latency + nbytes / bandwidth

    def start_transfer(self, nbytes: float,
                       intra_node: bool) -> tuple[float, Facility | None]:
        """Account one message; return its transfer time and the shared
        link it must hold for that time (``None`` when uncontended)."""
        duration = self.transfer_time(nbytes, intra_node)
        self.bytes_moved += nbytes
        self.messages += 1
        return duration, (None if intra_node else self.link)

    def transfer(self, nbytes: float, intra_node: bool):
        """Generator: occupy the wire for one message's transfer time."""
        duration, link = self.start_transfer(nbytes, intra_node)
        if link is not None:
            yield from link.use(duration)
        else:
            yield from hold(duration)

    def tree_depth(self, participants: int) -> int:
        """Binomial-tree depth for collective algorithms."""
        return tree_depth(participants)
