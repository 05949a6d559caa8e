"""Tests for MPI-style point-to-point and collective semantics."""

import pytest

from repro.errors import DeadlockError, EstimatorError
from repro.machine.cluster import Cluster
from repro.machine.network import NetworkConfig
from repro.machine.params import SystemParameters
from repro.sim.core import Hold, Simulation
from repro.estimator.trace import TraceRecorder
from repro.workload.context import ExecContext, ProcessState, RuntimeState, VarStore
from repro.workload.mpi import Communicator


def make_world(processes=2, nodes=1, ppn=2, latency=1e-3, bandwidth=1e6,
               eager_threshold=1000.0, contention=False):
    sim = Simulation()
    params = SystemParameters(nodes=nodes, processors_per_node=ppn,
                              processes=processes)
    network = NetworkConfig(latency=latency, bandwidth=bandwidth,
                            eager_threshold=eager_threshold,
                            intra_node_latency_factor=1.0,
                            intra_node_bandwidth_factor=1.0,
                            contention=contention)
    cluster = Cluster(sim, params, network)
    comm = Communicator(sim, cluster)
    runtime = RuntimeState(sim=sim, cluster=cluster, comm=comm,
                           trace=TraceRecorder())
    contexts = [ExecContext(runtime, ProcessState(pid, VarStore()), tid=0)
                for pid in range(processes)]
    return sim, comm, contexts


class TestPointToPoint:
    def test_eager_send_recv_times(self):
        # latency 1ms, bandwidth 1e6 B/s, message 500 B (eager):
        # arrival = 1ms + 0.5ms = 1.5ms.
        sim, comm, ctx = make_world()
        times = {}

        def sender():
            yield from comm.send(ctx[0], dest=1, nbytes=500, tag=0)
            times["send_done"] = sim.now

        def receiver():
            yield from comm.recv(ctx[1], source=0, nbytes=500, tag=0)
            times["recv_done"] = sim.now

        sim.spawn("s", sender())
        sim.spawn("r", receiver())
        sim.run()
        assert times["recv_done"] == pytest.approx(1.5e-3)
        # Eager: the sender finishes long before delivery.
        assert times["send_done"] < times["recv_done"]

    def test_rendezvous_send_blocks_until_recv(self):
        sim, comm, ctx = make_world(eager_threshold=100.0)
        times = {}

        def sender():
            yield from comm.send(ctx[0], dest=1, nbytes=5000, tag=0)
            times["send_done"] = sim.now

        def receiver():
            yield Hold(0.5)  # receiver arrives late
            yield from comm.recv(ctx[1], source=0, nbytes=5000, tag=0)
            times["recv_done"] = sim.now

        sim.spawn("s", sender())
        sim.spawn("r", receiver())
        sim.run()
        # Transfer starts when the receiver posts (0.5 s), then
        # latency + 5000/1e6 = 1ms + 5ms = 6 ms.
        assert times["recv_done"] == pytest.approx(0.5 + 6e-3)
        assert times["send_done"] == pytest.approx(times["recv_done"])

    def test_tag_matching(self):
        sim, comm, ctx = make_world()
        received = []

        def sender():
            yield from comm.send(ctx[0], dest=1, nbytes=10, tag=1)
            yield from comm.send(ctx[0], dest=1, nbytes=10, tag=2)

        def receiver():
            message = yield from comm.recv(ctx[1], source=0, nbytes=10,
                                           tag=2)
            received.append(message.tag)
            message = yield from comm.recv(ctx[1], source=0, nbytes=10,
                                           tag=1)
            received.append(message.tag)

        sim.spawn("s", sender())
        sim.spawn("r", receiver())
        sim.run()
        assert received == [2, 1]

    def test_any_source_any_tag(self):
        sim, comm, ctx = make_world(processes=3)
        received = []

        def sender(pid, delay):
            yield Hold(delay)
            yield from comm.send(ctx[pid], dest=2, nbytes=10, tag=pid)

        def receiver():
            for _ in range(2):
                message = yield from comm.recv(ctx[2], source=-1,
                                               nbytes=10, tag=-1)
                received.append(message.source)

        sim.spawn("s0", sender(0, 0.0))
        sim.spawn("s1", sender(1, 1.0))
        sim.spawn("r", receiver())
        sim.run()
        assert received == [0, 1]

    def test_unmatched_recv_deadlocks(self):
        sim, comm, ctx = make_world()

        def receiver():
            yield from comm.recv(ctx[1], source=0, nbytes=10, tag=0)

        sim.spawn("r", receiver())
        with pytest.raises(DeadlockError):
            sim.run()

    def test_head_to_head_rendezvous_deadlocks(self):
        # Both ranks send-before-receive above the eager threshold: the
        # classic unsafe MPI pattern must deadlock (synchronous sends).
        sim, comm, ctx = make_world(eager_threshold=100.0)

        def rank(pid, peer):
            yield from comm.send(ctx[pid], dest=peer, nbytes=10_000,
                                 tag=0)
            yield from comm.recv(ctx[pid], source=peer, nbytes=10_000,
                                 tag=0)

        sim.spawn("r0", rank(0, 1))
        sim.spawn("r1", rank(1, 0))
        with pytest.raises(DeadlockError):
            sim.run()

    def test_head_to_head_eager_succeeds(self):
        # The same pattern under the threshold is buffered and completes.
        sim, comm, ctx = make_world(eager_threshold=1e6)

        def rank(pid, peer):
            yield from comm.send(ctx[pid], dest=peer, nbytes=10_000,
                                 tag=0)
            yield from comm.recv(ctx[pid], source=peer, nbytes=10_000,
                                 tag=0)

        sim.spawn("r0", rank(0, 1))
        sim.spawn("r1", rank(1, 0))
        sim.run()  # completes without deadlock

    def test_bad_rank_rejected(self):
        sim, comm, ctx = make_world()

        def sender():
            yield from comm.send(ctx[0], dest=9, nbytes=10, tag=0)

        sim.spawn("s", sender())
        with pytest.raises(EstimatorError):
            sim.run()


class TestMessagesInFlight:
    """A message in flight is a calendar entry, not a process."""

    @pytest.mark.parametrize("contention", (False, True))
    @pytest.mark.parametrize("nbytes", (500, 5000))  # eager, rendezvous
    def test_sends_spawn_no_process(self, nbytes, contention):
        sim, comm, ctx = make_world(nodes=2, ppn=1, contention=contention)

        def sender():
            yield from comm.send(ctx[0], dest=1, nbytes=nbytes, tag=0)

        def receiver():
            yield from comm.recv(ctx[1], source=0, nbytes=nbytes, tag=0)

        sim.spawn("s", sender())
        sim.spawn("r", receiver())
        sim.run()
        assert [p.name for p in sim.all_processes] == ["s", "r"]
        assert comm.p2p_messages == 1
        if contention:  # the payload crossed the shared link once
            assert comm.cluster.network.link.completions == 1
        # Two steps for the message, as the process it replaced took.
        assert sim.events_processed == (6 if nbytes == 500 else 7)

    def test_a_message_in_flight_keeps_the_run_active(self):
        # Eager 500 B: the sender is done at 1 ms, the message lands at
        # 1.5 ms.  At 1.2 ms only the receiver is a live process, but
        # the message still counts, so the run cannot end early.
        sim, comm, ctx = make_world()

        def sender():
            yield from comm.send(ctx[0], dest=1, nbytes=500, tag=0)

        def receiver():
            yield from comm.recv(ctx[1], source=0, nbytes=500, tag=0)

        sim.spawn("s", sender())
        sim.spawn("r", receiver())
        assert sim.run(until=1.2e-3) == 1.2e-3
        assert [p.name for p in sim.all_processes if not p.done] == ["r"]
        assert sim.active_processes == 2
        assert sim.run() == pytest.approx(1.5e-3)
        assert sim.active_processes == 0

    @pytest.mark.parametrize("eager_threshold", (0.0, 65536.0))
    @pytest.mark.parametrize("scenario", ("fork_join", "master_worker",
                                          "pipeline", "stencil2d"))
    def test_model_runs_spawn_only_ranks_and_strands(
            self, monkeypatch, scenario, eager_threshold):
        import re

        from repro.estimator.manager import PerformanceEstimator
        from repro.scenarios import build_scenario
        from repro.sim import core

        names = []
        spawn = core.Simulation.spawn

        def recording_spawn(self, name, generator):
            names.append(name)
            return spawn(self, name, generator)

        monkeypatch.setattr(core.Simulation, "spawn", recording_spawn)
        estimator = PerformanceEstimator(
            SystemParameters(nodes=2, processors_per_node=2, processes=4),
            NetworkConfig(eager_threshold=eager_threshold))
        try:
            result = estimator.estimate(build_scenario(scenario),
                                        mode="codegen", check=False)
        except DeadlockError:
            result = None  # every-send-rendezvous master_worker
        assert names[:4] == ["rank0", "rank1", "rank2", "rank3"]
        strand = re.compile(r".*\.p\d+\.(t|arm)\d+$")
        assert all(strand.match(name) for name in names[4:]), names
        if result is not None and scenario != "fork_join":
            assert result.trace_counts["send"] > 0


class TestCollectives:
    def run_collective(self, processes, body, **world_kwargs):
        sim, comm, ctx = make_world(processes=processes, **world_kwargs)
        done = {}

        def participant(pid, delay):
            yield Hold(delay)
            yield from body(comm, ctx[pid], pid)
            done[pid] = sim.now

        for pid in range(processes):
            sim.spawn(f"p{pid}", participant(pid, float(pid)))
        sim.run()
        return done

    def test_barrier_releases_after_last_arrival(self):
        def body(comm, ctx, pid):
            yield from comm.barrier(ctx, element_id=1)

        done = self.run_collective(4, body, latency=1e-3)
        # Last arrival at t=3; depth(4)=2 hops of latency.
        for pid in range(4):
            assert done[pid] == pytest.approx(3.0 + 2 * 1e-3)

    def test_barrier_instances_match_in_order(self):
        sim, comm, ctx = make_world(processes=2)
        order = []

        def participant(pid):
            yield from comm.barrier(ctx[pid], element_id=1)
            order.append((pid, "first", sim.now))
            yield from comm.barrier(ctx[pid], element_id=1)
            order.append((pid, "second", sim.now))

        sim.spawn("p0", participant(0))
        sim.spawn("p1", participant(1))
        sim.run()
        firsts = [entry for entry in order if entry[1] == "first"]
        seconds = [entry for entry in order if entry[1] == "second"]
        assert len(firsts) == len(seconds) == 2

    def test_bcast_root_release_independent_of_others(self):
        def body(comm, ctx, pid):
            yield from comm.bcast(ctx, element_id=2, root=0, nbytes=1000)

        done = self.run_collective(4, body, latency=1e-3, bandwidth=1e6)
        per_hop = 1e-3 + 1000 / 1e6
        depth = 2
        # Root arrived at t=0 and finishes after tree time.
        assert done[0] == pytest.approx(0.0 + depth * per_hop)
        # pid 3 arrives at t=3 (after the root) and pays the tree time.
        assert done[3] == pytest.approx(3.0 + depth * per_hop)

    def test_bcast_waits_for_root(self):
        def body(comm, ctx, pid):
            # Root is pid 3, the LAST to arrive (delay 3 s).
            yield from comm.bcast(ctx, element_id=2, root=3, nbytes=0)

        done = self.run_collective(4, body, latency=1e-3)
        # pid 0 arrived at t=0 but cannot finish before the root arrives.
        assert done[0] >= 3.0

    def test_reduce_root_waits_for_all(self):
        def body(comm, ctx, pid):
            yield from comm.reduce(ctx, element_id=3, root=0, nbytes=100)

        done = self.run_collective(4, body, latency=1e-3, bandwidth=1e6)
        per_hop = 1e-3 + 100 / 1e6
        assert done[0] == pytest.approx(3.0 + 2 * per_hop)
        # A leaf finishes after its own send.
        assert done[3] == pytest.approx(3.0 + per_hop)

    def test_allreduce_synchronizes_everyone(self):
        def body(comm, ctx, pid):
            yield from comm.allreduce(ctx, element_id=4, nbytes=100)

        done = self.run_collective(4, body, latency=1e-3, bandwidth=1e6)
        per_hop = 1e-3 + 100 / 1e6
        expected = 3.0 + 2 * 2 * per_hop  # reduce + bcast trees
        for pid in range(4):
            assert done[pid] == pytest.approx(expected)

    def test_scatter_linear_in_processes(self):
        def body(comm, ctx, pid):
            yield from comm.scatter(ctx, element_id=5, root=0, nbytes=1000)

        done = self.run_collective(3, body, latency=1e-3, bandwidth=1e6)
        per_child = 1e-3 + 1000 / 1e6
        assert done[0] == pytest.approx(0.0 + 2 * per_child)
        assert done[1] == pytest.approx(1.0 + 1 * per_child)
        assert done[2] == pytest.approx(2.0 + 2 * per_child)

    def test_gather_root_drains_all(self):
        def body(comm, ctx, pid):
            yield from comm.gather(ctx, element_id=6, root=0, nbytes=1000)

        done = self.run_collective(3, body, latency=1e-3, bandwidth=1e6)
        per_child = 1e-3 + 1000 / 1e6
        assert done[0] == pytest.approx(2.0 + 2 * per_child)

    def test_missing_participant_deadlocks(self):
        sim, comm, ctx = make_world(processes=2)

        def lonely():
            yield from comm.barrier(ctx[0], element_id=9)

        sim.spawn("p0", lonely())
        with pytest.raises(DeadlockError):
            sim.run()
