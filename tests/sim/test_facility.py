"""Tests for facilities, storages, and mailboxes."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.core import Hold, Simulation
from repro.sim.facility import Facility
from repro.sim.mailbox import Mailbox
from repro.sim.storage import Storage


class TestFacility:
    def test_single_server_serializes(self):
        sim = Simulation()
        cpu = Facility(sim, "cpu")
        finished = []

        def job(i):
            yield from cpu.use(2.0)
            finished.append((i, sim.now))

        for i in range(3):
            sim.spawn(f"job{i}", job(i))
        sim.run()
        assert finished == [(0, 2.0), (1, 4.0), (2, 6.0)]

    def test_two_servers_halve_makespan(self):
        sim = Simulation()
        cpu = Facility(sim, "cpu", servers=2)

        def job():
            yield from cpu.use(2.0)

        for i in range(4):
            sim.spawn(f"job{i}", job())
        assert sim.run() == 4.0

    def test_fcfs_order(self):
        sim = Simulation()
        cpu = Facility(sim, "cpu")
        order = []

        def job(i, arrival):
            yield Hold(arrival)
            yield from cpu.use(5.0)
            order.append(i)

        # Arrivals at t=0,1,2 — must finish in arrival order.
        for i in range(3):
            sim.spawn(f"job{i}", job(i, float(i)))
        sim.run()
        assert order == [0, 1, 2]

    def test_utilization_single_job(self):
        sim = Simulation()
        cpu = Facility(sim, "cpu")

        def job():
            yield from cpu.use(3.0)
            yield Hold(1.0)  # idle tail

        sim.spawn("job", job())
        sim.run()
        assert cpu.utilization() == pytest.approx(3.0 / 4.0)
        assert cpu.busy_time() == pytest.approx(3.0)

    def test_utilization_bounded(self):
        sim = Simulation()
        cpu = Facility(sim, "cpu")

        def job():
            yield from cpu.use(1.0)

        for i in range(7):
            sim.spawn(f"j{i}", job())
        sim.run()
        assert 0.0 <= cpu.utilization() <= 1.0
        assert cpu.utilization() == pytest.approx(1.0)

    def test_completions_counted(self):
        sim = Simulation()
        cpu = Facility(sim, "cpu")

        def job():
            yield from cpu.use(1.0)

        for i in range(5):
            sim.spawn(f"j{i}", job())
        sim.run()
        assert cpu.completions == 5
        assert cpu.requests == 5

    def test_release_idle_facility_rejected(self):
        sim = Simulation()
        cpu = Facility(sim, "cpu")
        with pytest.raises(SimulationError):
            cpu.release()

    def test_invalid_server_count_rejected(self):
        sim = Simulation()
        with pytest.raises(SimulationError):
            Facility(sim, "bad", servers=0)

    def test_negative_service_time_rejected(self):
        sim = Simulation()
        cpu = Facility(sim, "cpu")

        def job():
            yield from cpu.use(-1.0)

        sim.spawn("j", job())
        with pytest.raises(SimulationError):
            sim.run()

    def test_mean_queue_length_mm1_like(self):
        # Deterministic D/D/1 with rho=0.5: no queueing at all.
        sim = Simulation()
        cpu = Facility(sim, "cpu")

        def arrival(i):
            yield Hold(2.0 * i)
            yield from cpu.use(1.0)

        for i in range(50):
            sim.spawn(f"a{i}", arrival(i))
        sim.run()
        assert cpu.mean_queue_length() == pytest.approx(0.0)

    def test_busy_time_conservation(self):
        # Total busy time equals the sum of service demands.
        sim = Simulation()
        cpu = Facility(sim, "cpu", servers=2)
        demands = [1.0, 2.5, 0.5, 3.0, 1.5]

        def job(demand):
            yield from cpu.use(demand)

        for i, demand in enumerate(demands):
            sim.spawn(f"j{i}", job(demand))
        sim.run()
        assert cpu.busy_time() == pytest.approx(sum(demands))


    def test_acquire_grants_then_queues(self):
        # The one acquisition path: a free server is taken at once; a
        # busy facility hands back the grant release() fires.
        sim = Simulation()
        link = Facility(sim, "link")
        assert link.acquire() is None
        grant = link.acquire()
        assert grant is not None and not grant.fired
        assert link.queue_length == 1 and link.busy_servers == 1
        link.release()
        assert grant.fired
        assert link.queue_length == 0 and link.busy_servers == 1
        assert (link.requests, link.completions) == (2, 1)


class TestStorage:
    def test_allocate_within_capacity(self):
        sim = Simulation()
        memory = Storage(sim, "mem", capacity=100)

        def body():
            yield from memory.allocate(40)
            assert memory.available == 60
            memory.deallocate(40)

        sim.spawn("p", body())
        sim.run()
        assert memory.available == 100

    def test_block_until_available(self):
        sim = Simulation()
        memory = Storage(sim, "mem", capacity=10)
        log = []

        def hog():
            yield from memory.allocate(10)
            yield Hold(5.0)
            memory.deallocate(10)

        def waiter():
            yield from memory.allocate(1)
            log.append(sim.now)
            memory.deallocate(1)

        sim.spawn("hog", hog())
        sim.spawn("waiter", waiter())
        sim.run()
        assert log == [5.0]

    def test_over_capacity_rejected(self):
        sim = Simulation()
        memory = Storage(sim, "mem", capacity=10)

        def body():
            yield from memory.allocate(11)

        sim.spawn("p", body())
        with pytest.raises(SimulationError):
            sim.run()

    def test_fcfs_no_starvation(self):
        # A large request queued first must be served before later small
        # ones, even though the small ones would fit immediately.
        sim = Simulation()
        memory = Storage(sim, "mem", capacity=10)
        order = []

        def first_hog():
            yield from memory.allocate(8)
            yield Hold(2.0)
            memory.deallocate(8)

        def big():
            yield Hold(0.5)
            yield from memory.allocate(9)
            order.append("big")
            memory.deallocate(9)

        def small():
            yield Hold(1.0)
            yield from memory.allocate(1)
            order.append("small")
            memory.deallocate(1)

        sim.spawn("hog", first_hog())
        sim.spawn("big", big())
        sim.spawn("small", small())
        sim.run()
        assert order == ["big", "small"]

    def test_deallocate_overflow_rejected(self):
        sim = Simulation()
        memory = Storage(sim, "mem", capacity=10)
        with pytest.raises(SimulationError):
            memory.deallocate(1)


class TestMailbox:
    def test_send_then_receive(self):
        sim = Simulation()
        box = Mailbox(sim, "box")
        received = []

        def receiver():
            message = yield from box.receive()
            received.append(message)

        box.send("hello")
        sim.spawn("r", receiver())
        sim.run()
        assert received == ["hello"]

    def test_receive_blocks_until_send(self):
        sim = Simulation()
        box = Mailbox(sim, "box")
        received = []

        def receiver():
            message = yield from box.receive()
            received.append((message, sim.now))

        def sender():
            yield Hold(2.0)
            box.send("late")

        sim.spawn("r", receiver())
        sim.spawn("s", sender())
        sim.run()
        assert received == [("late", 2.0)]

    def test_fifo_delivery(self):
        sim = Simulation()
        box = Mailbox(sim, "box")
        received = []

        def receiver():
            for _ in range(3):
                message = yield from box.receive()
                received.append(message)

        for i in range(3):
            box.send(i)
        sim.spawn("r", receiver())
        sim.run()
        assert received == [0, 1, 2]

    def test_filtered_receive_skips_non_matching(self):
        sim = Simulation()
        box = Mailbox(sim, "box")
        received = []

        def receiver():
            message = yield from box.receive(
                match=lambda m: m["tag"] == 7)
            received.append(message["value"])

        box.send({"tag": 3, "value": "wrong"})
        box.send({"tag": 7, "value": "right"})
        sim.spawn("r", receiver())
        sim.run()
        assert received == ["right"]
        assert box.peek_count() == 1  # unmatched message still queued

    def test_filtered_receive_blocks_until_match(self):
        sim = Simulation()
        box = Mailbox(sim, "box")
        received = []

        def receiver():
            message = yield from box.receive(match=lambda m: m == "match")
            received.append((message, sim.now))

        def sender():
            yield Hold(1.0)
            box.send("nope")
            yield Hold(1.0)
            box.send("match")

        sim.spawn("r", receiver())
        sim.spawn("s", sender())
        sim.run()
        assert received == [("match", 2.0)]

    def test_multiple_receivers_fifo(self):
        sim = Simulation()
        box = Mailbox(sim, "box")
        received = []

        def receiver(i):
            message = yield from box.receive()
            received.append((i, message))

        sim.spawn("r0", receiver(0))
        sim.spawn("r1", receiver(1))

        def sender():
            yield Hold(1.0)
            box.send("a")
            box.send("b")

        sim.spawn("s", sender())
        sim.run()
        assert received == [(0, "a"), (1, "b")]

    def test_unreceived_message_deadlock(self):
        sim = Simulation()
        box = Mailbox(sim, "box")

        def receiver():
            yield from box.receive(match=lambda m: False)

        box.send("ignored")
        sim.spawn("r", receiver())
        with pytest.raises(DeadlockError):
            sim.run()
