"""Tests for program-skeleton generation (the paper's future work)."""

import pytest

from repro.appgen import LocalComm, generate_skeleton
from repro.errors import ProphetError
from repro.estimator.backends import evaluate_point
from repro.machine.network import NetworkConfig
from repro.machine.params import SystemParameters
from repro.samples import build_kernel6_loopnest_model, build_sample_model
from repro.uml.activities import ActionNode
from repro.uml.builder import ModelBuilder


class TestSampleSkeleton:
    @pytest.fixture(scope="class")
    def artifacts(self):
        return generate_skeleton(build_sample_model())

    def test_hooks_for_every_action(self, artifacts):
        for hook in ("compute_a1", "compute_a2", "compute_a4",
                     "compute_sA1", "compute_sA2"):
            assert f"def {hook}(state):" in artifacts.source

    def test_code_fragment_inlined(self, artifacts):
        assert "GV = 1" in artifacts.source
        assert "P = 4" in artifacts.source

    def test_branch_preserved(self, artifacts):
        assert "if GV == 1:" in artifacts.source
        assert "else:" in artifacts.source

    def test_cost_mentioned_in_docstring(self, artifacts):
        assert "FA1()" in artifacts.source

    def test_compiles_and_runs_single_process(self, artifacts):
        module = artifacts.compile()
        state = module.run(LocalComm())
        # A1's fragment ran, so the SA branch was taken.
        assert state["GV"] == 1
        assert state["P"] == 4

    def test_deterministic(self):
        a = generate_skeleton(build_sample_model()).source
        b = generate_skeleton(build_sample_model()).source
        assert a == b


class TestLoopSkeletons:
    def test_loopnest_generates_for_loops(self):
        artifacts = generate_skeleton(build_kernel6_loopnest_model())
        assert "for _i1 in range(int(M)):" in artifacts.source
        module = artifacts.compile()
        module.run(LocalComm())  # runs without error

    def test_drawn_while_loop(self):
        builder = ModelBuilder("Looped")
        builder.global_var("I", "int", "0")
        builder.cost_function("F", "0.1")
        diagram = builder.diagram("Main", main=True)
        initial, final = diagram.initial(), diagram.final()
        merge = diagram.merge("head")
        decision = diagram.decision("test")
        body = diagram.action("Step", cost="F()", code="I = I + 1;")
        diagram.flow(initial, merge)
        diagram.flow(merge, decision)
        diagram.flow(decision, body, guard="I < 5")
        diagram.flow(decision, final, guard="else")
        diagram.flow(body, merge)
        artifacts = generate_skeleton(builder.build())
        assert "while True:" in artifacts.source
        state = artifacts.compile().run(LocalComm())
        assert state["I"] == 5


class TestCommSkeletons:
    def test_collectives_emitted(self):
        builder = ModelBuilder("Coll")
        diagram = builder.diagram("Main", main=True)
        barrier = diagram.barrier("B")
        bcast = diagram.bcast("BC", root="0", size="8")
        reduce_ = diagram.reduce("RD", root="0", size="8")
        diagram.sequence(barrier, bcast, reduce_)
        artifacts = generate_skeleton(builder.build())
        assert "comm.barrier()" in artifacts.source
        assert "comm.bcast(" in artifacts.source
        assert "comm.reduce(" in artifacts.source
        artifacts.compile().run(LocalComm())  # degenerate 1-rank run

    def test_send_recv_emitted_and_self_messaging_works(self):
        builder = ModelBuilder("P2P")
        diagram = builder.diagram("Main", main=True)
        send = diagram.send("S", dest="pid", size="8", tag=3)
        recv = diagram.recv("R", source="pid", size="8", tag=3)
        diagram.sequence(send, recv)
        artifacts = generate_skeleton(builder.build())
        assert "comm.send(" in artifacts.source
        assert "comm.recv(" in artifacts.source
        artifacts.compile().run(LocalComm())


def _elided_setter_model(*, sole: bool):
    """A stereotype-less action ``Set`` (code ``GV = 1;``) before a
    ``GV == 1`` branch; with ``sole`` the else arm holds only another
    stereotype-less action."""
    builder = ModelBuilder("Elided")
    builder.global_var("GV", "int", "0")
    builder.global_var("ARM", "int", "0")
    main = builder.diagram("Main", main=True)

    def plain(name: str, code: str):
        return main.diagram.add_node(
            ActionNode(builder.next_id(), name, code=code))

    initial, final = main.initial(), main.final()
    decision, merge = main.decision(), main.merge()
    hot = main.action("Hot", cost="1.0", code="ARM = 1;")
    other = (plain("Quiet", "ARM = 3;") if sole
             else main.action("Cold", cost="2.0", code="ARM = 2;"))
    main.chain(initial, plain("Set", "GV = 1;"), decision)
    main.branch(decision, merge, ("GV == 1", [hot]), ("else", [other]))
    main.flow(merge, final)
    return builder.build()


def _predicted(model, backend: str) -> float:
    return evaluate_point(model, backend, SystemParameters(processes=1),
                          NetworkConfig(), 0)["predicted_time"]


class TestNonPerformanceActions:
    """An action without a performance stereotype never runs in the
    model, so the skeleton must not run its code either."""

    def test_skeleton_takes_the_models_arm(self):
        model = _elided_setter_model(sole=False)
        assert _predicted(model, "interp") == 2.0  # the else arm
        state = generate_skeleton(model).compile().run(LocalComm())
        assert (state["GV"], state["ARM"]) == (0, 2)

    def test_arm_of_only_elided_actions_still_compiles(self):
        model = _elided_setter_model(sole=True)
        assert _predicted(model, "interp") == 0.0
        assert _predicted(model, "codegen") == 0.0
        state = generate_skeleton(model).compile().run(LocalComm())
        assert (state["GV"], state["ARM"]) == (0, 0)


class TestLocalComm:
    def test_self_send_recv(self):
        comm = LocalComm()
        comm.send("payload", dest=0, tag=1)
        assert comm.recv(source=0, tag=1) == "payload"

    def test_remote_send_rejected(self):
        with pytest.raises(ProphetError):
            LocalComm().send("x", dest=1)

    def test_recv_without_message_rejected(self):
        with pytest.raises(ProphetError):
            LocalComm().recv(source=0, tag=0)

    def test_collective_identities(self):
        comm = LocalComm()
        assert comm.bcast("v") == "v"
        assert comm.gather(3) == [3]
        assert comm.scatter([7]) == 7
        assert comm.reduce(5) == 5
        assert comm.allreduce(5) == 5
        assert comm.barrier() is None
