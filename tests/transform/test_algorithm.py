"""Tests for the Fig. 5 algorithm phases: collection, declarations, IR."""

import pytest

from repro.errors import TransformError
from repro.samples import build_sample_model
from repro.transform.algorithm import build_ir, cost_argument
from repro.transform.collect import collect_performance_elements
from repro.uml.builder import ModelBuilder


class TestCollection:
    """Fig. 5 lines 1-8."""

    def test_sample_model_elements(self):
        model = build_sample_model()
        names = [e.name for e in collect_performance_elements(model)]
        # Traversal order: SA diagram first (built first), then Main.
        assert names == ["SA1", "SA2", "A1", "SA", "A2", "A4"]

    def test_control_nodes_excluded(self):
        model = build_sample_model()
        collected = collect_performance_elements(model)
        kinds = {type(e).__name__ for e in collected}
        assert "InitialNode" not in kinds
        assert "DecisionNode" not in kinds
        assert "MergeNode" not in kinds

    def test_plain_action_without_stereotype_excluded(self):
        from repro.uml.activities import ActionNode
        from repro.uml.diagram import ActivityDiagram
        from repro.uml.model import Model
        model = Model(1, "M")
        diagram = model.add_diagram(ActivityDiagram(2, "Main"))
        diagram.add_node(ActionNode(3, "bare"))  # no stereotype applied
        assert collect_performance_elements(model) == []


class TestDeclarations:
    """Fig. 5 lines 24-28."""

    def test_sample_model_declares_five_elements(self):
        # Fig. 8(b) lines 64-68 declare {A1, A2, A4, SA1, SA2}.
        ir = build_ir(build_sample_model())
        declared = {spec.node.name for spec in ir.actions.values()}
        assert declared == {"A1", "A2", "A4", "SA1", "SA2"}

    def test_activity_nodes_not_declared(self):
        # SA becomes a nested block, not an object (per Fig. 8).
        ir = build_ir(build_sample_model())
        assert "SA" not in {spec.node.name for spec in ir.actions.values()}

    def test_instance_name_mangling_fig4(self):
        # Fig. 4: UML name Kernel6 → C++ instance kernel6.
        from repro.samples import build_kernel6_model
        ir = build_ir(build_kernel6_model())
        spec, = ir.actions.values()
        assert spec.node.name == "Kernel6"
        assert spec.instance == "kernel6"
        assert spec.class_name == "ActionPlus"

    def test_duplicate_names_disambiguated(self):
        builder = ModelBuilder("M")
        builder.cost_function("F", "0.1")
        diagram = builder.diagram("Main", main=True)
        a1 = diagram.action("X", cost="F()")
        a2 = diagram.action("X", cost="F()")
        diagram.sequence(a1, a2)
        ir = build_ir(builder.build())
        instances = [spec.instance for spec in ir.actions.values()]
        assert len(instances) == len(set(instances)) == 2
        assert instances[0] == "x"
        assert instances[1] == "x_2"

    def test_keyword_collision_mangled(self):
        builder = ModelBuilder("M")
        builder.cost_function("F", "0.1")
        diagram = builder.diagram("Main", main=True)
        action = diagram.action("While", cost="F()")
        diagram.sequence(action)
        ir = build_ir(builder.build())
        spec, = ir.actions.values()
        assert spec.instance == "while_"

    def test_instance_lookup_by_node(self):
        model = build_sample_model()
        ir = build_ir(model)
        a1 = model.main_diagram.node_by_name("A1")
        assert ir.actions[a1.id].instance == "a1"
        decision = model.main_diagram.node_by_name("d1")
        assert decision.id not in ir.actions

    def test_communication_element_classes(self):
        builder = ModelBuilder("M")
        diagram = builder.diagram("Main", main=True)
        send = diagram.send("S", dest="1", size="8")
        recv = diagram.recv("R", source="0", size="8")
        barrier = diagram.barrier("B")
        diagram.sequence(send, recv, barrier)
        ir = build_ir(builder.build())
        classes = {spec.node.name: spec.class_name
                   for spec in ir.actions.values()}
        assert classes == {"S": "MpiSend", "R": "MpiRecv",
                           "B": "MpiBarrier"}


class TestIr:
    def test_regions_for_all_diagrams(self):
        model = build_sample_model()
        ir = build_ir(model)
        assert set(ir.regions) == {"Main", "SA"}
        assert ir.main_region is ir.regions["Main"]

    def test_model_without_main_rejected(self):
        from repro.uml.model import Model
        with pytest.raises(TransformError):
            build_ir(Model(1, "empty"))

    def test_cost_argument_preference(self):
        builder = ModelBuilder("M")
        builder.cost_function("F", "0.5")
        diagram = builder.diagram("Main", main=True)
        with_cost = diagram.action("A", cost="F()", time=9.0)
        with_time = diagram.action("B", time=2.5)
        with_neither = diagram.action("C")
        diagram.sequence(with_cost, with_time, with_neither)
        assert cost_argument(with_cost) == "F()"
        assert cost_argument(with_time) == "2.5"
        assert cost_argument(with_neither) is None
