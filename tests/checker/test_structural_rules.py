"""Tests for graph-structural checker rules, each exercised on a model
violating exactly that rule."""

import pytest

from repro.checker import ModelChecker, check_model
from repro.samples import build_sample_model
from repro.uml.activities import (
    ActionNode,
    ActivityFinalNode,
    ControlFlow,
    DecisionNode,
    ForkNode,
    InitialNode,
    JoinNode,
    MergeNode,
)
from repro.uml.builder import ModelBuilder
from repro.uml.diagram import ActivityDiagram
from repro.uml.model import Model


def tiny_valid_builder(name="M"):
    builder = ModelBuilder(name)
    builder.cost_function("F", "0.1")
    diagram = builder.diagram("Main", main=True)
    diagram.sequence(diagram.action("A", cost="F()"))
    return builder


def rule_hits(model, rule_id):
    return check_model(model).by_rule(rule_id)


class TestCleanModels:
    def test_sample_model_is_clean(self):
        report = check_model(build_sample_model())
        assert report.ok
        assert len(report) == 0

    def test_tiny_model_is_clean(self):
        report = check_model(tiny_valid_builder().build())
        assert report.ok


class TestUniqueIds:
    def test_duplicate_ids_detected(self):
        model = Model(1, "M")
        diagram = model.add_diagram(ActivityDiagram(2, "Main"))
        diagram.add_node(InitialNode(3))
        a = diagram.add_node(ActionNode(4, "A"))
        # Same id as the action, different diagram-local id space abuse:
        b = diagram.add_node(ActionNode(5, "B"))
        final = diagram.add_node(ActivityFinalNode(4 + 100, "final"))
        diagram.add_edge(ControlFlow(7, diagram.node_by_id(3), a))
        diagram.add_edge(ControlFlow(8, a, b))
        diagram.add_edge(ControlFlow(2, b, final))  # reuses the diagram's id
        hits = rule_hits(model, "unique-ids")
        assert len(hits) == 1
        assert "id 2" in hits[0].message


class TestInitialFinal:
    def test_missing_initial(self):
        model = Model(1, "M")
        diagram = model.add_diagram(ActivityDiagram(2, "Main"))
        a = diagram.add_node(ActionNode(3, "A"))
        final = diagram.add_node(ActivityFinalNode(4))
        diagram.add_edge(ControlFlow(5, a, final))
        assert any(d.rule_id == "single-initial"
                   for d in check_model(model).errors())

    def test_two_initials(self):
        model = Model(1, "M")
        diagram = model.add_diagram(ActivityDiagram(2, "Main"))
        i1 = diagram.add_node(InitialNode(3))
        i2 = diagram.add_node(InitialNode(4, "init2"))
        final = diagram.add_node(ActivityFinalNode(5))
        diagram.add_edge(ControlFlow(6, i1, final))
        diagram.add_edge(ControlFlow(7, i2, final))
        hits = rule_hits(model, "single-initial")
        assert len(hits) == 1
        assert "2 initial nodes" in hits[0].message

    def test_missing_final(self):
        model = Model(1, "M")
        diagram = model.add_diagram(ActivityDiagram(2, "Main"))
        initial = diagram.add_node(InitialNode(3))
        a = diagram.add_node(ActionNode(4, "A"))
        diagram.add_edge(ControlFlow(5, initial, a))
        assert rule_hits(model, "has-final")

    def test_empty_diagram(self):
        model = Model(1, "M")
        model.add_diagram(ActivityDiagram(2, "Main"))
        assert rule_hits(model, "empty-diagram")


class TestEdgeArity:
    def test_initial_with_incoming(self):
        model = Model(1, "M")
        diagram = model.add_diagram(ActivityDiagram(2, "Main"))
        initial = diagram.add_node(InitialNode(3))
        a = diagram.add_node(ActionNode(4, "A"))
        final = diagram.add_node(ActivityFinalNode(5))
        diagram.add_edge(ControlFlow(6, initial, a))
        diagram.add_edge(ControlFlow(7, a, final))
        diagram.add_edge(ControlFlow(8, final, initial))  # bad: into initial
        messages = " ".join(d.message for d in rule_hits(model, "edge-arity"))
        assert "incoming" in messages

    def test_action_with_two_outgoing(self):
        model = Model(1, "M")
        diagram = model.add_diagram(ActivityDiagram(2, "Main"))
        initial = diagram.add_node(InitialNode(3))
        a = diagram.add_node(ActionNode(4, "A"))
        b = diagram.add_node(ActionNode(5, "B"))
        final = diagram.add_node(ActivityFinalNode(6))
        diagram.add_edge(ControlFlow(7, initial, a))
        diagram.add_edge(ControlFlow(8, a, b))
        diagram.add_edge(ControlFlow(9, a, final))
        diagram.add_edge(ControlFlow(10, b, final))
        hits = rule_hits(model, "edge-arity")
        assert any("2 outgoing" in d.message for d in hits)

    def test_decision_with_one_branch(self):
        model = Model(1, "M")
        diagram = model.add_diagram(ActivityDiagram(2, "Main"))
        initial = diagram.add_node(InitialNode(3))
        decision = diagram.add_node(DecisionNode(4))
        final = diagram.add_node(ActivityFinalNode(5))
        diagram.add_edge(ControlFlow(6, initial, decision))
        diagram.add_edge(ControlFlow(7, decision, final, guard="else"))
        hits = rule_hits(model, "edge-arity")
        assert any("expected >= 2" in d.message for d in hits)


class TestReachability:
    def test_unreachable_node(self):
        model = Model(1, "M")
        diagram = model.add_diagram(ActivityDiagram(2, "Main"))
        initial = diagram.add_node(InitialNode(3))
        a = diagram.add_node(ActionNode(4, "A"))
        orphan = diagram.add_node(ActionNode(5, "Orphan"))
        final = diagram.add_node(ActivityFinalNode(6))
        diagram.add_edge(ControlFlow(7, initial, a))
        diagram.add_edge(ControlFlow(8, a, final))
        hits = rule_hits(model, "unreachable-nodes")
        assert len(hits) >= 1
        assert any("Orphan" in d.message for d in hits)

    def test_dead_cycle_cannot_reach_final(self):
        model = Model(1, "M")
        diagram = model.add_diagram(ActivityDiagram(2, "Main"))
        initial = diagram.add_node(InitialNode(3))
        decision = diagram.add_node(DecisionNode(4))
        a = diagram.add_node(ActionNode(5, "A"))
        b = diagram.add_node(ActionNode(6, "B"))
        merge = diagram.add_node(MergeNode(7))
        final = diagram.add_node(ActivityFinalNode(8))
        diagram.add_edge(ControlFlow(9, initial, decision))
        diagram.add_edge(ControlFlow(10, decision, final, guard="else"))
        # a <-> b cycle with no exit
        diagram.add_edge(ControlFlow(11, decision, merge, guard="1 == 1"))
        diagram.add_edge(ControlFlow(12, merge, a))
        diagram.add_edge(ControlFlow(13, a, b))
        diagram.add_edge(ControlFlow(14, b, merge))
        hits = rule_hits(model, "can-reach-final")
        assert hits
        assert all(d.severity.value == "warning" for d in hits)


class TestDecisionGuards:
    def test_two_else_branches(self):
        builder = tiny_valid_builder()
        diagram = builder.diagram("D2")
        initial = diagram.initial()
        decision = diagram.decision()
        merge = diagram.merge()
        a, b = diagram.action("X"), diagram.action("Y")
        final = diagram.final()
        diagram.flow(initial, decision)
        diagram.flow(decision, a, guard="else")
        diagram.flow(decision, b, guard="else")
        diagram.flow(a, merge)
        diagram.flow(b, merge)
        diagram.flow(merge, final)
        hits = rule_hits(builder.model, "decision-guards")
        assert any("'else' branches" in d.message for d in hits)

    def test_unguarded_decision_branch(self):
        builder = tiny_valid_builder()
        diagram = builder.diagram("D2")
        initial = diagram.initial()
        decision = diagram.decision()
        merge = diagram.merge()
        a, b = diagram.action("X"), diagram.action("Y")
        final = diagram.final()
        diagram.flow(initial, decision)
        diagram.flow(decision, a)  # no guard
        diagram.flow(decision, b, guard="else")
        diagram.flow(a, merge)
        diagram.flow(b, merge)
        diagram.flow(merge, final)
        hits = rule_hits(builder.model, "decision-guards")
        assert any("unguarded" in d.message.lower() for d in hits)

    def test_no_else_is_warning(self):
        builder = ModelBuilder("M")
        builder.global_var("GV", "int")
        diagram = builder.diagram("Main", main=True)
        initial = diagram.initial()
        decision = diagram.decision()
        merge = diagram.merge()
        a, b = diagram.action("X"), diagram.action("Y")
        final = diagram.final()
        diagram.flow(initial, decision)
        diagram.flow(decision, a, guard="GV == 1")
        diagram.flow(decision, b, guard="GV == 2")
        diagram.flow(a, merge)
        diagram.flow(b, merge)
        diagram.flow(merge, final)
        report = check_model(builder.model)
        hits = report.by_rule("decision-guards")
        assert any("falls through" in d.message for d in hits)
        assert all(d.severity.value == "warning" for d in hits)

    def test_guard_on_plain_edge(self):
        builder = tiny_valid_builder()
        # Tack a guard onto the action's outgoing edge in a fresh diagram.
        diagram = builder.diagram("D2")
        initial = diagram.initial()
        a = diagram.action("X")
        final = diagram.final()
        diagram.flow(initial, a)
        diagram.flow(a, final, guard="1 == 1")
        hits = rule_hits(builder.model, "decision-guards")
        assert any("non-decision" in d.message for d in hits)


class TestForksAndBehaviors:
    def test_fork_join_imbalance(self):
        model = Model(1, "M")
        diagram = model.add_diagram(ActivityDiagram(2, "Main"))
        initial = diagram.add_node(InitialNode(3))
        fork = diagram.add_node(ForkNode(4))
        a = diagram.add_node(ActionNode(5, "A"))
        b = diagram.add_node(ActionNode(6, "B"))
        final = diagram.add_node(ActivityFinalNode(7))
        diagram.add_edge(ControlFlow(8, initial, fork))
        diagram.add_edge(ControlFlow(9, fork, a))
        diagram.add_edge(ControlFlow(10, fork, b))
        diagram.add_edge(ControlFlow(11, a, final))
        diagram.add_edge(ControlFlow(12, b, final))
        hits = rule_hits(model, "fork-join-balance")
        assert hits and "1 fork(s) but 0 join(s)" in hits[0].message

    def test_missing_behavior_diagram(self):
        # Bypass the builder's own check by constructing directly.
        from repro.uml.activities import ActivityInvocationNode
        model = Model(1, "M")
        diagram = model.add_diagram(ActivityDiagram(2, "Main"))
        initial = diagram.add_node(InitialNode(3))
        sa = diagram.add_node(ActivityInvocationNode(4, "SA", "Ghost"))
        final = diagram.add_node(ActivityFinalNode(5))
        diagram.add_edge(ControlFlow(6, initial, sa))
        diagram.add_edge(ControlFlow(7, sa, final))
        hits = rule_hits(model, "behavior-resolves")
        assert any("Ghost" in d.message for d in hits)

    def test_recursive_behavior_reference(self):
        from repro.uml.activities import ActivityInvocationNode
        model = Model(1, "M")
        d1 = model.add_diagram(ActivityDiagram(2, "A"))
        d2 = model.add_diagram(ActivityDiagram(3, "B"))
        for diagram, target, base in ((d1, "B", 10), (d2, "A", 20)):
            initial = diagram.add_node(InitialNode(base))
            inv = diagram.add_node(
                ActivityInvocationNode(base + 1, f"inv{target}", target))
            final = diagram.add_node(ActivityFinalNode(base + 2))
            diagram.add_edge(ControlFlow(base + 3, initial, inv))
            diagram.add_edge(ControlFlow(base + 4, inv, final))
        hits = rule_hits(model, "behavior-resolves")
        assert [d.message for d in hits] == [
            "recursive behavior reference: A -> B -> A"]

    def test_duplicate_perf_element_names_warning(self):
        builder = ModelBuilder("M")
        builder.cost_function("F", "0.1")
        diagram = builder.diagram("Main", main=True)
        a1 = diagram.action("Same", cost="F()")
        a2 = diagram.action("Same", cost="F()")
        diagram.sequence(a1, a2)
        hits = rule_hits(builder.model, "duplicate-names")
        assert hits and hits[0].severity.value == "warning"


class TestStructuredFlow:
    def test_structured_model_clean(self):
        assert not rule_hits(build_sample_model(), "structured-flow")

    def test_fork_without_join_diagnosed(self):
        builder = tiny_valid_builder()
        diagram = builder.diagram("D2")
        initial, final = diagram.initial(), diagram.final()
        fork = diagram.fork()
        a, b = diagram.action("A"), diagram.action("B")
        diagram.flow(initial, fork)
        diagram.flow(fork, a)
        diagram.flow(fork, b)
        diagram.flow(a, final)
        diagram.flow(b, final)
        hits = rule_hits(builder.model, "structured-flow")
        assert hits and "join" in hits[0].message

    def test_double_back_edge_loop_diagnosed(self):
        builder = ModelBuilder("M")
        builder.global_var("GV", "int")
        builder.cost_function("F", "0.1")
        diagram = builder.diagram("Main", main=True)
        initial, final = diagram.initial(), diagram.final()
        merge = diagram.merge("head")
        d1, d2 = diagram.decision("d1"), diagram.decision("d2")
        a = diagram.action("A", cost="F()")
        diagram.flow(initial, merge)
        diagram.flow(merge, d1)
        diagram.flow(d1, merge, guard="GV == 7")   # continue-style edge
        diagram.flow(d1, a, guard="else")
        diagram.flow(a, d2)
        diagram.flow(d2, merge, guard="GV < 3")
        diagram.flow(d2, final, guard="else")
        hits = rule_hits(builder.model, "structured-flow")
        assert hits

    def test_check_pass_implies_transform_succeeds(self):
        # The rule's contract: error-free models always transform.
        from repro.transform.cpp.emitter import transform_to_cpp
        from repro.uml.random_models import RandomModelConfig, random_model
        for seed in range(5):
            model = random_model(seed, RandomModelConfig(
                target_actions=15, p_decision=0.3, p_loop=0.2,
                p_fork=0.1))
            report = check_model(model)
            if report.ok:
                assert transform_to_cpp(model).source


class TestMcfIntegration:
    def test_disable_rule(self):
        from repro.xmlio.mcf import read_mcf
        model = Model(1, "M")
        model.add_diagram(ActivityDiagram(2, "Main"))  # empty: would error
        config = read_mcf(
            '<mcf><rule id="empty-diagram" enabled="false"/>'
            '<rule id="single-initial" enabled="false"/>'
            '<rule id="has-final" enabled="false"/></mcf>')
        checker = ModelChecker(config)
        assert "empty-diagram" not in checker.active_rules
        report = checker.check(model)
        assert not report.by_rule("empty-diagram")

    def test_severity_override(self):
        from repro.xmlio.mcf import read_mcf
        model = Model(1, "M")
        model.add_diagram(ActivityDiagram(2, "Main"))
        config = read_mcf('<mcf><rule id="empty-diagram" severity="warning"/></mcf>')
        report = ModelChecker(config).check(model)
        hits = report.by_rule("empty-diagram")
        assert hits and hits[0].severity.value == "warning"

    def test_model_size_param(self):
        from repro.xmlio.mcf import read_mcf
        model = build_sample_model()
        config = read_mcf('<mcf><param name="max-nodes" value="3"/></mcf>')
        report = ModelChecker(config).check(model)
        assert report.by_rule("model-size")

    def test_assert_valid_raises(self):
        from repro.errors import CheckError
        model = Model(1, "M")
        model.add_diagram(ActivityDiagram(2, "Main"))
        with pytest.raises(CheckError) as exc_info:
            ModelChecker().assert_valid(model)
        assert exc_info.value.diagnostics

    def test_assert_valid_passes_clean_model(self):
        report = ModelChecker().assert_valid(build_sample_model())
        assert report.ok

    def test_report_rendering(self):
        report = check_model(build_sample_model())
        text = report.render()
        assert "SampleModel" in text
        assert "0 error(s)" in text
