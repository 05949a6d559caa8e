"""System-level invariant and property tests over random models.

These run whole estimations and check physical invariants every valid
trace must satisfy: determinism under equal seeds, interval sanity,
processor-capacity respect, utilization bounds, and work conservation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimator import estimate
from repro.estimator.analysis import TraceAnalysis
from repro.machine.params import SystemParameters
from repro.uml.random_models import RandomModelConfig, random_model

PARAMS = SystemParameters(nodes=2, processors_per_node=2, processes=3,
                          threads_per_process=2)


def run(seed, **config_overrides):
    config = RandomModelConfig(
        target_actions=12, p_decision=0.25, p_loop=0.15, p_activity=0.15,
        **config_overrides)
    model = random_model(seed, config)
    return model, estimate(model, PARAMS)


class TestDeterminism:
    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_estimation_is_identical(self, seed):
        _, first = run(seed)
        _, second = run(seed)
        assert first.total_time == second.total_time
        assert first.trace == second.trace
        assert first.events_processed == second.events_processed


class TestTraceInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_intervals_within_run(self, seed):
        _, result = run(seed)
        for record in result.trace:
            assert 0.0 <= record.start <= record.end
            assert record.end <= result.total_time + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_utilization_bounds(self, seed):
        _, result = run(seed)
        for utilization in result.node_utilization:
            assert -1e-9 <= utilization <= 1.0 + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_processor_capacity_respected(self, seed):
        """At no instant do more action intervals overlap on a node than
        it has processors."""
        model, result = run(seed)
        placement = {pid: (0 if pid < 2 else 1) for pid in range(3)}
        # block placement of 3 processes on 2 nodes: [0, 0, 1]
        placement = {0: 0, 1: 0, 2: 1}
        per_node: dict[int, list] = {0: [], 1: []}
        for record in result.trace:
            if record.kind in ("action", "critical") and \
                    record.duration > 0:
                per_node[placement[record.pid]].append(record)
        for node, records in per_node.items():
            events = []
            for record in records:
                events.append((record.start, 1))
                events.append((record.end, -1))
            events.sort(key=lambda e: (e[0], e[1]))
            active = 0
            for _, delta in events:
                active += delta
                assert active <= PARAMS.processors_per_node, \
                    f"node {node} oversubscribed"

    @pytest.mark.parametrize("seed", range(6))
    def test_work_conservation(self, seed):
        """Busy time on each node never exceeds time × processors."""
        _, result = run(seed)
        analysis = TraceAnalysis(result.trace)
        total_capacity = (result.total_time
                          * PARAMS.nodes * PARAMS.processors_per_node)
        assert analysis.total_busy_time() <= total_capacity + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_every_executed_element_is_declared(self, seed):
        model, result = run(seed)
        from repro.transform.algorithm import build_ir
        ir = build_ir(model)
        declared_ids = set(ir.actions)
        structured_ids = {n.id for n in model.all_nodes()}
        for record in result.trace:
            if record.kind in ("action", "critical"):
                assert record.element_id in declared_ids
            elif record.kind in ("parallel", "fork"):
                assert record.element_id in structured_ids


class TestCrossBackendProperty:
    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=12, deadline=None)
    def test_interp_codegen_equivalence_property(self, seed):
        model = random_model(seed, RandomModelConfig(
            target_actions=8, p_decision=0.25, p_loop=0.15,
            p_activity=0.15))
        codegen = estimate(model, PARAMS, mode="codegen", check=False)
        interp = estimate(model, PARAMS, mode="interp", check=False)
        assert codegen.total_time == pytest.approx(interp.total_time)
        assert TraceAnalysis(codegen.trace).equivalent_to(
            TraceAnalysis(interp.trace))

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=10, deadline=None)
    def test_analytic_bounds_simulation_property(self, seed):
        """For sequential compute-only models the analytic evaluator is
        exact; with shared processors it is a lower bound."""
        from repro.estimator.analytic import evaluate_analytically
        model = random_model(seed, RandomModelConfig(
            target_actions=8, p_decision=0.25, p_loop=0.15,
            p_activity=0.15))
        roomy = SystemParameters(nodes=3, processors_per_node=2,
                                 processes=3)
        analytic = evaluate_analytically(model, roomy)
        simulated = estimate(model, roomy, check=False)
        assert analytic.makespan == pytest.approx(simulated.total_time)
        tight = SystemParameters(nodes=1, processors_per_node=1,
                                 processes=3)
        analytic_tight = evaluate_analytically(model, tight)
        simulated_tight = estimate(model, tight, check=False)
        assert analytic_tight.makespan <= simulated_tight.total_time + 1e-9
