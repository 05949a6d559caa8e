"""CFG lowering and the interval domain under the analyzer."""

from repro.analysis.cfg import build_model_cfg
from repro.analysis.intervals import (AbstractEnv, AbstractEvaluator,
                                      Interval)
from repro.lang.parser import parse_expression
from repro.lang.ast import Type
from repro.samples import build_kernel6_loopnest_model
from repro.service.registry import builtin_model_builders

from tests.analysis.conftest import skew_collective_mutant


class TestLowering:
    def test_every_builtin_lowers(self):
        for name, build in builtin_model_builders().items():
            mcfg = build_model_cfg(build())
            assert mcfg.main is not None, name
            assert mcfg.main.entry.kind == "entry"

    def test_comm_points_carry_source_locations(self):
        mcfg = build_model_cfg(skew_collective_mutant())
        comm = [p for cfg in mcfg.diagrams.values()
                for p in cfg.points if p.is_comm]
        assert comm
        assert all(p.element_id is not None for p in comm)
        assert all(p.diagram for p in comm)

    def test_branch_points_know_their_merge(self):
        mcfg = build_model_cfg(skew_collective_mutant())
        branches = [p for cfg in mcfg.diagrams.values()
                    for p in cfg.points if p.kind == "branch"]
        assert branches
        assert all(p.join is not None for p in branches)

    def test_loopnest_summary_sees_cost(self):
        mcfg = build_model_cfg(build_kernel6_loopnest_model())
        summary = mcfg.summary(mcfg.model.main_diagram_name)
        assert summary.has_cost


class TestIntervals:
    def evaluate(self, source, **bindings):
        env = AbstractEnv()
        for name, value in bindings.items():
            env.declare(name, Type.INT, value)
        return AbstractEvaluator({}).eval(parse_expression(source), env)

    def test_concrete_arithmetic_stays_concrete(self):
        value = self.evaluate("(pid + 1) % size", pid=3, size=4)
        assert value == 0

    def test_interval_arithmetic_widens(self):
        value = self.evaluate("pid * 2 + 1",
                              pid=Interval(0.0, 3.0))
        assert isinstance(value, Interval)
        assert value.lo == 1.0 and value.hi == 7.0

    def test_comparison_verdicts(self):
        evaluator = AbstractEvaluator({})
        env = AbstractEnv()
        env.declare("pid", Type.INT, Interval(1.0, 5.0))
        definite = evaluator.truth(
            evaluator.eval(parse_expression("pid >= 0"), env))
        unknown = evaluator.truth(
            evaluator.eval(parse_expression("pid > 3"), env))
        assert definite is True
        assert unknown is None


class TestObservability:
    def test_findings_feed_the_analysis_counter(self):
        from repro import obs
        from repro.analysis import ModelAnalyzer
        from tests.analysis.conftest import head_to_head_deadlock
        ModelAnalyzer().analyze(head_to_head_deadlock())
        text = obs.render_prometheus(obs.global_registry())
        assert "prophet_analysis_total" in text
        assert 'rule="analysis-comm-matching"' in text
        assert 'severity="error"' in text

    def test_analysis_counter_survives_a_registry_reset(self):
        """`prophet profile`, `prophet bench` and the obs tests reset the
        global registry; findings after a reset must still be counted
        in the live registry, not in a family the reset dropped."""
        from repro import obs
        from repro.analysis import ModelAnalyzer
        from tests.analysis.conftest import head_to_head_deadlock
        ModelAnalyzer().analyze(head_to_head_deadlock())
        obs.global_registry().reset()
        ModelAnalyzer().analyze(head_to_head_deadlock())
        exported = obs.export_json(obs.global_registry())
        series = exported["prophet_analysis_total"]["series"]
        assert {"labels": {"rule": "analysis-comm-matching",
                           "severity": "error"}, "value": 1.0} in series
