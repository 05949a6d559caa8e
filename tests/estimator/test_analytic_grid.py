"""Differential tests for the grid-compiled analytic path.

The contract under test: for any model, :func:`evaluate_grid` — one
plan compilation, vectorized replay across a whole parameter grid —
produces payloads *byte-identical* (``canonical_json``) to per-point
``evaluate_point(backend="analytic")`` calls, overrides and
eager/rendezvous protocol switches included; and driving a sweep
through the runner's grid dispatch leaves result tables and cache
entries indistinguishable from classic per-point evaluation.
"""

import dataclasses

import pytest

from repro.errors import EstimatorError
from repro.estimator.backends import (
    GridPoint,
    analytic_plan,
    clear_plan_cache,
    evaluate_grid,
    evaluate_point,
)
from repro.machine.network import NetworkConfig
from repro.machine.params import SystemParameters
from repro.samples import build_kernel6_model, build_sample_model
from repro.scenarios import all_scenarios, build_scenario
from repro.sweep import ResultCache, make_scenario_spec, make_spec, \
    run_sweep
from repro.sweep.grid import apply_overrides, expand
from repro.uml.builder import ModelBuilder
from repro.uml.random_models import random_model
from repro.util.hashing import canonical_json
from tests.sweep.per_point import per_point_sweep

BASE = NetworkConfig()

#: A network axis dense enough to hit the vectorized runtime, plus
#: eager-threshold variants that flip the send/recv protocol branch.
NETWORKS = tuple(
    [dataclasses.replace(BASE, latency=latency, bandwidth=bandwidth)
     for latency in (1e-7, 1e-6, 1e-4)
     for bandwidth in (1e8, 1e9)]
    + [dataclasses.replace(BASE, eager_threshold=threshold)
       for threshold in (0.0, 512.0, 1e12)])


def machine_grid(processes=(1, 2, 4), networks=NETWORKS, seeds=(0,)):
    return [GridPoint(SystemParameters(nodes=count, processes=count),
                      network, seed=seed)
            for count in processes
            for network in networks
            for seed in seeds]


def per_point_payloads(model, points):
    """The classic path: one evaluate_point call per grid point."""
    return [evaluate_point(apply_overrides(model, list(point.overrides)),
                           "analytic", point.params, point.network,
                           point.seed)
            for point in points]


def assert_grid_identical(model, points):
    clear_plan_cache()
    grid = evaluate_grid(model, points)
    classic = per_point_payloads(model, points)
    assert canonical_json(grid) == canonical_json(classic)


class TestGridIdentity:
    def test_sample_model(self):
        assert_grid_identical(build_sample_model(), machine_grid())

    def test_kernel6(self):
        assert_grid_identical(build_kernel6_model(), machine_grid())

    @pytest.mark.parametrize(
        "name", [spec.name for spec in all_scenarios()])
    def test_every_registered_scenario(self, name):
        assert_grid_identical(build_scenario(name),
                              machine_grid(processes=(2, 4)))

    def test_seed_duplicates_share_payloads(self):
        points = machine_grid(processes=(2,), networks=NETWORKS[:2],
                              seeds=(0, 1, 7))
        assert_grid_identical(build_sample_model(), points)

    def test_plan_memo_reused_across_calls(self):
        clear_plan_cache()
        model = build_kernel6_model()
        first = evaluate_grid(model, machine_grid(processes=(1,)))
        plan = analytic_plan(model)
        second = evaluate_grid(model, machine_grid(processes=(1,)))
        assert analytic_plan(model) is plan
        assert canonical_json(first) == canonical_json(second)


class TestRandomModelProperty:
    """Property over the random structured-model generator: decisions,
    drawn loops, forks, collectives, pid-dependent cost functions."""

    @pytest.mark.parametrize("seed", range(12))
    def test_grid_matches_per_point(self, seed):
        model = random_model(seed)
        assert_grid_identical(model,
                              machine_grid(processes=(1, 3),
                                           networks=NETWORKS[:4]))


class TestOverrides:
    def build_comm_model(self):
        """send/recv sized by a global — overrides cross the
        eager/rendezvous threshold without rebuilding the model."""
        builder = ModelBuilder("CommSized")
        builder.global_var("S", "int", "1024")
        builder.cost_function("F", "0.001")
        main = builder.diagram("Main", main=True)
        main.sequence(
            main.action("Work", cost="F()"),
            main.send("tx", dest="1", size="S"),
            main.recv("rx", source="0", size="S"),
        )
        return builder.build()

    def test_override_grid_crosses_protocol_switch(self):
        model = self.build_comm_model()
        network = dataclasses.replace(BASE, eager_threshold=4096.0)
        params = SystemParameters(nodes=2, processes=2)
        points = [GridPoint(params, network, overrides=(("S", source),))
                  for source in ("16", "4096", "65536", "1048576")]
        assert_grid_identical(model, points)
        # Sanity: the switch actually moves the number.
        makespans = [payload["predicted_time"]
                     for payload in evaluate_grid(model, points)]
        assert makespans == sorted(makespans)
        assert makespans[0] < makespans[-1]

    def test_override_and_network_axes_together(self):
        model = self.build_comm_model()
        params = SystemParameters(nodes=2, processes=2)
        points = [GridPoint(params, network, overrides=(("S", source),))
                  for source in ("64", "262144")
                  for network in NETWORKS]
        assert_grid_identical(model, points)

    def test_unknown_override_name_raises(self):
        model = self.build_comm_model()
        with pytest.raises(EstimatorError, match="undeclared variable"):
            evaluate_grid(model, [GridPoint(
                SystemParameters(), BASE, overrides=(("nope", "1"),))])


class TestRankInvariance:
    def test_pid_free_model_collapses_but_matches(self):
        model = build_kernel6_model()
        assert analytic_plan(model).rank_invariant
        assert_grid_identical(model, machine_grid(processes=(1, 4)))

    def test_pid_dependent_model_detected_and_matches(self):
        builder = ModelBuilder("Ranked")
        builder.cost_function("F", "0.001 * (pid + 1)",
                              params="int pid")
        main = builder.diagram("Main", main=True)
        main.sequence(main.action("Work", cost="F(pid)"))
        model = builder.build()
        assert not analytic_plan(model).rank_invariant
        points = machine_grid(processes=(1, 3), networks=NETWORKS[:2])
        assert_grid_identical(model, points)
        # The makespan must really come from the slowest rank.
        three = evaluate_grid(model, [GridPoint(
            SystemParameters(nodes=3, processes=3), BASE)])
        one = evaluate_grid(model, [GridPoint(
            SystemParameters(), BASE)])
        assert three[0]["predicted_time"] == \
            pytest.approx(3 * one[0]["predicted_time"])


class TestRunnerGridDispatch:
    """The sweep runner's grid path vs the per-point oracle: identical
    tables, identical cache entries, identical error strings."""

    def sweep_spec(self):
        return make_spec(build_kernel6_model(),
                         processes=[1, 2],
                         backends=["analytic"],
                         overrides={"N": [50, 100]},
                         latencies=[1e-7, 1e-5],
                         bandwidths=[1e8, 1e9])

    def test_tables_and_cache_entries_byte_identical(self, tmp_path):
        spec = self.sweep_spec()
        grid_cache = ResultCache(tmp_path / "grid")
        classic_cache = ResultCache(tmp_path / "classic")
        grid = run_sweep(spec, cache=grid_cache)
        classic = per_point_sweep(spec, cache=classic_cache)
        assert grid.to_csv() == classic.to_csv()
        jobs = expand(self.sweep_spec())
        assert jobs  # the spec really expanded
        for job in jobs:
            key = job.cache_key()
            left = grid_cache.get(key)
            right = classic_cache.get(key)
            assert left is not None and right is not None
            assert canonical_json(left) == canonical_json(right)

    def test_structural_knob_scenarios_fall_back_per_hash(self):
        # Structural knobs rebuild the model per combination — each
        # combination is its own hash group with its own plan, and the
        # result must still match per-point evaluation exactly.
        spec = make_scenario_spec(
            "fork_join", {"depth": [2, 3], "fanout": [2]},
            processes=[2], backends=["analytic"])
        grid = run_sweep(spec)
        classic = per_point_sweep(
            make_scenario_spec("fork_join",
                               {"depth": [2, 3], "fanout": [2]},
                               processes=[2], backends=["analytic"]))
        assert grid.to_csv() == classic.to_csv()
        assert len({r.job.model_hash for r in grid}) == 2

    def test_error_capture_matches_per_point(self):
        # D=0 fails; the grid group falls back to per-point execution
        # and must reproduce the classic error strings and statuses.
        builder = ModelBuilder("Frail")
        builder.global_var("D", "int", "1")
        builder.cost_function("F", "1.0 / D")
        main = builder.diagram("Main", main=True)
        main.sequence(main.action("A", cost="F()"))
        model = builder.build()
        spec = make_spec(model, backends=["analytic"],
                         overrides={"D": [1, 0]})
        grid = run_sweep(spec)
        classic = per_point_sweep(make_spec(model, backends=["analytic"],
                                            overrides={"D": [1, 0]}))
        assert grid.to_csv() == classic.to_csv()
        assert len(grid.failed()) == 1
        assert "division by zero" in grid.failed()[0].error
