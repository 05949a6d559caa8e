"""Tests of the benchmark's helpers: seeded inputs, percentiles,
self-time arithmetic, output checks, and BENCHMARK.json itself."""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

from perfbench import inputs, layers, serve, sweeps
from perfbench.common import END_TO_END, PER_LAYER, ROOT, import_program, \
    nearest_rank, samples_beyond
from perfbench.hostspeed import CHUNK_NOMINAL_S, HostSpeed, chunk_s, \
    usable_cpus
from perfbench.tracer import Span, SpanForest, Tracer

import_program()


# -- seeded inputs ------------------------------------------------------------

def test_grid_axes_are_seeded():
    assert inputs.grid_axes(7) == inputs.grid_axes(7)
    assert inputs.grid_axes(7) != inputs.grid_axes(8)
    latencies, bandwidths = inputs.grid_axes(7)
    assert len(set(latencies)) == len(set(bandwidths)) == 3


def test_variant_models_are_seeded_and_distinct():
    from repro.uml.hashing import model_structural_hash

    def hashes(seed):
        return [(label, model_structural_hash(model))
                for label, model in inputs.variant_models(seed)]

    first = hashes(3)
    assert first == hashes(3)
    assert first != hashes(4)
    assert len({digest for _label, digest in first}) == \
        inputs.VARIANT_COUNT + 2
    assert inputs.variants_spec(3).point_count >= 276


def test_stratified_draws_span_the_range():
    rng = inputs.seeded_rng(1, "test")
    ints = inputs.stratified(rng, 4, 40, 9)
    assert len(set(ints)) == 9 and all(4 <= v <= 40 for v in ints)
    assert min(ints) <= 4 + 37 // 9 and max(ints) >= 40 - 37 // 9
    floats = sorted(inputs.stratified(rng, 1e-4, 1e-3, 8))
    assert 1e-4 <= floats[0] < 1e-4 * 10 ** (1 / 8)
    assert 1e-3 >= floats[-1] > 1e-3 / 10 ** (1 / 8)


def test_variant_work_hardly_depends_on_the_seed():
    def total(seed, knob):
        return sum(knobs.get(knob, 0)
                   for _name, knobs in inputs.variant_knobs(seed))

    for knob in ("stages", "tasks", "rounds", "iters"):
        totals = [total(seed, knob) for seed in range(10)]
        assert max(totals) <= 1.15 * min(totals), knob
    crossed = sorted((knobs["depth"], knobs["fanout"])
                     for name, knobs in inputs.variant_knobs(3)
                     if name == "fork_join")
    assert crossed == [(d, f) for d in (1, 2, 3) for f in (2, 3, 4)]


def _sequence(items):
    return [(item.kind, item.requests, item.xml) for item in items]


def test_serve_inputs_are_seeded():
    one = inputs.serve_inputs(5, 120, 30)
    two = inputs.serve_inputs(5, 120, 30)
    other = inputs.serve_inputs(6, 120, 30)
    assert _sequence(one.phase_a) == _sequence(two.phase_a)
    assert _sequence(one.phase_b) == _sequence(two.phase_b)
    assert one.models == two.models
    assert _sequence(one.phase_a) != _sequence(other.phase_a)
    assert (len(one.phase_a), len(one.phase_b)) == (120, 30)


def test_serve_mix_holds_in_every_block_of_fifty():
    load = inputs.serve_inputs(5, 100, 10)
    for first in (0, 50):
        kinds = [item.kind for item in load.phase_a[first:first + 50]]
        assert {kind: kinds.count(kind) for kind in set(kinds)} == \
            dict(inputs.SERVE_MIX)


def test_serve_misses_and_ingests_never_repeat():
    load = inputs.serve_inputs(9, 400, 400)
    items = load.phase_a + load.phase_b
    seeds = [item.requests[0]["seed"] for item in items
             if item.kind == "miss"]
    refs = [item.ref for item in items if item.kind == "ingest"]
    assert len(seeds) == len(set(seeds)) > 0
    assert len(refs) == len(set(refs)) > 0
    assert not set(refs) & {ref for _label, _xml, ref in load.models}


def test_every_serve_seed_has_the_same_composition():
    from collections import Counter
    from repro.service.router import ShardMap
    shards = ShardMap(list(inputs.SERVE_REPLICAS))
    for seed in (5, 6):
        load = inputs.serve_inputs(seed, 300, 10)
        owners = Counter(shards.owners(ref)[0]
                         for _label, _xml, ref in load.models)
        assert sorted(owners.values()) == [3, 3]
        misses = [item.requests[0] for item in load.phase_a
                  if item.kind == "miss"]
        assert len(misses) == 30
        assert set(Counter(r["model_ref"] for r in misses).values()) == {5}
        # each model alternates between 2 and 4 processes
        assert set(Counter((r["model_ref"], r["params"]["processes"])
                           for r in misses).values()) == {2, 3}
        analytic = Counter(item.requests[0]["model_ref"]
                           for item in load.phase_a
                           if item.kind == "analytic")
        assert set(analytic.values()) == {9}
        assert len({json.dumps(item.requests) for item in load.phase_a
                    if item.kind == "analytic"}) == inputs.ANALYTIC_BATCHES


def test_phase_a_ingests_every_scenario_equally_often():
    from collections import Counter
    phase_a, phase_b = serve._phase_batches(40)
    assert phase_a % inputs.SERVE_CYCLE == 0 and phase_a >= 1010
    assert phase_b == 40 * inputs.PHASE_B_PER_S
    load = inputs.serve_inputs(3, inputs.SERVE_CYCLE * 2, 10)
    ingested = Counter(item.xml.split('name="', 1)[1].split('"')[0]
                       for item in load.phase_a if item.kind == "ingest")
    assert len(ingested) == len(inputs.SERVE_KNOBS)
    assert set(ingested.values()) == {2}


# -- percentiles --------------------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))          # order must not matter
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 99) == 99
    assert nearest_rank(values, 100) == 100
    assert nearest_rank([7.0], 99) == 7.0
    assert nearest_rank([1, 2, 3, 4], 50) == 2
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1], 0)


def test_tail_needs_ten_samples_beyond_it():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert serve.tail_ms([0.001] * 1010, 99) == pytest.approx(1.0)
    with pytest.raises(Exception, match="samples beyond"):
        serve.tail_ms([0.001] * 999, 99)


# -- host-speed scaling -------------------------------------------------------

def test_timings_scale_to_the_nominal_host(tmp_path):
    speed = HostSpeed(tmp_path)
    ticks = [i / 10 for i in range(100)]
    # core 0 at the nominal speed, core 1 at half of it
    speed.samples = {0: (ticks, [CHUNK_NOMINAL_S] * 100),
                     1: (ticks, [2 * CHUNK_NOMINAL_S] * 100)}
    assert speed.scale(2.0, 4.0, [0]) == pytest.approx(2.0)
    assert speed.scale(2.0, 4.0, [1]) == pytest.approx(1.0)
    assert speed.scale(2.0, 4.0) == pytest.approx(2.0 * 2 / 3)
    # a short stretch is scaled by the samples around it
    assert speed.scale(5.0, 5.01, [1]) == pytest.approx(0.005)
    with pytest.raises(Exception, match="no host-speed samples"):
        speed.scale(50.0, 51.0, [0])


def test_the_sampler_samples_every_core(tmp_path):
    with HostSpeed(tmp_path) as speed:
        start = time.perf_counter()
        time.sleep(0.3)
        end = time.perf_counter()
    assert set(speed.samples) == set(usable_cpus())
    assert 0 < speed.scale(start, end) < 10 * (end - start)
    assert 0 < chunk_s() < 1


# -- self-time arithmetic -----------------------------------------------------

def _span(span_id, parent, name, start, end, role="sweep"):
    return Span(span_id, parent, name, start, end, role)


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("1:1", None, "root", 0.0, 10.0),
        _span("1:2", "1:1", "run_jobs", 1.0, 9.0),
        _span("1:3", "1:2", "model_from_xml", 2.0, 3.0),
        # two pool workers (another process) side by side
        _span("2:1", "1:2", "execute_job", 4.0, 8.0, "worker"),
        _span("3:1", "1:2", "execute_job", 4.0, 6.0, "worker"),
        _span("2:2", "2:1", "run_prepared", 5.0, 7.0, "worker"),
    ]
    forest = SpanForest(spans)
    assert [root.id for root in forest.roots] == ["1:1"]
    self_s = forest.self_s
    assert self_s["1:1"] == pytest.approx(2.0)
    assert self_s["1:2"] == pytest.approx(8.0 - 1.0 - 4.0)
    assert self_s["2:1"] == pytest.approx(2.0)
    assert self_s["2:2"] == pytest.approx(2.0)
    # The workers overlap during [4, 6]: each gets half of that time,
    # so worker 2 counts 3 of its 4 s and worker 3 counts 1 of its 2 s;
    # the serial parse keeps its full second.
    weighted = forest.weighted_self_s
    assert weighted["1:3"] == pytest.approx(1.0)
    assert weighted["2:1"] == pytest.approx(2.0 * 3 / 4)
    assert weighted["2:2"] == pytest.approx(2.0 * 3 / 4)
    assert weighted["3:1"] == pytest.approx(1.0)
    assert sum(weighted.values()) == pytest.approx(10.0)
    rows = forest.ledger(layers.layer_of)
    assert rows["unattributed"] == pytest.approx(2.0)
    assert sum(rows.values()) == pytest.approx(10.0)


def test_children_are_clipped_to_their_parent():
    forest = SpanForest([_span("1:1", None, "root", 0.0, 4.0),
                         _span("1:2", "1:1", "cache.get", 3.0, 6.0)])
    assert forest.self_s["1:1"] == pytest.approx(3.0)
    assert sum(forest.weighted_self_s.values()) == pytest.approx(4.0)


def test_http_hop_is_caller_minus_callee():
    spans = [_span("1:1", None, "root", 0.0, 10.0, "bench"),
             _span("1:2", "1:1", "client.evaluate", 0.5, 9.5, "bench"),
             _span("2:1", "1:2", "http.server", 2.0, 8.0, "router")]
    forest = SpanForest(spans)
    metrics = layers.layer_metrics(forest, variants=1)
    assert metrics["http.front_hop.ms_p50"] == pytest.approx(3000.0)
    rows = forest.ledger(layers.layer_of)
    assert rows["http.front_hop"] == pytest.approx(3.0)
    assert rows["router.self"] == pytest.approx(6.0)


def test_wrapped_calls_nest_and_unwrap():
    class Owner:
        def outer(self):
            return self.inner()

        def inner(self):
            return 42

    tracer = Tracer("sweep")
    tracer.wrap(Owner, "outer", "outer")
    tracer.wrap(Owner, "inner", "inner", after=lambda r: {"value": r})
    assert Owner().outer() == 42
    tracer.unwrap_all()
    assert Owner().outer() == 42
    inner, outer = tracer.spans
    assert inner.parent == outer.id and outer.parent is None
    assert inner.attrs == {"value": 42}
    assert len(tracer.spans) == 2


# -- output checks ------------------------------------------------------------

@pytest.fixture(scope="module")
def sample_sweep():
    from repro.samples import build_sample_model
    from repro.sweep import SweepSpec, run_sweep
    spec = SweepSpec(models=[("sample", build_sample_model())],
                     processes=[2, 4],
                     backends=["analytic", "codegen", "interp"])
    return spec, list(run_sweep(spec))


def test_sweep_check_passes_on_correct_results(sample_sweep):
    spec, results = sample_sweep
    assert sweeps.check_results("sweep_variants", 0, spec, results) == []


def test_sweep_check_rejects_a_perturbed_payload(sample_sweep):
    spec, results = sample_sweep
    index = next(i for i, r in enumerate(results)
                 if r.job.backend == "codegen")
    bad = list(results)
    bad[index] = dataclasses.replace(
        results[index], predicted_time=results[index].predicted_time * 1.001)
    errors = sweeps.check_results("sweep_variants", 0, spec, bad)
    assert len(errors) == 1 and "interp gives" in errors[0]


def test_serve_check_rejects_a_perturbed_payload(tmp_path):
    from repro.samples import build_sample_model
    from repro.service import EvaluationService
    from repro.service.request import request_from_payload
    from repro.uml.hashing import model_structural_hash
    from repro.xmlio.writer import model_to_xml
    model = build_sample_model()
    ref = model_structural_hash(model)
    models = [("sample", model_to_xml(model), ref)]
    requests = [{"model_ref": ref, "backend": backend,
                 "params": {"processes": 2}, "network": {}, "seed": 0}
                for backend in ("codegen", "analytic")]
    service = EvaluationService(tmp_path / "served")
    service.ingest_xml(models[0][1])
    results = service.submit(
        [request_from_payload(r) for r in requests]).results
    item = inputs.Item("warm", requests)
    good = serve.Outcome(item, 0.0, 0.0, 0.0, True, None, results)
    assert serve.reference_mismatches([good], models,
                                      tmp_path / "ref1") == []
    perturbed = [dict(result) for result in results]
    perturbed[1]["predicted_time"] *= 1.001
    bad = dataclasses.replace(good, results=perturbed)
    errors = serve.reference_mismatches([bad], models, tmp_path / "ref2")
    assert len(errors) == 1 and "serial reference" in errors[0]
    twice = serve.reference_mismatches([good, bad], models,
                                       tmp_path / "ref3")
    assert any("served two different results" in e for e in twice)


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == \
        ["sweep_grid", "sweep_variants", "serve_routed"]
