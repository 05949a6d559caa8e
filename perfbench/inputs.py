"""Seeded inputs for every workload.

Everything the program sees — models, grid values, request payloads,
ingest XML and the arrival schedule — is derived here from the workload
seed, before any timing starts.  ``random.Random`` seeded with a string
is stable across processes and Python hash seeds, so the same seed
gives the same inputs everywhere.

The knob values below are part of the benchmark's definition; changing
any of them changes what every metric means.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field

# -- sweep_grid ---------------------------------------------------------------

#: The five scenarios at mid sizes: few models, many machine points.
GRID_MODELS = (
    ("pipeline", {"stages": 100}),
    ("stencil2d", {"nx": 96, "ny": 96, "iters": 60}),
    ("master_worker", {"tasks": 300}),
    ("butterfly_allreduce", {"rounds": 40}),
    ("fork_join", {"depth": 3, "fanout": 3}),
)
GRID_PROCESSES = (2, 4, 8, 16)
GRID_BACKENDS = ("analytic", "codegen")
GRID_AXIS_POINTS = 3          # latencies, and bandwidths, drawn per seed
GRID_WORKERS = 2              # process-pool workers
LATENCY_RANGE = (5e-7, 5e-5)  # seconds, log-uniform
BANDWIDTH_RANGE = (1e8, 1e10)  # bytes/s, log-uniform

# -- sweep_variants -----------------------------------------------------------

#: Knob ranges the variants are drawn from, stratified (see
#: :func:`stratified`): ints uniform, floats log-uniform.
VARIANT_KNOBS = {
    "pipeline": {"stages": (4, 40), "msg_bytes": (256.0, 4096.0),
                 "stage_cost": (1e-4, 1e-3)},
    "master_worker": {"tasks": (8, 60), "task_cost": (1e-4, 2e-3),
                      "task_bytes": (256.0, 2048.0)},
    "stencil2d": {"nx": (32, 128), "ny": (32, 96), "iters": (2, 12)},
    "butterfly_allreduce": {"rounds": (1, 12),
                            "vector_bytes": (1024.0, 65536.0)},
    "fork_join": {"depth": (1, 3), "fanout": (2, 4),
                  "leaf_cost": (1e-4, 1e-3)},
}
#: Knobs that shape the diagram itself: their values are crossed (every
#: depth with every fanout), not drawn.
VARIANT_STRUCTURE = {"fork_join": ("depth", "fanout")}
VARIANT_COUNT = 44            # scenario variants; two paper models added
LOOPNEST_SIZE = {"n": 24, "m": 4}
VARIANT_PROCESSES = (2, 4)
VARIANT_BACKENDS = ("analytic", "codegen", "interp")

# -- serve_routed -------------------------------------------------------------

#: Small serving models: a cache-miss simulation takes milliseconds.
#: Knobs that set the structure or the event count are fixed, so that a
#: seed changes the inputs (costs, sizes) but hardly the work.
SERVE_KNOBS = {
    "pipeline": {"stages": (7, 7), "stage_cost": (1e-4, 1e-3)},
    "master_worker": {"tasks": (11, 11), "task_cost": (1e-4, 2e-3)},
    "stencil2d": {"nx": (16, 48), "ny": (16, 48)},
    "butterfly_allreduce": {"rounds": (2, 2),
                            "vector_bytes": (1024.0, 65536.0)},
    "fork_join": {"depth": (2, 2), "fanout": (3, 3),
                  "leaf_cost": (1e-4, 1e-3)},
}
#: Replicas behind the router, named as the router names them.
SERVE_REPLICAS = ("r0", "r1")
#: The mix, in batches out of every 50 (each block of 50 is shuffled,
#: so every stretch of the load has the same composition).  Within a
#: kind, batches take the models (and ingests the scenarios) in turn, in
#: a seeded order, so every seed has the same composition too.
SERVE_MIX = (("warm", 35), ("analytic", 9), ("miss", 5), ("ingest", 1))
WARM_BATCHES = 16             # distinct cache-warm batches
WARM_BATCH_SIZE = 4
#: Distinct analytic batches, each evaluated on its first use and read
#: from the cache after: fresh machine points on every analytic batch
#: would add a cache entry each, and the cache files would soon take
#: most of the serving time (and bring the file system's noise with
#: them).
ANALYTIC_BATCHES = 12
ANALYTIC_BATCH_SIZE = 8
SERVE_PROCESSES = (1, 2, 4, 8)
ANALYTIC_PROCESSES = (2, 4, 8, 16)
#: Fewest phase A batches: enough for a nearest-rank p99 with 10
#: samples beyond it.
PHASE_A_BATCHES = 1010
#: Batches per phase, per second of ``--seconds``.  Each phase sends a
#: fixed number of batches, not batches for a fixed time: every cache
#: miss and fresh analytic point adds a cache entry, a request's cost
#: grows with the cache, and so every run must leave the replicas'
#: caches the same size.
PHASE_A_PER_S = 30
PHASE_B_PER_S = 40
#: Phase A sends whole cycles of this many batches, in which every
#: scenario is ingested equally often: the ingests are its slowest
#: batches, so they set its p99.
SERVE_CYCLE = 50 * len(SERVE_KNOBS)


def seeded_rng(seed: int, purpose: str) -> random.Random:
    """A generator of its own for each use of the seed, so adding draws
    for one purpose never shifts another's."""
    return random.Random(f"perfbench:{purpose}:{seed}")


def _round3(value: float) -> float:
    """Three significant digits: readable XML, still seed-dependent."""
    return float(f"{value:.3g}")


def _draw(rng: random.Random, low, high):
    if isinstance(low, int):
        return rng.randint(low, high)
    return _round3(math.exp(rng.uniform(math.log(low), math.log(high))))


def draw_knobs(rng: random.Random, ranges: dict) -> dict:
    return {name: _draw(rng, low, high)
            for name, (low, high) in ranges.items()}


def stratified(rng: random.Random, low, high, count: int) -> list:
    """``count`` values from ``[low, high]``, one from each of ``count``
    equal strata (of the ints, or of the log of a float range), in
    seeded order.  Every seed spans the whole range, so the sum of the
    values — and with it the work of a set of variants — hardly depends
    on the seed."""
    values = []
    for index in range(count):
        share = (index + rng.random()) / count
        if isinstance(low, int):
            values.append(low + min(int(share * (high - low + 1)),
                                    high - low))
        else:
            values.append(_round3(math.exp(
                math.log(low) + share * (math.log(high) - math.log(low)))))
    rng.shuffle(values)
    return values


def _label(name: str, knobs: dict) -> str:
    return name + "[" + ",".join(f"{k}={v}" for k, v in knobs.items()) + "]"


# -- sweeps -------------------------------------------------------------------

def grid_axes(seed: int) -> tuple[list[float], list[float]]:
    """The seed's latencies and bandwidths (sorted, distinct)."""
    rng = seeded_rng(seed, "grid")
    axes = []
    for low, high in (LATENCY_RANGE, BANDWIDTH_RANGE):
        values: set[float] = set()
        while len(values) < GRID_AXIS_POINTS:
            values.add(_draw(rng, low, high))
        axes.append(sorted(values))
    return axes[0], axes[1]


def grid_spec(seed: int):
    """The ``sweep_grid`` :class:`~repro.sweep.SweepSpec`."""
    from repro.scenarios import build_scenario
    from repro.sweep import SweepSpec
    latencies, bandwidths = grid_axes(seed)
    models = [(_label(name, knobs), build_scenario(name, **knobs))
              for name, knobs in GRID_MODELS]
    return SweepSpec(models=models, processes=list(GRID_PROCESSES),
                     backends=list(GRID_BACKENDS), latencies=latencies,
                     bandwidths=bandwidths)


def variant_knobs(seed: int) -> list[tuple[str, dict]]:
    """The knobs of the ``VARIANT_COUNT`` scenario variants: the
    scenarios take turns, and each scenario's variants draw every knob
    :func:`stratified` — structural knobs crossed instead — so that
    every seed asks for about the same work."""
    rng = seeded_rng(seed, "variants")
    names = sorted(VARIANT_KNOBS)
    counts = {name: len(range(index, VARIANT_COUNT, len(names)))
              for index, name in enumerate(names)}
    columns: dict[str, dict[str, list]] = {}
    for name in names:
        count = counts[name]
        structure = VARIANT_STRUCTURE.get(name, ())
        columns[name] = {
            knob: stratified(rng, low, high, count)
            for knob, (low, high) in VARIANT_KNOBS[name].items()
            if knob not in structure}
        if structure:
            crossed = list(itertools.product(*(
                range(VARIANT_KNOBS[name][knob][0],
                      VARIANT_KNOBS[name][knob][1] + 1)
                for knob in structure)))
            rng.shuffle(crossed)
            rows = [crossed[i % len(crossed)] for i in range(count)]
            for position, knob in enumerate(structure):
                columns[name][knob] = [row[position] for row in rows]
    taken = dict.fromkeys(names, 0)
    variants = []
    for index in range(VARIANT_COUNT):
        name = names[index % len(names)]
        row = taken[name]
        taken[name] += 1
        variants.append((name, {knob: columns[name][knob][row]
                                for knob in VARIANT_KNOBS[name]}))
    return variants


def variant_models(seed: int) -> list[tuple[str, object]]:
    """``VARIANT_COUNT`` distinct scenario variants plus the kernel6
    loop nest and the Fig. 8 sample, as ``(label, Model)`` pairs."""
    from repro.samples import build_kernel6_loopnest_model, \
        build_sample_model
    from repro.scenarios import build_scenario
    from repro.uml.hashing import model_structural_hash
    models: list[tuple[str, object]] = []
    seen: set[str] = set()
    for name, knobs in variant_knobs(seed):
        model = build_scenario(name, **knobs)
        digest = model_structural_hash(model)
        # Strata are disjoint, so some knob differs between any two
        # variants of a scenario; a repeat would be a bug here.
        if digest in seen:
            raise ValueError(f"seed {seed} repeats variant {name}{knobs}")
        seen.add(digest)
        models.append((_label(name, knobs), model))
    models.append((_label("kernel6-loopnest", LOOPNEST_SIZE),
                   build_kernel6_loopnest_model(**LOOPNEST_SIZE)))
    models.append(("sample", build_sample_model()))
    return models


def variants_spec(seed: int):
    """The ``sweep_variants`` :class:`~repro.sweep.SweepSpec`."""
    from repro.sweep import SweepSpec
    return SweepSpec(models=variant_models(seed),
                     processes=list(VARIANT_PROCESSES),
                     backends=list(VARIANT_BACKENDS))


def sweep_spec(workload: str, seed: int):
    return {"sweep_grid": grid_spec,
            "sweep_variants": variants_spec}[workload](seed)


def distinct_models(workload: str) -> int:
    """Model variants a sweep workload evaluates."""
    return {"sweep_grid": len(GRID_MODELS),
            "sweep_variants": VARIANT_COUNT + 2}[workload]


# -- serving ------------------------------------------------------------------

@dataclass
class Item:
    """One unit of serving load: an evaluate batch or an ingest."""

    kind: str                       # warm | analytic | miss | ingest
    requests: list[dict] = field(default_factory=list)
    xml: str = ""                   # ingest only
    ref: str = ""                   # ingest only: expected structural hash

    @property
    def points(self) -> int:
        return len(self.requests)


@dataclass
class ServeInputs:
    models: list[tuple[str, str, str]]   # (label, xml, ref) ingested at set-up
    warm: list[Item]
    phase_a: list[Item]
    phase_b: list[Item]


def _serve_model(rng: random.Random, name: str):
    from repro.scenarios import build_scenario
    knobs = draw_knobs(rng, SERVE_KNOBS[name])
    return _label(name, knobs), build_scenario(name, **knobs)


def serve_inputs(seed: int, phase_a_batches: int,
                 phase_b_batches: int) -> ServeInputs:
    """Models, warm set, and the item sequences of both phases."""
    from repro.samples import build_kernel6_model
    from repro.service.router import ShardMap
    from repro.uml.hashing import model_structural_hash
    from repro.xmlio.writer import model_to_xml
    rng = seeded_rng(seed, "serve")
    seen: set[str] = set()

    def entry(label: str, model) -> tuple[str, str, str]:
        ref = model_structural_hash(model)
        seen.add(ref)
        return label, model_to_xml(model), ref

    # The router shards by model: every replica owns as many models as
    # the next, so that no seed loads one replica more than the other.
    shards = ShardMap(list(SERVE_REPLICAS))
    kernel6 = entry("kernel6", build_kernel6_model())
    owned = Counter([shards.owners(kernel6[2])[0]])
    share = -(-(len(SERVE_KNOBS) + 1) // len(SERVE_REPLICAS))
    models = []
    for name in sorted(SERVE_KNOBS):
        while True:
            label, model = _serve_model(rng, name)
            owner = shards.owners(model_structural_hash(model))[0]
            if owned[owner] < share:
                break
        owned[owner] += 1
        models.append(entry(label, model))
    models.append(kernel6)
    refs = rng.sample([ref for _label_, _xml, ref in models], len(models))
    scenarios = rng.sample(sorted(SERVE_KNOBS), len(SERVE_KNOBS))
    made = dict.fromkeys(("warm", "analytic", "miss", "ingest"), 0)

    def turn(kind: str) -> int:
        made[kind] += 1
        return made[kind] - 1

    warm = []
    for index in range(WARM_BATCHES):
        ref = refs[index % len(refs)]
        points = rng.sample([(p, s) for p in SERVE_PROCESSES
                             for s in range(4)], WARM_BATCH_SIZE)
        warm.append(Item("warm", [
            {"model_ref": ref, "backend": "codegen",
             "params": {"processes": p}, "network": {}, "seed": s}
            for p, s in points]))

    analytic = [Item("analytic", [
        {"model_ref": refs[index % len(refs)], "backend": "analytic",
         "params": {"processes": rng.choice(ANALYTIC_PROCESSES)},
         "network": {"latency": _draw(rng, *LATENCY_RANGE),
                     "bandwidth": _draw(rng, *BANDWIDTH_RANGE)},
         "seed": 0}
        for _ in range(ANALYTIC_BATCH_SIZE)])
        for index in range(ANALYTIC_BATCHES)]
    fresh_seeds = iter(range(1_000_000, 10_000_000))

    def make(kind: str) -> Item:
        if kind == "warm":
            return warm[turn(kind) % len(warm)]
        if kind == "analytic":
            return analytic[turn(kind) % len(analytic)]
        if kind == "miss":
            index = turn(kind)
            return Item("miss", [
                {"model_ref": refs[index % len(refs)], "backend": "codegen",
                 "params": {"processes": (2, 4)[index // len(refs) % 2]},
                 "network": {}, "seed": next(fresh_seeds)}])
        scenario = scenarios[turn(kind) % len(scenarios)]
        while True:
            label, model = _serve_model(rng, scenario)
            if model_structural_hash(model) not in seen:
                _label_, xml, ref = entry(label, model)
                return Item("ingest", xml=xml, ref=ref)

    def items(count: int) -> list[Item]:
        kinds: list[str] = []
        while len(kinds) < count:
            block = [kind for kind, share in SERVE_MIX
                     for _ in range(share)]
            rng.shuffle(block)
            kinds.extend(block)
        return [make(kind) for kind in kinds[:count]]

    phase_a = items(phase_a_batches)
    phase_b = items(phase_b_batches)
    return ServeInputs(models=models, warm=warm, phase_a=phase_a,
                       phase_b=phase_b)
