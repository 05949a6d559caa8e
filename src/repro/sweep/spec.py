"""Sweep declarations: what to evaluate, over which axes.

A :class:`SweepSpec` names the experiment the way the paper's authors
describe theirs: take a model (or several variants of it), vary the
machine (process counts), the problem (global-variable overrides such as
the ``N`` of Livermore kernel 6), the evaluation backend, and the seed,
and evaluate every combination.  :mod:`repro.sweep.grid` expands a spec
into concrete :class:`SweepJob` points.

Jobs carry the model as serialized XML (not a live object graph): that
makes them picklable for the process-pool executor, hashable for the
result cache, and self-contained for error reporting.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import ProphetError
from repro.estimator.backends import BACKENDS, validate_backend
from repro.machine.network import NetworkConfig
from repro.machine.params import SystemParameters
from repro.uml.model import Model
from repro.util.hashing import stable_hash

#: Bump to invalidate every cached sweep result (payload schema change).
CACHE_SCHEMA_VERSION = 1


class SweepSpecError(ProphetError):
    """A sweep specification is malformed (bad axis, unknown backend…)."""


@dataclass(frozen=True)
class SweepJob:
    """One fully-determined evaluation point of a sweep.

    ``index`` fixes the job's position in the deterministic grid order;
    results are always reported in index order regardless of which
    executor ran them (this is what makes parallel and serial sweeps
    byte-identical).
    """

    index: int
    model_label: str
    model_xml: str
    model_hash: str
    overrides: tuple[tuple[str, str], ...]
    params: SystemParameters
    network: NetworkConfig
    backend: str
    seed: int

    def cache_key(self) -> str:
        """Content address of this point's result.

        Built from the *structural hash* of the model (not its label or
        XML text), the machine fingerprints, the backend, and the seed —
        so renaming a variant or reloading it from XML still hits, while
        any semantic change misses.
        """
        return stable_hash({
            "schema": CACHE_SCHEMA_VERSION,
            "model": self.model_hash,
            "params": self.params.fingerprint(),
            "network": self.network.fingerprint(),
            "backend": self.backend,
            "seed": self.seed,
        })

    def describe(self) -> str:
        overrides = ", ".join(f"{k}={v}" for k, v in self.overrides)
        parts = [self.model_label]
        if overrides:
            parts.append(f"[{overrides}]")
        parts.append(f"p={self.params.processes}")
        parts.append(self.backend)
        if self.seed:
            parts.append(f"seed={self.seed}")
        return " ".join(parts)


@dataclass
class SweepSpec:
    """A parameter grid over models, machines, backends, and seeds.

    Axes:

    * ``models`` — ``(label, Model)`` pairs; each is swept independently;
    * ``scenario`` — a :mod:`repro.scenarios` generator name; combined
      with ``scenario_params`` (knob name → sequence of values) it
      contributes one generated model per knob combination, labeled
      ``name[knob=value,...]``.  Scenario models are rebuilt per
      combination — that is what lets *structural* knobs (fork depth,
      fanout) sweep — and keyed by the built model's structural hash,
      so the on-disk result cache and batcher coalescing work exactly
      as for explicit models;
    * ``overrides`` — global-variable name → sequence of values; the
      cartesian product over names produces one model *variant* per
      combination (applied by re-initializing the variable, see
      :func:`repro.sweep.grid.apply_overrides`);
    * ``processes`` — process counts (strong-scaling axis);
    * ``latencies``/``bandwidths`` — network axes: their cartesian
      product replaces the base ``network``'s latency/bandwidth per
      point (the dense latency×bandwidth heatmaps the analytic grid
      path evaluates in one vectorized pass).  Empty means "use the
      base network's value" — a single-point axis;
    * ``backends`` — evaluation backends (see
      :data:`repro.estimator.backends.BACKENDS`);
    * ``seeds`` — simulator seeds (analytic ignores the seed, but the
      cache key keeps it so payloads stay uniform).

    Machine shape: by default every process gets its own node (the
    contention-free strong-scaling setup of ``sweep_processes``); pass
    ``nodes`` to pin the node count instead.
    """

    models: Sequence[tuple[str, Model]] = ()
    processes: Sequence[int] = (1,)
    backends: Sequence[str] = ("codegen",)
    seeds: Sequence[int] = (0,)
    overrides: Mapping[str, Sequence[object]] = field(default_factory=dict)
    scenario: str | None = None
    scenario_params: Mapping[str, Sequence[object]] = \
        field(default_factory=dict)
    nodes: int | None = None
    processors_per_node: int = 1
    threads_per_process: int = 1
    placement: str = "block"
    network: NetworkConfig = field(default_factory=NetworkConfig)
    latencies: Sequence[float] = ()
    bandwidths: Sequence[float] = ()

    def normalize(self) -> None:
        """Materialize every axis into a list.

        One-shot iterables (generators) would otherwise be consumed by
        validation and leave expansion with silently-empty axes — the
        opposite of the fail-loudly contract.
        """
        self.models = list(self.models)
        self.processes = list(self.processes)
        self.backends = list(self.backends)
        self.seeds = list(self.seeds)
        self.overrides = {name: list(values)
                          for name, values in self.overrides.items()}
        self.scenario_params = {name: list(values)
                                for name, values
                                in self.scenario_params.items()}
        self.latencies = list(self.latencies)
        self.bandwidths = list(self.bandwidths)

    def validate(self) -> None:
        self.normalize()
        for label, model in self.models:
            if not isinstance(model, Model):
                raise SweepSpecError(
                    f"model {label!r} is not a Model (got "
                    f"{type(model).__name__})")
        if self.scenario is None and self.scenario_params:
            raise SweepSpecError(
                "scenario_params given without a scenario")
        if self.scenario is not None:
            from repro.scenarios import ScenarioError, get_scenario
            try:
                spec = get_scenario(self.scenario)
                for name, values in self.scenario_params.items():
                    if not values:
                        raise ScenarioError(
                            f"scenario parameter axis {name!r} has no "
                            "values")
                    for value in values:
                        spec.param(name).coerce(value)
            except ScenarioError as exc:
                raise SweepSpecError(str(exc)) from None
        for backend in self.backends:
            try:
                validate_backend(backend)
            except Exception as exc:
                raise SweepSpecError(str(exc)) from None
        for count in self.processes:
            if not isinstance(count, int) or count < 1:
                raise SweepSpecError(
                    f"process counts must be positive integers, got "
                    f"{count!r}")
        for seed in self.seeds:
            if not isinstance(seed, int):
                raise SweepSpecError(f"seeds must be integers, got {seed!r}")
        for name, values in self.overrides.items():
            if not isinstance(name, str) or not name:
                raise SweepSpecError(
                    f"override names must be non-empty strings, got "
                    f"{name!r}")
            if not values:
                raise SweepSpecError(
                    f"override axis {name!r} has no values")
        for name, values, minimum in (
                ("latencies", self.latencies, 0.0),
                ("bandwidths", self.bandwidths, None)):
            for value in values:
                if isinstance(value, bool) or \
                        not isinstance(value, (int, float)) or \
                        not math.isfinite(value):
                    raise SweepSpecError(
                        f"{name} must be finite numbers, got {value!r}")
                if minimum is not None and value < minimum:
                    raise SweepSpecError(
                        f"{name} must be >= {minimum}, got {value!r}")
                if minimum is None and value <= 0:
                    raise SweepSpecError(
                        f"{name} must be > 0, got {value!r}")

    def network_variants(self) -> list[NetworkConfig]:
        """The network axis, expanded: latency × bandwidth variants of
        the base ``network`` (latency outer, bandwidth inner — the
        declared grid order).  Without explicit axes this is just the
        base network."""
        self.normalize()
        latencies = self.latencies or [self.network.latency]
        bandwidths = self.bandwidths or [self.network.bandwidth]
        return [dataclasses.replace(self.network, latency=latency,
                                    bandwidth=bandwidth)
                for latency in latencies for bandwidth in bandwidths]

    def system_parameters(self, process_count: int) -> SystemParameters:
        """The SP for one grid point (one node per process by default)."""
        return SystemParameters(
            nodes=self.nodes if self.nodes is not None else process_count,
            processors_per_node=self.processors_per_node,
            processes=process_count,
            threads_per_process=self.threads_per_process,
            placement=self.placement)

    @property
    def scenario_combination_count(self) -> int:
        """Scenario models the grid will generate (0 without a scenario)."""
        self.normalize()
        if self.scenario is None:
            return 0
        combos = 1
        for values in self.scenario_params.values():
            combos *= len(values)
        return combos

    @property
    def point_count(self) -> int:
        """Number of jobs :func:`repro.sweep.grid.expand` will produce."""
        self.normalize()
        total = len(self.models) + self.scenario_combination_count
        for values in self.overrides.values():
            total *= len(values)
        networks = ((len(self.latencies) or 1) *
                    (len(self.bandwidths) or 1))
        return (total * len(self.processes) * networks *
                len(self.backends) * len(self.seeds))


def make_spec(model: Model, label: str | None = None,
              **kwargs) -> SweepSpec:
    """Convenience: a spec over a single model."""
    return SweepSpec(models=[(label or model.name, model)], **kwargs)


def make_scenario_spec(scenario: str,
                       params: Mapping[str, Sequence[object]]
                       | None = None,
                       **kwargs) -> SweepSpec:
    """Convenience: a spec over one scenario's parameter grid."""
    return SweepSpec(scenario=scenario,
                     scenario_params=dict(params or {}), **kwargs)


def make_job(index: int, model_xml: str, model_hash: str, backend: str,
             params: SystemParameters, network: NetworkConfig,
             seed: int = 0, label: str = "",
             overrides: tuple[tuple[str, str], ...] = ()) -> SweepJob:
    """One job outside any grid (the evaluation service's entry point).

    Grid expansion (:func:`repro.sweep.grid.expand`) derives jobs from a
    spec; the batch service instead receives fully-determined points one
    request at a time and needs the same validated, cache-keyed job
    shape without declaring a spec.
    """
    validate_backend(backend)
    return SweepJob(index=index, model_label=label or model_hash[:12],
                    model_xml=model_xml, model_hash=model_hash,
                    overrides=overrides, params=params, network=network,
                    backend=backend, seed=seed)


__all__ = [
    "BACKENDS", "CACHE_SCHEMA_VERSION",
    "SweepJob", "SweepSpec", "SweepSpecError", "make_job",
    "make_scenario_spec", "make_spec",
]
