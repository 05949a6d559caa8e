"""Analytic model evaluation — the "hybrid" fast path.

The authors' companion paper (Pllana et al., CISIS 2008, cited as [15])
combines simulation with mathematical modeling.  This module is that
extension: it evaluates a model *without* simulation by composing
closed-form times over the region tree:

* actions/criticals: their cost expression;
* branches/drawn loops: resolved deterministically by evaluating guards
  and code fragments (the same semantics the backends use);
* ``<<loop+>>`` nodes: body time × iterations (with a fast path when the
  body cannot mutate state);
* ``<<parallel+>>`` regions: the standard makespan lower bound
  ``max(longest thread, total work / processors)``;
* fork/join: the same makespan bound — arms run as concurrent strands
  competing for the node's processors, so the evaluator tracks
  *processor-seconds* (action/critical costs; communication waits hold
  no processor) alongside elapsed time and bounds a fork by
  ``max(longest arm, processor-work / processors)``;
* communication: Hockney service demands (latency + bytes/bandwidth,
  tree factors for collectives) without blocking semantics.  Sends
  honor the eager/rendezvous protocol switch of
  :data:`~repro.machine.network.NetworkConfig.eager_threshold`: an
  eager sender pays only its software overhead (one zero-byte
  latency, the payload travels asynchronously) while the receiver
  pays the full transfer; a rendezvous exchange costs envelope plus
  synchronous payload pull on both sides.

The recursion itself lives in :mod:`repro.estimator.analytic_plan`: the
model is *compiled* into a reusable :class:`~repro.estimator.
analytic_plan.AnalyticPlan` (parse-once expressions, pre-resolved
stereotypes) and then replayed under the given system parameters.  This
class compiles a fresh plan per instance — the one-shot shape; the grid
entry point :func:`repro.estimator.backends.evaluate_grid` memoizes
plans by structural hash and replays them across whole parameter grids.

The result is a *bound*: exact for contention-free compute models (tested
against simulation), optimistic when queueing, lock contention, or
rendezvous blocking matter.  Its value is speed — no event calendar — for
interactive what-if sweeps; the simulator remains the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.estimator.analytic_plan import AnalyticPlan
from repro.machine.network import NetworkConfig
from repro.machine.params import SystemParameters
from repro.transform.algorithm import ModelIR
from repro.transform.flowgraph import Region
from repro.uml.model import Model


@dataclass
class AnalyticResult:
    model_name: str
    params: SystemParameters
    per_process: list[float]
    makespan: float

    def summary(self) -> str:
        lines = [f"model:     {self.model_name} (analytic bound)",
                 f"machine:   {self.params.describe()}",
                 f"makespan:  {self.makespan:.6g} s"]
        for pid, value in enumerate(self.per_process):
            lines.append(f"  rank {pid}: {value:.6g} s")
        return "\n".join(lines)


class AnalyticEvaluator:
    """Evaluates a model analytically under given system parameters."""

    def __init__(self, model: Model | ModelIR,
                 params: SystemParameters | None = None,
                 network: NetworkConfig | None = None) -> None:
        self.plan = AnalyticPlan(model)
        self.model = self.plan.model
        self.params = params or SystemParameters()
        self.network = network or NetworkConfig()

    @property
    def ir(self):
        return self.plan.ir

    def evaluate(self) -> AnalyticResult:
        per_process = self.plan.per_process_times(self.params,
                                                  self.network)
        return AnalyticResult(
            model_name=self.model.name,
            params=self.params,
            per_process=per_process,
            makespan=max(per_process) if per_process else 0.0,
        )

    def _is_state_free(self, region: Region) -> bool:
        """Compatibility alias for the plan's state-free analysis."""
        return self.plan.region_is_state_free(region)


def evaluate_analytically(model: Model | ModelIR,
                          params: SystemParameters | None = None,
                          network: NetworkConfig | None = None
                          ) -> AnalyticResult:
    """One-shot analytic (hybrid) evaluation."""
    return AnalyticEvaluator(model, params, network).evaluate()
