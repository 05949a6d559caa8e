"""Experiment sweep engine: batch evaluation with result caching.

The paper's tool exists to answer "what if" questions — vary the process
count, the problem size, the machine, and compare predicted times.  This
package makes such experiments first-class:

* :mod:`repro.sweep.spec` — declare a sweep as a parameter grid
  (:class:`SweepSpec`) over models, variable overrides, process counts,
  evaluation backends, and seeds;
* :mod:`repro.sweep.grid` — expand the grid into deterministic
  :class:`SweepJob` points;
* :mod:`repro.sweep.runner` — execute jobs serially or on a process
  pool, capturing per-job errors;
* :mod:`repro.sweep.cache` — memoize results on disk, content-addressed
  by (model structure, machine parameters, backend, seed);
* :mod:`repro.sweep.results` — typed result tables: CSV, ASCII, and
  speedup series.

Quickstart::

    from repro.samples import build_kernel6_model
    from repro.sweep import ResultCache, make_spec, run_sweep

    spec = make_spec(build_kernel6_model(),
                     processes=[1, 2, 4, 8],
                     backends=["analytic", "codegen"],
                     overrides={"N": [100, 200]})
    result = run_sweep(spec, cache=ResultCache(".prophet-cache"))
    print(result.table())
    print(result.speedup_tables())

Or from the command line: ``prophet sweep --kind kernel6 --processes
1,2,4,8 --backends analytic,codegen --param N=100,200``.

Scenario sweeps (:mod:`repro.scenarios`) range over generator knobs —
including structural ones — instead of a fixed model::

    from repro.sweep import make_scenario_spec
    spec = make_scenario_spec("stencil2d",
                              {"nx": [64, 128], "iters": [2, 4]},
                              processes=[1, 4], backends=["analytic"])

CLI equivalent: ``prophet sweep --scenario stencil2d --scenario-param
nx=64,128 --scenario-param iters=2,4 --processes 1,4``.
"""

from repro.sweep.cache import CacheStats, ResultCache
from repro.sweep.campaign import (
    Campaign,
    CampaignError,
    campaign_fingerprint,
)
from repro.sweep.grid import apply_overrides, expand, scenario_models
from repro.sweep.resilient import RetryPolicy
from repro.sweep.results import JobResult, SweepResult
from repro.sweep.runner import (
    MIN_POOL_JOBS,
    ProcessPoolExecutor,
    SerialExecutor,
    execute_job,
    pool_dispatch,
    run_jobs,
    run_sweep,
    shutdown_shared_pool,
)
from repro.sweep.spec import (
    BACKENDS,
    SweepJob,
    SweepSpec,
    SweepSpecError,
    make_scenario_spec,
    make_spec,
)

__all__ = [
    "BACKENDS",
    "CacheStats", "ResultCache",
    "Campaign", "CampaignError", "campaign_fingerprint",
    "RetryPolicy",
    "SweepJob", "SweepSpec", "SweepSpecError",
    "make_scenario_spec", "make_spec",
    "apply_overrides", "expand", "scenario_models",
    "JobResult", "SweepResult",
    "SerialExecutor", "ProcessPoolExecutor",
    "MIN_POOL_JOBS", "pool_dispatch",
    "execute_job", "run_jobs", "run_sweep", "shutdown_shared_pool",
]
