"""What a sweep or serving process loads.

A ``prophet sweep`` is a fresh process, so every module it imports is
paid for on each invocation, as it is on each ``prophet serve`` start.
Each check runs in a new interpreter, because this one has long since
imported most of the package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Modules a sweep never executes: the graph library, the tool facade,
#: the viewers, the skeleton generator and the whole-model analyzer
#: (the analytic backend reads only ``repro.analysis.facts``).
NOT_LOADED = ("networkx", "repro.prophet", "repro.viz", "repro.appgen",
              "repro.analysis.analyzer", "repro.analysis.rules",
              "repro.analysis.cfg", "repro.analysis.comm",
              "repro.analysis.bounds", "repro.analysis.report")

#: A replica runs the analyzer (its ingest gate) but no router, fleet
#: launcher or client.
SERVE_NOT_LOADED = ("networkx", "repro.prophet", "repro.viz", "repro.appgen",
                    "repro.service.router", "repro.service.fleet",
                    "repro.service.client")

ONE_MODEL_SWEEP = """
from repro.samples import build_kernel6_model
from repro.sweep import make_spec, run_sweep
result = run_sweep(make_spec(build_kernel6_model(), processes=[1, 2],
                             backends=["analytic", "interp", "codegen"]))
assert len(result.results) == 6, result.results
assert all(r.ok for r in result.results), result.results
"""


def loaded_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after it runs ``code``."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr[-2000:]
    return set(json.loads(done.stdout.splitlines()[-1]))


def unwanted(modules: set[str], names: tuple[str, ...]) -> list[str]:
    return sorted(m for m in modules
                  if any(m == n or m.startswith(n + ".") for n in names))


@pytest.mark.parametrize("code", ["import repro.sweep", ONE_MODEL_SWEEP],
                         ids=["import", "serial-sweep"])
def test_a_sweep_loads_only_what_it_runs(code):
    modules = loaded_after(code)
    assert "repro.sweep.runner" in modules
    assert unwanted(modules, NOT_LOADED) == []


def test_a_replica_loads_only_what_it_runs():
    modules = loaded_after(
        "from repro.cli import build_service_server\n"
        "from repro.service import EvaluationService, make_server\n")
    assert "repro.service.httpd" in modules
    assert unwanted(modules, SERVE_NOT_LOADED) == []


def test_package_exports_resolve_on_first_use():
    modules = loaded_after(
        "from repro import PerformanceProphet, run_sweep\n"
        "assert PerformanceProphet.__module__ == 'repro.prophet'\n"
        "assert run_sweep.__module__ == 'repro.sweep.runner'\n"
        "from repro.analysis import ModelAnalyzer\n")
    assert "repro.prophet" in modules
    assert "repro.analysis.analyzer" in modules


@pytest.mark.parametrize("package", ["repro", "repro.analysis",
                                     "repro.service", "repro.transform"])
def test_dir_lists_every_export(package):
    module = __import__(package, fromlist=["__all__"])
    assert set(module.__all__) <= set(dir(module))
    for name in module.__all__:
        assert getattr(module, name) is not None
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")
