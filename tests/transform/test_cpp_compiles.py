"""The emitted C++ compiles: ``g++ -std=c++17 -Wall -Werror -fsyntax-only``.

The paper's artifact is the C++ text; a golden diff cannot tell whether
it is a valid program.  Every model here is compiled against the
runtime header: the built-ins, the every-kind model, the models whose
names once broke the generated code (two parallel regions of one name
among them), and a ``random_models`` corpus, half of it with forks and
collectives.  Skipped, not failed, where no C++ compiler is on ``PATH``.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

from repro.transform.cpp.emitter import transform_to_cpp
from repro.uml.random_models import RandomModelConfig, random_model
from tests.transform.emitter_golden import full_models
from tests.transform.naming_models import (CLASH_MODELS, hostile_model,
                                           twin_regions_model)

CXX = shutil.which("g++")

pytestmark = pytest.mark.skipif(CXX is None,
                                reason="no C++ compiler (g++) on PATH")


def _models() -> dict:
    models = dict(full_models())
    # Compiled, never run: the marker path only has to be text.
    models["hostile"] = lambda: hostile_model(Path("marker"))
    models.update((f"clash:{kind}", build)
                  for kind, build in CLASH_MODELS.items())
    models["twin-regions"] = twin_regions_model
    forked = RandomModelConfig(p_fork=0.2, p_collective=0.3)
    for seed in range(10):
        models[f"random:default:{seed}"] = (
            lambda seed=seed: random_model(seed))
        models[f"random:forked:{seed}"] = (
            lambda seed=seed: random_model(seed, forked))
    return models


MODELS = _models()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_emitted_cpp_compiles(tmp_path, name):
    artifacts = transform_to_cpp(MODELS[name]())
    (tmp_path / "prophet_runtime.h").write_text(artifacts.header)
    source = tmp_path / "model.cpp"
    source.write_text(artifacts.source)
    result = subprocess.run(
        [CXX, "-std=c++17", "-Wall", "-Werror", "-fsyntax-only",
         str(source)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
