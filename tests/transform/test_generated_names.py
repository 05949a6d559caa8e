"""Generated code does not depend on what a model names things.

Model text that the emitters write as comments or string literals is
escaped, so no name can become code; names they write as identifiers
(variables, cost functions, parameters) must be identifiers; an
action's instance name never shadows a name the generated code binds;
and no name the generated code numbers (a loop index, a helper, a
region object) is a model name.
"""

import re

import pytest

from repro.appgen.skeleton import generate_skeleton
from repro.checker import ModelChecker
from repro.errors import ModelError, XmlFormatError
from repro.estimator.backends import evaluate_point
from repro.machine.network import NetworkConfig
from repro.machine.params import SystemParameters
from repro.service.request import EvaluationRequest
from repro.service.service import EvaluationService
from repro.transform.algorithm import build_ir
from repro.transform.cpp.emitter import transform_to_cpp
from repro.transform.python.emitter import transform_to_python
from repro.uml.builder import ModelBuilder
from repro.xmlio.reader import model_from_xml
from repro.xmlio.writer import model_to_xml
from tests.transform.emitter_golden import every_kind_model
from tests.transform.naming_models import (CLASH_MODELS, hostile_model,
                                           named_payload_model,
                                           twin_regions_model)

MACHINES = (SystemParameters(), SystemParameters(nodes=2, processes=2))
PAYLOAD_MODELS = {"hostile": hostile_model, "named": named_payload_model}


def assert_interp_equals_codegen(model):
    for params in MACHINES:
        interp = evaluate_point(model, "interp", params, NetworkConfig(), 0)
        codegen = evaluate_point(model, "codegen", params, NetworkConfig(),
                                 0)
        for key in ("predicted_time", "events", "trace_records"):
            assert interp[key] == codegen[key], (key, params)


class TestModelTextStaysText:
    @pytest.mark.parametrize("kind", sorted(PAYLOAD_MODELS))
    def test_codegen_and_skeleton_never_run_model_text(self, tmp_path,
                                                       kind):
        marker = tmp_path / "marker"
        model = PAYLOAD_MODELS[kind](marker)
        ModelChecker().assert_valid(model)
        assert_interp_equals_codegen(model)
        assert_interp_equals_codegen(model_from_xml(model_to_xml(model)))
        generate_skeleton(model).compile()
        assert not marker.exists()

    @pytest.mark.parametrize("kind", sorted(PAYLOAD_MODELS))
    def test_service_codegen_batch_never_runs_model_text(self, tmp_path,
                                                         kind):
        marker = tmp_path / "marker"
        service = EvaluationService(tmp_path / "registry")
        record = service.ingest_xml(model_to_xml(PAYLOAD_MODELS[kind](marker)))
        batch = service.submit([EvaluationRequest(record.ref, "codegen",
                                                  {"processes": 2})])
        assert batch.ok(), batch.results
        assert not marker.exists()

    def test_names_render_as_literals(self, tmp_path):
        ir = build_ir(hostile_model(tmp_path / "marker"))
        cpp = transform_to_cpp(ir).source
        assert 'ActionPlus say__hi_("say \\"hi\\"", ' in cpp
        assert '// code associated with "trail\\\\"\n' in cpp
        assert '"cr\\rlf"' in cpp
        python = transform_to_python(ir).source
        assert '# code associated with "E\\n    __import__(' in python


class TestIdentifierNames:
    """Variable, cost-function and parameter names are written as
    identifiers, so anything else is rejected when the model is built."""

    @pytest.mark.parametrize("name", ["a b", "x\nimport os", "int",
                                      "lambda", "9lives", "é", "n\n"])
    def test_builder_rejects_non_identifier_variable(self, name):
        with pytest.raises(ModelError):
            ModelBuilder("M").global_var(name, "int", "1")

    @pytest.mark.parametrize("name", ["F()", "del", "F\n"])
    def test_builder_rejects_non_identifier_cost_function(self, name):
        with pytest.raises(ModelError):
            ModelBuilder("M").cost_function(name, "1.0")

    @pytest.mark.parametrize("params", ["int q)", "double class",
                                        "int a.b"])
    def test_builder_rejects_non_identifier_parameter(self, params):
        with pytest.raises(ModelError):
            ModelBuilder("M").cost_function("F", "1.0", params)

    @pytest.mark.parametrize("original,hostile", [
        ('name="n"', 'name="n&#10;x"'),
        ('name="F"', 'name="F-1"'),
        ('params="double q"', 'params="double for"'),
    ])
    def test_reader_rejects_non_identifier_names(self, original, hostile):
        builder = ModelBuilder("M")
        builder.global_var("n", "int", "1")
        builder.cost_function("F", "q * n", "double q")
        main = builder.diagram("Main", main=True)
        main.sequence(main.action("A", cost="F(1.0)"))
        text = model_to_xml(builder.build())
        assert original in text
        with pytest.raises(XmlFormatError):
            model_from_xml(text.replace(original, hostile, 1))


class TestInstanceNamesNeverClash:
    @pytest.mark.parametrize("kind", sorted(CLASH_MODELS))
    def test_interp_equals_codegen(self, kind):
        model = CLASH_MODELS[kind]()
        ModelChecker().assert_valid(model)
        assert_interp_equals_codegen(model)

    def test_reserved_names_get_a_suffix(self):
        instances = {kind: [spec.instance for spec in
                            build_ir(build()).actions.values()]
                     for kind, build in CLASH_MODELS.items()}
        assert instances == {"pid": ["pid_2", "after"],
                             "v": ["v_2", "after"],
                             "ctx": ["ctx_2", "after"],
                             "local": ["t_2", "after"],
                             "loop-index": ["work", "_i1"],
                             "cpp-loop-index": ["work", "i1_"],
                             "local-loop-index": ["work", "after"],
                             "global-cpp-loop-index": ["work", "after"]}


#: Per target, where its text binds a name it numbers: C++ loop indices
#: and region objects, Python loop indices and helpers, skeleton loop
#: indices.
NUMBERED_NAMES = {
    "cpp": re.compile(r"for \(int (\w+) = 0;|ParallelRegion (\w+)\("),
    "python": re.compile(r"for (\w+) in range\(int\("
                         r"|def (\w+)\(ctx, uid, pid, tid\):"),
    "skeleton": re.compile(r"for (\w+) in range\(int\("),
}

#: Models whose generated code numbers names.
NUMBERING_MODELS = {
    **{kind: CLASH_MODELS[kind]
       for kind in ("loop-index", "cpp-loop-index", "local-loop-index",
                    "global-cpp-loop-index")},
    "twin-regions": twin_regions_model,
    "every-kind": every_kind_model,
}


class TestNumberedNamesNeverClash:
    @pytest.mark.parametrize("kind", sorted(NUMBERING_MODELS))
    def test_no_numbered_name_is_a_model_name(self, kind):
        model = NUMBERING_MODELS[kind]()
        ir = build_ir(model)
        model_names = ({variable.name for variable in model.variables}
                       | set(model.cost_functions)
                       | {spec.instance for spec in ir.actions.values()})
        texts = {"cpp": transform_to_cpp(ir).source,
                 "python": transform_to_python(ir).source,
                 "skeleton": generate_skeleton(ir).source}
        numbered = {target: {name for match in pattern.finditer(texts[target])
                             for name in match.groups() if name}
                    for target, pattern in NUMBERED_NAMES.items()}
        assert numbered["cpp"] and numbered["python"], numbered
        for target, names in numbered.items():
            assert not names & model_names, (target, names & model_names)
