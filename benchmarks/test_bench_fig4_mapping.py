"""FIG4 bench: the single-element UML → C++ mapping.

Fig. 4 maps one ``<<action+>>`` (Kernel6) to an ``ActionPlus``
declaration and execute call.  The bench measures the per-element
transformation cost, which bounds how model size scales (see FIG5).
"""

from repro.samples import build_kernel6_model
from repro.transform.algorithm import build_ir
from repro.transform.cpp.emitter import transform_to_cpp


def test_fig4_single_element_transform(benchmark):
    model = build_kernel6_model()
    artifacts = benchmark(transform_to_cpp, model)
    assert 'ActionPlus kernel6("Kernel6"' in artifacts.source
    assert "kernel6.execute(uid, pid, tid, FK6());" in artifacts.source


def test_fig4_ir_construction(benchmark):
    model = build_kernel6_model()
    ir = benchmark(build_ir, model)
    assert len(ir.actions) == 1


def test_fig4_emission_only(benchmark):
    """Emission with the IR prebuilt (separates analysis from printing)."""
    ir = build_ir(build_kernel6_model())
    artifacts = benchmark(transform_to_cpp, ir)
    assert artifacts.entry_point == "pmp_kernel6Model"
