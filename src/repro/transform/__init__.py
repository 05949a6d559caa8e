"""The UML → code transformation (the paper's Fig. 5 algorithm).

Pipeline: :func:`~repro.transform.algorithm.build_ir` runs the collection
pass (lines 1-8) and reconstructs structured control flow per diagram;
backends then render the IR:

* :mod:`repro.transform.walker` — the one walk over the region trees
  that the text emitters below and the program skeleton share;
* :mod:`repro.transform.cpp` — the C++ text of Fig. 8 (the PMP handed to
  the Performance Estimator in the paper's architecture);
* :mod:`repro.transform.python` — an executable Python module targeting
  the simulation runtime (this reproduction's evaluable backend);
* :mod:`repro.transform.interp` — direct tree interpretation, the slow
  baseline that motivates transformation in the first place.

The names below load on first use, so a backend that imports the IR
loads no emitter it does not run.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.transform.algorithm": ("ModelIR", "build_ir"),
    "repro.transform.collect": ("collect_performance_elements",),
    "repro.transform.cpp.emitter": ("transform_to_cpp",),
    "repro.transform.python.emitter": ("transform_to_python",),
})
