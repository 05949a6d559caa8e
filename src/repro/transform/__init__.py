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
"""

from repro.transform.algorithm import ModelIR, build_ir
from repro.transform.collect import collect_performance_elements
from repro.transform.cpp.emitter import transform_to_cpp
from repro.transform.python.emitter import transform_to_python

__all__ = [
    "ModelIR", "build_ir", "collect_performance_elements",
    "transform_to_cpp", "transform_to_python",
]
