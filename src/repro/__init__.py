"""Performance Prophet reproduction.

A reproduction of *Automatic Performance Model Transformation from UML to
C++* (Pllana, Benkner, Xhafa, Barolli — ICPP Workshops 2008): UML-based
performance models of parallel/distributed programs, a model checker, the
automatic transformation of models to a machine-efficient representation
(C++ text and executable Python), and a CSIM-style simulation estimator
with machine models, traces, and visualization.

Entry points:

* :class:`repro.prophet.PerformanceProphet` — the tool facade;
* :class:`repro.uml.builder.ModelBuilder` — build models in code;
* :func:`repro.estimator.estimate` — one-shot evaluation;
* :mod:`repro.samples` — the paper's sample and kernel-6 models;
* :mod:`repro.sweep` — batch what-if experiments with result caching.

The names below load on first use, so importing one subpackage loads
only what it needs.
"""

from repro.util.lazy import lazy_exports

__version__ = "1.1.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.prophet": ("PerformanceProphet",),
    "repro.uml.builder": ("ModelBuilder",),
    "repro.machine.params": ("SystemParameters",),
    "repro.machine.network": ("NetworkConfig",),
    "repro.estimator.manager": ("estimate",),
    "repro.sweep": ("SweepSpec", "make_spec", "run_sweep", "ResultCache"),
    "repro.errors": ("ProphetError",),
})
__all__.append("__version__")
