"""The region walker behind the C++, Python and skeleton emitters."""

import pytest

from repro.appgen.skeleton import generate_skeleton
from repro.errors import TransformError
from repro.transform.cpp.emitter import transform_to_cpp
from repro.transform.python.emitter import transform_to_python
from repro.uml.builder import ModelBuilder

EMITTERS = {"cpp": transform_to_cpp, "python": transform_to_python,
            "skeleton": generate_skeleton}


def recursive_model():
    """A ``loop+`` runs diagram ``Sub``, which invokes ``Sub`` again
    through the ``activity+`` node ``Again``."""
    builder = ModelBuilder("Recursive")
    sub = builder.diagram("Sub")
    sub.sequence(sub.action("Work", cost="0.25"), sub.activity("Again", "Sub"))
    main = builder.diagram("Main", main=True)
    main.sequence(main.loop("Rep", "Sub", iterations="2"))
    return builder.build()


@pytest.mark.parametrize("target", sorted(EMITTERS))
def test_recursive_invocation_names_diagram_and_node(target):
    with pytest.raises(TransformError, match="recursive diagram invocation "
                                             "of 'Sub' via 'Again'"):
        EMITTERS[target](recursive_model())
