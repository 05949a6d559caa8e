"""The text emitters against their golden outputs (``emitter_golden.json``).

The fixture was generated by ``emitter_golden.py`` next to this file
and is the contract for any change to the C++, Python or skeleton
emitter or to the IR they read: every pinned model must emit the same
text, byte for byte, and every digest-pinned model the same sha256 and
line count.
"""

import json

import pytest

from tests.transform.emitter_golden import (FIXTURE, TARGETS, digest,
                                            digest_models, emit,
                                            full_models)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_corpus(golden):
    assert list(golden["full"]) == sorted(full_models())
    assert sorted(golden["digests"]) == sorted(digest_models())
    assert len(golden["digests"]) >= 60


def test_every_kind_model_emits_every_runtime_shape(golden):
    """The hand-built model reaches what the rest of the corpus
    never emits."""
    cpp = golden["full"]["every-kind"]["cpp"]
    for text in ("CriticalSection ", "MpiScatter ", "MpiGather ",
                 "MpiReduce ", "PROPHET_PARALLEL(", "while (true)",
                 "non-performance element 'Plain' elided"):
        assert text in cpp, text


@pytest.mark.parametrize("name", sorted(full_models()))
def test_full_text_matches(golden, name):
    emitted = emit(full_models()[name]())
    for target in TARGETS:
        assert emitted[target] == golden["full"][name][target], target


def test_digests_match(golden):
    builders = digest_models()
    mismatched = {}
    for name, build in builders.items():
        emitted = {target: digest(text)
                   for target, text in emit(build()).items()}
        if emitted != golden["digests"][name]:
            mismatched[name] = emitted
    assert not mismatched, sorted(mismatched)
