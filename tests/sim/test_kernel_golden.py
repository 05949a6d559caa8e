"""The kernel against its golden outputs (``kernel_golden.json``).

The fixture was generated by ``kernel_golden.py`` next to this file and
is the contract for any change to the simulation kernel, the workload
operations or the network: every point must reproduce its predicted
time (by ``repr``), event count, trace length, per-kind trace counts
and trace digest, and every failing point its error string.
"""

import json

import pytest

from tests.sim.kernel_golden import (FIXTURE, P2P_MODELS, contended_link,
                                     points, run_points)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def outcomes():
    return run_points()


def test_fixture_covers_every_point(golden):
    assert sorted(golden["points"]) == sorted(key for key, *_ in points())


def test_corpus_has_failures_contention_and_both_send_modes(golden):
    """The corpus keeps the cases a kernel change could get wrong."""
    entries = golden["points"]
    assert sum("error" in entry for entry in entries.values()) >= 20
    contended = [key for key in entries if key.endswith("link=1")]
    assert len(contended) == len(P2P_MODELS) * 3 * 2
    assert any("eager=0" in key and "error" not in entries[key]
               for key in contended)


@pytest.mark.parametrize("name", sorted({point[1] for point in points()}))
def test_points_match_the_fixture(golden, outcomes, name):
    keys = [key for key, model, *_ in points() if model == name]
    mismatched = {key: (outcomes[key], golden["points"][key])
                  for key in keys
                  if outcomes[key] != golden["points"][key]}
    assert not mismatched, next(iter(mismatched.items()))


def test_contended_link_matches_the_fixture(golden):
    """Two eager messages queue on one link, a rendezvous pull behind
    them: delivery times and the link's statistics are pinned."""
    expected = golden["contended_link"]
    assert expected["deliveries"] == {"0->2": "0.0015", "1->3": "0.0033",
                                      "4->5": "0.0083"}
    assert contended_link() == expected
