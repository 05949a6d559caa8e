"""The text emitters' golden outputs: the corpus and the writer.

``tests/transform/emitter_golden.json`` pins what the three text
emitters write — the C++ source (:func:`transform_to_cpp`), the Python
source (:func:`transform_to_python`) and the program skeleton
(:func:`generate_skeleton`):

* in full, for the built-in models and :func:`every_kind_model`, a
  hand-built model that uses every action kind and region shape;
* as a sha256 digest and a line count per source, for a
  ``random_models`` corpus (30 seeds with the default config, 30 with
  forks and collectives), whose full text would be about 0.9 MB.

``tests/transform/test_emitter_golden.py`` checks the current emitters
against the fixture.  Regenerating it is a deliberate act, never part
of a test run: an emitter refactor must keep every byte, so regenerate
only when a change is meant to move the text, and say why in the
commit::

    PYTHONPATH=src python tests/transform/emitter_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FIXTURE = Path(__file__).with_name("emitter_golden.json")

RANDOM_SEEDS = range(30)
TARGETS = ("cpp", "python", "skeleton")


def every_kind_model():
    """One model with every action kind and every region shape.

    ``action+`` with a cost function, with only a ``time`` tag and with
    neither; ``critical+`` with a lock; ``send+``/``recv+`` with tags;
    ``barrier+``; ``bcast+``/``scatter+``/``gather+`` with roots;
    ``reduce+``/``allreduce+`` with a non-default ``op``; a
    stereotype-less action; code fragments; a local they read;
    ``activity+``, ``loop+`` and ``parallel+``; a fork/join; a branch
    with ``else``; and a drawn while-loop.  Valid, deadlock-free at any
    process count, and free of name clashes with the generated code.
    """
    from repro.uml.activities import ActionNode
    from repro.uml.builder import ModelBuilder

    builder = ModelBuilder("EveryKind")
    builder.global_var("n", "int", "4")
    builder.global_var("w", "double", "0.5")
    builder.global_var("k", "int", "0")
    builder.local_var("m", "int", "2")
    builder.cost_function("FW", "w * q + 0.001", "double q")

    sub = builder.diagram("Sub")
    sub.sequence(sub.action("SubWork", cost="FW(n)",
                            code="w = w + 0.5;"))
    body = builder.diagram("Body")
    body.sequence(body.action("BodyWork", time=0.1))
    team = builder.diagram("Team")
    team.sequence(team.action("TeamWork", cost="FW(tid + 1)"),
                  team.critical("TeamLock", lock="team", cost="w"))

    main = builder.diagram("Main", main=True)
    plain = main.diagram.add_node(ActionNode(builder.next_id(), "Plain"))
    head = [
        main.action("Setup", cost="FW(m)", code="k = m - 2;"),
        main.action("Timed", time=0.25),
        main.action("Idle"),
        plain,
    ]
    role = main.decision("role")
    joined = main.merge("joined")
    ping = main.send("Ping", dest="(pid + 1) % size", size="8 * n", tag=3)
    pong = main.recv("Pong", source="(pid + size - 1) % size",
                     size="8 * n", tag=3)
    solo = main.action("Solo", cost="FW(1)")
    middle = [
        main.barrier("Fence"),
        main.bcast("Bc", root="0", size="n"),
        main.scatter("Sc", root="size - 1", size="2 * n"),
        main.gather("Ga", root="0", size="n"),
        main.reduce("Red", root="0", size="n", op="max"),
        main.allreduce("Allred", size="n", op="min"),
        main.critical("Guard", lock="mtx", cost="FW(2)"),
        main.activity("Inner", "Sub"),
        main.loop("Rep", "Body", iterations="m + 1"),
        main.parallel("Crew", "Team", num_threads="2"),
    ]
    fork, join = main.fork("split"), main.join("rejoin")
    arm_a = main.action("ArmA", cost="FW(tid + 1)")
    arm_b = main.critical("ArmB", lock="mtx", time=0.125)
    loop_head, loop_test = main.merge("head"), main.decision("test")
    step = main.action("Step", cost="FW(k)", code="k = k + 1;")

    initial, final = main.initial(), main.final()
    main.chain(initial, *head, role)
    main.branch(role, joined, ("size > 1", [ping, pong]),
                ("else", [solo]))
    main.chain(joined, *middle, fork)
    main.branch(fork, join, (None, [arm_a]), (None, [arm_b]))
    main.chain(join, loop_head, loop_test)
    main.flow(loop_test, step, guard="k < 3")
    main.flow(step, loop_head)
    main.flow(loop_test, final, guard="else")
    return builder.build()


def full_models() -> dict:
    """name → builder of every model pinned in full, in a fixed order."""
    from repro.service.registry import builtin_model_builders

    builders = dict(sorted(builtin_model_builders().items()))
    builders["every-kind"] = every_kind_model
    return builders


def digest_models() -> dict:
    """name → builder of every model pinned by digest."""
    from repro.uml.random_models import RandomModelConfig, random_model

    forked = RandomModelConfig(p_fork=0.2, p_collective=0.3)
    builders = {}
    for label, config in (("default", None), ("forked", forked)):
        for seed in RANDOM_SEEDS:
            builders[f"random:{label}:{seed}"] = (
                lambda seed=seed, config=config: random_model(seed, config))
    return builders


def emit(model) -> dict[str, str]:
    """target → emitted source, all three from one IR."""
    from repro.appgen.skeleton import generate_skeleton
    from repro.transform.algorithm import build_ir
    from repro.transform.cpp.emitter import transform_to_cpp
    from repro.transform.python.emitter import transform_to_python

    ir = build_ir(model)
    return {"cpp": transform_to_cpp(ir).source,
            "python": transform_to_python(ir).source,
            "skeleton": generate_skeleton(ir).source}


def digest(source: str) -> dict:
    return {"sha256": hashlib.sha256(source.encode()).hexdigest(),
            "lines": source.count("\n")}


def generate() -> dict:
    return {
        "full": {name: emit(build())
                 for name, build in full_models().items()},
        "digests": {name: {target: digest(text)
                           for target, text in emit(build()).items()}
                    for name, build in digest_models().items()},
    }


def main() -> None:
    FIXTURE.write_text(json.dumps(generate(), indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
