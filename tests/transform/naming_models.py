"""Models whose names could break the generated code.

Valid models (``ModelChecker.assert_valid`` accepts each) whose text the
emitters must not turn into code, and whose element names must not
collide with the names the generated code binds.
"""

from __future__ import annotations

from pathlib import Path

from repro.uml.activities import ActionNode
from repro.uml.builder import ModelBuilder


def payload(marker: Path) -> str:
    """A Python statement that creates ``marker``, ending in a comment
    so whatever text follows it on its line is ignored."""
    return f"__import__('pathlib').Path({str(marker)!r}).touch()  #"


def named_payload_model(marker: Path):
    """A model whose name is a line break and a statement: written raw
    into the generated module's header comment, the statement runs."""
    builder = ModelBuilder(f"Q\n{payload(marker)}")
    builder.global_var("n", "int", "2")
    main = builder.diagram("Main", main=True)
    main.sequence(main.action("Work", cost="0.001 * n"))
    return builder.build()


def hostile_model(marker: Path):
    """Line breaks, carriage returns, quotes, backslashes (one trailing)
    and statement payloads in the model, diagram, element, fork,
    loop-header, ``lock`` and ``op`` strings."""
    text = payload(marker)
    builder = ModelBuilder(f"Q\n{text}")
    builder.global_var("n", "int", "2")
    builder.cost_function("F", "0.001 * n")
    loop = builder.diagram(f'Body "x" \\\n    {text}')
    loop.sequence(loop.action('say """hi"""', cost="F()"))
    main = builder.diagram(f"Main\n    {text}", main=True)
    quoted = main.action('say "hi"', cost="F()", code="n = n + 1;")
    slashed = main.action("back\\slash", time=0.5)
    trailing = main.action("trail\\", cost="F()", code="n = n + 1;")
    locked = main.critical("cr\rlf", lock=f'lk"\\\n{text}', cost="F()")
    reduced = main.reduce("Red\\", size="n", op=f'max"\\\n{text}')
    repeated = main.loop(f"Rep\\\n    {text}", f'Body "x" \\\n    {text}',
                         iterations="2")
    fork, join = main.fork(f"fk\n    {text}"), main.join("jn\\")
    first = main.action(f"E\n    {text}", cost="F()", code="n = n + 1;")
    second = main.action("x2\\", time=0.1)
    head, test = main.merge(f"hd\\\n    {text}"), main.decision("t")
    step = main.action(f"Step\n{text}", cost="F()", code="n = n + 1;")
    initial, final = main.initial(), main.final()
    main.chain(initial, quoted, slashed, trailing, locked, reduced,
               repeated, fork)
    main.branch(fork, join, (None, [first]), (None, [second]))
    main.chain(join, head, test)
    main.flow(test, step, guard="n < 8")
    main.flow(step, head)
    main.flow(test, final, guard="else")
    return builder.build()


def _one_action(action_name: str, *, global_name: str = "N",
                local_name: str | None = None):
    builder = ModelBuilder("Clash")
    builder.global_var(global_name, "int", "3")
    cost = f"0.25 * {global_name}"
    if local_name is not None:
        builder.local_var(local_name, "double", "0.5")
        cost = f"{local_name} * {global_name}"
    main = builder.diagram("Main", main=True)
    plain = main.diagram.add_node(ActionNode(builder.next_id(), "Plain"))
    main.sequence(main.action(action_name, cost=cost), plain,
                  main.action("After", cost=cost))
    return builder.build()


def _loop_and_action(action_name: str, *, inside: bool):
    """A ``loop+`` node, with an action named ``action_name`` in its body
    (``inside``) or after it."""
    builder = ModelBuilder("Clash")
    builder.global_var("N", "int", "3")
    body = builder.diagram("Body")
    main = builder.diagram("Main", main=True)
    in_body = [body.action("Work", cost="0.25")]
    after = []
    if inside:
        in_body.append(body.action(action_name, cost="0.25 * N"))
    else:
        after.append(main.action(action_name, cost="0.25 * N"))
    body.sequence(*in_body)
    main.sequence(main.loop("Rep", "Body", iterations="N"), *after)
    return builder.build()


def twin_regions_model():
    """Two ``parallel+`` nodes named ``Crew`` in one diagram; their body
    runs an action that is also named ``Crew``."""
    builder = ModelBuilder("Twins")
    team = builder.diagram("Team")
    team.sequence(team.action("Crew", cost="0.001 * (tid + 1)"))
    main = builder.diagram("Main", main=True)
    main.sequence(main.parallel("Crew", "Team", num_threads="2"),
                  main.parallel("Crew", "Team", num_threads="2"))
    return builder.build()


def _loop_reads(variable: str, *, local: bool):
    """A local or global ``variable`` of 5, read by the body of a
    ``loop+`` of 2 iterations and by an action after the loop."""
    builder = ModelBuilder("Clash")
    declare = builder.local_var if local else builder.global_var
    declare(variable, "int", "5")
    body = builder.diagram("Body")
    body.sequence(body.action("Work", cost=f"0.25 * {variable}"))
    main = builder.diagram("Main", main=True)
    main.sequence(main.loop("Rep", "Body", iterations="2"),
                  main.action("After", cost=f"1.0 * {variable}"))
    return builder.build()


#: Valid models with a name the generated code also binds: an action's
#: instance name is the ``pid`` intrinsic, the process store ``v``, the
#: runtime context ``ctx``, a model local, or the first loop index of
#: the Python (``_i1``, bound after the loop) or C++ (``i1_``, in the
#: loop's scope) code; or a model local is the Python loop index ``_i1``
#: and a global the C++ one, ``i1_``.
CLASH_MODELS = {
    "pid": lambda: _one_action("Pid"),
    "v": lambda: _one_action("V"),
    "ctx": lambda: _one_action("Ctx"),
    "local": lambda: _one_action("T", local_name="t"),
    "loop-index": lambda: _loop_and_action("_i1", inside=False),
    "cpp-loop-index": lambda: _loop_and_action("I1_", inside=True),
    "local-loop-index": lambda: _loop_reads("_i1", local=True),
    "global-cpp-loop-index": lambda: _loop_reads("i1_", local=False),
}
