"""Direct interpretation of the UML model — the codegen baseline.

The paper's core claim is that the UML representation "is not adequate
for an efficient model evaluation", which is why Performance Prophet
transforms it to C++.  This module is the counterfactual: it evaluates
the model by walking the region tree and evaluating every annotation with
the mini-language tree evaluator on each execution.  Expression ASTs are
parsed once and cached (being maximally unfair to the baseline would
overstate the paper's point) — guards and loop tests through a
per-instance table in front of the parser's shared memo, so the
per-event lookup takes no lock; the remaining gap — tree dispatch and
environment lookups versus generated straight-line Python — is what the
EVAL-A benchmark measures.
"""

from __future__ import annotations

from repro.errors import EstimatorError, TransformError
from repro.lang.ast import Expr, FloatLit, IntLit
from repro.lang.evaluator import Environment, Evaluator, declare_intrinsics
from repro.lang.parser import parse_expression
from repro.transform.algorithm import ActionSpec, ModelIR, as_ir
from repro.transform.flowgraph import (
    BranchRegion,
    CycleRegion,
    ForkRegion,
    LeafRegion,
    Region,
    SequenceRegion,
)
from repro.uml.activities import (
    ActionNode,
    ActivityInvocationNode,
    ActivityNode,
    LoopNode,
    ParallelRegionNode,
)
from repro.uml.model import Model


def _functions_assign_any(functions, names: set[str]) -> bool:
    """Whether any function body assigns one of ``names``.

    Conservative: an ``Assign`` to a matching name counts even if it
    would actually bind a shadowing local/parameter at run time.
    """
    from repro.lang.ast import Assign, walk_stmts
    return any(isinstance(stmt, Assign) and stmt.name in names
               for function in functions
               for stmt in walk_stmts(function.body))


class ModelInterpreter:
    """Interprets a model against the same runtime as generated code."""

    def __init__(self, model: Model | ModelIR) -> None:
        self.ir: ModelIR = as_ir(model)
        self.model = model = self.ir.model
        self.functions = model.function_defs()
        self._expr_cache: dict[str, Expr] = {}
        self._global_names = [variable.name
                              for variable in model.global_variables()]
        # Expressions can only mutate globals through user-defined
        # functions (C visibility); unless some function body assigns a
        # global name, only explicit code fragments need the store
        # write-back after each action.
        self._functions_can_mutate = _functions_assign_any(
            self.functions.values(), set(self._global_names))
        # Static model facts resolved once, not per action execution
        # (same parse-once philosophy as the expression cache above):
        # node id → action plan; stereotype-less nodes have none.
        self._plans = {node_id: self._build_action_plan(spec)
                       for node_id, spec in self.ir.actions.items()}

    # -- caches -----------------------------------------------------------

    def _expr(self, source: str) -> Expr:
        expr = self._expr_cache.get(source)
        if expr is None:
            expr = parse_expression(source)
            self._expr_cache[source] = expr
        return expr

    # -- entry points used by the estimator ---------------------------------

    def init_globals(self, store, c_div, c_mod, builtins) -> None:
        """Populate a process store exactly as generated init_globals."""
        evaluator = Evaluator(self.functions)
        env = Environment()
        for variable in self.model.global_variables():
            value = (evaluator.eval_expr(self._expr(variable.init), env)
                     if variable.init is not None else None)
            env.declare(variable.name, variable.type, value)
            setattr(store, variable.name, env.lookup(variable.name))

    def main(self, ctx):
        """The interpreted equivalent of generated ``pmp_main(ctx)``."""
        yield from ()
        evaluator = Evaluator(self.functions)
        env = self._process_environment(ctx)
        elements = {node_id: ctx.new(spec.class_name, spec.node.name,
                                     node_id)
                    for node_id, spec in self.ir.actions.items()}
        strand_env = self._strand_environment(env, ctx)
        main_region = self.ir.regions[self.model.main_diagram_name]
        yield from self._run_region(main_region, ctx, evaluator,
                                    strand_env, elements)

    # -- environments ----------------------------------------------------------

    def _process_environment(self, ctx) -> Environment:
        env = Environment()
        for variable in self.model.global_variables():
            env.declare(variable.name, variable.type,
                        getattr(ctx.v, variable.name))
        evaluator = Evaluator(self.functions)
        for variable in self.model.local_variables():
            value = (evaluator.eval_expr(self._expr(variable.init), env)
                     if variable.init is not None else None)
            env.declare(variable.name, variable.type, value)
        # Intrinsics at process scope: cost-function *bodies* see these
        # (the generated C++ declares them as thread_local globals, and
        # generated Python closes over pmp_main's bindings, where the
        # main strand has tid 0).  Thread strands shadow uid/tid in their
        # own child scopes for region-level expressions.
        declare_intrinsics(env, ctx.uid, ctx.pid, 0, ctx.size, ctx.nnodes,
                           ctx.nthreads)
        return env

    @staticmethod
    def _strand_environment(process_env: Environment, ctx) -> Environment:
        env = process_env.child()
        declare_intrinsics(env, ctx.uid, ctx.pid, ctx.tid, ctx.size,
                           ctx.nnodes, ctx.nthreads)
        return env

    # -- region interpretation ----------------------------------------------------

    def _run_region(self, region: Region, ctx, evaluator: Evaluator,
                    env: Environment, elements: dict):
        # Exact-class tests ordered by frequency: this dispatch runs for
        # every region of every process of every evaluation, and the
        # isinstance ladder it replaces was a top interpreter cost.
        cls = region.__class__
        if cls is LeafRegion:
            yield from self._run_leaf(region.node, ctx, evaluator, env,
                                      elements)
        elif cls is SequenceRegion:
            for item in region.items:
                yield from self._run_region(item, ctx, evaluator, env,
                                            elements)
        elif isinstance(region, SequenceRegion):
            for item in region.items:
                yield from self._run_region(item, ctx, evaluator, env,
                                            elements)
        elif isinstance(region, LeafRegion):
            yield from self._run_leaf(region.node, ctx, evaluator, env,
                                      elements)
        elif isinstance(region, BranchRegion):
            for guard, arm in region.arms:
                if evaluator.eval_guard(self._expr(guard), env):
                    yield from self._run_region(arm, ctx, evaluator,
                                                env.child(), elements)
                    return
            if region.else_arm is not None:
                yield from self._run_region(region.else_arm, ctx,
                                            evaluator, env.child(),
                                            elements)
        elif isinstance(region, CycleRegion):
            while True:
                yield from self._run_region(region.pre, ctx, evaluator,
                                            env, elements)
                if region.break_condition is not None:
                    should_break = evaluator.eval_guard(
                        self._expr(region.break_condition), env)
                else:
                    should_break = not evaluator.eval_guard(
                        self._expr(region.negated_stay_guard), env)
                if should_break:
                    break
                yield from self._run_region(region.post, ctx, evaluator,
                                            env, elements)
        elif isinstance(region, ForkRegion):
            arms = [self._arm_body(arm, evaluator, env, elements)
                    for arm in region.arms]
            yield from ctx.fork_join(region.fork.name, region.fork.id,
                                     arms)
        else:  # pragma: no cover - defensive
            raise TransformError(
                f"unknown region type {type(region).__name__}")

    def _arm_body(self, region: Region, evaluator: Evaluator,
                  env: Environment, elements: dict):
        def body(ctx, uid, pid, tid):
            yield from ()
            strand_env = self._strand_environment(env, ctx)
            yield from self._run_region(region, ctx, evaluator,
                                        strand_env, elements)
        return body

    def _run_leaf(self, node: ActivityNode, ctx, evaluator: Evaluator,
                  env: Environment, elements: dict):
        if node.__class__ is ActionNode:  # by far the most common leaf
            yield from self._run_action(node, ctx, evaluator, env,
                                        elements)
            return
        if isinstance(node, ActivityInvocationNode):
            yield from self._run_region(self.ir.regions[node.behavior],
                                        ctx, evaluator, env, elements)
            return
        if isinstance(node, LoopNode):
            iterations = int(evaluator.eval_expr(
                self._expr(node.iterations), env))
            body_region = self.ir.regions[node.behavior]
            for _ in range(iterations):
                yield from self._run_region(body_region, ctx, evaluator,
                                            env, elements)
            return
        if isinstance(node, ParallelRegionNode):
            num_threads = int(evaluator.eval_expr(
                self._expr(node.num_threads), env))
            body_region = self.ir.regions[node.behavior]

            def body(tctx, uid, pid, tid):
                yield from ()
                strand_env = self._strand_environment(env, tctx)
                yield from self._run_region(body_region, tctx, evaluator,
                                            strand_env, elements)

            yield from ctx.parallel_region(node.name, node.id,
                                           num_threads, body)
            return
        if isinstance(node, ActionNode):
            yield from self._run_action(node, ctx, evaluator, env,
                                        elements)
            return
        raise EstimatorError(
            f"interpreter cannot execute node class "
            f"{type(node).__name__} ({node.name!r})")

    # -- action plans --------------------------------------------------------

    def _build_action_plan(self, spec: ActionSpec) -> tuple:
        """Resolve everything static about an action once.

        The plan is ``(kind, program, sync, args...)``: ``program`` is
        the parsed code fragment (or None), ``sync`` says whether
        executing the action can mutate globals (code fragment present,
        or user functions that assign one), and each expression argument
        is ``(True, value)`` for a literal (folded once) or
        ``(False, Expr)``; a missing cost is the literal ``0.0``.
        """
        args = []
        for arg in spec.args:
            if arg is None:
                arg = (True, 0.0)
            elif isinstance(arg, Expr):
                arg = ((True, arg.value)
                       if arg.__class__ in (IntLit, FloatLit)
                       else (False, arg))
            args.append(arg)
        sync = spec.program is not None or self._functions_can_mutate
        return (spec.kind, spec.program, sync, *args)

    def _run_action(self, node: ActionNode, ctx, evaluator: Evaluator,
                    env: Environment, elements: dict):
        plan = self._plans.get(node.id)
        if plan is None:
            return
        kind, program, sync = plan[0], plan[1], plan[2]
        if program is not None:
            evaluator.run_program(program, env)
        element = elements[node.id]
        uid, pid, tid = ctx.uid, ctx.pid, ctx.tid
        eval_expr = evaluator.eval_expr

        if kind == "action":
            (cost_const, cost), = plan[3:]
            yield from element.execute(
                uid, pid, tid,
                float(cost if cost_const else eval_expr(cost, env)))
        elif kind == "send" or kind == "recv":
            (peer_const, peer), (size_const, size), tag = plan[3:]
            yield from element.execute(
                uid, pid, tid,
                peer if peer_const else eval_expr(peer, env),
                size if size_const else eval_expr(size, env),
                tag)
        elif kind == "barrier":
            yield from element.execute(uid, pid, tid)
        elif kind == "bcast" or kind == "scatter" or kind == "gather":
            (root_const, root), (size_const, size) = plan[3:]
            yield from element.execute(
                uid, pid, tid,
                root if root_const else eval_expr(root, env),
                size if size_const else eval_expr(size, env))
        elif kind == "reduce":
            (root_const, root), (size_const, size), op = plan[3:]
            yield from element.execute(
                uid, pid, tid,
                root if root_const else eval_expr(root, env),
                size if size_const else eval_expr(size, env),
                op)
        elif kind == "allreduce":
            (size_const, size), op = plan[3:]
            yield from element.execute(
                uid, pid, tid,
                size if size_const else eval_expr(size, env),
                op)
        else:  # critical
            (cost_const, cost), lock = plan[3:]
            yield from element.execute(
                uid, pid, tid,
                float(cost if cost_const else eval_expr(cost, env)),
                lock)
        # Write any global mutations back to the shared store so
        # codegen/interp stay observationally equal.  Only a code
        # fragment — or a user function reachable from any annotation
        # expression — can mutate globals; plain annotation expressions
        # cannot, so the common case skips the write-back loop.
        if sync:
            self._sync_store(ctx, env)

    def _sync_store(self, ctx, env: Environment) -> None:
        store = ctx.v
        lookup = env.lookup
        for name in self._global_names:
            setattr(store, name, lookup(name))
