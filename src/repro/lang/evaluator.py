"""Tree-walking evaluator for the mini-language.

The evaluator executes guards, code fragments, and cost functions during
model checking, direct model interpretation, and simulation.  It enforces
C semantics for integer division/modulo (truncation toward zero) and caps
total work with a step budget so a model with a runaway ``while`` cannot
hang the estimator — the budget overflow surfaces as :class:`EvalError`.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from repro.errors import EvalError, NameResolutionError
from repro.lang.ast import (
    Assign,
    Binary,
    BoolLit,
    Call,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    FunctionDef,
    If,
    IntLit,
    Name,
    Return,
    Stmt,
    StringLit,
    Ternary,
    Unary,
    VarDecl,
    While,
)
from repro.lang.builtins import BUILTINS
from repro.lang.types import Type, coerce, default_value

#: Default evaluator step budget; each statement/expression node costs one.
DEFAULT_STEP_BUDGET = 5_000_000

#: Recursion limit for user-defined function calls.  Kept well below
#: Python's own recursion limit: each mini-language frame costs several
#: interpreter frames, and the cap must fire before Python's does.
MAX_CALL_DEPTH = 60


def c_div(left, right):
    """C-style division: integer operands truncate toward zero."""
    if right == 0:
        raise EvalError("division by zero")
    if isinstance(left, bool) or isinstance(right, bool):
        left, right = int(left), int(right)
    if isinstance(left, int) and isinstance(right, int):
        quotient = abs(left) // abs(right)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    return left / right


def c_mod(left, right):
    """C-style modulo: result carries the sign of the dividend."""
    if right == 0:
        raise EvalError("modulo by zero")
    if isinstance(left, int) and isinstance(right, int) \
            and not isinstance(left, bool) and not isinstance(right, bool):
        return left - c_div(left, right) * right
    return math.fmod(left, right)


#: The process intrinsics every annotation may read: the execute()
#: parameters of the paper (uid, pid, tid) plus the process count
#: (``size``, the MPI communicator size), node count and thread count
#: the machine model provides.  All are ints.
INTRINSICS = ("uid", "pid", "tid", "size", "nnodes", "nthreads")


def declare_intrinsics(env, *values) -> None:
    """Declare :data:`INTRINSICS` into ``env`` (anything with
    ``.declare(name, type, value)``), ``values`` in that order."""
    for name, value in zip(INTRINSICS, values, strict=True):
        env.declare(name, Type.INT, value)


class Environment:
    """A chain of variable scopes.

    The bottom scope holds model globals (per simulated process); each
    function call and control-flow body pushes a child scope.  Assignment
    writes to the scope where the name is bound, matching C.
    """

    __slots__ = ("_vars", "_types", "parent")

    def __init__(self, parent: "Environment | None" = None) -> None:
        self._vars: dict[str, Any] = {}
        self._types: dict[str, Type] = {}
        self.parent = parent

    def child(self) -> "Environment":
        return Environment(self)

    def declare(self, name: str, type_: Type, value=None) -> None:
        if name in self._vars:
            raise EvalError(f"redeclaration of variable {name!r}")
        if value is None:
            value = default_value(type_)
        else:
            value = coerce(value, type_)
        self._vars[name] = value
        self._types[name] = type_

    def lookup(self, name: str):
        env: Environment | None = self
        while env is not None:
            if name in env._vars:
                return env._vars[name]
            env = env.parent
        raise NameResolutionError(f"undeclared variable {name!r}")

    def assign(self, name: str, value) -> None:
        env: Environment | None = self
        while env is not None:
            if name in env._vars:
                declared = env._types.get(name)
                if declared is not None:
                    try:
                        value = coerce(value, declared)
                    except ValueError as exc:
                        raise EvalError(
                            f"cannot assign to {name!r}: {exc}") from exc
                env._vars[name] = value
                return
            env = env.parent
        raise NameResolutionError(f"assignment to undeclared variable {name!r}")

    def is_declared(self, name: str) -> bool:
        env: Environment | None = self
        while env is not None:
            if name in env._vars:
                return True
            env = env.parent
        return False

    def declared_type(self, name: str) -> Type | None:
        env: Environment | None = self
        while env is not None:
            if name in env._types:
                return env._types[name]
            env = env.parent
        return None

    def flat_dict(self) -> dict[str, Any]:
        """All visible bindings, innermost shadowing outermost."""
        chain: list[Environment] = []
        env: Environment | None = self
        while env is not None:
            chain.append(env)
            env = env.parent
        merged: dict[str, Any] = {}
        for scope in reversed(chain):
            merged.update(scope._vars)
        return merged


class _ReturnSignal(Exception):
    """Internal control-flow signal carrying a return value."""

    def __init__(self, value) -> None:
        self.value = value
        super().__init__()


class Evaluator:
    """Evaluates expressions and statement lists against an environment.

    ``functions`` maps names to :class:`FunctionDef`; builtins are always
    available unless shadowed by a user function of the same name.
    """

    def __init__(self, functions: Mapping[str, FunctionDef] | None = None,
                 step_budget: int = DEFAULT_STEP_BUDGET) -> None:
        self.functions = dict(functions or {})
        self._budget = step_budget
        self._steps = 0
        self._depth = 0

    @property
    def steps_used(self) -> int:
        return self._steps

    def reset_budget(self) -> None:
        self._steps = 0

    # -- expressions ----------------------------------------------------

    def eval_expr(self, expr: Expr, env: Environment):
        # Hot path: exact-class dispatch through a table (the isinstance
        # ladder this replaces was the interpreter's top cost), with the
        # step-budget tick inlined.
        self._steps += 1
        if self._steps > self._budget:
            raise EvalError(
                "evaluation step budget exhausted (possible runaway loop)",
                getattr(expr, "line", None), None)
        handler = _EXPR_DISPATCH.get(expr.__class__)
        if handler is not None:
            return handler(self, expr, env)
        return self._eval_expr_slow(expr, env)

    def _eval_expr_slow(self, expr: Expr, env: Environment):
        """Subclass fallback for the dispatch table."""
        if isinstance(expr, (IntLit, FloatLit, BoolLit, StringLit)):
            return expr.value
        if isinstance(expr, Name):
            return env.lookup(expr.ident)
        if isinstance(expr, Unary):
            return self._eval_unary(expr, env)
        if isinstance(expr, Binary):
            return self._eval_binary(expr, env)
        if isinstance(expr, Ternary):
            return self._eval_ternary(expr, env)
        if isinstance(expr, Call):
            return self._eval_call(expr, env)
        raise EvalError(f"cannot evaluate expression node {type(expr).__name__}")

    def _eval_ternary(self, expr: Ternary, env: Environment):
        cond = self.eval_expr(expr.cond, env)
        branch = expr.then if cond else expr.other
        return self.eval_expr(branch, env)

    def _eval_unary(self, expr: Unary, env: Environment):
        value = self.eval_expr(expr.operand, env)
        if expr.op == "-":
            return -value
        if expr.op == "+":
            return +value
        if expr.op == "!":
            return not value
        raise EvalError(f"unknown unary operator {expr.op!r}", expr.line)

    def _eval_binary(self, expr: Binary, env: Environment):
        op = expr.op
        if op == "&&":
            return bool(self.eval_expr(expr.left, env)) and \
                bool(self.eval_expr(expr.right, env))
        if op == "||":
            return bool(self.eval_expr(expr.left, env)) or \
                bool(self.eval_expr(expr.right, env))
        left = self.eval_expr(expr.left, env)
        right = self.eval_expr(expr.right, env)
        try:
            if op == "+":
                if isinstance(left, str) or isinstance(right, str):
                    if not (isinstance(left, str) and isinstance(right, str)):
                        raise EvalError("cannot add string and non-string",
                                        expr.line)
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                return c_div(left, right)
            if op == "%":
                return c_mod(left, right)
            if op == "==":
                return left == right
            if op == "!=":
                return left != right
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
        except TypeError as exc:
            raise EvalError(f"bad operands for {op!r}: {exc}", expr.line) from exc
        raise EvalError(f"unknown binary operator {op!r}", expr.line)

    def _eval_call(self, expr: Call, env: Environment):
        function = self.functions.get(expr.func)
        if function is not None:
            args = [self.eval_expr(arg, env) for arg in expr.args]
            return self.call_function(function, args, env)
        builtin = BUILTINS.get(expr.func)
        if builtin is not None:
            args = [self.eval_expr(arg, env) for arg in expr.args]
            return builtin(*args)
        raise NameResolutionError(f"call to undefined function {expr.func!r}",
                                  expr.line)

    def call_function(self, function: FunctionDef, args, env: Environment):
        """Invoke a user-defined function.

        The function body sees the *global* (bottom-most) scope plus its own
        parameters — C visibility, not lexical closure over the call site.
        """
        if len(args) != function.arity:
            raise EvalError(
                f"function {function.name}() takes {function.arity} "
                f"argument(s), got {len(args)}")
        if self._depth >= MAX_CALL_DEPTH:
            raise EvalError(
                f"call depth limit exceeded in {function.name}() "
                "(runaway recursion)")
        bottom = env
        while bottom.parent is not None:
            bottom = bottom.parent
        frame = bottom.child()
        for param, arg in zip(function.params, args):
            try:
                frame.declare(param.name, param.type, arg)
            except ValueError as exc:
                raise EvalError(
                    f"argument {param.name!r} of {function.name}(): {exc}"
                ) from exc
        self._depth += 1
        try:
            self.exec_stmts(function.body, frame)
        except _ReturnSignal as signal:
            return signal.value
        finally:
            self._depth -= 1
        if function.return_type is Type.VOID:
            return None
        raise EvalError(
            f"function {function.name}() finished without returning a value")

    # -- statements -------------------------------------------------------

    def exec_stmts(self, stmts, env: Environment) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt: Stmt, env: Environment) -> None:
        self._steps += 1
        if self._steps > self._budget:
            raise EvalError(
                "evaluation step budget exhausted (possible runaway loop)",
                getattr(stmt, "line", None), None)
        if isinstance(stmt, VarDecl):
            value = (self.eval_expr(stmt.init, env)
                     if stmt.init is not None else None)
            try:
                env.declare(stmt.name, stmt.type, value)
            except ValueError as exc:
                raise EvalError(
                    f"cannot initialize {stmt.name!r}: {exc}", stmt.line
                ) from exc
        elif isinstance(stmt, Assign):
            value = self.eval_expr(stmt.value, env)
            if stmt.op:
                current = env.lookup(stmt.name)
                if stmt.op == "+":
                    value = current + value
                elif stmt.op == "-":
                    value = current - value
                elif stmt.op == "*":
                    value = current * value
                elif stmt.op == "/":
                    value = c_div(current, value)
                else:
                    raise EvalError(f"unknown compound assignment {stmt.op!r}=",
                                    stmt.line)
            env.assign(stmt.name, value)
        elif isinstance(stmt, ExprStmt):
            self.eval_expr(stmt.expr, env)
        elif isinstance(stmt, If):
            if self.eval_expr(stmt.cond, env):
                self.exec_stmts(stmt.then_body, env.child())
            else:
                self.exec_stmts(stmt.else_body, env.child())
        elif isinstance(stmt, While):
            while self.eval_expr(stmt.cond, env):
                self.exec_stmts(stmt.body, env.child())
        elif isinstance(stmt, For):
            scope = env.child()
            if stmt.init is not None:
                self.exec_stmt(stmt.init, scope)
            while stmt.cond is None or self.eval_expr(stmt.cond, scope):
                self.exec_stmts(stmt.body, scope.child())
                if stmt.step is not None:
                    self.exec_stmt(stmt.step, scope)
        elif isinstance(stmt, Return):
            value = (self.eval_expr(stmt.value, env)
                     if stmt.value is not None else None)
            raise _ReturnSignal(value)
        else:
            raise EvalError(f"cannot execute statement node {type(stmt).__name__}")

    # -- convenience -------------------------------------------------------

    def run_program(self, program, env: Environment) -> None:
        """Execute a code fragment; a stray ``return`` is an error here."""
        try:
            self.exec_stmts(program, env)
        except _ReturnSignal:
            raise EvalError("'return' outside a cost function")

    def eval_guard(self, expr: Expr, env: Environment) -> bool:
        """Evaluate a branch guard to a truth value."""
        return bool(self.eval_expr(expr, env))


def _eval_literal(evaluator, expr, env):
    return expr.value


def _eval_name(evaluator, expr, env):
    return env.lookup(expr.ident)


#: Exact-class dispatch for :meth:`Evaluator.eval_expr`; AST subclasses
#: (none exist today) fall back to the isinstance ladder.
_EXPR_DISPATCH = {
    IntLit: _eval_literal,
    FloatLit: _eval_literal,
    BoolLit: _eval_literal,
    StringLit: _eval_literal,
    Name: _eval_name,
    Unary: Evaluator._eval_unary,
    Binary: Evaluator._eval_binary,
    Ternary: Evaluator._eval_ternary,
    Call: Evaluator._eval_call,
}
