"""Python code generation for mini-language ASTs.

The Python backend of the transformation emits executable modules that run
inside the simulation runtime.  C semantics that differ from Python are
routed through runtime helpers: ``/`` becomes ``c_div(a, b)`` and ``%``
becomes ``c_mod(a, b)`` so integer division truncates toward zero exactly
as in the generated C++.
"""

from __future__ import annotations

from collections.abc import Collection

from repro.errors import TransformError
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
from repro.lang.types import Type, default_value
from repro.util.textwriter import CodeWriter

_PY_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "not": 3,
    "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6,
    "unary": 7,
}

#: How mini-language binary ops spell in Python (/, % go through helpers).
_PY_OPS = {
    "||": "or",
    "&&": "and",
    "==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "+": "+", "-": "-", "*": "*",
}

#: Operators Python would chain; their comparison operands need parens.
_COMPARISONS = frozenset({"==", "!=", "<", "<=", ">", ">="})


def py_comment(text: str) -> str:
    """``text`` for a ``#`` comment: printable text as is, anything else
    (a line break or control character could end the comment) as its
    Python literal."""
    return text if text.isprintable() else repr(text)


def expr_to_py(expr: Expr, *, name_prefix: str = "",
               bare: Collection[str] = ()) -> str:
    """Render an expression as Python source.

    ``name_prefix`` rewrites free variable references, e.g. prefix ``v.``
    turns ``GV`` into ``v.GV`` so generated code reads process-local
    variable stores; a name in ``bare`` keeps no prefix.
    """
    return _render(expr, 0, name_prefix, bare)


def _render(expr: Expr, parent_prec: int, prefix: str,
            bare: Collection[str]) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, FloatLit):
        return repr(expr.value)
    if isinstance(expr, BoolLit):
        return "True" if expr.value else "False"
    if isinstance(expr, StringLit):
        return repr(expr.value)
    if isinstance(expr, Name):
        return expr.ident if expr.ident in bare else prefix + expr.ident
    if isinstance(expr, Unary):
        if expr.op == "!":
            inner = _render(expr.operand, _PY_PRECEDENCE["not"], prefix,
                            bare)
            text = f"not {inner}"
            prec = _PY_PRECEDENCE["not"]
        else:
            inner = _render(expr.operand, _PY_PRECEDENCE["unary"], prefix,
                            bare)
            text = f"{expr.op}{inner}"
            if expr.op == "-" and inner.startswith("-"):
                text = f"{expr.op}({inner})"
            prec = _PY_PRECEDENCE["unary"]
        return text if parent_prec <= prec else f"({text})"
    if isinstance(expr, Binary):
        if expr.op == "/":
            left = _render(expr.left, 0, prefix, bare)
            right = _render(expr.right, 0, prefix, bare)
            return f"c_div({left}, {right})"
        if expr.op == "%":
            left = _render(expr.left, 0, prefix, bare)
            right = _render(expr.right, 0, prefix, bare)
            return f"c_mod({left}, {right})"
        op = _PY_OPS[expr.op]
        if op in ("and", "or"):
            # C's && and || yield 0/1; Python's and/or return operand
            # values (1 and 2 == 2).  bool() restores C semantics and is
            # atomic, so no outer parentheses are needed.
            left = _render(expr.left, 0, prefix, bare)
            right = _render(expr.right, 0, prefix, bare)
            return f"bool({left} {op} {right})"
        prec = _PY_PRECEDENCE[op if op in _PY_PRECEDENCE else expr.op]
        # Python chains comparison operators (a == b == c means a == b and
        # b == c), which C does not; parenthesize comparison operands of
        # comparisons by rendering both sides at a higher precedence.
        left_prec = prec + 1 if op in _COMPARISONS else prec
        left = _render(expr.left, left_prec, prefix, bare)
        right = _render(expr.right, prec + 1, prefix, bare)
        text = f"{left} {op} {right}"
        return text if prec >= parent_prec else f"({text})"
    if isinstance(expr, Ternary):
        cond = _render(expr.cond, 0, prefix, bare)
        then = _render(expr.then, 0, prefix, bare)
        other = _render(expr.other, 0, prefix, bare)
        return f"({then} if {cond} else {other})"
    if isinstance(expr, Call):
        args = ", ".join(_render(a, 0, prefix, bare) for a in expr.args)
        if expr.func in BUILTINS:
            return f"_bi[{expr.func!r}]({args})"
        return f"{expr.func}({args})"
    raise TransformError(f"cannot emit Python for {type(expr).__name__}")


def emit_stmt(writer: CodeWriter, stmt: Stmt, *, name_prefix: str = "",
              declared_locals: set[str] | None = None) -> None:
    """Emit one statement into ``writer`` as Python.

    ``declared_locals`` collects names declared by VarDecl so Assign can
    tell process-store writes (``v.X = ...``) from plain local writes.
    """
    locals_ = declared_locals if declared_locals is not None else set()
    prefix = name_prefix

    def target(name: str) -> str:
        if prefix and name not in locals_:
            return f"{prefix}{name}"
        return name

    if isinstance(stmt, VarDecl):
        locals_.add(stmt.name)
        if stmt.init is not None:
            value = _render(stmt.init, 0, prefix, locals_)
        else:
            value = repr(default_value(stmt.type))
        writer.writeln(f"{stmt.name} = {value}")
    elif isinstance(stmt, Assign):
        value = _render(stmt.value, 0, prefix, locals_)
        op = f"{stmt.op}=" if stmt.op else "="
        if stmt.op in ("/",):
            # Compound /= must keep C semantics: rewrite as full assignment.
            writer.writeln(f"{target(stmt.name)} = "
                           f"c_div({target(stmt.name)}, {value})")
        else:
            writer.writeln(f"{target(stmt.name)} {op} {value}")
    elif isinstance(stmt, ExprStmt):
        writer.writeln(_render(stmt.expr, 0, prefix, locals_))
    elif isinstance(stmt, If):
        writer.writeln(f"if {_render(stmt.cond, 0, prefix, locals_)}:")
        writer.indent()
        _emit_body(writer, stmt.then_body, prefix, locals_)
        writer.dedent()
        current = stmt
        while (len(current.else_body) == 1
               and isinstance(current.else_body[0], If)):
            current = current.else_body[0]
            writer.writeln(
                f"elif {_render(current.cond, 0, prefix, locals_)}:")
            writer.indent()
            _emit_body(writer, current.then_body, prefix, locals_)
            writer.dedent()
        if current.else_body:
            writer.writeln("else:")
            writer.indent()
            _emit_body(writer, current.else_body, prefix, locals_)
            writer.dedent()
    elif isinstance(stmt, While):
        writer.writeln(f"while {_render(stmt.cond, 0, prefix, locals_)}:")
        writer.indent()
        _emit_body(writer, stmt.body, prefix, locals_)
        writer.dedent()
    elif isinstance(stmt, For):
        if stmt.init is not None:
            emit_stmt(writer, stmt.init, name_prefix=prefix,
                      declared_locals=locals_)
        cond = (_render(stmt.cond, 0, prefix, locals_)
                if stmt.cond is not None else "True")
        writer.writeln(f"while {cond}:")
        writer.indent()
        _emit_body(writer, stmt.body, prefix, locals_)
        if stmt.step is not None:
            emit_stmt(writer, stmt.step, name_prefix=prefix,
                      declared_locals=locals_)
        writer.dedent()
    elif isinstance(stmt, Return):
        if stmt.value is None:
            writer.writeln("return None")
        else:
            writer.writeln(
                f"return {_render(stmt.value, 0, prefix, locals_)}")
    else:
        raise TransformError(f"cannot emit Python for {type(stmt).__name__}")


def _emit_body(writer: CodeWriter, body, prefix: str,
               locals_: set[str]) -> None:
    if not body:
        writer.writeln("pass")
        return
    for stmt in body:
        emit_stmt(writer, stmt, name_prefix=prefix, declared_locals=locals_)


def stmts_to_py(stmts, *, name_prefix: str = "",
                indent_unit: str = "    ") -> str:
    """Render a statement list as Python text."""
    writer = CodeWriter(indent_unit)
    locals_: set[str] = set()
    for stmt in stmts:
        emit_stmt(writer, stmt, name_prefix=name_prefix,
                  declared_locals=locals_)
    return writer.text()
