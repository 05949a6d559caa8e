"""C++ code generation for mini-language ASTs.

This emitter is also the canonical pretty-printer: the round-trip property
``parse(expr_to_cpp(e)) == e`` holds for every expression the parser can
produce, which hypothesis tests exploit.  Parentheses are inserted only
where precedence demands them, so emitted code looks like the hand-written
C++ of the paper's Fig. 8.
"""

from __future__ import annotations

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
from repro.lang.types import Type
from repro.util.textwriter import CodeWriter

# Operator precedence, higher binds tighter (C precedence order).
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}
_UNARY_PRECEDENCE = 7
_TERNARY_PRECEDENCE = 0


def _float_literal(value: float) -> str:
    """Render a float so that it re-parses as a FLOAT token (not INT)."""
    text = repr(value)
    if "e" in text or "E" in text or "." in text or "inf" in text or "nan" in text:
        return text
    return text + ".0"


#: Escapes for a C++ string literal: quote, backslash, and every control
#: character (three-digit octal, so a following digit is never absorbed).
_CPP_STRING_ESCAPES = {
    **{code: f"\\{code:03o}" for code in (*range(0x20), 0x7F)},
    ord("\\"): "\\\\", ord('"'): '\\"',
    ord("\n"): "\\n", ord("\t"): "\\t", ord("\r"): "\\r",
}


def cpp_string(text: str) -> str:
    """``text`` as a C++ string literal."""
    return f'"{text.translate(_CPP_STRING_ESCAPES)}"'


def cpp_comment(text: str) -> str:
    """``text`` for a ``//`` comment: printable text as is, anything that
    could end the comment (a line break, a control character, a trailing
    backslash that splices the next line) as an escaped string literal."""
    if text.isprintable() and not text.endswith("\\"):
        return text
    return cpp_string(text)


def expr_to_cpp(expr: Expr, *, use_std_names: bool = True) -> str:
    """Render an expression as C++ source text."""
    return _render(expr, 0, use_std_names)


def _render(expr: Expr, parent_prec: int, use_std: bool) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, FloatLit):
        return _float_literal(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, StringLit):
        return cpp_string(expr.value)
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, Unary):
        inner = _render(expr.operand, _UNARY_PRECEDENCE, use_std)
        text = f"{expr.op}{inner}"
        # Avoid "--x" when negating a negative literal or nested negation.
        if expr.op == "-" and inner.startswith("-"):
            text = f"{expr.op}({inner})"
        return text if parent_prec <= _UNARY_PRECEDENCE else f"({text})"
    if isinstance(expr, Binary):
        prec = _PRECEDENCE[expr.op]
        left = _render(expr.left, prec, use_std)
        # Right operand of a left-associative operator needs parens when it
        # is a binary of the same precedence.
        right = _render(expr.right, prec + 1, use_std)
        text = f"{left} {expr.op} {right}"
        return text if prec >= parent_prec else f"({text})"
    if isinstance(expr, Ternary):
        cond = _render(expr.cond, _TERNARY_PRECEDENCE + 1, use_std)
        then = _render(expr.then, _TERNARY_PRECEDENCE, use_std)
        other = _render(expr.other, _TERNARY_PRECEDENCE, use_std)
        text = f"{cond} ? {then} : {other}"
        return f"({text})" if parent_prec > _TERNARY_PRECEDENCE else text
    if isinstance(expr, Call):
        name = expr.func
        if use_std and name in BUILTINS:
            name = BUILTINS[name].cpp_name
        args = ", ".join(_render(a, 0, use_std) for a in expr.args)
        return f"{name}({args})"
    raise TransformError(f"cannot emit C++ for {type(expr).__name__}")


_CPP_TYPES = {
    Type.INT: "int",
    Type.DOUBLE: "double",
    Type.BOOL: "bool",
    Type.STRING: "std::string",
    Type.VOID: "void",
}


def cpp_type(type_: Type) -> str:
    return _CPP_TYPES[type_]


def emit_stmt(writer: CodeWriter, stmt: Stmt, *,
              use_std_names: bool = True) -> None:
    """Emit one statement (recursively) into ``writer``."""
    std = use_std_names
    if isinstance(stmt, VarDecl):
        if stmt.init is not None:
            writer.writeln(f"{cpp_type(stmt.type)} {stmt.name} = "
                           f"{expr_to_cpp(stmt.init, use_std_names=std)};")
        else:
            writer.writeln(f"{cpp_type(stmt.type)} {stmt.name};")
    elif isinstance(stmt, Assign):
        writer.writeln(f"{stmt.name} {stmt.op}= "
                       f"{expr_to_cpp(stmt.value, use_std_names=std)};")
    elif isinstance(stmt, ExprStmt):
        writer.writeln(f"{expr_to_cpp(stmt.expr, use_std_names=std)};")
    elif isinstance(stmt, If):
        _emit_if_chain(writer, stmt, std)
    elif isinstance(stmt, While):
        with writer.block(
                f"while ({expr_to_cpp(stmt.cond, use_std_names=std)}) {{", "}"):
            for inner in stmt.body:
                emit_stmt(writer, inner, use_std_names=std)
    elif isinstance(stmt, For):
        init = _inline_stmt(stmt.init, std) if stmt.init is not None else ""
        cond = expr_to_cpp(stmt.cond, use_std_names=std) if stmt.cond else ""
        step = _inline_stmt(stmt.step, std) if stmt.step is not None else ""
        with writer.block(f"for ({init}; {cond}; {step}) {{", "}"):
            for inner in stmt.body:
                emit_stmt(writer, inner, use_std_names=std)
    elif isinstance(stmt, Return):
        if stmt.value is None:
            writer.writeln("return;")
        else:
            writer.writeln(
                f"return {expr_to_cpp(stmt.value, use_std_names=std)};")
    else:
        raise TransformError(f"cannot emit C++ for {type(stmt).__name__}")


def _emit_if_chain(writer: CodeWriter, stmt: If, std: bool) -> None:
    """Emit if / else if / else, flattening single-If else bodies into the
    'else if' form the paper's Fig. 8 (lines 77-87) uses."""
    writer.writeln(f"if ({expr_to_cpp(stmt.cond, use_std_names=std)}) {{")
    writer.indent()
    for inner in stmt.then_body:
        emit_stmt(writer, inner, use_std_names=std)
    writer.dedent()
    current = stmt
    while (len(current.else_body) == 1
           and isinstance(current.else_body[0], If)):
        current = current.else_body[0]
        writer.writeln(
            f"}} else if ({expr_to_cpp(current.cond, use_std_names=std)}) {{")
        writer.indent()
        for inner in current.then_body:
            emit_stmt(writer, inner, use_std_names=std)
        writer.dedent()
    if current.else_body:
        writer.writeln("} else {")
        writer.indent()
        for inner in current.else_body:
            emit_stmt(writer, inner, use_std_names=std)
        writer.dedent()
    writer.writeln("}")


def _inline_stmt(stmt: Stmt, std: bool) -> str:
    """Render a for-init/step statement without trailing semicolon."""
    if isinstance(stmt, VarDecl):
        if stmt.init is not None:
            return (f"{cpp_type(stmt.type)} {stmt.name} = "
                    f"{expr_to_cpp(stmt.init, use_std_names=std)}")
        return f"{cpp_type(stmt.type)} {stmt.name}"
    if isinstance(stmt, Assign):
        return (f"{stmt.name} {stmt.op}= "
                f"{expr_to_cpp(stmt.value, use_std_names=std)}")
    raise TransformError(
        f"for-init/step must be a declaration or assignment, "
        f"got {type(stmt).__name__}")


def stmts_to_cpp(stmts, *, indent_unit: str = "    ",
                 use_std_names: bool = True) -> str:
    """Render a statement list as C++ text."""
    writer = CodeWriter(indent_unit)
    for stmt in stmts:
        emit_stmt(writer, stmt, use_std_names=use_std_names)
    return writer.text()


def function_to_cpp(function: FunctionDef, *, indent_unit: str = "    ",
                    use_std_names: bool = True) -> str:
    """Render a cost function definition, e.g. Fig. 8's
    ``double FSA2(int pid) { return 0.001 * pid + 0.05; }``."""
    writer = CodeWriter(indent_unit)
    params = ", ".join(f"{cpp_type(p.type)} {p.name}" for p in function.params)
    with writer.block(
            f"{cpp_type(function.return_type)} {function.name}({params}) {{",
            "}"):
        for stmt in function.body:
            emit_stmt(writer, stmt, use_std_names=use_std_names)
    return writer.text()
