"""Recursive-descent parser for the mini-language.

Entry points:

* :func:`parse_expression` — guards and simple cost expressions
  (``GV == 1``, ``0.5 * P``);
* :func:`parse_program` — code fragments (``GV = 1; P = 4;``);
* :func:`parse_function` — full cost-function definitions
  (``double FSA2(int pid) { return 0.001 * pid + 0.05; }``);
* :func:`parse_function_body` — a cost function given as a bare expression
  or statement list, wrapped into a body that returns a double.

:func:`parse_expression` and :func:`parse_program` memoize their trees
by source text: a sweep's model variants share most of their guards and
costs, and every pass over a model (checker, analyzer, each backend)
reads the same annotations.  AST nodes are frozen dataclasses, so one
tree per source is safe to share across models and threads.  Failures
are never memoized — a malformed source raises on every call.
"""

from __future__ import annotations

import functools

from repro.errors import ParseError
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
    Param,
    Program,
    Return,
    Stmt,
    StringLit,
    Ternary,
    Unary,
    VarDecl,
    While,
)
from repro.lang.lexer import tokenize
from repro.lang.tokens import ASSIGN_OPS, TYPE_KEYWORDS, Token, TokenKind
from repro.lang.types import Type


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token access -------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self._peek().kind is kind

    def _match(self, *kinds: TokenKind) -> Token | None:
        if self._peek().kind in kinds:
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, context: str) -> Token:
        token = self._peek()
        if token.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r} {context}, found {token.text or 'end of input'!r}",
                token.line, token.column,
            )
        return self._advance()

    def at_end(self) -> bool:
        return self._peek().kind is TokenKind.EOF

    # -- statements ----------------------------------------------------

    def parse_program(self) -> Program:
        body: list[Stmt] = []
        while not self.at_end():
            body.append(self.parse_statement())
        return Program(tuple(body))

    def parse_statement(self) -> Stmt:
        token = self._peek()
        if token.kind in TYPE_KEYWORDS:
            return self._parse_var_decl()
        if token.kind is TokenKind.KW_IF:
            return self._parse_if()
        if token.kind is TokenKind.KW_WHILE:
            return self._parse_while()
        if token.kind is TokenKind.KW_FOR:
            return self._parse_for()
        if token.kind is TokenKind.KW_RETURN:
            return self._parse_return()
        if token.kind is TokenKind.LBRACE:
            # A bare block introduces no scope distinct from our statement
            # lists; flattening would change structure, so keep it as an If
            # with a constant-true condition?  No: represent it faithfully
            # by parsing the block and erroring if used bare.
            raise ParseError("bare blocks are only allowed as control-flow bodies",
                             token.line, token.column)
        if token.kind is TokenKind.SEMI:
            self._advance()
            return self.parse_statement() if not self.at_end() else ExprStmt(
                BoolLit(True, token.line), token.line)
        return self._parse_assign_or_expr()

    def _parse_var_decl(self) -> VarDecl:
        type_token = self._advance()
        if type_token.kind is TokenKind.KW_VOID:
            raise ParseError("variables cannot have type void",
                             type_token.line, type_token.column)
        var_type = Type.from_name(type_token.text)
        name = self._expect(TokenKind.IDENT, "in variable declaration")
        init: Expr | None = None
        if self._match(TokenKind.ASSIGN):
            init = self.parse_expression()
        self._expect(TokenKind.SEMI, "after variable declaration")
        return VarDecl(var_type, name.text, init, type_token.line)

    def _parse_if(self) -> If:
        token = self._advance()
        self._expect(TokenKind.LPAREN, "after 'if'")
        cond = self.parse_expression()
        self._expect(TokenKind.RPAREN, "after if condition")
        then_body = self._parse_body()
        else_body: tuple[Stmt, ...] = ()
        if self._match(TokenKind.KW_ELSE):
            if self._check(TokenKind.KW_IF):
                else_body = (self._parse_if(),)
            else:
                else_body = self._parse_body()
        return If(cond, then_body, else_body, token.line)

    def _parse_while(self) -> While:
        token = self._advance()
        self._expect(TokenKind.LPAREN, "after 'while'")
        cond = self.parse_expression()
        self._expect(TokenKind.RPAREN, "after while condition")
        return While(cond, self._parse_body(), token.line)

    def _parse_for(self) -> For:
        token = self._advance()
        self._expect(TokenKind.LPAREN, "after 'for'")
        init: Stmt | None = None
        if not self._check(TokenKind.SEMI):
            if self._peek().kind in TYPE_KEYWORDS:
                init = self._parse_var_decl()  # consumes the ';'
            else:
                init = self._parse_simple_assign()
                self._expect(TokenKind.SEMI, "after for-init")
        else:
            self._advance()
        cond: Expr | None = None
        if not self._check(TokenKind.SEMI):
            cond = self.parse_expression()
        self._expect(TokenKind.SEMI, "after for-condition")
        step: Stmt | None = None
        if not self._check(TokenKind.RPAREN):
            step = self._parse_simple_assign()
        self._expect(TokenKind.RPAREN, "after for-step")
        return For(init, cond, step, self._parse_body(), token.line)

    def _parse_simple_assign(self) -> Assign:
        """An assignment without the trailing semicolon (for-init/step)."""
        name = self._expect(TokenKind.IDENT, "in assignment")
        op_token = self._peek()
        if op_token.kind not in ASSIGN_OPS:
            raise ParseError("expected assignment operator",
                             op_token.line, op_token.column)
        self._advance()
        value = self.parse_expression()
        bare_op = ASSIGN_OPS[op_token.kind].rstrip("=")
        return Assign(name.text, bare_op, value, name.line)

    def _parse_return(self) -> Return:
        token = self._advance()
        value: Expr | None = None
        if not self._check(TokenKind.SEMI):
            value = self.parse_expression()
        self._expect(TokenKind.SEMI, "after return")
        return Return(value, token.line)

    def _parse_assign_or_expr(self) -> Stmt:
        # Distinguish "x = e;" / "x += e;" from a bare expression statement.
        if (self._check(TokenKind.IDENT)
                and self._peek(1).kind in ASSIGN_OPS):
            stmt = self._parse_simple_assign()
            self._expect(TokenKind.SEMI, "after assignment")
            return stmt
        expr = self.parse_expression()
        self._expect(TokenKind.SEMI, "after expression statement")
        return ExprStmt(expr, getattr(expr, "line", 0))

    def _parse_body(self) -> tuple[Stmt, ...]:
        """A control-flow body: a brace block or a single statement."""
        if self._match(TokenKind.LBRACE):
            body: list[Stmt] = []
            while not self._check(TokenKind.RBRACE):
                if self.at_end():
                    token = self._peek()
                    raise ParseError("unterminated block", token.line, token.column)
                body.append(self.parse_statement())
            self._advance()
            return tuple(body)
        return (self.parse_statement(),)

    # -- expressions ----------------------------------------------------

    def parse_expression(self) -> Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> Expr:
        cond = self._parse_or()
        if self._match(TokenKind.QUESTION):
            then = self.parse_expression()
            self._expect(TokenKind.COLON, "in conditional expression")
            other = self._parse_ternary()
            return Ternary(cond, then, other, getattr(cond, "line", 0))
        return cond

    def _parse_or(self) -> Expr:
        expr = self._parse_and()
        while self._match(TokenKind.OR):
            right = self._parse_and()
            expr = Binary("||", expr, right, getattr(expr, "line", 0))
        return expr

    def _parse_and(self) -> Expr:
        expr = self._parse_equality()
        while self._match(TokenKind.AND):
            right = self._parse_equality()
            expr = Binary("&&", expr, right, getattr(expr, "line", 0))
        return expr

    def _parse_equality(self) -> Expr:
        expr = self._parse_relational()
        while True:
            token = self._match(TokenKind.EQ, TokenKind.NE)
            if token is None:
                return expr
            right = self._parse_relational()
            expr = Binary(token.text, expr, right, token.line)

    def _parse_relational(self) -> Expr:
        expr = self._parse_additive()
        while True:
            token = self._match(TokenKind.LT, TokenKind.LE,
                                TokenKind.GT, TokenKind.GE)
            if token is None:
                return expr
            right = self._parse_additive()
            expr = Binary(token.text, expr, right, token.line)

    def _parse_additive(self) -> Expr:
        expr = self._parse_multiplicative()
        while True:
            token = self._match(TokenKind.PLUS, TokenKind.MINUS)
            if token is None:
                return expr
            right = self._parse_multiplicative()
            expr = Binary(token.text, expr, right, token.line)

    def _parse_multiplicative(self) -> Expr:
        expr = self._parse_unary()
        while True:
            token = self._match(TokenKind.STAR, TokenKind.SLASH,
                                TokenKind.PERCENT)
            if token is None:
                return expr
            right = self._parse_unary()
            expr = Binary(token.text, expr, right, token.line)

    def _parse_unary(self) -> Expr:
        token = self._match(TokenKind.MINUS, TokenKind.NOT, TokenKind.PLUS)
        if token is not None:
            operand = self._parse_unary()
            return Unary(token.text, operand, token.line)
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.kind is TokenKind.INT:
            self._advance()
            return IntLit(int(token.text), token.line)
        if token.kind is TokenKind.FLOAT:
            self._advance()
            return FloatLit(float(token.text), token.line)
        if token.kind is TokenKind.STRING:
            self._advance()
            return StringLit(token.text, token.line)
        if token.kind is TokenKind.KW_TRUE:
            self._advance()
            return BoolLit(True, token.line)
        if token.kind is TokenKind.KW_FALSE:
            self._advance()
            return BoolLit(False, token.line)
        if token.kind is TokenKind.IDENT:
            self._advance()
            if self._match(TokenKind.LPAREN):
                args: list[Expr] = []
                if not self._check(TokenKind.RPAREN):
                    args.append(self.parse_expression())
                    while self._match(TokenKind.COMMA):
                        args.append(self.parse_expression())
                self._expect(TokenKind.RPAREN, "after call arguments")
                return Call(token.text, tuple(args), token.line)
            return Name(token.text, token.line)
        if token.kind is TokenKind.LPAREN:
            self._advance()
            expr = self.parse_expression()
            self._expect(TokenKind.RPAREN, "after parenthesized expression")
            return expr
        raise ParseError(
            f"expected an expression, found {token.text or 'end of input'!r}",
            token.line, token.column,
        )

    # -- functions -------------------------------------------------------

    def parse_function(self) -> FunctionDef:
        type_token = self._peek()
        if type_token.kind not in TYPE_KEYWORDS:
            raise ParseError("expected return type in function definition",
                             type_token.line, type_token.column)
        self._advance()
        return_type = Type.from_name(type_token.text)
        name = self._expect(TokenKind.IDENT, "in function definition")
        self._expect(TokenKind.LPAREN, "after function name")
        params: list[Param] = []
        if not self._check(TokenKind.RPAREN):
            params.append(self._parse_param())
            while self._match(TokenKind.COMMA):
                params.append(self._parse_param())
        self._expect(TokenKind.RPAREN, "after parameter list")
        self._expect(TokenKind.LBRACE, "before function body")
        body: list[Stmt] = []
        while not self._check(TokenKind.RBRACE):
            if self.at_end():
                raise ParseError("unterminated function body",
                                 type_token.line, type_token.column)
            body.append(self.parse_statement())
        self._advance()
        return FunctionDef(name.text, tuple(params), return_type, tuple(body))

    def _parse_param(self) -> Param:
        type_token = self._peek()
        if type_token.kind not in TYPE_KEYWORDS or type_token.kind is TokenKind.KW_VOID:
            raise ParseError("expected parameter type",
                             type_token.line, type_token.column)
        self._advance()
        name = self._expect(TokenKind.IDENT, "in parameter")
        return Param(Type.from_name(type_token.text), name.text)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

#: Distinct sources each memoized entry point keeps (least recently used
#: first out).  A 46-variant scenario sweep reads about 150.
PARSE_MEMO_LIMIT = 4096


@functools.lru_cache(maxsize=PARSE_MEMO_LIMIT)
def parse_expression(source: str) -> Expr:
    """Parse a single expression (e.g. a branch guard ``GV == 1``)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expression()
    if not parser.at_end():
        token = parser._peek()
        raise ParseError(f"unexpected trailing input {token.text!r}",
                         token.line, token.column)
    return expr


@functools.lru_cache(maxsize=PARSE_MEMO_LIMIT)
def parse_program(source: str) -> Program:
    """Parse a statement list (a code fragment such as ``GV = 1; P = 4;``)."""
    return _Parser(tokenize(source)).parse_program()


def clear_parse_memo() -> None:
    """Forget every memoized tree (benchmarks measure cold parses)."""
    parse_expression.cache_clear()
    parse_program.cache_clear()


def parse_function(source: str) -> FunctionDef:
    """Parse a full function definition with return type and braces."""
    parser = _Parser(tokenize(source))
    function = parser.parse_function()
    if not parser.at_end():
        token = parser._peek()
        raise ParseError(f"unexpected trailing input {token.text!r}",
                         token.line, token.column)
    return function


def parse_function_body(name: str, source: str,
                        params: tuple = (),
                        return_type: Type = Type.DOUBLE) -> FunctionDef:
    """Build a :class:`FunctionDef` from loose cost-function source.

    Model authors write cost functions either as a bare expression
    (``0.5 * P``) or as a statement list ending in ``return`` (the paper's
    Fig. 8 shows both forms).  A bare expression is wrapped in a return.
    """
    source = source.strip()
    if not source:
        raise ParseError(f"cost function {name!r} has empty body")
    try:
        expr = parse_expression(source)
        body: tuple[Stmt, ...] = (Return(expr),)
    except ParseError:
        program = parse_program(source)
        body = program.body
        if not any(isinstance(stmt, Return) for stmt in body):
            raise ParseError(
                f"cost function {name!r} body has no return statement")
    return FunctionDef(name, tuple(params), return_type, body)
