"""Unit tests for the mini-language parser."""

import pytest

from repro.errors import ParseError
from repro.lang.ast import (
    Assign,
    Binary,
    BoolLit,
    Call,
    ExprStmt,
    FloatLit,
    For,
    If,
    IntLit,
    Name,
    Return,
    StringLit,
    Ternary,
    Unary,
    VarDecl,
    While,
)
from repro.lang.parser import (
    clear_parse_memo,
    parse_expression,
    parse_function,
    parse_function_body,
    parse_program,
)
from repro.lang.types import Type
from repro.uml.random_models import random_model


class TestExpressions:
    def test_integer_literal(self):
        assert parse_expression("42") == IntLit(42)

    def test_float_literal(self):
        assert parse_expression("0.5") == FloatLit(0.5)

    def test_bool_literals(self):
        assert parse_expression("true") == BoolLit(True)
        assert parse_expression("false") == BoolLit(False)

    def test_string_literal(self):
        assert parse_expression('"hi"') == StringLit("hi")

    def test_name(self):
        assert parse_expression("GV") == Name("GV")

    def test_binary_left_associative(self):
        assert parse_expression("a - b - c") == Binary(
            "-", Binary("-", Name("a"), Name("b")), Name("c"))

    def test_precedence_mul_over_add(self):
        assert parse_expression("a + b * c") == Binary(
            "+", Name("a"), Binary("*", Name("b"), Name("c")))

    def test_parentheses_override_precedence(self):
        assert parse_expression("(a + b) * c") == Binary(
            "*", Binary("+", Name("a"), Name("b")), Name("c"))

    def test_comparison_precedence_below_arithmetic(self):
        assert parse_expression("a + 1 < b * 2") == Binary(
            "<",
            Binary("+", Name("a"), IntLit(1)),
            Binary("*", Name("b"), IntLit(2)))

    def test_logical_precedence(self):
        # && binds tighter than ||
        assert parse_expression("a || b && c") == Binary(
            "||", Name("a"), Binary("&&", Name("b"), Name("c")))

    def test_equality_precedence_below_relational(self):
        assert parse_expression("a < b == c < d") == Binary(
            "==",
            Binary("<", Name("a"), Name("b")),
            Binary("<", Name("c"), Name("d")))

    def test_unary_minus(self):
        assert parse_expression("-x") == Unary("-", Name("x"))

    def test_double_negation(self):
        assert parse_expression("- -x") == Unary("-", Unary("-", Name("x")))

    def test_not_operator(self):
        assert parse_expression("!done") == Unary("!", Name("done"))

    def test_unary_binds_tighter_than_binary(self):
        assert parse_expression("-a * b") == Binary(
            "*", Unary("-", Name("a")), Name("b"))

    def test_ternary(self):
        assert parse_expression("a ? 1 : 2") == Ternary(
            Name("a"), IntLit(1), IntLit(2))

    def test_ternary_right_associative(self):
        assert parse_expression("a ? 1 : b ? 2 : 3") == Ternary(
            Name("a"), IntLit(1), Ternary(Name("b"), IntLit(2), IntLit(3)))

    def test_call_no_args(self):
        assert parse_expression("FA1()") == Call("FA1", ())

    def test_call_with_args(self):
        assert parse_expression("FSA2(pid)") == Call("FSA2", (Name("pid"),))

    def test_call_multiple_args(self):
        assert parse_expression("pow(x, 2)") == Call(
            "pow", (Name("x"), IntLit(2)))

    def test_nested_calls(self):
        assert parse_expression("f(g(x))") == Call("f", (Call("g", (Name("x"),)),))

    def test_paper_guard(self):
        assert parse_expression("GV == 1") == Binary("==", Name("GV"), IntLit(1))

    def test_paper_cost_expression(self):
        assert parse_expression("0.5 * P") == Binary(
            "*", FloatLit(0.5), Name("P"))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 extra")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("(1 + 2")

    def test_missing_operand_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("1 +")

    def test_missing_ternary_colon_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("a ? 1")


class TestStatements:
    def test_paper_code_fragment(self):
        program = parse_program("GV = 1; P = 4;")
        assert program.body == (
            Assign("GV", "", IntLit(1)),
            Assign("P", "", IntLit(4)),
        )

    def test_var_decl_without_init(self):
        program = parse_program("int x;")
        assert program.body == (VarDecl(Type.INT, "x", None),)

    def test_var_decl_with_init(self):
        program = parse_program("double t = 0.5;")
        assert program.body == (VarDecl(Type.DOUBLE, "t", FloatLit(0.5)),)

    def test_void_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_program("void x;")

    def test_compound_assignment(self):
        program = parse_program("x += 2;")
        assert program.body == (Assign("x", "+", IntLit(2)),)

    def test_expression_statement(self):
        program = parse_program("f(1);")
        assert program.body == (ExprStmt(Call("f", (IntLit(1),))),)

    def test_if_without_else(self):
        program = parse_program("if (x > 0) { y = 1; }")
        stmt = program.body[0]
        assert isinstance(stmt, If)
        assert stmt.then_body == (Assign("y", "", IntLit(1)),)
        assert stmt.else_body == ()

    def test_if_with_else(self):
        program = parse_program("if (x > 0) { y = 1; } else { y = 2; }")
        stmt = program.body[0]
        assert stmt.else_body == (Assign("y", "", IntLit(2)),)

    def test_if_else_if_chain(self):
        program = parse_program(
            "if (a == 1) { x = 1; } else if (a == 2) { x = 2; } else { x = 3; }")
        outer = program.body[0]
        assert len(outer.else_body) == 1
        inner = outer.else_body[0]
        assert isinstance(inner, If)
        assert inner.else_body == (Assign("x", "", IntLit(3)),)

    def test_single_statement_bodies(self):
        program = parse_program("if (x) y = 1; else y = 2;")
        stmt = program.body[0]
        assert stmt.then_body == (Assign("y", "", IntLit(1)),)
        assert stmt.else_body == (Assign("y", "", IntLit(2)),)

    def test_while_loop(self):
        program = parse_program("while (i < 10) { i += 1; }")
        stmt = program.body[0]
        assert isinstance(stmt, While)
        assert stmt.body == (Assign("i", "+", IntLit(1)),)

    def test_for_loop_full(self):
        program = parse_program("for (int i = 0; i < 10; i += 1) { s += i; }")
        stmt = program.body[0]
        assert isinstance(stmt, For)
        assert isinstance(stmt.init, VarDecl)
        assert stmt.cond == Binary("<", Name("i"), IntLit(10))
        assert stmt.step == Assign("i", "+", IntLit(1))

    def test_for_loop_with_assignment_init(self):
        program = parse_program("for (i = 0; i < 10; i += 1) s += i;")
        stmt = program.body[0]
        assert stmt.init == Assign("i", "", IntLit(0))

    def test_for_loop_empty_clauses(self):
        program = parse_program("for (;;) { x = 1; }")
        stmt = program.body[0]
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_return_with_value(self):
        program = parse_program("return 0.5 * P;")
        assert program.body == (Return(Binary("*", FloatLit(0.5), Name("P"))),)

    def test_return_without_value(self):
        program = parse_program("return;")
        assert program.body == (Return(None),)

    def test_nested_blocks(self):
        program = parse_program(
            "if (a) { if (b) { x = 1; } else { x = 2; } }")
        outer = program.body[0]
        inner = outer.then_body[0]
        assert isinstance(inner, If)

    def test_unterminated_block_rejected(self):
        with pytest.raises(ParseError):
            parse_program("if (a) { x = 1;")

    def test_missing_semicolon_rejected(self):
        with pytest.raises(ParseError):
            parse_program("x = 1")

    def test_stray_semicolons_tolerated(self):
        program = parse_program("; x = 1;")
        assert any(isinstance(s, Assign) for s in program.body)


class TestFunctions:
    def test_paper_fsa2(self):
        function = parse_function(
            "double FSA2(int pid) { return 0.001 * pid + 0.05; }")
        assert function.name == "FSA2"
        assert function.return_type is Type.DOUBLE
        assert [(p.type, p.name) for p in function.params] == [(Type.INT, "pid")]
        assert isinstance(function.body[0], Return)

    def test_zero_parameter_function(self):
        function = parse_function("double FA1() { return 0.5 * P; }")
        assert function.arity == 0

    def test_multi_parameter_function(self):
        function = parse_function(
            "double F(int n, double alpha) { return n * alpha; }")
        assert function.arity == 2
        assert function.params[1].type is Type.DOUBLE

    def test_function_with_locals_and_loop(self):
        function = parse_function("""
            double FK6(int n, int m) {
                double t = 0.0;
                for (int i = 2; i <= n; i += 1) {
                    t += i - 1;
                }
                return m * t;
            }
        """)
        assert function.name == "FK6"
        assert len(function.body) == 3

    def test_signature_rendering(self):
        function = parse_function(
            "double FSA2(int pid) { return 1.0; }")
        assert function.signature() == "double FSA2(int pid)"

    def test_missing_return_type_rejected(self):
        with pytest.raises(ParseError):
            parse_function("FA1() { return 1.0; }")

    def test_void_parameter_rejected(self):
        with pytest.raises(ParseError):
            parse_function("double F(void x) { return 1.0; }")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_function("double F() { return 1.0; } extra")


class TestParseFunctionBody:
    def test_bare_expression_wrapped_in_return(self):
        function = parse_function_body("FA1", "0.5 * P")
        assert function.body == (Return(Binary("*", FloatLit(0.5), Name("P"))),)
        assert function.return_type is Type.DOUBLE

    def test_statement_body_kept(self):
        function = parse_function_body(
            "F", "double t = 1.0; return t * 2;")
        assert len(function.body) == 2

    def test_statement_body_without_return_rejected(self):
        with pytest.raises(ParseError):
            parse_function_body("F", "double t = 1.0;")

    def test_empty_body_rejected(self):
        with pytest.raises(ParseError):
            parse_function_body("F", "   ")


def _outcome(parse, source):
    """What ``parse`` makes of ``source``: the tree or the error text."""
    try:
        return parse(source)
    except ParseError as exc:
        return f"ParseError: {exc}"


def _model_sources(model) -> tuple[set[str], set[str]]:
    """Every expression-like and statement-list source a model holds."""
    exprs: set[str] = {v.init for v in model.variables
                       if v.init is not None}
    programs: set[str] = {cf.body_source
                          for cf in model.cost_functions.values()}
    for diagram in model.diagrams:
        exprs.update(edge.guard for edge in diagram.edges
                     if edge.guard not in (None, "else"))
        for node in diagram.nodes:
            for attr in ("cost", "iterations", "num_threads"):
                value = getattr(node, attr, None)
                if isinstance(value, str):
                    exprs.add(value)
            if getattr(node, "code", None) is not None:
                programs.add(node.code)
            for application in node.applied:
                exprs.update(value for _, value in application.items()
                             if isinstance(value, str))
    return exprs, programs


class TestParseMemo:
    def test_same_source_shares_one_tree(self):
        assert parse_expression("GV * 2 + 1") is \
            parse_expression("GV * 2 + 1")
        assert parse_program("GV = 1; P = 4;") is \
            parse_program("GV = 1; P = 4;")

    def test_errors_are_never_cached(self):
        """Every call on a malformed source parses it again: the same
        message each time, from a fresh exception, never a stored one."""
        for parse, source in ((parse_expression, "1 +"),
                              (parse_expression, "a b"),
                              (parse_program, "x = ;")):
            raised = []
            for _ in range(3):
                with pytest.raises(ParseError) as caught:
                    parse(source)
                raised.append(caught.value)
            assert len({str(exc) for exc in raised}) == 1
            assert len({id(exc) for exc in raised}) == 3

    def test_clear_parse_memo_forgets_every_tree(self):
        tree = parse_expression("GV * 3")
        clear_parse_memo()
        assert parse_expression("GV * 3") is not tree
        assert parse_expression("GV * 3") == tree

    def test_memoized_trees_equal_fresh_parses(self):
        """Over a random-model corpus, a memoized tree equals a fresh
        parse of the same source (and a failure fails identically)."""
        checked = 0
        for seed in range(12):
            exprs, programs = _model_sources(random_model(seed))
            for parse, sources in ((parse_expression, exprs),
                                   (parse_program, programs)):
                for source in sorted(sources):
                    fresh = _outcome(parse.__wrapped__, source)
                    assert _outcome(parse, source) == fresh, source
                    assert _outcome(parse, source) == fresh, source
                    checked += 1
        assert checked > 100
