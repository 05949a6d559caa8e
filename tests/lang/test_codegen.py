"""Unit tests for the C++ and Python emitters of the mini-language."""

import math

import pytest

from repro.lang.ast import Binary, FloatLit, IntLit, Name, Ternary, Unary
from repro.lang.cppgen import (
    expr_to_cpp,
    function_to_cpp,
    stmts_to_cpp,
)
from repro.lang.parser import parse_expression, parse_function, parse_program
from repro.lang.pygen import expr_to_py, stmts_to_py


class TestCppExpressions:
    def test_simple_arithmetic(self):
        assert expr_to_cpp(parse_expression("a + b * c")) == "a + b * c"

    def test_parens_kept_when_needed(self):
        assert expr_to_cpp(parse_expression("(a + b) * c")) == "(a + b) * c"

    def test_no_redundant_parens(self):
        assert expr_to_cpp(parse_expression("((a)) + (b)")) == "a + b"

    def test_left_associativity_preserved(self):
        # a - (b - c) must keep its parens, (a - b) - c must not.
        assert expr_to_cpp(parse_expression("a - (b - c)")) == "a - (b - c)"
        assert expr_to_cpp(parse_expression("a - b - c")) == "a - b - c"

    def test_division_associativity(self):
        assert expr_to_cpp(parse_expression("a / (b / c)")) == "a / (b / c)"
        assert expr_to_cpp(parse_expression("a / b / c")) == "a / b / c"

    def test_logical_precedence(self):
        assert expr_to_cpp(
            parse_expression("(a || b) && c")) == "(a || b) && c"
        assert expr_to_cpp(
            parse_expression("a || b && c")) == "a || b && c"

    def test_unary_rendering(self):
        assert expr_to_cpp(parse_expression("-x")) == "-x"
        assert expr_to_cpp(parse_expression("!(a && b)")) == "!(a && b)"

    def test_double_negation_spaced(self):
        text = expr_to_cpp(parse_expression("- -x"))
        assert "--" not in text
        assert parse_expression(text) == parse_expression("- -x")

    def test_ternary(self):
        assert expr_to_cpp(
            parse_expression("a ? 1 : 2")) == "a ? 1 : 2"

    def test_float_literal_reparses_as_float(self):
        assert expr_to_cpp(FloatLit(2.0)) == "2.0"
        assert expr_to_cpp(FloatLit(0.5)) == "0.5"

    def test_bool_literals(self):
        assert expr_to_cpp(parse_expression("true && false")) == "true && false"

    def test_string_escaping(self):
        expr = parse_expression('"a\\"b\\\\c"')
        text = expr_to_cpp(expr)
        assert parse_expression(text) == expr

    def test_builtin_gets_std_prefix(self):
        assert expr_to_cpp(parse_expression("sqrt(x)")) == "std::sqrt(x)"

    def test_builtin_prefix_suppressible(self):
        assert expr_to_cpp(parse_expression("sqrt(x)"),
                           use_std_names=False) == "sqrt(x)"

    def test_user_call_unprefixed(self):
        assert expr_to_cpp(parse_expression("FA1()")) == "FA1()"

    def test_paper_guard(self):
        assert expr_to_cpp(parse_expression("GV == 1")) == "GV == 1"


class TestCppStatements:
    def test_paper_code_fragment(self):
        text = stmts_to_cpp(parse_program("GV = 1; P = 4;"))
        assert text == "GV = 1;\nP = 4;\n"

    def test_declaration(self):
        text = stmts_to_cpp(parse_program("double t = 0.5;"))
        assert text == "double t = 0.5;\n"

    def test_string_type_maps_to_std_string(self):
        text = stmts_to_cpp(parse_program('string s = "x";'))
        assert "std::string s" in text

    def test_if_else_if_chain_flattened(self):
        source = ("if (a == 1) { x = 1; } else if (a == 2) { x = 2; } "
                  "else { x = 3; }")
        text = stmts_to_cpp(parse_program(source))
        assert "} else if (a == 2) {" in text
        # No doubly-nested else { if ... }
        assert "else {\n    if" not in text

    def test_while_loop(self):
        text = stmts_to_cpp(parse_program("while (i < 10) { i += 1; }"))
        assert text.splitlines()[0] == "while (i < 10) {"
        assert "    i += 1;" in text

    def test_for_loop(self):
        text = stmts_to_cpp(parse_program(
            "for (int i = 0; i < 10; i += 1) { s += i; }"))
        assert text.splitlines()[0] == "for (int i = 0; i < 10; i += 1) {"

    def test_for_loop_empty_clauses(self):
        text = stmts_to_cpp(parse_program("for (;;) { x = 1; }"))
        assert text.splitlines()[0] == "for (; ; ) {"


class TestCppFunctions:
    def test_paper_fsa2(self):
        function = parse_function(
            "double FSA2(int pid) { return 0.001 * pid + 0.05; }")
        text = function_to_cpp(function)
        assert text.splitlines()[0] == "double FSA2(int pid) {"
        assert "    return 0.001 * pid + 0.05;" in text
        assert text.rstrip().endswith("}")

    def test_zero_arg_function(self):
        function = parse_function("double FA1() { return 0.5 * P; }")
        assert function_to_cpp(function).splitlines()[0] == "double FA1() {"


class TestPyExpressions:
    def test_logical_ops_translated(self):
        # bool() wrapping restores C semantics: && / || yield 0/1 in C,
        # while Python's and/or return operand values.
        assert expr_to_py(parse_expression("a && b || !c")) == \
            "bool(bool(a and b) or not c)"

    def test_logical_result_is_c_style_zero_one(self):
        source = expr_to_py(parse_expression("0 + (1 && 2)"))
        assert eval(source) == 1  # C: 0 + (1 && 2) == 1

    def test_division_through_helper(self):
        assert expr_to_py(parse_expression("a / b")) == "c_div(a, b)"

    def test_modulo_through_helper(self):
        assert expr_to_py(parse_expression("a % b")) == "c_mod(a, b)"

    def test_ternary_to_conditional_expression(self):
        assert expr_to_py(
            parse_expression("c ? 1 : 2")) == "(1 if c else 2)"

    def test_bool_literals(self):
        assert expr_to_py(parse_expression("true")) == "True"

    def test_name_prefixing(self):
        assert expr_to_py(parse_expression("GV + 1"), name_prefix="v.") == "v.GV + 1"
        assert expr_to_py(parse_expression("GV + t * F(t)"), name_prefix="v.",
                          bare={"t"}) == "v.GV + t * F(t)"

    def test_builtin_call(self):
        text = expr_to_py(parse_expression("sqrt(x)"))
        assert text == "_bi['sqrt'](x)"

    def test_generated_python_evaluates_correctly(self):
        from repro.lang.evaluator import c_div, c_mod
        source = expr_to_py(parse_expression("(7 / -2) + (-7 % 3)"))
        value = eval(source, {"c_div": c_div, "c_mod": c_mod})
        assert value == -3 + -1


class TestPyStatements:
    def test_paper_fragment_with_prefix(self):
        text = stmts_to_py(parse_program("GV = 1; P = 4;"), name_prefix="v.")
        assert text == "v.GV = 1\nv.P = 4\n"

    def test_local_declarations_stay_local(self):
        text = stmts_to_py(parse_program("int t = 0; GV = t;"),
                           name_prefix="v.")
        assert "t = 0" in text
        assert "v.GV = t" in text
        assert "v.t" not in text

    def test_if_elif_else(self):
        source = ("if (a == 1) { x = 1; } else if (a == 2) { x = 2; } "
                  "else { x = 3; }")
        text = stmts_to_py(parse_program(source), name_prefix="v.")
        assert "elif v.a == 2:" in text
        assert "else:" in text

    def test_empty_else_body_not_emitted(self):
        text = stmts_to_py(parse_program("if (a) { x = 1; }"),
                           name_prefix="v.")
        assert "else" not in text

    def test_for_loop_becomes_while(self):
        text = stmts_to_py(parse_program(
            "for (int i = 0; i < 3; i += 1) { s += i; }"), name_prefix="v.")
        lines = text.splitlines()
        assert lines[0] == "i = 0"
        assert lines[1] == "while i < 3:"
        assert "    v.s += i" in lines
        assert "    i += 1" in lines

    def test_compound_divide_keeps_c_semantics(self):
        text = stmts_to_py(parse_program("x /= 2;"))
        assert "c_div" in text

    def test_executable_fragment(self):
        from repro.lang.evaluator import c_div, c_mod

        class Store:
            pass

        v = Store()
        v.GV = 0
        v.P = 0
        code = stmts_to_py(parse_program(
            "GV = 1; P = 4; if (GV == 1) { P = P * 2; }"), name_prefix="v.")
        exec(code, {"v": v, "c_div": c_div, "c_mod": c_mod})
        assert v.GV == 1
        assert v.P == 8

    def test_executable_loop_matches_evaluator(self):
        from repro.lang.evaluator import Environment, Evaluator, c_div, c_mod
        from repro.lang.types import Type

        source = "total = 0; for (int i = 1; i <= 10; i += 1) { total += i * i; }"
        program = parse_program(source)

        env = Environment()
        env.declare("total", Type.INT, 0)
        Evaluator().run_program(program, env)

        class Store:
            pass

        v = Store()
        v.total = 0
        exec(stmts_to_py(program, name_prefix="v."),
             {"v": v, "c_div": c_div, "c_mod": c_mod})
        assert v.total == env.lookup("total") == 385
