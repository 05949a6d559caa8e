"""Tests for id generation, identifier mangling, and the code writer."""

import pytest

from repro.util.ids import (
    IdGenerator,
    is_valid_identifier,
    mangle_identifier,
    unique_name,
)
from repro.util.textwriter import CodeWriter


class TestIdGenerator:
    def test_sequential(self):
        ids = IdGenerator()
        assert [ids.next_id() for _ in range(3)] == [1, 2, 3]

    def test_custom_start(self):
        assert IdGenerator(start=10).next_id() == 10

    def test_reserve_skips_used(self):
        ids = IdGenerator()
        ids.reserve(5)
        assert ids.next_id() == 6

    def test_reserve_below_current_ignored(self):
        ids = IdGenerator(start=10)
        ids.reserve(3)
        assert ids.next_id() == 10

    def test_peek_does_not_consume(self):
        ids = IdGenerator()
        assert ids.peek == 1
        assert ids.next_id() == 1

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            IdGenerator(start=-1)


class TestIdentifiers:
    def test_valid_identifiers(self):
        assert is_valid_identifier("kernel6")
        assert is_valid_identifier("_x9")

    def test_invalid_identifiers(self):
        assert not is_valid_identifier("")
        assert not is_valid_identifier("9lives")
        assert not is_valid_identifier("a-b")
        assert not is_valid_identifier("class")   # python keyword
        assert not is_valid_identifier("double")  # C++ keyword

    def test_fig4_mangling(self):
        # Kernel6 → kernel6 (only the first letter lowers).
        assert mangle_identifier("Kernel6", lower_first=True) == "kernel6"
        assert mangle_identifier("SA1", lower_first=True) == "sA1"

    def test_illegal_characters_replaced(self):
        assert mangle_identifier("my element!") == "my_element_"

    def test_leading_digit_prefixed(self):
        assert mangle_identifier("2fast") == "_2fast"

    def test_keyword_suffixed(self):
        assert mangle_identifier("while") == "while_"
        assert mangle_identifier("class") == "class_"

    def test_empty_name(self):
        assert mangle_identifier("") == "_"

    def test_unique_name(self):
        taken = {"x"}
        assert unique_name("x", taken) == "x_2"
        taken.add("x_2")
        assert unique_name("x", taken) == "x_3"
        assert unique_name("y", taken) == "y"


class TestCodeWriter:
    def test_basic_lines(self):
        writer = CodeWriter()
        writer.writeln("a")
        writer.writeln("b")
        assert writer.text() == "a\nb\n"
        assert len(writer) == 2

    def test_indentation(self):
        writer = CodeWriter()
        writer.writeln("top")
        writer.indent()
        writer.writeln("nested")
        writer.dedent()
        writer.writeln("back")
        assert writer.lines == ["top", "    nested", "back"]

    def test_custom_indent_unit(self):
        writer = CodeWriter(indent_unit="  ")
        writer.indent()
        writer.writeln("x")
        assert writer.lines == ["  x"]

    def test_dedent_below_zero_rejected(self):
        with pytest.raises(ValueError):
            CodeWriter().dedent()

    def test_blank_collapses_runs(self):
        writer = CodeWriter()
        writer.writeln("a")
        writer.blank()
        writer.blank()
        writer.writeln("b")
        assert writer.lines == ["a", "", "b"]

    def test_blank_lines_carry_no_indent(self):
        writer = CodeWriter()
        writer.indent()
        writer.writeln("")
        assert writer.lines == [""]

    def test_block_context_manager(self):
        writer = CodeWriter()
        with writer.block("if (x) {", "}"):
            writer.writeln("y();")
        assert writer.lines == ["if (x) {", "    y();", "}"]

    def test_block_without_close(self):
        writer = CodeWriter()
        with writer.block("def f():", None):
            writer.writeln("pass")
        assert writer.lines == ["def f():", "    pass"]

    def test_numbered_output_fig8_style(self):
        writer = CodeWriter()
        writer.writeln("int GV;")
        writer.writeln("int P;")
        assert writer.numbered() == "  1: int GV;\n  2: int P;"

    def test_write_lines(self):
        writer = CodeWriter()
        writer.indent()
        writer.write_lines(["a", "b"])
        assert writer.lines == ["    a", "    b"]


class TestStableHashFloatCanonicalization:
    """Regression: pathological floats in fingerprints (sweep keys)."""

    def test_negative_zero_hashes_like_positive_zero(self):
        from repro.util.hashing import canonical_json, stable_hash
        assert stable_hash({"latency": -0.0}) == \
            stable_hash({"latency": 0.0})
        assert canonical_json([-0.0, {"x": -0.0}]) == \
            canonical_json([0.0, {"x": 0.0}])

    def test_nested_negative_zero_normalized(self):
        from repro.util.hashing import canonical_json
        assert "-0.0" not in canonical_json(
            {"a": [(-0.0,), {"b": -0.0}], "c": -0.0})

    def test_nan_rejected(self):
        import pytest as _pytest

        from repro.util.hashing import stable_hash
        with _pytest.raises(ValueError, match="NaN"):
            stable_hash({"x": float("nan")})

    def test_infinities_still_hash_deterministically(self):
        # inf appears in valid configs (eager_threshold=inf == "always
        # eager") and compares reproducibly — it must keep hashing as it
        # did before NaN rejection was added.
        from repro.util.hashing import stable_hash
        assert stable_hash({"x": float("inf")}) == \
            stable_hash({"x": float("inf")})
        assert stable_hash({"x": float("inf")}) != \
            stable_hash({"x": float("-inf")})

    def test_infinite_network_config_fingerprint_hashes(self):
        from repro.machine.network import NetworkConfig
        config = NetworkConfig(eager_threshold=float("inf"))
        assert config.structural_hash() == config.structural_hash()

    def test_ordinary_floats_unchanged(self):
        from repro.util.hashing import canonical_json
        assert canonical_json({"x": 2.5, "n": 3}) == '{"n":3,"x":2.5}'
