"""Indentation-aware code writer used by all code emitters.

The C++ and Python emitters and the program skeleton share this writer:
it tracks the current indentation level and numbers lines on demand (the
paper's Fig. 8 discusses the generated C++ *by line number*, so tests
reference numbered output).
"""

from __future__ import annotations


class CodeWriter:
    """Accumulates lines of generated code with managed indentation."""

    def __init__(self, indent_unit: str = "    ") -> None:
        self._indent_unit = indent_unit
        self._level = 0
        self._lines: list[str] = []

    # -- writing ----------------------------------------------------------

    def writeln(self, text: str = "") -> None:
        """Append one line at the current indentation (blank lines unindented)."""
        if text:
            self._lines.append(self._indent_unit * self._level + text)
        else:
            self._lines.append("")

    def write_lines(self, lines) -> None:
        for line in lines:
            self.writeln(line)

    def blank(self) -> None:
        """Append a blank separator line, collapsing runs of blanks."""
        if self._lines and self._lines[-1] != "":
            self._lines.append("")

    # -- indentation ------------------------------------------------------

    def indent(self) -> None:
        self._level += 1

    def dedent(self) -> None:
        if self._level == 0:
            raise ValueError("cannot dedent below level 0")
        self._level -= 1

    class _Block:
        def __init__(self, writer: "CodeWriter", open_line: str | None,
                     close_line: str | None) -> None:
            self._writer = writer
            self._open = open_line
            self._close = close_line

        def __enter__(self):
            if self._open is not None:
                self._writer.writeln(self._open)
            self._writer.indent()
            return self._writer

        def __exit__(self, exc_type, exc, tb):
            self._writer.dedent()
            if self._close is not None and exc_type is None:
                self._writer.writeln(self._close)
            return False

    def block(self, open_line: str | None = None,
              close_line: str | None = None) -> "_Block":
        """Context manager writing ``open_line``, indenting, then ``close_line``.

        ``with w.block("{", "}"):`` produces a C++ brace block;
        ``with w.block("if x:"):`` produces a Python suite.
        """
        return CodeWriter._Block(self, open_line, close_line)

    # -- output -----------------------------------------------------------

    @property
    def lines(self) -> list[str]:
        return list(self._lines)

    def text(self) -> str:
        return "\n".join(self._lines) + ("\n" if self._lines else "")

    def numbered(self, width: int = 3) -> str:
        """Render with 1-based line numbers, as the paper's Fig. 8 shows."""
        return "\n".join(
            f"{i:>{width}}: {line}" for i, line in enumerate(self._lines, start=1)
        )

    def __len__(self) -> int:
        return len(self._lines)
