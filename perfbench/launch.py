"""Start ``prophet serve`` / ``prophet route`` for the benchmark.

    python3 -m perfbench.launch --role replica [--trace-dir DIR] -- serve ...

Without ``--trace-dir`` this is exactly ``repro.cli.main``.  With it,
the role's wrappers are installed first, and the process's spans are
written to ``DIR`` once the command returns (on SIGINT, after the
server has drained and closed).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from perfbench.common import import_program


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.launch")
    parser.add_argument("--role", choices=("replica", "router"),
                        required=True)
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] \
        else args.command
    import_program()
    from repro.cli import main as prophet
    tracer = None
    if args.trace_dir is not None:
        from perfbench.layers import INSTALLERS
        tracer = INSTALLERS[args.role](args.trace_dir)
    try:
        return prophet(command)
    finally:
        if tracer is not None:
            tracer.dump_to_dir()


if __name__ == "__main__":
    sys.exit(main())
