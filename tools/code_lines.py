"""Count code lines: non-blank lines of Python, comments and docstrings out.

A line counts when it holds at least one token of code.  Blank lines,
comment-only lines and every line of a bare string statement (module,
class and function docstrings, and the attribute docstrings that follow
an assignment) do not.  The figure tracks how much program a change
adds or removes, independent of how much it explains.

Usage::

    python tools/code_lines.py src [more paths ...]

Each path is a ``.py`` file or a directory searched recursively.
Prints one ``lines  path`` row per file, then the total.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every bare string statement."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of one module's source text."""
    skipped = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        for line in range(token.start[0], token.end[0] + 1):
            if line not in skipped:
                lines.add(line)
    return len(lines)


def _files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help=".py files or directories")
    args = parser.parse_args(argv)
    total = 0
    for path in _files(args.paths):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
