"""Count the code lines of Python modules.

A code line is a line that carries a token other than a comment; blank
lines, comment lines and the lines of module, class and function
docstrings do not count.  A statement split over several lines counts each
line, and so does a string literal that is not a docstring.

Given directories, it prints the count of each module under them and the
total:

    python tests/code_lines.py src/ribbonminor
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``.

    >>> code_lines("'''Doc.'''\\n\\n# note\\ndef f(x):\\n    '''Doc\\n    more.'''\\n    return (x +\\n            1)  # sum\\n")
    3
    """
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> None:
    total = 0
    for root in argv:
        for path in sorted(Path(root).rglob("*.py")):
            n = code_lines(path.read_text())
            total += n
            print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
