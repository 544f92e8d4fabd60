"""Count code lines: lines holding a token, less comments, blank lines and
docstrings.

A string spanning several lines holds each of them. A docstring is the
string that opens a module, class or function body; ``ast`` gives its span.
The count gates nothing. Usage, printing each file's count and the total:

    python tools/code_lines.py src/pathpairs/*.py
"""

import ast
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: str) -> int:
    with open(path, "rb") as handle:
        source = handle.read()
        handle.seek(0)
        tokens = tokenize.tokenize(handle.readline)
        lines = {row for tok in tokens if tok.type not in NOT_CODE for row in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(source, path)):
        first = node.body[0] if isinstance(node, DOCUMENTED) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    counts = {path: code_lines(path) for path in sys.argv[1:]}
    for path, count in counts.items():
        print(f"{count:6d}  {path}")
    print(f"{sum(counts.values()):6d}  total")
