"""Print the code lines of each module of `src/wmtr` and their total.

A code line is a line that holds a token other than a comment and is
not part of a module, class or function docstring; a token that spans
lines, such as a long string, counts on each of them.

    python3 scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wmtr"

# tokens that are layout or comment, not code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6}  {path.name}")
    print(f"{total:6}  total")


if __name__ == "__main__":
    main()
