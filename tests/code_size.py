"""The size of the library, per module: code lines and AST nodes.

    python tests/code_size.py [BASE_SRC]

For each module of ``src/unital`` it prints the code lines, those holding
a token that is neither part of a docstring, a comment nor blank space,
and the number of nodes in the module's AST (``ast.walk``), then the
totals.  With BASE_SRC, the ``src`` directory of another checkout of this
repository, it also prints each figure there and the change from it; a
module present on one side only counts as empty on the other.

It reports and judges nothing: the exit status is 0, or 2 for a usage
error.  Only the standard library is needed; pytest does not collect this
file, and no test imports it.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def measure(text):
    """(code lines, AST nodes) of one module's source text."""
    tree = ast.parse(text)
    docstrings, code = _docstring_lines(tree), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings), sum(1 for _ in ast.walk(tree))


def sizes(src):
    """{module name: (code lines, AST nodes)} for the package under src."""
    return {path.stem: measure(path.read_text(encoding="utf-8"))
            for path in sorted((Path(src) / "unital").glob("*.py"))}


def _change(was, now):
    """The base figures and the change from them, as printed."""
    return "".join(f"   {w:>6,} {n - w:+5,}" for w, n in zip(was, now))


def main(argv):
    if len(argv) > 1 or argv and not (Path(argv[0]) / "unital").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("BASE_SRC must be a directory holding unital/", file=sys.stderr)
        return 2
    here = sizes(ROOT / "src")
    base = sizes(argv[0]) if argv else None
    rows = sorted(set(here) | set(base or ()))
    header = f"{'module':14} {'code lines':>10} {'AST nodes':>10}"
    print(header + ("   base change" * 2 if base is not None else ""))
    total, base_total = [0, 0], [0, 0]
    for name in rows:
        figures = here.get(name, (0, 0))
        total = [t + x for t, x in zip(total, figures)]
        line = f"{name:14} {figures[0]:10,} {figures[1]:10,}"
        if base is not None:
            was = base.get(name, (0, 0))
            base_total = [t + x for t, x in zip(base_total, was)]
            line += _change(was, figures)
        print(line)
    line = f"{'total':14} {total[0]:10,} {total[1]:10,}"
    print(line + (_change(base_total, total) if base is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
