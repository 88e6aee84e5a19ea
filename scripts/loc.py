#!/usr/bin/env python3
"""Line counts of the `wmin` package, one row per module, printed as a table.

For each module of `src/wmin` it prints its total lines and its code lines:
the lines that hold a token of code, read with the standard library's
`tokenize`, so that docstrings (a string that is a whole statement),
comments and blank lines do not count.  The last row sums the columns.

    python scripts/loc.py
"""
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wmin"

# tokens that are no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def counts(text: str) -> tuple:
    """(total lines, code lines) of one module's source."""
    code = set()
    statement = []  # the tokens of the logical line being read
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in LAYOUT:
            if tok.type == tokenize.NEWLINE and statement:
                # a statement that is one string is a docstring (or a bare
                # string used as one): no code
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        code.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(text.splitlines()), len(code)


def main() -> None:
    rows = [(path.stem, *counts(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    width = max(len(name) for name, _, _ in rows + [("total", 0, 0)])
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>6}")


if __name__ == "__main__":
    main()
