"""Count the code lines of each module of ``src/holoris`` and their total.

A code line is a non-blank line that holds a token outside comments and
docstrings.  A docstring here is any statement made of string literals
alone, wherever it stands.

Run from the repository root:

    python3 tools/code_lines.py [DIR]
"""

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in Python ``source``."""
    lines, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    text = source.splitlines()
    return sum(1 for n in lines if text[n - 1].strip())


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/holoris")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
