"""The code-line counter (``tools/code_lines.py``) that tracks the size
of ``src/holoris``: its counting rules on a small snippet."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


def f(x):
    """Function docstring."""
    "a bare string" "statement"
    text = """a string

    with a blank line"""
    return (x +
            math.pi)
'''


def test_counting_rules():
    # counted: import, def, text = (two non-blank lines), return (two lines)
    assert code_lines.code_lines(SNIPPET) == 6


def test_empty_and_docstring_only_sources():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_report_totals_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["7", "total"]
