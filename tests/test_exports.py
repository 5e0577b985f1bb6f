"""Every name the package exports has a caller outside its own definition."""

import ast
from pathlib import Path

import holoris

ROOT = Path(__file__).resolve().parent.parent

# exported without a caller yet, with the reason
UNCALLED = {
    # the bowl spectrum of the unbounded aperture, for the convergence
    # study's column (ROADMAP item 5)
    "asymptotic_spectrum",
}


def referenced_names(path: Path, strings: bool = False) -> set[str]:
    """Names a module uses: loaded names, attributes and imports, and with
    ``strings`` its string constants (attributes wrapped by name)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_export_has_a_caller():
    """A name in ``holoris.__all__`` is used by the package itself, by the
    acceptance suite or by the benchmark's span wrappers; the package
    carries no helper that only its unit tests run."""
    used = set()
    for path in sorted((ROOT / "src" / "holoris").glob("*.py")):
        if path.name != "__init__.py":
            used |= referenced_names(path)
    used |= referenced_names(ROOT / "tests" / "test_acceptance.py")
    used |= referenced_names(ROOT / "perfbench" / "spans.py", strings=True)
    uncalled = {name for name in holoris.__all__ if name not in used}
    assert uncalled == UNCALLED
