"""Every name the package exports has a caller outside its own definition,
and every member of an exported class has a reader."""

import ast
import inspect
from pathlib import Path

import holoris

ROOT = Path(__file__).resolve().parent.parent

# exported without a caller yet, with the reason
UNCALLED = {
    # the bowl spectrum of the unbounded aperture, for the convergence
    # study's column (ROADMAP item 5)
    "asymptotic_spectrum",
}

# members without a reader yet, with the reason: the run health record
# writes them (ROADMAP item 3)
UNREAD = {"EigenSpectrum.negative_mass"}

# modules whose attribute reads count: the package, the acceptance suite
# and the benchmark
READERS = (*sorted((ROOT / "src" / "holoris").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py")))


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


def attribute_reads(path: Path) -> set[str]:
    """Attributes a module loads, as in ``x.name`` outside an assignment."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def class_members(cls: type) -> set[str]:
    """Members a class body defines: dataclass fields, enum members,
    methods and properties, and the attributes ``__init__`` sets on
    ``self``; dunder names left out."""
    tree = ast.parse(Path(inspect.getsourcefile(cls)).read_text())
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == cls.__name__).body
    names = set()
    for item in body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names.add(item.target.id)
        elif isinstance(item, ast.Assign):
            names.update(t.id for t in item.targets if isinstance(t, ast.Name))
        elif isinstance(item, ast.FunctionDef):
            names.add(item.name)
            if item.name == "__init__":
                names.update(node.attr for node in ast.walk(item)
                             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                             and isinstance(node.value, ast.Name) and node.value.id == "self")
    return {name for name in names if not name.startswith("__")}


def test_every_member_of_an_exported_class_is_read():
    """A field, property, method, enum member or ``__init__`` attribute of
    a class in ``holoris.__all__``, or of a package class it derives from,
    is read as an attribute by the package, the acceptance suite or the
    benchmark (or wrapped by name in ``perfbench/spans.py``)."""
    read = set().union(*map(attribute_reads, READERS))
    read |= referenced_names(ROOT / "perfbench" / "spans.py", strings=True)
    classes = {base for name in holoris.__all__ if inspect.isclass(obj := getattr(holoris, name))
               for base in obj.__mro__ if base.__module__.startswith("holoris.")}
    assert len(classes) >= 15
    unread = {f"{cls.__name__}.{member}" for cls in classes
              for member in class_members(cls) if member not in read}
    assert unread == UNREAD
