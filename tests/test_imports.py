"""``src`` imports the standard library, numpy and itself, nothing else,
and no module of ``src`` or ``tests`` imports a name it does not use.

The library loads numpy and the standard library only, and numpy only
as ``numpy``.  An import of any other top-level name anywhere in
``src/interlace``, a fixture of ``tests/`` or a module of ``perfbench/``
among them, or of a numpy submodule (``import numpy.x``, ``from numpy.x
import ...``), fails the first lint below, which names its file and line.  The second fails on each unused
import; the package's ``__init__.py`` re-exports, names in ``__all__``
and ``__future__`` imports are not counted.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "interlace"
TESTS = Path(__file__).resolve().parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "interlace"}


def _imports(path: Path) -> list:
    """(line, module) for every absolute import of the file; relative
    imports stay inside the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


def test_src_imports_only_the_standard_library_numpy_and_itself():
    imports = [(path, line, module) for path in sorted(SRC.glob("*.py"))
               for line, module in _imports(path)]
    assert "numpy" in {module for _, _, module in imports}
    found = [f"{path.relative_to(SRC.parents[1])}:{line} imports {module}"
             for path, line, module in imports
             if module.partition(".")[0] not in ALLOWED or module.startswith("numpy.")]
    assert not found, ("src imports outside the standard library, numpy and "
                       "interlace, or a numpy submodule: " + ", ".join(found))


def _unused_imports(path: Path) -> list:
    """(line, name) for every name the file imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"] \
        + sorted(TESTS.glob("*.py"))
    found = [f"{path.relative_to(SRC.parents[1])}:{line} imports {name}"
             for path in paths for line, name in _unused_imports(path)]
    assert not found, "unused imports: " + ", ".join(found)
