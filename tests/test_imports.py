"""``src`` imports the standard library, numpy and itself, nothing else.

The library loads numpy and the standard library only.  An import of
any other top-level name anywhere in ``src/interlace``, a fixture of
``tests/`` or a module of ``perfbench/`` among them, fails the lint
below, which names its file and line.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "interlace"
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
             for path, line, module in imports if module.partition(".")[0] not in ALLOWED]
    assert not found, ("src imports outside the standard library, numpy and "
                       "interlace: " + ", ".join(found))
