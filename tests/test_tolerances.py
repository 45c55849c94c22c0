"""Every float tolerance of the package lives in ``interlace.tolerances``.

A float literal of magnitude below 1e-3 anywhere else in
``src/interlace`` is a slack without a name or a reason; the lint below
fails on each one, naming its file and line.
"""

import ast
from pathlib import Path

import interlace.tolerances

SRC = Path(__file__).resolve().parents[1] / "src" / "interlace"
TABLE = SRC / "tolerances.py"


def _small_float_lines(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and 0 < abs(node.value) < 1e-3)


def test_no_float_tolerance_outside_the_table():
    found = [f"{path.relative_to(SRC.parents[1])}:{line}"
             for path in sorted(SRC.glob("*.py")) if path != TABLE
             for line in _small_float_lines(path)]
    assert not found, ("float literals below 1e-3 outside tolerances.py, "
                       "name them there with their reason: " + ", ".join(found))


def test_the_table_names_each_tolerance_once_with_its_reason():
    text = TABLE.read_text(encoding="utf-8")
    tree = ast.parse(text)
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom))
                   for node in ast.walk(tree))
    lines = text.splitlines()
    names = []
    for node in tree.body:
        if isinstance(node, ast.Expr):  # the module docstring
            continue
        assert isinstance(node, ast.Assign) and len(node.targets) == 1, \
            f"tolerances.py:{node.lineno} is not one named constant"
        name = node.targets[0].id
        assert lines[node.lineno - 2].startswith("# "), \
            f"tolerances.py:{node.lineno}: {name} has no reason above it"
        value = getattr(interlace.tolerances, name)
        assert type(value) is float and 0 < value < 1e-3, name
        names.append(name)
    assert len(set(names)) == len(names)
    assert _small_float_lines(TABLE) == sorted(n.lineno for n in tree.body
                                               if isinstance(n, ast.Assign))
