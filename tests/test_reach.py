"""Every function of ``src`` is entered by some CLI input.

A fresh interpreter runs ``cli.main`` on a fixed list of inputs under
``sys.setprofile``, so that no cache filled by an earlier test hides a
function, and reports the functions of ``interlace`` that no call
entered: every function whose code lives in a module's own file, at
module level or as a member of a class defined there (methods,
properties' getters, static and class methods).  Members that
``NamedTuple`` and ``@dataclass`` generate have no code in the file and
are not counted, nor are the protocol methods of :data:`EXEMPT`.  The
functions never entered must be exactly :data:`UNREACHED`, each there
for its reason; anything else that no command runs belongs in
``tests/fixtures.py``, ``tests/paper.py``, ``tests/barrier.py`` or
``tests/oracles.py``.  Within the one walk loop, ``select._walk``, and
its rule, ``select._keep``, line events show every statement run by some
input but the rule's ``raise``: among them a level decided by symmetry
and a level that falls back.  The one module no command imports,
``interlace.barrier``, is there for the bench's tracer alone and must
hold its docstring and nothing else.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import interlace.select as select_module
from fixtures import random_isotropic

SRC = Path(__file__).resolve().parents[1] / "src"

UNREACHED = {
    # the tracer times Polynomial arithmetic by patching these names on
    # the class (ARITH); the commands enter the other four
    "poly.Polynomial.derivative": "tracer",
}

# Printing, comparing and hashing, and Polynomial's refusal of writes:
# they make the value types usable, whether or not a command calls them.
EXEMPT = ("__repr__", "__eq__", "__hash__", "__setattr__")

# Runs each argv through cli.main with the profiler on, and with line
# events in select._walk and select._keep, then prints the exit codes, the
# functions never entered and the lines of _walk and _keep run.
PROBE = """
import contextlib, importlib, inspect, io, json, pkgutil, sys
import numpy
codes, walk_lines = set(), set()

def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)

def lines(frame, event, arg):
    if event == "line":
        walk_lines.add((frame.f_code.co_name, frame.f_lineno))
    return lines

sys.setprofile(profile)
import interlace
from interlace.cli import main
from interlace.select import _keep, _walk

def trace(frame, event, arg):
    # line events in the walk loop's and the rule's frames alone
    return lines if frame.f_code in (_walk.__code__, _keep.__code__) else None

sys.settrace(trace)
exits = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        exits.append(main(argv))
sys.setprofile(None)
sys.settrace(None)
exempt = set(json.loads(sys.argv[2]))

def functions(mod):
    for name, obj in vars(mod).items():
        if inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if attr not in exempt:
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, inspect.unwrap(obj)

unentered = []
for info in pkgutil.iter_modules(interlace.__path__):
    mod = importlib.import_module("interlace." + info.name)
    for name, fn in functions(mod):
        if inspect.isfunction(fn) and fn.__code__.co_filename == mod.__file__ \\
                and fn.__code__ not in codes:
            unentered.append(f"{info.name}.{name}")
print(json.dumps([exits, sorted(unentered), sorted(walk_lines)]))
"""


def _statement_lines(fn, kind=ast.stmt) -> set:
    """(name of ``fn``, first line) of every statement of ``kind`` in the
    body of ``fn`` but its docstring."""
    source, start = inspect.getsourcelines(fn)
    body = ast.parse(textwrap.dedent("".join(source))).body[0].body[1:]
    return {(fn.__name__, node.lineno + start - 1) for stmt in body for node in ast.walk(stmt)
            if isinstance(node, kind)}


def _write(path: Path, data) -> str:
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def _system(n: int, m: int, seed: int) -> dict:
    vs = random_isotropic(n, m, np.random.default_rng(seed))
    return {"vectors": vs.vectors.tolist()}


def test_cli_inputs_enter_every_function_off_the_list(tmp_path):
    iso4 = _write(tmp_path / "iso4.json", _system(4, 8, 0))
    iso8 = _write(tmp_path / "iso8.json", _system(8, 16, 0))
    d3m6 = _write(tmp_path / "d3m6.json", _system(3, 6, 1))
    d3m21 = _write(tmp_path / "d3m21.json", _system(3, 21, 2))
    d7m24 = _write(tmp_path / "d7m24.json", _system(7, 24, 7))
    # rows of a rational rotation and of I, scaled by 3/5 and 4/5
    rot = _write(tmp_path / "rot.json", {"vectors": [["9/25", "12/25"], ["-12/25", "9/25"],
                                                     ["4/5", "0"], ["0", "4/5"]]})
    # e_i / 2, each four times: every level-0 ri child equals the pledge
    quarters = _write(tmp_path / "quarters.json",
                      {"vectors": [["1/2" if j == i else "0" for j in range(4)]
                                   for i in range(4) for _ in range(4)]})
    k33 = _write(tmp_path / "k33.txt", "".join(f"{a} {b}\n" for a in range(3)
                                               for b in range(3, 6)))
    floats = _write(tmp_path / "floats.json", [[[1.0, 0.5], [0.5, 1.0]], [[2.0, 0.0], [0.0, 1.0]]])
    rank_one = _write(tmp_path / "rank1.json", [[[1, 1], [1, 1]], [[1, -1], [-1, 1]]])
    full_rank = _write(tmp_path / "full.json", [[[2, 1], [1, 1]], [[1, "1/3"], ["1/3", 1]]])
    huge = _write(tmp_path / "huge.json", f"[[[{10 ** 400}]]]")  # its root is past the floats
    nan = _write(tmp_path / "nan.json", '{"vectors": [[NaN]]}')
    # 400 rows in R^4, whitened: rounding leaves some late levels with no
    # child at most its parent's top root, and they fall back, the one
    # input whose walk runs _keep's fallback
    g = np.random.default_rng(400).standard_normal((400, 4))
    w, u = np.linalg.eigh(g.T @ g)
    d4m400 = _write(tmp_path / "d4m400.json", {"vectors": (g @ (u / np.sqrt(w)) @ u.T).tolist()})
    calls = [
        (["ri", iso4, "-k", "2"], 0),
        (["ri", iso8, "-k", "4"], 0),                # iso4's shifts all stop at their starts
        (["ri", rot, "-k", "1", "--mode", "exact"], 0),
        (["ri", quarters, "-k", "2", "--mode", "exact"], 0),
        (["weaver", d3m21], 0),                      # the engine route
        (["weaver", d3m6], 0),                       # the enumeration route
        (["weaver", rot, "--mode", "exact"], 0),     # vector 0's level keeps the pledge
        (["weaver", d7m24], 4),
        (["weaver", d4m400], 0),
        (["lift", k33], 0),                          # its forest edges keep their parent
        (["mixedchar", floats], 0),
        (["mixedchar", rank_one, "--mode", "exact"], 0),
        (["mixedchar", full_rank, "--mode", "exact"], 0),
        (["mixedchar", huge, "--mode", "exact"], 5),
        (["ri", iso4, "-k", "2", "--tol", "1e-6"], 0),
        (["ri", nan, "-k", "1"], 2),
    ]
    # run from tmp_path, so that nothing but src is importable
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps([a for a, _ in calls]),
                           json.dumps(EXEMPT)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    exits, unentered, walk_lines = json.loads(proc.stdout)
    assert exits == [code for _, code in calls]
    assert unentered == sorted(UNREACHED)
    # every statement of the one walk loop and of its rule runs, but the
    # rule's raise: an exact child equal to its parent is kept, and a
    # float level falls back
    keep = select_module._keep
    assert set(map(tuple, walk_lines)) == _statement_lines(select_module._walk) | (
        _statement_lines(keep) - _statement_lines(keep, ast.Raise))


def test_the_barrier_module_holds_a_docstring_alone():
    # perfbench/tracing.py imports every module of its LAYERS by name,
    # interlace.barrier among them; the barriers are in tests/barrier.py
    tree = ast.parse((SRC / "interlace" / "barrier.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree) and len(tree.body) == 1
