"""The committed exact outputs: every CLI call whose output is exact, and
the SHA-256 of each one's canonical JSON, whole.

The set is every bench instance of seeds 0-2 whose command runs exactly
(all ``lift`` rows, the exact ``ri`` rows, and the exact rank-one and
full-rank ``mixedchar`` rows, drawn from ``perfbench/instances.py``),
plus the exact ``ri`` and ``weaver`` inputs of the CI workflow and one
deeper exact ``ri`` walk, n=32, k=16.  Every number these calls print
comes from exact arithmetic: ``lift``'s ``lambda_max_signed`` is its
certificate's ``achieved`` and an exact ``weaver`` norm the top root of
chi of its side's exact Gram sum.  No field is left out of a digest, and
``tests/test_exact_outputs.py`` runs the set with the ``numpy.linalg``
solvers patched to raise, so the outputs depend on neither BLAS nor the
numpy version.

A change that moves an exact output regenerates the file, from the
repository root, by

    PYTHONPATH=src python tests/exact_outputs.py

which rewrites ``tests/exact_outputs.json``; the change then names the
instances whose digests moved.  The entries named in ``SLOW`` are
written too, but the suite does not run them: CI's exact ``ri`` at
n=48, k=24 takes about 20 s, and the CI step that runs it compares its
output's :func:`record` with its entry.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from interlace.cli import main

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "exact_outputs.json"
SEEDS = (0, 1, 2)
# entries past what the suite runs, each checked by a CI step instead
SLOW = ("ci/ri-rational48",)


@contextlib.contextmanager
def _bench_instances():
    """perfbench/instances.py, loaded by path under a private module name,
    so that neither sys.path nor later imports change."""
    spec = importlib.util.spec_from_file_location(
        "_bench_instances", HERE.parent / "perfbench" / "instances.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _exact(inst) -> bool:
    return (inst.workload == "lift" or (inst.workload == "ri" and inst.family == "exact")
            or (inst.workload == "mixedchar" and inst.family in ("rank1", "fullrank")))


def cases(slow: bool = False) -> list:
    """(id, argv without the input path, input suffix, input text) of
    every instance of the set, bench instances first, those of ``SLOW``
    only if ``slow``."""
    with _bench_instances() as bench:
        out = [(f"seed{seed}/{inst.id}", inst.args, inst.suffix, inst.text)
               for seed in SEEDS for workload in ("ri", "lift", "mixedchar")
               for inst in bench.build(workload, seed) if _exact(inst)]

        def rational(n):
            rows = bench.rational_isotropic(np.random.default_rng(n), n)
            return json.dumps({"vectors": [[str(x) for x in r] for r in rows]})

        def cayley(seed, d):
            rng = np.random.default_rng(seed)
            return json.dumps({"vectors": [[str(x / 2) for x in row] for _ in range(4)
                                           for row in bench.cayley_orthogonal(rng, d)]})

        frame = json.dumps({"vectors": [["1/2" if j == i else "0" for j in range(4)]
                                        for i in range(4) for _ in range(4)]})
        out += [
            ("ci/ri-rational12", ["ri", "-k", "6", "--mode", "exact"], ".json", rational(12)),
            ("ci/ri-frame", ["ri", "-k", "2", "--mode", "exact"], ".json", frame),
            ("ci/ri-rational24", ["ri", "-k", "12", "--mode", "exact"], ".json", rational(24)),
            ("deep/ri-rational32", ["ri", "-k", "16", "--mode", "exact"], ".json", rational(32)),
            ("ci/weaver-rational3", ["weaver", "--mode", "exact"], ".json", rational(3)),
            ("ci/weaver-cayley12", ["weaver", "--mode", "exact"], ".json", cayley(12, 3)),
            ("ci/weaver-cayley16", ["weaver", "--mode", "exact"], ".json", cayley(16, 4)),
        ]
        if slow:
            out.append(("ci/ri-rational48", ["ri", "-k", "24", "--mode", "exact"], ".json",
                        rational(48)))
    return out


def run(args: list, suffix: str, text: str, tmp: Path) -> tuple:
    """(exit code, parsed output or None, stderr text) of one in-process CLI call."""
    inp, outp = tmp / ("input" + suffix), tmp / "output.json"
    inp.write_text(text)
    outp.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([args[0], str(inp), *args[1:], "--out", str(outp)])
    payload = json.loads(outp.read_text()) if outp.exists() else None
    return code, payload, err.getvalue()


def _sha(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode()).hexdigest()


def record(code: int, payload, err: str) -> dict:
    """The committed entry of one call: its exit code, the SHA-256 of its
    canonical output (of its stderr when it prints nothing), and a short
    digest per top-level field, which names the first that moved."""
    if payload is None:
        return {"exit": code, "sha256": _sha(err), "fields": {}}
    return {"exit": code, "sha256": _sha(payload),
            "fields": {k: _sha(v)[:12] for k, v in payload.items()}}


def moved(old: dict, new: dict) -> str | None:
    """How entry ``new`` differs from the committed ``old``: its exit codes
    and first moved field, or None if they are equal."""
    if old == new:
        return None
    fields = [k for k in new["fields"] if new["fields"][k] != old["fields"].get(k)]
    fields += [k for k in old["fields"] if k not in new["fields"]]
    return f"exit {old['exit']} -> {new['exit']}, first moved field " + \
        (fields[0] if fields else "stderr")


def generate() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {ident: record(*run(args, suffix, text, Path(tmp)))
                for ident, args, suffix, text in cases(slow=True)}


if __name__ == "__main__":
    digests = generate()
    DIGESTS.write_text("{\n" + ",\n".join(f"{json.dumps(ident)}: {json.dumps(entry)}"
                                         for ident, entry in sorted(digests.items()))
                       + "\n}\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
