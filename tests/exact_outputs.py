"""The committed exact outputs: every CLI call whose output is exact, and
the SHA-256 of each one's canonical JSON.

The set is every bench instance of seeds 0-2 whose command runs exactly
(all ``lift`` rows, the exact ``ri`` rows, and the exact rank-one and
full-rank ``mixedchar`` rows, drawn from ``perfbench/instances.py``),
plus the exact ``ri`` and ``weaver`` inputs of the CI workflow and one
deeper exact ``ri`` walk, n=32, k=16.  Exact outputs depend on neither
BLAS nor the numpy version, so their digests can be pinned.  ``lift``'s ``lambda_max_signed`` comes from a float
``eigvalsh``: it is left out of the digest, and
``tests/test_exact_outputs.py`` recomputes it instead.

A change that moves an exact output regenerates the file, from the
repository root, by

    PYTHONPATH=src python tests/exact_outputs.py

which rewrites ``tests/exact_outputs.json``; the change then names the
instances whose digests moved.

CI's exact ``ri`` at n=48, k=24 takes about 20 s, past what the suite
runs, and its step checks the SHA-256 of its output against
``tests/ri48_exact.sha256``, which, from the repository root,

    PYTHONPATH=src:perfbench:tests python -c "import json, pathlib, tempfile, numpy as np; from instances import rational_isotropic; from exact_outputs import _sha, run; d = tempfile.TemporaryDirectory(); text = json.dumps({'vectors': [[str(x) for x in r] for r in rational_isotropic(np.random.default_rng(48), 48)]}); print(_sha(run(['ri', '-k', '24', '--mode', 'exact'], '.json', text, pathlib.Path(d.name))[1]))" > tests/ri48_exact.sha256

rewrites.
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
# fields whose values come from float eigvalsh, checked by recomputation
FLOAT_FIELDS = ("lambda_max_signed",)


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


def cases() -> list:
    """(id, argv without the input path, input suffix, input text) of
    every instance of the set, bench instances first."""
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


def pinned(payload) -> dict | None:
    """The output with the float fields left out, or None for no output."""
    if payload is None:
        return None
    if payload.get("command") == "lift":
        steps = [{k: v for k, v in s.items() if k not in FLOAT_FIELDS}
                 for s in payload["steps"]]
        return dict(payload, steps=steps)
    return payload


def record(code: int, payload, err: str) -> dict:
    """The committed entry of one call: its exit code, the SHA-256 of its
    canonical pinned output (of its stderr when it prints nothing), and a
    short digest per top-level field, which names the first that moved."""
    body = pinned(payload)
    if body is None:
        return {"exit": code, "sha256": _sha(err), "fields": {}}
    return {"exit": code, "sha256": _sha(body),
            "fields": {k: _sha(v)[:12] for k, v in body.items()}}


def generate() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {ident: record(*run(args, suffix, text, Path(tmp)))
                for ident, args, suffix, text in cases()}


if __name__ == "__main__":
    digests = generate()
    DIGESTS.write_text("{\n" + ",\n".join(f"{json.dumps(ident)}: {json.dumps(entry)}"
                                         for ident, entry in sorted(digests.items()))
                       + "\n}\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
