"""Certificate benchmark for the ``interlace`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload ri --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # all four, one after another
    python3 perfbench/run.py --self-test

Each instance is one in-process call of ``interlace.cli.main(argv)``: a
closed loop with one client, one instance at a time.  Inputs are generated
from ``--seed`` and written to disk before timing starts; outputs are
checked afterwards, independently of the library (``checks.py``).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs the same pass untraced and then traced (``tracing.py``) and reports
the per-layer metrics.  The last line of standard output is one JSON
object; everything before it is the human-readable report.  The run
record (instances, per-instance outcomes, environment) and the spans go to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("ri", "weaver", "lift", "mixedchar")
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
SETUP_CODE = ("import time; t0 = time.perf_counter(); import interlace.cli as c; "
              "c.build_parser(); print(time.perf_counter() - t0)")
# Modules that load numpy (instances, checks, speed, tracing, interlace) are
# imported inside functions, after pin_blas_threads() has run.

# A top rung ending in one of these documented refusals is the frontier,
# not a failed operation: precondition, budget, wall cap.
TOP_RUNG_OUTCOMES = ("3", "4", "cap")


class WallCap(BaseException):
    """Raised by the per-instance alarm; a BaseException so that no handler
    in the library can swallow it."""


def _on_alarm(signum, frame):
    raise WallCap()


def pin_blas_threads() -> int:
    """Cap BLAS threads at nproc before numpy loads; returns the setting."""
    want = NPROC
    for var in BLAS_VARS:
        with contextlib.suppress(KeyError, ValueError):
            want = min(want, int(os.environ[var]))
    want = max(1, want)
    for var in BLAS_VARS:
        os.environ[var] = str(want)
    return want


def git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


# ----------------------------------------------------------------------
# Running and checking instances
# ----------------------------------------------------------------------


def prepare(workload: str, seed: int):
    """Generate the instances and write their inputs; returns (instances, paths)."""
    import instances
    insts = instances.build(workload, seed)
    in_dir, out_dir = OUT_DIR / "inputs", OUT_DIR / "outputs"
    in_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for inst in insts:
        in_path = in_dir / (inst.id + inst.suffix)
        in_path.write_text(inst.text)
        paths[inst.id] = (in_path, out_dir / inst.id)
    return insts, paths


def call_cli(main, argv, cap_s: float):
    """One CLI call under the wall cap: (outcome, seconds, stderr text)."""
    sink, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            outcome = str(main(argv))
    except WallCap:
        outcome = "cap"
    except Exception:  # an escape from the library is one failed instance
        outcome = "exception"
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return outcome, time.perf_counter() - t0, err.getvalue()


def run_pass(insts, paths, cap_s, main, tag: str, tracer=None):
    """Run every instance once; returns (per-instance results, pass wall).

    Each result carries ``speed``, the speed factor around the instance
    (``speed.py``): the mean of the probes just before and just after it.
    """
    import speed
    results, probes = [], []
    t_pass = time.perf_counter()
    for inst in insts:
        in_path, out_stem = paths[inst.id]
        out_path = out_stem.with_suffix(f".{tag}.json")
        out_path.unlink(missing_ok=True)
        gc.collect()  # start every instance from the same collector state
        probes.append(speed.probe())
        if tracer is not None:
            tracer.start(inst.id)
        outcome, secs, err = call_cli(main, inst.argv(str(in_path), str(out_path)), cap_s)
        results.append({"id": inst.id, "outcome": outcome, "seconds": secs,
                        "stderr": err[-2000:], "out": out_path})
    probes.append(speed.probe())
    for res, factor in zip(results, speed.factors(probes)):
        res["speed"] = factor
    return results, time.perf_counter() - t_pass


def evaluate(inst, res, with_roots: bool):
    """Check one result in place: status becomes 'ok', 'wrong' or the outcome."""
    import checks
    res["status"] = res["outcome"]
    if res["outcome"] != "0":
        return
    try:
        payload = json.loads(res["out"].read_text())
        reason = checks.CHECKS[inst.workload](inst, payload)
    except (OSError, ValueError, KeyError, TypeError) as e:
        reason = f"unreadable output: {e!r}"
    res["status"] = "ok" if reason is None else "wrong"
    res["reason"] = reason
    if reason is None and with_roots and inst.workload in checks.ROOT_ERRORS:
        try:
            res["root_errs"] = checks.ROOT_ERRORS[inst.workload](inst, payload)
        except ArithmeticError as e:  # no bracket: the report counts it
            res["root_ref_missing"] = str(e)


def scaled_seconds(res) -> float:
    """Instance time at reference speed.  A capped instance took the
    harness's cap, not the program's time, so its time is not scaled."""
    return res["seconds"] if res["outcome"] == "cap" else res["seconds"] / res["speed"]


def unexpected_failure(inst, res) -> bool:
    return res["status"] != "ok" and not (inst.top and res["status"] in TOP_RUNG_OUTCOMES)


def measure_setup():
    """Import-and-parser time of the CLI, each in a fresh interpreter.

    Not scaled by the speed probe: a probe inside the short-lived child
    tracked its import time worse than no correction at all.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(insts, results, setup, rss_mb):
    """The end-to-end metrics, plus the details the report prints.

    Instance times are divided by the speed factor measured around them
    (``speed.py``), except a wall-cap hit; the details keep the raw values.
    """
    by_id = {inst.id: inst for inst in insts}
    n = len(results)
    tail_idx = max(0, n - 11)   # highest rank with ten instances beyond it
    valid = sum(r["status"] == "ok" for r in results)

    def summary(seconds):
        ranked = sorted(zip((r["status"] != "ok" for r in results), seconds))
        times = [t for _, t in ranked]
        return {"cert_s_p50": statistics.median(times),
                "cert_s_tail": times[tail_idx],
                "certs_per_s": valid / sum(times)}

    raw = summary([r["seconds"] for r in results])
    scaled = summary([scaled_seconds(r) for r in results])
    frontier = 0
    for size in sorted({inst.size for inst in insts if inst.rung}):
        if any(r["status"] != "ok" for r in results
               if by_id[r["id"]].rung and by_id[r["id"]].size == size):
            break
        frontier = size
    errs = [e for r in results for e in r.get("root_errs", [])]
    metrics = {
        "setup_s": statistics.median(setup),
        **scaled,
        "valid_frac": valid / n,
        "frontier": frontier,
        "peak_rss_mb": rss_mb,
    }
    details = {
        "samples": n, "valid": valid, "timed_s": sum(r["seconds"] for r in results),
        "setup_samples": setup,
        "pass_speed": statistics.mean(r["speed"] for r in results),
        "tail_percentile": 100.0 * (tail_idx + 1) / n, "tail_beyond": n - 1 - tail_idx,
        "fail_frac": 1.0 - valid / n,
        "failures": dict(Counter(r["status"] for r in results if r["status"] != "ok")),
        "root_err_max": max(errs) if errs else None, "root_err_count": len(errs),
        "root_ref_missing": sum("root_ref_missing" in r for r in results),
        "raw": raw,
    }
    return metrics, details


def print_report(workload, seed, metrics, units, d, size_name):
    n = d["samples"]
    print(f"workload {workload}  seed {seed}  instances {n}  mean speed factor "
          f"{d['pass_speed']:.4f} (times are raw / factor)")
    notes = {
        "setup_s": f"median of {len(d['setup_samples'])} fresh interpreters",
        "cert_s_p50": f"{n} instances, failures ranked slowest",
        "cert_s_tail": f"p{d['tail_percentile']:.1f}, {d['tail_beyond']} of {n} beyond",
        "certs_per_s": f"{d['valid']} valid; {d['timed_s']:.3f} s raw in main()",
        "valid_frac": f"{d['valid']} of {n}",
        "frontier": f"largest {size_name} with every rung up to it valid",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name, value in metrics.items():
        raw = f"raw {d['raw'][name]:.6g}; " if name in d["raw"] else ""
        print(f"  {name:<13} {value:>14.6g} {units[name]:<5} ({raw}{notes[name]})")
    fails = ", ".join(f"{'exit ' if k.isdigit() else ''}{k} x{v}"
                      for k, v in sorted(d["failures"].items())) or "none"
    print(f"  {'fail_frac':<13} {d['fail_frac']:>14.6g} {'frac':<5} ({fails})")
    if d["root_err_max"] is None:
        print(f"  {'root_err_max':<13} {'n/a':>14} {'rel':<5} (no reported roots)")
    else:
        print(f"  {'root_err_max':<13} {d['root_err_max']:>14.3g} {'rel':<5} "
              f"({d['root_err_count']} roots against 50-digit references, "
              f"{d['root_ref_missing']} instances without a reference)")


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------


def timed_run(workload, seconds, insts, paths, cap, main):
    """Passes with tracing off; returns (results, end-to-end metrics, details)."""
    import instances
    setup = measure_setup()
    passes = max(1, round(seconds / instances.NOMINAL_PASS_S[workload]))
    results = []
    for i in range(passes):
        results += run_pass(insts, paths, cap, main, f"p{i}")[0]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    by_id = {inst.id: inst for inst in insts}
    for res in results:
        evaluate(by_id[res["id"]], res, with_roots=True)
    metrics, details = end_to_end(insts, results, setup, rss_mb)
    return results, metrics, details


def traced_run(workload, seed, insts, paths, cap, main):
    """One pass untraced, the same pass traced; returns (results, metrics, record, ok)."""
    from tracing import Tracer
    untraced, wall_u = run_pass(insts, paths, cap, main, "untraced")
    tracer = Tracer().install()
    try:
        traced, wall_t = run_pass(insts, paths, cap,
                                  tracer.wrap(main, "cli", "cli.main", "harness"),
                                  "traced", tracer)
    finally:
        tracer.uninstall()
    by_id = {inst.id: inst for inst in insts}
    for res in untraced:
        evaluate(by_id[res["id"]], res, with_roots=False)
    identical = all(u["outcome"] == t["outcome"] and (
        u["outcome"] != "0" or u["out"].read_bytes() == t["out"].read_bytes())
        for u, t in zip(untraced, traced))
    exits = Counter("0" if r["status"] == "ok" else r["status"] for r in untraced)
    metrics = tracer.metrics(wall_t, sum(map(scaled_seconds, untraced)),
                             sum(map(scaled_seconds, traced)), exits)
    # Harness time is everything outside the root spans: the loop, gc, output
    # redirection, and unwinding after a cap.  Layer self times must cover
    # the root spans exactly, so the two add up to the traced wall.
    layer_s = sum(tracer.layer_self_s.values())
    harness_s = wall_t - tracer.root_s
    gap = layer_s + harness_s - wall_t
    accounted = abs(gap) <= 1e-3 * wall_t
    print(f"workload {workload}  seed {seed}  traced pass  instances {len(insts)}")
    print(f"  untraced wall {wall_u:.4f} s, traced wall {wall_t:.4f} s, "
          f"{len(tracer.spans)} spans")
    print(f"  layer self times {layer_s:.4f} s + harness {harness_s:.4f} s "
          f"= {layer_s + harness_s:.4f} s against traced wall {wall_t:.4f} s "
          f"({'ok' if accounted else 'MISMATCH'})")
    print(f"  traced outputs byte-identical to untraced: {identical}")
    for name, value in metrics.items():
        print(f"  {name:<38} {value:.6g}")
    tracer.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz")
    record = {"untraced_wall_s": wall_u, "traced_wall_s": wall_t,
              "identical": identical, "accounting_gap_s": gap,
              "traced_results": [_plain(r) for r in traced]}
    return untraced, metrics, record, identical and accounted


def run_workload(args, blas_threads) -> int:
    import instances
    import mpmath
    import numpy
    import scipy
    from interlace import cli

    workload, seed = args.workload, args.seed
    insts, paths = prepare(workload, seed)
    cap = instances.CAP_S[workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    # Untimed warm-up, so first-call costs inside the process are paid once.
    call_cli(cli.main, insts[0].argv(str(paths[insts[0].id][0]),
                                     str(OUT_DIR / "outputs" / "warmup.json")), cap)
    record = {
        "workload": workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": NPROC, "blas_threads": blas_threads, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__, "commit": git_commit(), "cap_s": cap,
        "instances": [inst.describe() for inst in insts],
    }
    if args.trace:
        results, metrics, extra, consistent = traced_run(
            workload, seed, insts, paths, cap, cli.main)
        units = declared_units("per_layer")
    else:
        results, metrics, extra = timed_run(
            workload, args.seconds, insts, paths, cap, cli.main)
        units = declared_units("end_to_end")
        print_report(workload, seed, metrics, units, extra, instances.SIZE_NAME[workload])
        consistent = True
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree "
                           "with BENCHMARK.json")

    by_id = {inst.id: inst for inst in insts}
    failed = sum(unexpected_failure(by_id[r["id"]], r) for r in results)
    correct = consistent and not any(r["status"] == "wrong" for r in results)
    record.update(metrics=metrics, details=extra, correct=correct, failed=failed,
                  results=[_plain(r) for r in results])
    (OUT_DIR / f"run-{workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": len(results), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _plain(res: dict) -> dict:
    return {k: (str(v) if isinstance(v, Path) else v) for k, v in res.items()}


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def self_test() -> int:
    """A corrupted certificate must count as a failed instance, and the
    tracing wrappers must leave CLI output byte-identical."""
    import checks
    from interlace import cli
    from tracing import Tracer

    signal.signal(signal.SIGALRM, _on_alarm)
    ok = True
    for workload in WORKLOADS:
        insts, paths = prepare(workload, 0)
        inst = insts[0]
        plain = run_pass([inst], paths, 60.0, cli.main, "plain")[0][0]
        tracer = Tracer().install()
        try:
            traced = run_pass([inst], paths, 60.0,
                              tracer.wrap(cli.main, "cli", "cli.main", "harness"),
                              "traced", tracer)[0][0]
        finally:
            tracer.uninstall()
        evaluate(inst, plain, with_roots=False)
        valid = plain["status"] == "ok"
        same = valid and plain["out"].read_bytes() == traced["out"].read_bytes()
        bad = dict(plain, out=plain["out"].with_suffix(".corrupt.json"))
        bad["out"].write_text(json.dumps(
            checks.corrupt(workload, json.loads(plain["out"].read_text()))))
        evaluate(inst, bad, with_roots=False)
        caught = bad["status"] == "wrong" and unexpected_failure(inst, bad)
        ok = ok and valid and same and caught
        print(f"{workload:<10} {inst.id:<24} valid={valid} traced-identical={same} "
              f"corruption-counted-failed={caught} ({bad.get('reason')})")
    print("self-test", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="target length of the timed passes of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "interlace" / "cli.py").is_file():
        print(f"error: no interlace sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT_DIR.mkdir(exist_ok=True)
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
