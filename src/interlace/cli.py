"""Command-line front end.

Subcommands and the flags each one reads
----------------------------------------
ri        select k columns of an isotropic system (restricted
          invertibility): -k, --mode, --tol, --out
weaver    partition an isotropic system into two low-norm halves:
          --mode, --tol, --budget, --out
lift      iterate signed 2-lifts of a bipartite Ramanujan graph:
          --iterations, --budget, --out
mixedchar mixed characteristic polynomial of a PSD list: --mode, --out

Inputs are JSON (vector systems, matrix lists) or edge-list text
(graphs); ``-`` reads stdin.  Exit codes: 0 success, 1 certificate
invariant violated, 2 parse error, 3 precondition failure, 4 budget
exceeded (``--budget``, or "out of memory" if an allocation failed), 5
numerical failure (a root routine could not certify a polynomial
real-rooted: the Laguerre loop broke down in ``float_top_root``, or the
float derivative chain missed a sign change beyond ``BACKWARD_TOL``;
every polynomial a command roots is real-rooted by theorem, so only
round-off or a fault makes it 5; or a result to print is infinite or
NaN, which strict JSON cannot carry).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .poly import real_roots, roots_above, root_clusters, NotRealRootedError
from .matrices import SymMatrix, char_poly
from .mixedchar import mixed_char, BudgetExceededError
from .graphs import DEFAULT_BUDGET, Graph, is_ramanujan_bipartite, two_lift
from .select import VectorSystem, restricted_invertibility_select, \
    restricted_invertibility_bound, weaver_partition, weaver_bound, signing_select, \
    WALK_BUDGET
from .tolerances import ISO_TOL

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
EXIT_NUMERICAL = 5
# the largest float: a float-mode input number past it is refused
_FLOAT_MAX = sys.float_info.max


class ParseFailure(Exception):
    pass


class NonFiniteResult(ArithmeticError):
    """A result to print is infinite or NaN, which JSON cannot carry."""


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseFailure(f"cannot read {path}: {e}") from e


def _not_a_number(name: str):
    """json's parse_constant: NaN and Infinity are not input numbers."""
    raise ParseFailure(f"{name} is not a finite number")


def _load_json(text: str, exact: bool):
    try:
        return json.loads(text, parse_float=Fraction if exact else float,
                          parse_constant=_not_a_number)
    except json.JSONDecodeError as e:
        raise ParseFailure(f"invalid JSON: {e}") from e


def _fraction(value):
    """json's ``default`` hook: a Fraction becomes an int or a "p/q" string."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _emit(payload: dict, out_path):
    try:
        text = json.dumps(payload, indent=2, allow_nan=False, default=_fraction) + "\n"
    except ValueError as e:
        raise NonFiniteResult(f"a result is not finite ({e})") from e
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ParseFailure(f"cannot write {out_path}: {e}") from e
    else:
        sys.stdout.write(text)


def _number(x, exact: bool):
    """One JSON entry: a JSON number or, if ``exact``, a "p/q" string.
    true, false and null are refused, not read as 1, 0, NaN, and so are
    a string that is no fraction ("1/0") and, in float mode, any string
    and a number past the largest float (1e400, read as inf)."""
    kind = type(x)  # not isinstance: bool is an int, and json makes no other subclass
    if kind is int or kind is float or kind is Fraction:
        if exact or -_FLOAT_MAX <= x <= _FLOAT_MAX:
            return x
    elif exact and kind is str:
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseFailure(f"{json.dumps(x)} is not a number")


def _number_array(rows, exact: bool) -> np.ndarray:
    """JSON rows as a float64 array or, if ``exact``, an object array in
    which JSON integers stay ints and decimals and "p/q" strings become
    Fractions."""
    return np.array([[_number(x, exact) for x in row] for row in rows],
                    dtype=object if exact else float)


def _parse_vector_system(text: str, exact: bool) -> VectorSystem:
    data = _load_json(text, exact)
    if isinstance(data, dict):
        data = data.get("vectors")
    if not isinstance(data, list) or not data:
        raise ParseFailure("expected a nonempty JSON list under 'vectors'")
    try:
        system = VectorSystem(_number_array(data, exact))
    except (TypeError, ValueError) as e:
        raise ParseFailure(f"malformed vector system: {e}") from e
    # finite input whose float Gram sum overflows is refused here, exit 3,
    # before any other arithmetic on it
    system.gram_sum()
    return system


def _parse_matrices(text: str, exact: bool) -> list[SymMatrix]:
    data = _load_json(text, exact)
    if isinstance(data, dict):
        data = data.get("matrices")
    if not isinstance(data, list):
        raise ParseFailure("expected a JSON list of matrices")
    if not data:
        raise ParseFailure("matrix list is empty")
    out = []
    for i, entry in enumerate(data):
        rows = entry.get("entries") if isinstance(entry, dict) else entry
        try:
            out.append(SymMatrix(_number_array(rows, exact)))
        except (TypeError, ValueError) as e:
            raise ParseFailure(f"matrix {i} malformed: {e}") from e
    # finite float input whose trace sum overflows is refused here, exit 3,
    # before any other arithmetic on it
    if not exact:
        with np.errstate(over="ignore"):
            total = sum(float(m.trace()) for m in out)
        if not math.isfinite(total):
            raise ValueError("the trace sum of the matrices overflows")
    return out


def _positive_float(text: str) -> float:
    """argparse type: a finite float above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return value


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_ri(args) -> int:
    system = _parse_vector_system(_read_input(args.input), args.mode == "exact")
    chosen, cert = restricted_invertibility_select(system, args.k, tol=args.tol)
    valid = cert.valid
    bound = restricted_invertibility_bound(system.dim, system.m, args.k)
    payload = {
        "command": "ri",
        "config": {"mode": args.mode, "tol": args.tol},
        "n": system.dim,
        "m": system.m,
        "k": args.k,
        "subset": chosen,
        "achieved": cert.achieved,
        "pledged": cert.pledged,
        "bound": bound,
        "levels": cert.levels,
        "candidates_scored": cert.scored,
        "fallback_levels": cert.fallbacks,
        # the walk's polynomials drop their factor x^(n-k), restored here
        "final_poly": [0 if system.is_exact else 0.0] * (system.dim - args.k)
        + list(cert.final_poly.coeffs),
        "certificate_valid": valid,
    }
    _emit(payload, args.out)
    return EXIT_OK if valid else EXIT_INVARIANT


def cmd_weaver(args) -> int:
    system = _parse_vector_system(_read_input(args.input), args.mode == "exact")
    s1, s2, cert = weaver_partition(system, budget=args.budget, tol=args.tol)
    # float norms only once the walk has checked isotropy: an exact row may
    # lie past the floats
    valid, alpha = cert.valid, system.max_norm_sq()
    # each side's Gram sum is a diagonal block of the lifted sum the walk
    # realized; an exact block's norm is the top root of its chi, PSD by
    # construction
    d = system.dim
    norms = [next(root_clusters(char_poly(b))).root if b.is_exact else b.norm2()
             for b in (SymMatrix(cert.realized.a[i:i + d, i:i + d]) for i in (0, d))]
    payload = {
        "command": "weaver",
        "config": {"mode": args.mode, "tol": args.tol, "budget": args.budget},
        "m": system.m,
        "dim": system.dim,
        "alpha": alpha,
        "bound": weaver_bound(alpha),
        "s1": s1,
        "s2": s2,
        "norm1": norms[0],
        "norm2": norms[1],
        "achieved": cert.achieved,
        "pledged": cert.pledged,
        "fallback_levels": cert.fallbacks,
        "certificate_valid": valid,
    }
    _emit(payload, args.out)
    return EXIT_OK if valid else EXIT_INVARIANT


def cmd_lift(args) -> int:
    text = _read_input(args.input)
    try:
        g = Graph.from_edge_list(text)
    except ValueError as e:
        raise ParseFailure(str(e)) from e
    # d-regular with d >= 2 means n = 2m / d <= m: refuse a larger n before using it
    d = g.regularity() if g.n <= g.m else None
    if d is None or d < 2:
        raise ValueError("input must be d-regular with d >= 2")
    if not is_ramanujan_bipartite(g):
        raise ValueError("input graph is not bipartite Ramanujan")
    threshold = 2.0 * math.sqrt(d - 1.0)
    steps = []
    ok = certified = True
    for it in range(args.iterations):
        signs, cert = signing_select(g, budget=args.budget)
        valid = cert.valid
        # final_poly, chi(B_s B_s^T), is the walk's checked last q: chi(A_s)(x) = final_poly(x^2)
        bounded = roots_above(cert.final_poly, 4 * (d - 1)) == 0
        lift = two_lift(g, signs)
        # spec(lift) = spec(A) + spec(A_s) (Bilu-Linial) and a lift stays
        # d-regular and bipartite, so a connected lift of a certified graph
        # is Ramanujan when A_s meets the bound; at d = 2 a balanced signing
        # meets it with equality and disconnects the lift
        certified = certified and bounded and lift.is_connected()
        ok = ok and valid and certified
        steps.append({
            "iteration": it,
            "n": g.n,
            "d": d,
            "signs": signs,
            # lambda_max(A_s): sqrt of the top root of chi(B_s B_s^T), checked by the walk
            "lambda_max_signed": cert.achieved,
            "threshold": threshold,
            "pledged": cert.pledged,
            "certificate_valid": valid,
            "lift_n": lift.n,
            "lift_ramanujan": certified,
            "lift_edges": [list(e) for e in lift.edges],
        })
        g = lift
    payload = {
        "command": "lift",
        "config": {"budget": args.budget},
        "iterations": args.iterations,
        "steps": steps,
        "final_n": g.n,
    }
    _emit(payload, args.out)
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_mixedchar(args) -> int:
    mats = _parse_matrices(_read_input(args.input), args.mode == "exact")
    poly = mixed_char(mats)
    if poly.is_exact:  # real-rooted by theorem: PSD input, decided exactly
        roots = [c.root for c in root_clusters(poly) for _ in range(c.mult)]
    else:
        roots = [float(r) for r in real_roots(poly)]
    payload = {
        "command": "mixedchar",
        "config": {"mode": args.mode},
        "m": len(mats),
        "d": mats[0].n,
        "poly": list(poly.coeffs),
        "roots": roots,
        "degree": poly.degree,
    }
    _emit(payload, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interlace",
        description="Greedy spectral selection with interlacing certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, input_help, mode=False, tol=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("input", help=input_help + " ('-' for stdin)")
        if mode:
            p.add_argument("--mode", choices=["float", "exact"], default="float",
                           help="arithmetic regime (default float)")
        if tol:
            p.add_argument("--tol", type=_positive_float, default=ISO_TOL,
                           help="isotropy tolerance of float input, the largest "
                                "spectral-norm distance of the Gram sum from I "
                                "(default %(default)g); exact input must be "
                                "isotropic exactly")
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")
        p.set_defaults(func=func)
        return p

    p_ri = command("ri", cmd_ri, "restricted invertibility column selection",
                   "JSON vector system", mode=True, tol=True)
    p_ri.add_argument("-k", type=_positive_int, required=True, help="subset size")

    p_w = command("weaver", cmd_weaver, "two-block partition of an isotropic system",
                  "JSON vector system", mode=True, tol=True)
    p_w.add_argument("--budget", type=_positive_int, default=WALK_BUDGET,
                     help="cap on the whole walk's estimated matrix or table "
                          "entries by its cheaper route, enumerated outcomes x "
                          "n^2 or leg products (2r + 1 for r levels) x C(2n, n), "
                          "n = 2 x dim, checked before the walk starts "
                          "(default 2^30)")

    p_l = command("lift", cmd_lift, "iterated signed 2-lifts of a Ramanujan graph",
                  "edge list file")
    p_l.add_argument("--iterations", type=_positive_int, default=1,
                     help="number of successive lifts (default 1)")
    p_l.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                     help="cap on each walk's backward-DP states plus leaf "
                          "entries, groups x p^2 per level the walk forms, p x p "
                          "the Gram leaf B B^T of the fixed edges' signed "
                          "biadjacency B, p <= q (spanning-forest levels form "
                          "none), counted as the backward DP grows; the walk "
                          "stops as soon as the count passes it (default 2^20)")

    command("mixedchar", cmd_mixedchar, "mixed characteristic polynomial of PSD matrices",
            "JSON list of matrices", mode=True)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs more than most commands."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags, which matches our parse-error code
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except ParseFailure as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as e:  # numpy's _ArrayMemoryError among them
        print(f"budget exceeded: out of memory ({str(e) or type(e).__name__})", file=sys.stderr)
        return EXIT_BUDGET
    except (NotRealRootedError, NonFiniteResult) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
