"""Seeded inputs for the four benchmark workloads.

Every workload is a size ladder plus, for ``ri`` and ``mixedchar``, a few
side instances that exercise another arithmetic regime.  The top rung of
each ladder is the *top rung*: today it ends in a documented refusal (exit 3,
exit 4, or the harness's wall cap), so it is where ``frontier`` and
``fail_frac`` can move.  The mix of one pass is fixed: the same seed gives
the same inputs, and every seed gives the same sizes in the same counts,
so order statistics over a pass land on the same rung from seed to seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


@dataclass
class Instance:
    """One CLI call: its input text, its argv and what the checker needs."""

    id: str
    workload: str
    family: str
    size: int                # the ladder coordinate: n, m, edges or m
    rung: bool               # on the frontier ladder
    top: bool                # the ladder's top rung
    args: list               # CLI arguments after the input path
    suffix: str              # input file extension
    text: str                # input file contents
    data: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)

    def argv(self, in_path: str, out_path: str) -> list:
        return [self.args[0], in_path, *self.args[1:], "--out", out_path]

    def describe(self) -> dict:
        return {"id": self.id, "family": self.family, "size": self.size,
                "rung": self.rung, "top": self.top, "args": self.args,
                **self.sizes}


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------


def isotropic(rng, n: int, m: int) -> np.ndarray:
    """m Gaussian rows whitened so that their outer products sum to I_n."""
    g = rng.standard_normal((m, n))
    w, u = np.linalg.eigh(g.T @ g)
    return g @ (u / np.sqrt(w)) @ u.T


def cayley_orthogonal(rng, n: int) -> list:
    """Rational orthogonal Q = (I + S)^(-1) (I - S) for a skew S in {-1,0,1}.

    I + S is invertible for every real skew S, so no draw is rejected.
    """
    s = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = int(rng.integers(-1, 2))
            s[i][j], s[j][i] = Fraction(v), Fraction(-v)
    a = [[Fraction(int(i == j)) + s[i][j] for j in range(n)] for i in range(n)]
    b = [[Fraction(int(i == j)) - s[i][j] for j in range(n)] for i in range(n)]
    for c in range(n):  # Gauss-Jordan on [I + S | I - S]
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p], b[c], b[p] = a[p], a[c], b[p], b[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        b[c] = [x * inv for x in b[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
                b[r] = [x - f * y for x, y in zip(b[r], b[c])]
    return b


def rational_isotropic(rng, n: int) -> list:
    """2n rational rows summing to I_n: (3/5) Q1 stacked on (4/5) Q2."""
    rows = []
    for w in (Fraction(3, 5), Fraction(4, 5)):
        rows.extend([w * x for x in row] for row in cayley_orthogonal(rng, n))
    return rows


def adjacency_matrix(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def is_ramanujan_bipartite(n: int, edges, d: int) -> bool:
    """Connected (single eigenvalue d) and nontrivial |lambda| <= 2 sqrt(d-1)."""
    w = np.linalg.eigvalsh(adjacency_matrix(n, edges))
    return bool(w[-2] < d - 1e-9
                and np.max(np.abs(w[1:-1])) <= 2.0 * math.sqrt(d - 1.0) + 1e-9)


def two_lift_edges(n: int, edges, signs) -> list:
    """Vertex (v, layer) is v + layer*n; a -1 edge crosses the layers."""
    out = []
    for (a, b), s in zip(edges, signs):
        out += [(a, b), (a + n, b + n)] if s == 1 else [(a, b + n), (b, a + n)]
    return sorted((min(e), max(e)) for e in out)


def random_cubic_bipartite(rng, half: int) -> list:
    """Union of three perfect matchings, resampled until simple and Ramanujan."""
    while True:
        edges = {(i, half + int(j)) for _ in range(3)
                 for i, j in enumerate(rng.permutation(half))}
        if len(edges) == 3 * half and is_ramanujan_bipartite(2 * half, edges, 3):
            return sorted(edges)


def ramanujan_double_cover(rng) -> list:
    """A 24-vertex cubic Ramanujan graph: two random Ramanujan 2-lifts of K_{3,3}."""
    n, edges = 6, [(i, 3 + j) for i in range(3) for j in range(3)]
    for _ in range(2):
        while True:
            signs = [1 if b else -1 for b in rng.integers(0, 2, size=len(edges))]
            lifted = two_lift_edges(n, edges, signs)
            if is_ramanujan_bipartite(2 * n, lifted, 3):
                n, edges = 2 * n, lifted
                break
    return edges


def relabel(rng, n: int, edges) -> list:
    """The same graph under a random vertex permutation, edges shuffled."""
    perm = rng.permutation(n)
    out = [(int(perm[a]), int(perm[b])) for a, b in edges]
    return [out[i] for i in rng.permutation(len(out))]


# ----------------------------------------------------------------------
# Instance builders
# ----------------------------------------------------------------------


def ri_float(rng, ident, n, m, top=False) -> Instance:
    vecs = isotropic(rng, n, m)
    return Instance(ident, "ri", "float", n, True, top, ["ri", "-k", str(n // 2)],
                    ".json", json.dumps({"vectors": vecs.tolist()}),
                    {"vectors": vecs, "k": n // 2, "exact": False},
                    {"n": n, "m": m, "k": n // 2})


def ri_exact(rng, ident, n) -> Instance:
    rows = rational_isotropic(rng, n)
    text = json.dumps({"vectors": [[str(x) for x in r] for r in rows]})
    return Instance(ident, "ri", "exact", n, False, False,
                    ["ri", "-k", str(n // 2), "--mode", "exact"], ".json", text,
                    {"vectors": np.array([[float(x) for x in r] for r in rows]),
                     "rows": rows, "k": n // 2, "exact": True},
                    {"n": n, "m": 2 * n, "k": n // 2})


def weaver(rng, ident, m, top=False) -> Instance:
    vecs = isotropic(rng, 3, m)
    return Instance(ident, "weaver", "float", m, True, top, ["weaver"], ".json",
                    json.dumps({"vectors": vecs.tolist()}), {"vectors": vecs},
                    {"d": 3, "m": m})


def lift(rng, ident, family, n, edges, top=False) -> Instance:
    """``edges`` is an edge list, or a function drawing one from ``rng``."""
    edges = relabel(rng, n, edges(rng) if callable(edges) else edges)
    text = "".join(f"{a} {b}\n" for a, b in edges)
    canon = sorted((min(e), max(e)) for e in edges)
    d = 2 * len(edges) // n
    return Instance(ident, "lift", family, len(edges), True, top,
                    ["lift", "--iterations", "1"], ".txt", text,
                    {"n": n, "edges": canon, "d": d},
                    {"vertices": n, "edges": len(edges), "d": d})


def mixed_rank_one(rng, ident, d, m, top=False) -> Instance:
    """m matrices v v^T with v in {-1, 1}^d.  Dense sign vectors keep the
    ring's work nearly fixed per (d, m); zero entries would make it swing
    with the sparsity pattern from seed to seed."""
    mats = [np.outer(v, v) for v in rng.choice([-1, 1], size=(m, d))]
    return Instance(ident, "mixedchar", "rank1", m, True, top,
                    ["mixedchar", "--mode", "exact"], ".json",
                    json.dumps([a.tolist() for a in mats]),
                    {"mats": [a.tolist() for a in mats], "exact": True, "rank_one": True},
                    {"d": d, "m": m})


def mixed_full_rank(rng, ident, d, m) -> Instance:
    mats = []
    while len(mats) < m:
        b = rng.integers(-2, 3, size=(d, d))
        if abs(np.linalg.det(b)) > 0.5:
            mats.append(b @ b.T)
    return Instance(ident, "mixedchar", "fullrank", m, False, False,
                    ["mixedchar", "--mode", "exact"], ".json",
                    json.dumps([a.tolist() for a in mats]),
                    {"mats": [a.tolist() for a in mats], "exact": True, "rank_one": False},
                    {"d": d, "m": m})


def mixed_float(rng, ident, d, m) -> Instance:
    mats = [np.outer(v, v) for v in rng.standard_normal((m, d))]
    return Instance(ident, "mixedchar", "float", m, False, False, ["mixedchar"], ".json",
                    json.dumps([a.tolist() for a in mats]),
                    {"mats": [a.tolist() for a in mats], "exact": False, "rank_one": True},
                    {"d": d, "m": m})


# ----------------------------------------------------------------------
# Ladders
# ----------------------------------------------------------------------

# Wall seconds one pass took on the baseline (2-core x86 container).  A run
# makes round(seconds / nominal) passes, at least one, so the sample mix
# never depends on how fast the code under test is.
NOMINAL_PASS_S = {"ri": 20.0, "weaver": 15.0, "lift": 18.0, "mixedchar": 18.0}

# Per-instance wall cap.  It sits well above the slowest instance that
# completes today (ri n=32: ~6 s; weaver m=18: ~4.5 s; lift K_{4,4}: ~2 s;
# mixedchar d=6, m=12: ~3 s) and ends the mixedchar top rung, which runs for
# minutes.
CAP_S = {"ri": 30.0, "weaver": 30.0, "lift": 30.0, "mixedchar": 8.0}

# Ladder coordinate per workload, for the record.
SIZE_NAME = {"ri": "n", "weaver": "m", "lift": "edges", "mixedchar": "m"}


def build(workload: str, seed: int) -> list:
    """The instances of one pass.

    Each family's instances are spread evenly over the pass, so they do
    not all share one stretch of machine speed.  Counts put the middle of
    the ranked pass inside one family (ri n=16, weaver m=14, lift
    10-vertex, mixedchar d=5): the median and the tail percentile then
    track that family rather than a boundary between two.
    """
    seq = np.random.SeedSequence([seed, sorted(NOMINAL_PASS_S).index(workload)])
    groups: list[list[Instance]] = []

    def add(builder, count, tag, *args, **kw):
        groups.append([builder(np.random.default_rng(seq.spawn(1)[0]),
                               f"{workload}-{tag}-{i}", *args, **kw)
                       for i in range(count)])

    if workload == "ri":
        for n, count in ((6, 1), (7, 2), (8, 2)):
            add(ri_exact, count, f"exact-n{n}", n)
        for n, m, count in ((16, 48, 12), (24, 72, 2), (32, 96, 1)):
            add(ri_float, count, f"n{n}", n, m)
        add(ri_float, 1, "n40", 40, 80, top=True)
    elif workload == "weaver":
        for m, count in ((12, 6), (14, 24), (16, 3), (18, 1)):
            add(weaver, count, f"m{m}", m)
        add(weaver, 1, "m21", 21, top=True)
    elif workload == "lift":
        cube = [(i, 4 + j) for i in range(4) for j in range(4) if i != j]
        k44 = [(i, 4 + j) for i in range(4) for j in range(4)]
        add(lift, 7, "cubic8", "cubic", 8, cube)
        add(lift, 11, "cubic10", "cubic", 10, lambda rng: random_cubic_bipartite(rng, 5))
        add(lift, 2, "k44", "k44", 8, k44)
        add(lift, 1, "cover24", "cover", 24, ramanujan_double_cover, top=True)
    elif workload == "mixedchar":
        for d, m in ((3, 6), (4, 8)):
            add(mixed_full_rank, 1, f"full-d{d}m{m}", d, m)
        add(mixed_rank_one, 2, "rank1-d4m8", 4, 8)
        add(mixed_rank_one, 12, "rank1-d5m10", 5, 10)
        add(mixed_float, 2, "float-d5m10", 5, 10)
        add(mixed_rank_one, 3, "rank1-d6m12", 6, 12)
        add(mixed_rank_one, 1, "rank1-d10m16", 10, 16, top=True)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    slots = [((i + 0.5) / len(g), gi, inst) for gi, g in enumerate(groups)
             for i, inst in enumerate(g)]
    return [inst for _, _, inst in sorted(slots, key=lambda t: t[:2])]
