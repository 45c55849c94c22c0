"""Independent checks of CLI outputs, and 50-digit root references.

Nothing here calls the library: the checks recompute what a certificate
claims with numpy, exact Fraction arithmetic, or mpmath, from the inputs
the harness generated.  A check returns None when the output holds and a
short reason when it does not; the harness counts the latter as ``wrong``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from instances import adjacency_matrix, two_lift_edges

TOL = 1e-7          # slack on certified inequalities (the library's CERT_TOL)
RECOMPUTE_TOL = 1e-9  # relative slack when a value is recomputed in floats
REF_DPS = 50


def _close(a: float, b: float, tol: float = RECOMPUTE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def charpoly_exact(a) -> list:
    """det(xI - A) over the rationals, lowest degree first (Faddeev-LeVerrier)."""
    n = len(a)
    a = [[Fraction(x) for x in row] for row in a]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        prod = [[sum(a[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]
        for i in range(n):
            prod[i][i] += coeffs[n - k + 1]
        mk = prod
        tr = sum(sum(a[i][t] * mk[t][i] for t in range(n)) for i in range(n))
        coeffs[n - k] = -tr / k
    return coeffs


def _poly_divmod(a: list, b: list):
    """Quotient and remainder over the rationals; coefficients lowest first."""
    r = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in reversed(range(len(q))):
        q[i] = r[i + len(b) - 1] / b[-1]
        for j, c in enumerate(b):
            r[i + j] -= q[i] * c
    r = r[:len(b) - 1]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def squarefree(p: list) -> list:
    """p / gcd(p, p') over the rationals: the same roots, each simple."""
    g, h = list(p), [i * c for i, c in enumerate(p)][1:]
    while h:
        g, h = h, _poly_divmod(g, h)[1]
    return _poly_divmod(p, g)[0]


def charpoly_float(a: np.ndarray) -> np.ndarray:
    """det(xI - A) lowest degree first, from eigvalsh."""
    return np.poly(np.linalg.eigvalsh(a))[::-1]


def _lambda_k(vectors: np.ndarray, idx, k: int) -> float:
    v = vectors[list(idx)]
    return float(np.linalg.eigvalsh(v.T @ v)[-k])


# ----------------------------------------------------------------------
# Per-workload checks
# ----------------------------------------------------------------------


def check_ri(inst, out: dict):
    vecs, k = inst.data["vectors"], inst.data["k"]
    n, m = vecs.shape[1], vecs.shape[0]
    subset = out.get("subset")
    if not isinstance(subset, list) or len(subset) != k:
        return "subset has the wrong length"
    if len(set(subset)) != k or not all(isinstance(i, int) and 0 <= i < m for i in subset):
        return "subset indices are not k distinct columns"
    lam = _lambda_k(vecs, subset, k)
    if not _close(lam, float(out["achieved"])):
        return f"lambda_k recomputed {lam!r} != achieved {out['achieved']!r}"
    bound = (1.0 - math.sqrt(k / n)) ** 2 * n / m
    if lam < float(out["pledged"]) - TOL:
        return f"lambda_k {lam!r} below the pledge {out['pledged']!r}"
    if lam < bound - TOL:
        return f"lambda_k {lam!r} below the closed-form bound {bound!r}"
    return None


def check_weaver(inst, out: dict):
    vecs = inst.data["vectors"]
    m = vecs.shape[0]
    s1, s2 = out.get("s1"), out.get("s2")
    if not isinstance(s1, list) or not isinstance(s2, list) \
            or sorted(s1 + s2) != list(range(m)):
        return "s1 and s2 do not partition range(m)"
    alpha = float(np.max(np.sum(vecs * vecs, axis=1)))
    bound = (1.0 + math.sqrt(2.0 * alpha)) ** 2 / 2.0
    for side in (s1, s2):
        if side:
            norm = float(np.linalg.eigvalsh(vecs[side].T @ vecs[side])[-1])
            if norm > bound + TOL:
                return f"block norm {norm!r} exceeds {bound!r}"
    return None


def check_lift(inst, out: dict):
    n, edges, d = inst.data["n"], inst.data["edges"], inst.data["d"]
    steps = out.get("steps")
    if not isinstance(steps, list) or len(steps) != 1:
        return "expected exactly one lift step"
    signs = steps[0].get("signs")
    if not isinstance(signs, list) or len(signs) != len(edges) \
            or any(s not in (1, -1) for s in signs):
        return "signs are not one +-1 per edge"
    limit = 2.0 * math.sqrt(d - 1.0) + TOL
    signed = adjacency_matrix(n, [])
    for (a, b), s in zip(edges, signs):
        signed[a, b] = signed[b, a] = s
    if float(np.linalg.eigvalsh(signed)[-1]) > limit:
        return "signed adjacency exceeds 2 sqrt(d-1)"
    lifted = sorted(tuple(sorted(e)) for e in steps[0].get("lift_edges", []))
    if lifted != two_lift_edges(n, edges, signs):
        return "lift edges are not the 2-lift of the reported signing"
    w = np.linalg.eigvalsh(adjacency_matrix(2 * n, lifted))
    if abs(w[-1] - d) > 1e-8 or abs(w[0] + d) > 1e-8 \
            or float(np.max(np.abs(w[1:-1]))) > limit:
        return "lift's nontrivial spectrum exceeds 2 sqrt(d-1)"
    return None


def _rank_one_outcomes(mats):
    """Split each A_i = sum_j l_j u_j u_j^T into r_i equally likely vectors
    sqrt(r_i l_j) u_j, so that E r r^T = A_i."""
    out = []
    for a in mats:
        w, u = np.linalg.eigh(np.asarray(a, dtype=float))
        keep = w > 1e-9 * max(1.0, float(w[-1]))
        r = int(keep.sum())
        out.append([math.sqrt(r * lam) * u[:, j] for j, lam in zip(np.flatnonzero(keep), w[keep])])
    return out


def expected_charpoly(mats) -> np.ndarray:
    """E det(xI - sum r_i r_i^T) over the eigen-split, by full enumeration."""
    supports = _rank_one_outcomes(mats)
    d = len(mats[0])
    outers = [np.stack([np.outer(v, v) for v in s]) for s in supports]
    acc = np.zeros(d + 1)
    total = 0
    combos = itertools.product(*[range(len(s)) for s in supports])
    while True:
        block = np.array(list(itertools.islice(combos, 8192)))
        if block.size == 0:
            break
        mats_b = sum(outers[i][block[:, i]] for i in range(len(supports)))
        w = np.linalg.eigvalsh(mats_b)
        co = np.ones((len(block), 1))
        for j in range(d):  # multiply out prod_j (x - w_j), highest degree first
            co = np.concatenate([co, np.zeros((len(block), 1))], axis=1) \
                - w[:, j:j + 1] * np.concatenate([np.zeros((len(block), 1)), co], axis=1)
        acc += co.sum(axis=0)[::-1]
        total += len(block)
    return acc / total


def check_mixedchar(inst, out: dict):
    mats = inst.data["mats"]
    d = len(mats[0])
    poly = out.get("poly")
    if not isinstance(poly, list) or len(poly) != d + 1:
        return "output polynomial has the wrong degree"
    if inst.data["rank_one"] and inst.data["exact"]:
        total = [[sum(a[i][j] for a in mats) for j in range(d)] for i in range(d)]
        if [Fraction(c) for c in poly] != charpoly_exact(total):
            return "polynomial differs from char_poly(sum A_i)"
        return None
    if inst.data["rank_one"]:
        want = charpoly_float(np.sum(np.asarray(mats, dtype=float), axis=0))
    else:
        want = expected_charpoly(mats)
    got = np.array([float(Fraction(c)) for c in poly])
    scale = float(np.max(np.abs(want)))
    if float(np.max(np.abs(got - want))) > 1e-9 * scale:
        return "polynomial differs from the reference beyond 1e-9 relative"
    return None


CHECKS = {"ri": check_ri, "weaver": check_weaver, "lift": check_lift,
          "mixedchar": check_mixedchar}


def corrupt(workload: str, out: dict) -> dict:
    """A copy of a valid output with one claim broken, for the self-test."""
    bad = dict(out)
    if workload == "ri":
        bad["subset"] = [out["subset"][0]] + out["subset"][:-1]
    elif workload == "weaver":
        bad["s1"] = out["s1"] + out["s2"][:1]
    elif workload == "lift":
        step = dict(out["steps"][0])
        step["signs"] = [-s for s in step["signs"][:1]] + step["signs"][1:]
        bad["steps"] = [step]
    else:
        bad["poly"] = list(out["poly"][:-1]) + [2]
    return bad


# ----------------------------------------------------------------------
# 50-digit root references
# ----------------------------------------------------------------------


def _mp():
    import mpmath
    mpmath.mp.dps = REF_DPS
    return mpmath


def _horner(mp, coeffs, x):
    acc = mp.mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _shift(coeffs, c, times):
    """Apply (1 - c d/dx) ``times`` times; coefficients lowest first."""
    for _ in range(times):
        der = [i * coeffs[i] for i in range(1, len(coeffs))] + [0]
        coeffs = [a - c * b for a, b in zip(coeffs, der)]
    return coeffs


def bracketed_root(mp, coeffs, guess: float):
    """The root nearest ``guess``: widen a bracket until the sign changes,
    then bisect it down to REF_DPS digits."""
    x0 = mp.mpf(guess)
    s0 = mp.sign(_horner(mp, coeffs, x0))
    if s0 == 0:
        return x0
    h = mp.mpf(10) ** -15 * max(1, abs(x0))
    for _ in range(80):
        if mp.sign(_horner(mp, coeffs, x0 - h)) != s0:
            lo, hi, s_lo = x0 - h, x0, -s0
            break
        if mp.sign(_horner(mp, coeffs, x0 + h)) != s0:
            lo, hi, s_lo = x0, x0 + h, s0
            break
        h *= 4
    else:
        raise ArithmeticError(f"no sign change near {guess!r}")
    eps = mp.mpf(10) ** -(REF_DPS - 5) * max(1, abs(x0))
    while hi - lo > eps:
        mid = (lo + hi) / 2
        s_mid = mp.sign(_horner(mp, coeffs, mid))
        if s_mid == 0:
            return mid
        lo, hi = (mid, hi) if s_mid == s_lo else (lo, mid)
    return (lo + hi) / 2


def _rel_err(mp, got: float, ref) -> float:
    return float(abs(mp.mpf(got) - ref) / max(1, abs(ref)))


def _level_poly(mp, inst, chosen, shifts) -> list:
    """(1 - D/m)^shifts chi(B) for B the Gram sum of the chosen columns.

    Exact instances use the exact characteristic polynomial, reduced to
    its square-free part (orthogonal columns give repeated roots); float
    instances rebuild chi(B) at REF_DPS digits from eigvalsh(B).
    """
    vecs = inst.data["vectors"]
    m, n = vecs.shape
    if inst.data["exact"]:
        rows = inst.data["rows"]
        b = [[sum(rows[t][i] * rows[t][j] for t in chosen) for j in range(n)]
             for i in range(n)]
        q = squarefree(_shift(charpoly_exact(b), Fraction(1, m), shifts))
        return [mp.mpf(x.numerator) / x.denominator for x in q]
    coeffs = [mp.mpf(1)]
    for e in np.linalg.eigvalsh(vecs[chosen].T @ vecs[chosen]):
        e = mp.mpf(float(e))
        coeffs = [(coeffs[i - 1] if i else 0) - e * (coeffs[i] if i < len(coeffs) else 0)
                  for i in range(len(coeffs) + 1)]
    return _shift(coeffs, mp.mpf(1) / m, shifts)


def ri_root_errors(inst, out: dict) -> list:
    """Gaps of the pledge and of every chosen level's root, relative to max(1, |ref|)."""
    mp = _mp()
    k = inst.data["k"]
    m, n = inst.data["vectors"].shape
    pledge = _shift([mp.mpf(0)] * n + [mp.mpf(1)], mp.mpf(1) / m, k)
    errs = [_rel_err(mp, out["pledged"], bracketed_root(mp, pledge, out["pledged"]))]
    for lvl, val in enumerate(out["levels"]):
        q = _level_poly(mp, inst, out["subset"][:lvl + 1], k - lvl - 1)
        errs.append(_rel_err(mp, val, bracketed_root(mp, q, val)))
    return errs


def mixedchar_root_errors(inst, out: dict) -> list:
    mp = _mp()
    coeffs = [Fraction(c) for c in out["poly"]]
    mpc = [mp.mpf(c.numerator) / c.denominator for c in reversed(coeffs)]
    refs = sorted((mp.re(r) for r in mp.polyroots(mpc, maxsteps=400, extraprec=400)),
                  reverse=True)
    return [_rel_err(mp, got, ref) for got, ref in zip(out["roots"], refs)]


ROOT_ERRORS = {"ri": ri_root_errors, "mixedchar": mixedchar_root_errors}
