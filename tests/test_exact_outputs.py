"""Every exact output of ``tests/exact_outputs.py`` equals its committed
digest, whole, with no ``numpy.linalg`` solver called on the way, and
holds what it certifies."""

import json
import math
from fractions import Fraction

import numpy as np

import interlace.matrices as matrices_module
import interlace.select as select_module
from interlace import Polynomial, SymMatrix, char_poly
from exact_outputs import DIGESTS, SLOW, cases, moved, record, run
from oracles import berkowitz_charpoly
from paper import sturm_root_count

# every numpy.linalg solver: an exact output must call none of them
LINALG = ("eigvalsh", "eigh", "eig", "eigvals", "svd", "solve", "inv", "det",
          "cholesky", "qr")


class LinalgCalled(Exception):
    """Raised by a patched numpy.linalg solver; the CLI catches no such error."""


def _weaver_faults(ident: str, text: str, out: dict) -> list:
    """What an exact weaver output gets wrong: a partition of the wrong
    rows, a norm past the bound, or a norm more than 2 ulp from its
    side's top eigenvalue, decided by exact Sturm counts on chi of the
    side's Gram sum in Fractions (Berkowitz's recurrence)."""
    rows = [[Fraction(x) for x in r] for r in json.loads(text)["vectors"]]
    m, d = len(rows), len(rows[0])
    faults = []
    if out["m"] != m or sorted(out["s1"] + out["s2"]) != list(range(m)):
        faults.append(f"{ident}: s1, s2 do not partition range({m})")
    if max(out["norm1"], out["norm2"]) > out["bound"]:
        faults.append(f"{ident}: a norm is past the bound {out['bound']!r}")
    for side, x in ((out["s1"], out["norm1"]), (out["s2"], out["norm2"])):
        gram = np.array([[sum((rows[i][a] * rows[i][b] for i in side), Fraction(0))
                          for b in range(d)] for a in range(d)], dtype=object)
        chi = Polynomial(list(berkowitz_charpoly(gram[None])[0]))
        w = Fraction(2 * math.ulp(x))
        lo, hi = Fraction(x) - w, Fraction(x) + w
        # PSD, so every eigenvalue lies in [0, trace]
        top = max(hi, sum(gram[a, a] for a in range(d)))
        if sturm_root_count(chi, hi, top) or not (chi(lo) == 0 or sturm_root_count(chi, lo, hi)):
            faults.append(f"{ident}: norm {x!r} is not within 2 ulp of its top eigenvalue")
    return faults


def _ri_faults(ident: str, text: str, out: dict) -> list:
    """What an exact ri output's final_poly gets wrong: the walk certifies
    on the k x k Gram V V^T of the chosen rows, and the printed
    final_poly, x^(n-k) restored, must be chi of their n x n Gram sum,
    formed here from the printed subset of the input rows."""
    rows = [[Fraction(x) for x in r] for r in json.loads(text)["vectors"]]
    n, k = out["n"], out["k"]
    gram = sum(np.outer(rows[i], rows[i]) for i in out["subset"])
    final = [Fraction(c) for c in out["final_poly"]]
    if not (len(final) == n + 1 and final[:n - k] == [0] * (n - k)):
        return [f"{ident}: final_poly is not x^(n-k) times a degree-k polynomial"]
    if Polynomial(final) != char_poly(SymMatrix(gram)):
        return [f"{ident}: final_poly is not chi of the chosen rows' Gram sum"]
    return []


def test_exact_outputs_equal_their_committed_digests(tmp_path, monkeypatch):
    # the instances are built first: perfbench's float generators use eigh
    pinned = cases()
    for name in LINALG:
        def refused(*args, _name=name, **kwargs):
            raise LinalgCalled(f"numpy.linalg.{_name}")
        monkeypatch.setattr(np.linalg, name, refused)
    want = {k: v for k, v in json.loads(DIGESTS.read_text()).items() if k not in SLOW}
    got, lapack, faults, ri = {}, [], [], 0
    for ident, args, suffix, text in pinned:
        try:
            code, payload, err = run(args, suffix, text, tmp_path)
        except LinalgCalled as e:
            lapack.append(f"{ident}: calls {e}")
            continue
        got[ident] = record(code, payload, err)
        command = payload["command"] if payload else None
        if command in ("ri", "weaver") and payload["certificate_valid"] is not True:
            faults.append(f"{ident}: certificate_valid is not true")
        if command == "lift":
            faults += [f"{ident} step {s['iteration']}: certificate_valid or "
                       "lift_ramanujan is not true" for s in payload["steps"]
                       if not (s["certificate_valid"] is True and s["lift_ramanujan"] is True)]
        if command == "ri":
            ri += 1
            faults += _ri_faults(ident, text, payload)
        if command == "weaver":
            faults += _weaver_faults(ident, text, payload)
        if ident == "ci/ri-frame" and not payload["pledged"] == payload["levels"][0] == 0.125:
            faults.append(f"{ident}: pledged and levels[0] are not 1/8")
    assert not lapack, f"{len(lapack)} exact outputs call numpy.linalg:\n" + "\n".join(lapack)
    diffs = []
    for ident in sorted(set(want) | set(got)):
        if ident not in want or ident not in got:
            diffs.append(f"{ident}: {'not committed' if ident not in want else 'no longer run'}")
        elif want[ident] != got[ident]:
            diffs.append(f"{ident}: {moved(want[ident], got[ident])}")
    assert not diffs, f"{len(diffs)} exact outputs moved:\n" + "\n".join(diffs)
    assert not faults, "\n".join(faults)
    assert len(got) == 145 and ri == 19


def _exact_ri_cases() -> list:
    return [c for c in cases() if c[1][0] == "ri"]


def test_exact_ri_forms_no_characteristic_polynomial_of_side_above_k(tmp_path, monkeypatch):
    # every exact kernel call of the walk and of its certificate takes a
    # stack of side at most k, the certificate's k x k Gram among them
    sides = []
    kernel = matrices_module.charpoly_batch_exact

    def recorded(mats):
        sides.append(np.shape(mats)[1:])
        return kernel(mats)

    monkeypatch.setattr(matrices_module, "charpoly_batch_exact", recorded)
    monkeypatch.setattr(select_module, "charpoly_batch_exact", recorded)
    ident, args, suffix, text = next(c for c in _exact_ri_cases()
                                     if c[0] == "ci/ri-rational24")
    code, payload, _ = run(args, suffix, text, tmp_path)
    assert code == 0 and payload["certificate_valid"] is True
    k = payload["k"]
    assert max(max(s) for s in sides) == k and all(a == b for a, b in sides)


def test_exact_ri_takes_one_cluster_per_rooted_polynomial(tmp_path, monkeypatch):
    # ri walks the reflected degree-k cofactors, whose top root is minus
    # lambda_k: the pledge and each kept child are rooted at their top
    # cluster alone, k + 1 clusters in all, where lambda_k of the cofactors
    # themselves is their bottom cluster, below k - 1 others
    taken = []
    clusters = select_module.root_clusters

    def counted(p):
        for cluster in clusters(p):
            taken.append(cluster)
            yield cluster

    monkeypatch.setattr(select_module, "root_clusters", counted)
    ident, args, suffix, text = next(c for c in _exact_ri_cases()
                                     if c[0] == "ci/ri-rational24")
    code, payload, _ = run(args, suffix, text, tmp_path)
    assert code == 0 and payload["certificate_valid"] is True
    assert len(taken) == payload["k"] + 1
