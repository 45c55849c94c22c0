"""Every exact output of ``tests/exact_outputs.py`` equals its committed
digest, and ``lift``'s float ``lambda_max_signed``, left out of the
digest, equals its recomputation from the printed signs."""

import json
from fractions import Fraction

import numpy as np

import interlace.matrices as matrices_module
import interlace.select as select_module
from interlace import Graph, Polynomial, SymMatrix, char_poly
from exact_outputs import DIGESTS, cases, record, run


def _signed_top(g: Graph, signs: list) -> float:
    a = np.zeros((g.n, g.n))
    for (u, v), s in zip(g.edges, signs):
        a[u, v] = a[v, u] = s
    return float(np.linalg.eigvalsh(a)[-1])


def test_exact_outputs_equal_their_committed_digests(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got, moved, lams = {}, [], []
    for ident, args, suffix, text in cases():
        code, payload, err = run(args, suffix, text, tmp_path)
        got[ident] = record(code, payload, err)
        if payload is not None and payload["command"] == "lift":
            g = Graph.from_edge_list(text)
            for step in payload["steps"]:
                lam = _signed_top(g, step["signs"])
                if abs(lam - step["lambda_max_signed"]) > 1e-9 * max(1.0, abs(lam)):
                    lams.append(f"{ident} step {step['iteration']}: printed "
                                f"{step['lambda_max_signed']!r}, recomputed {lam!r}")
                g = Graph(step["lift_n"], [tuple(e) for e in step["lift_edges"]])
    for ident in sorted(set(want) | set(got)):
        old, new = want.get(ident), got.get(ident)
        if old == new:
            continue
        if old is None or new is None:
            moved.append(f"{ident}: {'not committed' if old is None else 'no longer run'}")
            continue
        fields = [k for k in new["fields"] if new["fields"][k] != old["fields"].get(k)]
        fields += [k for k in old["fields"] if k not in new["fields"]]
        first = fields[0] if fields else "stderr"
        moved.append(f"{ident}: exit {old['exit']} -> {new['exit']}, first moved field {first}")
    assert not moved, f"{len(moved)} exact outputs moved:\n" + "\n".join(moved)
    assert not lams, "lambda_max_signed off its recomputation:\n" + "\n".join(lams)
    assert len(got) == 145


def _exact_ri_cases() -> list:
    return [c for c in cases() if c[1][0] == "ri"]


def test_exact_ri_final_poly_times_x_to_the_n_minus_k_is_chi_of_the_n_by_n_gram_sum(tmp_path):
    # the walk certifies on the k x k Gram V V^T of the chosen rows; the
    # printed final_poly, x^(n-k) restored, is chi of their n x n Gram sum,
    # formed here from the printed subset of the input rows
    ri = _exact_ri_cases()
    assert len(ri) == 19
    for ident, args, suffix, text in ri:
        code, payload, _ = run(args, suffix, text, tmp_path)
        assert code == 0 and payload["certificate_valid"] is True, ident
        rows = [[Fraction(x) for x in r] for r in json.loads(text)["vectors"]]
        n, k = payload["n"], payload["k"]
        gram = sum(np.outer(rows[i], rows[i]) for i in payload["subset"])
        final = [Fraction(c) for c in payload["final_poly"]]
        assert len(final) == n + 1 and final[:n - k] == [0] * (n - k), ident
        assert Polynomial(final) == char_poly(SymMatrix(gram)), ident


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
