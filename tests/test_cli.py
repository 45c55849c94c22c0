"""End-to-end command-line interface tests.

Each test drives ``main`` directly with argv lists, captures the JSON
payload, and checks both the payload and the exit code.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import interlace.cli
from interlace import Graph, NotRealRootedError, VectorSystem, char_poly, \
    is_ramanujan_bipartite, signed_adjacency, signing_select, two_lift, weaver_partition
from interlace.cli import main
from fixtures import complete_bipartite, cycle, random_isotropic
from oracles import CUBE, squared_roots
from paper import matching_poly, top_root


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture
def iso_system_file(tmp_path):
    rng = np.random.default_rng(103)
    vs = random_isotropic(4, 9, rng)
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"vectors": vs.vectors.astype(float).tolist()}))
    return str(path)


def test_ri_happy_path(capsys, iso_system_file):
    code, payload = run_cli(capsys, ["ri", iso_system_file, "-k", "2"])
    assert code == 0
    assert payload["command"] == "ri"
    assert payload["n"] == 4 and payload["m"] == 9 and payload["k"] == 2
    assert len(payload["subset"]) == 2
    assert payload["certificate_valid"] is True
    assert payload["achieved"] >= payload["pledged"] - 1e-7
    assert payload["achieved"] >= payload["bound"] - 1e-7
    # the walk's work: rows scored per level, free rows at most
    scored = payload["candidates_scored"]
    assert len(scored) == 2 and all(n <= 9 - lvl for lvl, n in enumerate(scored))
    assert payload["fallback_levels"] == 0


def test_ri_reads_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(
        {"vectors": [[1.0, 0.0], [0.0, 1.0]]})))
    code, payload = run_cli(capsys, ["ri", "-", "-k", "1"])
    assert code == 0
    assert payload["subset"] in ([0], [1])


def test_ri_parse_failure_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    code, _ = run_cli(capsys, ["ri", str(bad), "-k", "1"])
    assert code == 2


def test_ri_missing_file_exit_2(capsys):
    code, _ = run_cli(capsys, ["ri", "/nonexistent/file.json", "-k", "1"])
    assert code == 2


@pytest.mark.parametrize("command", ["ri", "weaver", "lift", "mixedchar"])
def test_unwritable_out_exit_2(capsys, tmp_path, command):
    # --out in a missing directory is refused like an unreadable input:
    # exit 2 with a message, not a traceback
    inputs = {"ri": ({"vectors": [[1.0, 0.0], [0.0, 1.0]]}, ["-k", "1"]),
              "weaver": ({"vectors": [[1.0, 0.0], [0.0, 1.0]]}, []),
              "lift": ("".join(f"{a} {b}\n" for a in range(3) for b in range(3, 6)), []),
              "mixedchar": ([[[2.0, 1.0], [1.0, 2.0]]], [])}
    data, args = inputs[command]
    path = tmp_path / "input"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    out = tmp_path / "missing" / "out.json"
    code = main([command, str(path), *args, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not out.exists()
    assert f"parse error: cannot write {out}" in captured.err


def test_ri_precondition_failure_exit_3(capsys, tmp_path):
    aniso = tmp_path / "aniso.json"
    aniso.write_text(json.dumps({"vectors": [[2.0, 0.0], [0.0, 1.0]]}))
    code, _ = run_cli(capsys, ["ri", str(aniso), "-k", "1"])
    assert code == 3


def test_ri_basis_system_achieves_one(capsys, tmp_path):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    code, payload = run_cli(capsys, ["ri", str(basis), "-k", "1"])
    assert code == 0
    assert payload["achieved"] == pytest.approx(1.0)


def test_ri_k_too_large_exit_3(capsys, tmp_path):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
    code, _ = run_cli(capsys, ["ri", str(basis), "-k", "2"])
    assert code == 3


def test_weaver_happy_path(capsys, iso_system_file):
    code, payload = run_cli(capsys, ["weaver", iso_system_file])
    assert code == 0
    assert sorted(payload["s1"] + payload["s2"]) == list(range(9))
    assert payload["norm1"] <= payload["bound"] + 1e-7
    assert payload["norm2"] <= payload["bound"] + 1e-7
    assert payload["certificate_valid"] is True


def test_weaver_reports_its_fallback_levels(capsys, tmp_path):
    # fallback_levels is the walk's count of levels at which rounding left
    # no child meeting its parent, as ri reports it; an exact walk has none.
    # 400 rows in R^4 (CI's generator) walk into the clustered late levels
    g = np.random.default_rng(400).standard_normal((400, 4))
    w, u = np.linalg.eigh(g.T @ g)
    vs = VectorSystem(g @ (u / np.sqrt(w)) @ u.T)
    path = tmp_path / "weaver400.json"
    path.write_text(json.dumps({"vectors": vs.vectors.tolist()}))
    code, payload = run_cli(capsys, ["weaver", str(path)])
    s1, s2, cert = weaver_partition(vs)
    assert code == 0 and payload["certificate_valid"] is True
    assert (payload["s1"], payload["s2"]) == (s1, s2)
    assert payload["fallback_levels"] == cert.fallbacks
    had = tmp_path / "had.json"
    had.write_text(json.dumps({"vectors": [["1/2", "1/2"], ["1/2", "-1/2"]] * 2}))
    code, payload = run_cli(capsys, ["weaver", str(had), "--mode", "exact"])
    assert code == 0 and payload["fallback_levels"] == 0


def test_weaver_exact_mode(capsys, tmp_path):
    # Hadamard halves: entries +-1/2, exactly isotropic in dim 2
    vecs = [["1/2", "1/2"], ["1/2", "-1/2"], ["1/2", "1/2"], ["1/2", "-1/2"]]
    path = tmp_path / "had.json"
    path.write_text(json.dumps({"vectors": vecs}))
    code, payload = run_cli(capsys, ["weaver", str(path), "--mode", "exact"])
    assert code == 0
    assert payload["norm1"] == pytest.approx(0.5)
    assert payload["norm2"] == pytest.approx(0.5)
    assert payload["bound"] == pytest.approx(2.0)  # (1 + sqrt(2 * 1/2))^2 / 2


def test_weaver_empty_system_exit_2(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vectors": []}))
    code, _ = run_cli(capsys, ["weaver", str(path)])
    assert code == 2


def test_lift_single_iteration(capsys, tmp_path):
    k33 = tmp_path / "k33.txt"
    k33.write_text("\n".join(f"{a} {b}" for a in range(3) for b in range(3, 6)))
    code, payload = run_cli(capsys, ["lift", str(k33)])
    assert code == 0
    step = payload["steps"][0]
    assert step["n"] == 6 and step["d"] == 3
    assert step["lambda_max_signed"] <= step["threshold"] + 1e-7
    assert step["lift_ramanujan"] is True
    assert payload["final_n"] == 12
    assert len(step["signs"]) == 9
    assert set(step["signs"]) <= {-1, 1}


def test_lift_pledge_is_in_adjacency_coordinates(capsys, tmp_path):
    # the walk's certificate and the payload are in adjacency coordinates:
    # the pledge is the matching polynomial's top root itself, beside
    # lambda_max_signed and the threshold
    k33 = tmp_path / "k33.txt"
    k33.write_text("\n".join(f"{a} {b}" for a in range(3) for b in range(3, 6)))
    code, payload = run_cli(capsys, ["lift", str(k33)])
    assert code == 0
    step = payload["steps"][0]
    assert step["lambda_max_signed"] <= step["pledged"] <= step["threshold"]
    root = top_root(matching_poly(complete_bipartite(3, 3))).root
    assert step["pledged"] == root


@pytest.mark.parametrize("half", [3, 4], ids=["K33", "K44"])
def test_lift_pledge_does_not_depend_on_the_vertex_labels(capsys, tmp_path, half):
    # the pledge is the top root of the matching polynomial, a graph
    # invariant, taken exactly: three seeded relabellings give it bit for
    # bit, each with a certified signing and lift
    g = complete_bipartite(half, half)
    rng = np.random.default_rng(half)
    pledges = []
    for label in [np.arange(g.n)] + [rng.permutation(g.n) for _ in range(3)]:
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{label[a]} {label[b]}\n" for a, b in g.edges))
        code, payload = run_cli(capsys, ["lift", str(path)])
        step = payload["steps"][0]
        assert code == 0 and step["certificate_valid"] is True
        assert step["lift_ramanujan"] is True
        pledges.append(step["pledged"].hex())
    assert pledges == pledges[:1] * 4


def test_lift_three_iterations_reach_48_vertices(capsys, tmp_path):
    # The third 2-lift walks a 24-vertex graph with 36 edges: 2^36 signings,
    # out of reach for enumeration, and some 10^4 signing DP states.
    k33 = tmp_path / "k33.txt"
    k33.write_text("\n".join(f"{a} {b}" for a in range(3) for b in range(3, 6)))
    code, payload = run_cli(capsys, ["lift", str(k33), "--iterations", "3"])
    assert code == 0
    assert [step["lift_ramanujan"] for step in payload["steps"]] == [True] * 3
    assert [step["n"] for step in payload["steps"]] == [6, 12, 24]
    assert all(step["certificate_valid"] for step in payload["steps"])
    assert payload["final_n"] == 48


def test_lift_exact_signed_bound_rejects_all_plus_signing(capsys, tmp_path, monkeypatch):
    # the all-+1 signing of K_{3,3} has lambda = 3 > 2 sqrt(2); with a valid
    # walk certificate beside it, only the exact signed bound can refuse it.
    # lambda_max_signed is the certificate's achieved, not of these signs:
    # the real walk cannot pair them, its chi check would raise
    k33 = tmp_path / "k33.txt"
    k33.write_text("\n".join(f"{a} {b}" for a in range(3) for b in range(3, 6)))
    g = complete_bipartite(3, 3)
    _, cert = signing_select(g)
    monkeypatch.setattr(interlace.cli, "signing_select",
                        lambda graph, budget: ([1] * graph.m, cert))
    code, payload = run_cli(capsys, ["lift", str(k33)])
    assert code == 1
    step = payload["steps"][0]
    assert step["signs"] == [1] * 9 and step["certificate_valid"] is True
    assert step["lambda_max_signed"] == cert.achieved
    assert step["lift_ramanujan"] is False


def test_lift_balanced_signing_of_a_cycle_is_not_certified(capsys, tmp_path, monkeypatch):
    # a balanced signing of C8 meets the bound 2 = 2 sqrt(d - 1) with
    # equality but disconnects the lift, so only the connectivity check
    # refuses it; the walk never picks one, C_n's top matching root being < 2.
    # lambda_max_signed is the certificate's achieved, not of these signs
    g = cycle(8)
    c8 = tmp_path / "c8.txt"
    c8.write_text("".join(f"{a} {b}\n" for a, b in g.edges))
    _, cert = signing_select(g)
    balanced = [-1 if 3 in e else 1 for e in g.edges]  # switching at vertex 3
    monkeypatch.setattr(interlace.cli, "signing_select",
                        lambda graph, budget: (balanced, cert))
    code, payload = run_cli(capsys, ["lift", str(c8)])
    assert code == 1
    step = payload["steps"][0]
    assert step["certificate_valid"] is True
    assert step["lambda_max_signed"] == cert.achieved
    assert step["lift_ramanujan"] is False


@pytest.mark.parametrize("third", ["7", "nan"])
def test_lift_edge_list_with_a_third_field_exit_2(capsys, tmp_path, third):
    # graphs are unweighted, so a `u v w` line is malformed
    k33 = tmp_path / "k33.txt"
    k33.write_text("\n".join(f"{a} {b} {third}" if (a, b) == (2, 4) else f"{a} {b}"
                             for a in range(3) for b in range(3, 6)))
    assert main(["lift", str(k33)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parse error" in captured.err


def test_lift_budget_exceeded_exit_4(capsys, tmp_path):
    k33 = tmp_path / "k33.txt"
    k33.write_text("\n".join(f"{a} {b}" for a in range(3) for b in range(3, 6)))
    code = main(["lift", str(k33), "--budget", "8"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "budget exceeded" in captured.err


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 235. MiB for an array"),
     "Unable to allocate 235. MiB for an array"),
    (MemoryError(), "MemoryError")])
def test_lift_out_of_memory_exit_4(capsys, tmp_path, monkeypatch, error, message):
    # an allocation that fails in the signing DP (numpy's _ArrayMemoryError
    # is a MemoryError) is refused like a walk past its budget, with no
    # traceback
    def exhausted(g, budget, leaf):
        raise error

    monkeypatch.setattr(interlace.graphs, "_matching_tables", exhausted)
    k33 = tmp_path / "k33.txt"
    k33.write_text("\n".join(f"{a} {b}" for a in range(3) for b in range(3, 6)))
    code = main(["lift", str(k33)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == f"budget exceeded: out of memory ({message})\n"


def test_lift_forms_every_exact_char_poly_at_half_the_vertices(capsys, tmp_path, monkeypatch):
    # chi(A_s)(x) = chi(B_s B_s^T)(x^2) on a regular bipartite graph, so the
    # signing DP's leaves, the walk's certificate and the Ramanujan test
    # all take chi of a Gram on one side: no exact kernel call of lift gets
    # a matrix past n/2 x n/2 for the n-vertex graph it walks
    walked, seen = [6], []
    kernel, walk = interlace.matrices.charpoly_batch_exact, interlace.cli.signing_select

    def recorded_kernel(mats):
        seen.append((walked[-1], max(mats.shape[1:])))
        return kernel(mats)

    def recorded_walk(graph, budget):
        walked.append(graph.n)
        return walk(graph, budget)

    for module in (interlace.matrices, interlace.graphs, interlace.select):
        monkeypatch.setattr(module, "charpoly_batch_exact", recorded_kernel)
    monkeypatch.setattr(interlace.cli, "signing_select", recorded_walk)
    k33 = tmp_path / "k33.txt"
    k33.write_text("\n".join(f"{a} {b}" for a in range(3) for b in range(3, 6)))
    code, _ = run_cli(capsys, ["lift", str(k33), "--iterations", "3"])
    assert code == 0 and walked == [6, 6, 12, 24]
    assert {n for n, _ in seen} == {6, 12, 24}
    assert all(side <= n // 2 for n, side in seen), max(seen, key=lambda t: t[1] / t[0])


def _bench_cover24(seed: int) -> Graph:
    """A 24-vertex cubic Ramanujan graph drawn as the bench draws its
    cover: two random connected Ramanujan 2-lifts of K_{3,3}, its
    vertices then relabelled at random."""
    rng = np.random.default_rng(seed)
    g = complete_bipartite(3, 3)
    while g.n < 24:
        lift = two_lift(g, [int(s) for s in rng.choice([1, -1], size=g.m)])
        if lift.is_connected() and is_ramanujan_bipartite(lift):
            g = lift
    perm = rng.permutation(g.n)
    return Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])


@pytest.mark.parametrize("g, iterations", [
    (complete_bipartite(3, 3), 3), (complete_bipartite(4, 4), 2), (CUBE, 1),
    (_bench_cover24(24), 1)], ids=["K33x3", "K44x2", "cube", "cover24"])
def test_lift_steps_against_full_degree_chi_and_a_direct_ramanujan_test(
        capsys, tmp_path, g, iterations):
    # every step's walk, rerun on the graph it lifted, has final_poly q of
    # the full-degree chi(A_s) = x^e q(x^2), the identity the certificate
    # reads at half degree; and the printed lift_ramanujan, Bilu-Linial's
    # shortcut on the signed bound, agrees with a direct Gram test of the
    # printed lift
    path = tmp_path / "g.txt"
    path.write_text("".join(f"{a} {b}\n" for a, b in g.edges))
    code, payload = run_cli(capsys, ["lift", str(path), "--iterations", str(iterations)])
    assert code == 0 and len(payload["steps"]) == iterations
    for step in payload["steps"]:
        signs, cert = signing_select(g)
        assert signs == step["signs"]
        assert cert.final_poly == squared_roots(char_poly(signed_adjacency(g, signs)))
        lift = two_lift(g, signs)
        assert [list(e) for e in lift.edges] == step["lift_edges"]
        assert is_ramanujan_bipartite(lift) == step["lift_ramanujan"]
        g = lift


def test_lift_default_budget_stops_the_fourth_lift_of_k33(capsys, tmp_path):
    # the walk on the 48-vertex third lift costs about 1.2e8 DP states and
    # leaf entries, over the default 2^20, so it stops before its first choice
    k33 = tmp_path / "k33.txt"
    k33.write_text("\n".join(f"{a} {b}" for a in range(3) for b in range(3, 6)))
    code = main(["lift", str(k33), "--iterations", "4"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "leaf entries" in captured.err


def test_lift_non_regular_exit_3(capsys, tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("0 1\n1 2\n")
    code, _ = run_cli(capsys, ["lift", str(p)])
    assert code == 3


def test_lift_degree_one_exit_3(capsys, tmp_path):
    k2 = tmp_path / "k2.txt"
    k2.write_text("0 1\n")
    code, _ = run_cli(capsys, ["lift", str(k2)])
    assert code == 3  # d >= 2 required for the threshold to make sense


def test_lift_non_bipartite_exit_3(capsys, tmp_path):
    k4 = tmp_path / "k4.txt"
    k4.write_text("\n".join(f"{a} {b}" for a in range(4) for b in range(a + 1, 4)))
    code, _ = run_cli(capsys, ["lift", str(k4)])
    assert code == 3


def test_lift_huge_vertex_label_exit_3(capsys, tmp_path):
    # n = 10^19 + 1 vertices on one edge: no d-regular graph with d >= 2
    # has more vertices than edges, so nothing of size n is formed
    p = tmp_path / "huge.txt"
    p.write_text("0 10000000000000000000\n")
    assert main(["lift", str(p)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "d-regular with d >= 2" in captured.err


def test_lift_malformed_edges_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2 3 4\n")
    code, _ = run_cli(capsys, ["lift", str(bad)])
    assert code == 2


@pytest.mark.parametrize("text, message", [
    ("0 1\n0 0", "self-loop at vertex 0"),
    ("0 1\n1 0", "duplicate edges are not allowed"),
    ("0 1\n-1 1", "edge (-1,1) out of range for n=2")],
    ids=["self-loop", "duplicate", "out-of-range"])
def test_lift_graph_refusals_exit_2(capsys, tmp_path, text, message):
    g = tmp_path / "g.txt"
    g.write_text(text + "\n")
    assert main(["lift", str(g)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"parse error: {message}\n"


K33 = "".join(f"{a} {b}\n" for a in range(3) for b in range(3, 6))
# C_16 x K_2: bipartite, cubic and connected, lambda_2 = 1 + 2 cos(pi/8) > 2 sqrt 2
PRISM = "".join(f"{a} {b}\n" for i in range(16)
                for a, b in ((i, (i + 1) % 16), (16 + i, 16 + (i + 1) % 16), (i, 16 + i)))
K4 = "".join(f"{a} {b}\n" for a in range(4) for b in range(a + 1, 4))
TWO_K33 = K33 + "".join(f"{a + 6} {b + 6}\n" for a in range(3) for b in range(3, 6))
EYE11 = json.dumps([np.eye(11, dtype=int).tolist()])


@pytest.mark.parametrize("argv, text, code, message", [
    (["lift"], PRISM, 3, "precondition failed: input graph is not bipartite Ramanujan"),
    (["lift"], K4, 3, "precondition failed: graph is not bipartite"),
    (["lift"], TWO_K33, 3, "precondition failed: graph is not connected"),
    (["lift"], "0 1\n1 2\n", 3, "precondition failed: input must be d-regular with d >= 2"),
    (["lift"], "0 a\n", 2, "parse error: line 1: bad vertex in '0 a'"),
    (["lift"], "# no edges\n", 2, "parse error: empty edge list"),
    (["mixedchar"], '{"matrices": 3}', 2, "parse error: expected a JSON list of matrices"),
    (["mixedchar"], "[[[1, 2]]]", 2, "parse error: matrix 0 malformed: expected a square "
                                     "matrix, got shape (1, 2)"),
    (["mixedchar", "--mode", "exact"], "[[[1, 2], [3, 4]]]", 2,
     "parse error: matrix 0 malformed: matrix is not symmetric"),
    (["mixedchar"], "[[[1, 0], [0, 1]], [[1]]]", 3,
     "precondition failed: matrices must share a dimension"),
    (["mixedchar"], EYE11, 3, "precondition failed: dimension capped at 10, got 11"),
    (["mixedchar", "--mode", "exact"], EYE11, 3,
     "precondition failed: dimension capped at 10, got 11"),
    (["ri", "-k", "1.5"], '{"vectors": [[1.0, 0.0], [0.0, 1.0]]}', 2,
     "argument -k: not an integer: '1.5'"),
    (["ri", "-k", "1", "--tol", "abc"], '{"vectors": [[1.0, 0.0], [0.0, 1.0]]}', 2,
     "argument --tol: not a number: 'abc'"),
], ids=["lift-prism", "lift-k4", "lift-two-k33", "lift-path", "lift-bad-vertex",
        "lift-comment-only", "mixedchar-not-a-list", "mixedchar-not-square",
        "mixedchar-exact-asymmetric", "mixedchar-two-sizes", "mixedchar-float-d11",
        "mixedchar-exact-d11", "ri-fractional-k", "ri-tol-not-a-number"])
def test_refusals_name_their_reason_on_stderr(capsys, tmp_path, argv, text, code, message):
    path = tmp_path / "input"
    path.write_text(text)
    assert main([argv[0], str(path)] + argv[1:]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_lift_edge_list_comments_and_blank_lines_are_skipped(capsys, tmp_path):
    plain, commented = tmp_path / "k33.txt", tmp_path / "k33-commented.txt"
    plain.write_text(K33)
    commented.write_text("# K_{3,3}\n\n" + K33.replace("\n", "  # an edge\n\n"))
    assert main(["lift", str(plain)]) == 0
    want = capsys.readouterr().out
    assert main(["lift", str(commented)]) == 0
    assert capsys.readouterr().out == want


BOOLS = '{"vectors": [[true, false], [false, true]]}'
INFINITE = '{"vectors": [[Infinity, 0], [0, 1]]}'
ZERO_DENOMINATOR = '{"vectors": [["1/0", 0], [0, 1]]}'


@pytest.mark.parametrize("command, mode, text", [
    ("mixedchar", "float", "[[[1, 0], [0, null]]]"),
    ("mixedchar", "exact", "[[[1, 0], [0, true]]]"),
    ("mixedchar", "float", "[[[1, 0], [0, Infinity]]]"),
    ("mixedchar", "exact", "[[[1, 0], [0, -Infinity]]]"),
    ("ri", "float", BOOLS), ("ri", "exact", BOOLS),
    ("weaver", "float", BOOLS), ("weaver", "exact", BOOLS),
    ("ri", "float", INFINITE), ("ri", "exact", INFINITE),
    ("weaver", "float", INFINITE), ("weaver", "exact", INFINITE),
    ("ri", "exact", ZERO_DENOMINATOR), ("weaver", "exact", ZERO_DENOMINATOR),
    ("mixedchar", "exact", '[[["1/0"]]]'),
    ("ri", "float", '{"vectors": [["inf", 0], [0, 1]]}'),
    ("weaver", "float", '{"vectors": [["nan", 0], [0, 1]]}'),
    ("mixedchar", "float", '[[["inf"]]]'),
    ("ri", "float", '{"vectors": [["1", 0], [0, 1]]}'),
    ("ri", "float", '{"vectors": [[1e400, 0], [0, 1]]}'),
    ("mixedchar", "float", "[[[1e400]]]"),
    ("weaver", "float", '{"vectors": [[1' + "0" * 400 + ', 0], [0, 1]]}'),
], ids=["mixedchar-float-null", "mixedchar-exact-true", "mixedchar-float-inf",
        "mixedchar-exact-neginf", "ri-float-bools", "ri-exact-bools",
        "weaver-float-bools", "weaver-exact-bools", "ri-float-inf", "ri-exact-inf",
        "weaver-float-inf", "weaver-exact-inf", "ri-exact-zero-denominator",
        "weaver-exact-zero-denominator", "mixedchar-exact-zero-denominator",
        "ri-float-inf-string", "weaver-float-nan-string", "mixedchar-float-inf-string",
        "ri-float-numeric-string", "ri-float-past-max", "mixedchar-float-past-max",
        "weaver-float-int-past-max"])
def test_non_numbers_in_json_input_exit_2(capsys, tmp_path, command, mode, text):
    # JSON true, false and null are not numbers, nor are NaN and Infinity,
    # which Python's json module reads although JSON has no such values;
    # float mode takes JSON numbers a float holds, no strings and nothing
    # past the largest float, and an exact "p/q" string needs a nonzero q
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = [command, str(path), "--mode", mode] + (["-k", "1"] if command == "ri" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parse error" in captured.err


def test_mixedchar_happy_path(capsys, tmp_path):
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps({"matrices": [
        [[0.5, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.5]],
    ]}))
    code, payload = run_cli(capsys, ["mixedchar", str(mats)])
    assert code == 0
    assert payload["degree"] == 2
    assert payload["poly"] == pytest.approx([0.25, -1.0, 1.0])
    assert payload["roots"] == pytest.approx([0.5, 0.5])


def test_mixedchar_exact_mode(capsys, tmp_path):
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps({"matrices": [[[1, 0], [0, 1]]]}))
    code, payload = run_cli(capsys, ["mixedchar", str(mats), "--mode", "exact"])
    assert code == 0
    assert payload["poly"] == [0, -2, 1]  # x^2 - 2x, serialized as integers


def test_mixedchar_exact_fractions_serialize(capsys, tmp_path):
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps({"matrices": [[["1/2", "0"], ["0", "1/2"]]]}))
    code, payload = run_cli(capsys, ["mixedchar", str(mats), "--mode", "exact"])
    assert code == 0
    assert payload["poly"] == [0, -1, 1]


def test_mixedchar_non_psd_exit_3(capsys, tmp_path):
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps({"matrices": [[[-1.0, 0.0], [0.0, 1.0]]]}))
    code, _ = run_cli(capsys, ["mixedchar", str(mats)])
    assert code == 3


def test_mixedchar_exact_indefinite_exit_3(capsys, tmp_path):
    # mu = x^2 + 2e-20 has no real root, and the float PSD check's slack
    # admits both matrices; the exact elimination refuses the first
    eps = "1/10000000000"
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps([[[0, eps], [eps, 0]], [[0, "-" + eps], ["-" + eps, 0]]]))
    assert main(["mixedchar", str(mats), "--mode", "exact"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "positive semidefinite" in captured.err


@pytest.mark.parametrize("mats, index", [
    ([[[1, 0], [0, 1]], [[-1, 0], [0, 1]]], 1),  # beyond the float check's slack
    ([[[1, 1], [1, 1]], [["-1/1000000000000", 0], [0, 0]]], 1),  # within it
    ([[["-1/1000000000000", 0], [0, 0]], [[2, 1], [1, 2]]], 0),
], ids=["beyond-slack", "within-slack-rank-one", "within-slack-full-rank"])
def test_mixedchar_exact_not_psd_names_the_matrix_exit_3(capsys, tmp_path, mats, index):
    path = tmp_path / "mats.json"
    path.write_text(json.dumps(mats))
    assert main(["mixedchar", str(path), "--mode", "exact"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"precondition failed: matrix {index} is not positive semidefinite\n"


def test_mixedchar_seventeen_matrices_exact_rank_one_exit_0_full_rank_exit_3(capsys, tmp_path):
    # the cap of 16 matrices guards the tables: 17 exact rank-one sign
    # outer products in d = 10 take chi of their sum, 17 full-rank
    # matrices are refused
    vs = np.random.default_rng(17).choice([-1, 1], size=(17, 10))
    path = tmp_path / "rank-one.json"
    path.write_text(json.dumps([np.outer(v, v).tolist() for v in vs]))
    code, payload = run_cli(capsys, ["mixedchar", str(path), "--mode", "exact"])
    assert code == 0 and payload["degree"] == 10
    path = tmp_path / "full-rank.json"
    path.write_text(json.dumps([[[2, 1], [1, 2]]] * 17))
    assert main(["mixedchar", str(path), "--mode", "exact"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "precondition failed: at most 16 matrices supported, got 17\n"


def test_mixedchar_empty_list_exit_2(capsys, tmp_path):
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps({"matrices": []}))
    code, _ = run_cli(capsys, ["mixedchar", str(mats)])
    assert code == 2


def test_budget_exceeded_exit_4(capsys, tmp_path):
    rng = np.random.default_rng(107)
    vs = random_isotropic(3, 25, rng)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"vectors": vs.vectors.astype(float).tolist()}))
    # the cheaper route, the engine, states (48 + 1) table sandwiches x
    # C(12, 6) = 45276 entries up front, over a budget of 1000
    code = main(["weaver", str(path), "--budget", "1000"])
    assert code == 4
    assert "budget exceeded" in capsys.readouterr().err


def test_weaver_m25_default_budget_certifies(capsys, tmp_path):
    rng = np.random.default_rng(107)
    vs = random_isotropic(3, 25, rng)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"vectors": vs.vectors.astype(float).tolist()}))
    code, payload = run_cli(capsys, ["weaver", str(path)])
    assert code == 0
    assert sorted(payload["s1"] + payload["s2"]) == list(range(25))
    assert payload["certificate_valid"] is True
    assert max(payload["norm1"], payload["norm2"]) <= payload["bound"] + 1e-7
    assert payload["achieved"] <= payload["pledged"] + 1e-7


def test_weaver_d7_m24_exits_4_before_any_fold(capsys, tmp_path, monkeypatch):
    # with vector 0 fixed, the engine states (46 + 1) table sandwiches x
    # C(28, 14), about 1.9e9 entries, over the default 2^30, and
    # enumeration states more: the walk is refused before it starts
    import interlace.select as select_module

    def refuse(*args):
        raise AssertionError("the walk started")

    for name in ("_sandwiches", "_enumerated_char"):
        monkeypatch.setattr(select_module, name, refuse)
    vs = random_isotropic(7, 24, np.random.default_rng(7))
    path = tmp_path / "d7.json"
    path.write_text(json.dumps({"vectors": vs.vectors.tolist()}))
    code = main(["weaver", str(path)])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "budget exceeded" in captured.err


def _raise_not_real_rooted(*args, **kwargs):
    raise NotRealRootedError("complex root 0.5+0.1j (imag part beyond tolerance)")


def test_numerical_failure_exit_5(capsys, monkeypatch, iso_system_file, tmp_path):
    # a numerical failure is not a failed precondition (exit 3)
    monkeypatch.setattr(interlace.cli, "restricted_invertibility_select",
                        _raise_not_real_rooted)
    code, payload = run_cli(capsys, ["ri", iso_system_file, "-k", "2"])
    assert code == 5 and payload is None
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps([[[1.0, 0.0], [0.0, 1.0]]]))
    monkeypatch.setattr(interlace.cli, "real_roots", _raise_not_real_rooted)
    assert main(["mixedchar", str(mats)]) == 5
    assert "numerical failure: complex root" in capsys.readouterr().err


def test_non_finite_result_is_not_printed_exit_5(capsys, tmp_path, monkeypatch):
    # a root routine that returns NaN: strict JSON cannot carry it
    mats = tmp_path / "mats.json"
    mats.write_text("[[[1.0, 0], [0, 1.0]]]")
    monkeypatch.setattr(interlace.cli, "real_roots", lambda p: np.array([math.nan, 0.0]))
    code, payload = run_cli(capsys, ["mixedchar", str(mats)])
    assert code == 5 and payload is None
    assert main(["mixedchar", str(mats), "--out", str(tmp_path / "out.json")]) == 5
    assert "numerical failure: a result is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", [["ri", "-k", "1"], ["weaver"]])
def test_overflowing_gram_sum_exit_3(capsys, tmp_path, command):
    # finite JSON whose Gram sum overflows is refused before any other
    # arithmetic, with no RuntimeWarning (which the suite makes an error)
    path = tmp_path / "huge.json"
    path.write_text('{"vectors": [[1e308, 0], [0, 1]]}')
    code = main([command[0], str(path)] + command[1:])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert "Gram sum of the vectors overflows" in captured.err


@pytest.mark.parametrize("entry", ["1e200", str(10 ** 400)], ids=["1e200", "10^400"])
@pytest.mark.parametrize("command", [["ri", "-k", "1"], ["weaver"]], ids=["ri", "weaver"])
def test_exact_gram_sum_past_the_floats_exit_3(capsys, tmp_path, command, entry):
    # an exact Gram sum with an entry past the floats is not I, and the
    # refusal reports its defect as inf, with no OverflowError and no
    # RuntimeWarning (which the suite makes an error)
    path = tmp_path / "huge.json"
    path.write_text('{"vectors": [[%s, 0.0], [0.0, 1.0]]}' % entry)
    code = main([command[0], str(path)] + command[1:] + ["--mode", "exact"])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert "not isotropic (defect inf)" in captured.err


def test_float_mixedchar_entry_near_the_float_maximum(capsys, tmp_path):
    # symmetrizing halves before adding, so 1e308 stays finite; mu = x^2 -
    # tr(A) x, and float mode prints the roots exact mode does
    path = tmp_path / "huge.json"
    path.write_text(json.dumps([[[1e308, 0], [0, 1]]]))
    code, payload = run_cli(capsys, ["mixedchar", str(path)])
    assert code == 0 and payload["roots"] == [1e308, 0.0]
    code, payload = run_cli(capsys, ["mixedchar", str(path), "--mode", "exact"])
    assert code == 0 and payload["roots"] == [1e308, 0.0]


def test_float_mixedchar_asymmetric_entries_near_the_float_maximum_exit_2(capsys, tmp_path):
    # the symmetry test compares halves, so 1e308 against -1e308 is
    # refused as asymmetric with no RuntimeWarning
    path = tmp_path / "asym.json"
    path.write_text(json.dumps([[[1, 1e308], [-1e308, 1]]]))
    code = main(["mixedchar", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "matrix is not symmetric" in captured.err


def test_float_mixedchar_overflowing_trace_sum_exit_3(capsys, tmp_path):
    # finite JSON whose trace sum overflows is refused before any other
    # arithmetic, with no RuntimeWarning (which the suite makes an error)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps([[[1e308, 0], [0, 1]], [[1e308, 0], [0, 1]]]))
    code = main(["mixedchar", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert "trace sum of the matrices overflows" in captured.err


def test_float_mixedchar_overflowing_fold_exit_5(capsys, tmp_path):
    # the trace sum 4e200 is finite, but the fold forms 1e400: the
    # coefficients come out infinite, with no RuntimeWarning, and the
    # root routine refuses them
    path = tmp_path / "huge.json"
    path.write_text(json.dumps([[[1e200, 0], [0, 1e200]]] * 2))
    code = main(["mixedchar", str(path)])
    captured = capsys.readouterr()
    assert code == 5 and not captured.out
    assert "numerical failure" in captured.err


@pytest.mark.parametrize("mats", [
    [[[1e308, 0], [0, 1]], [[1e308, 0], [0, 1]]],  # rank two: the tables
    [[[1e308, 0], [0, 0]], [[1e308, 0], [0, 0]]],  # rank one: chi of the sum
], ids=["tables", "rank-one"])
def test_exact_mixedchar_root_past_the_float_range_exit_5(capsys, tmp_path, mats):
    # the top root, near 2e308, has no float: a numerical failure, with no
    # traceback, no RuntimeWarning (which the suite makes an error) and no
    # output file
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(mats))
    out = tmp_path / "out.json"
    code = main(["mixedchar", str(path), "--mode", "exact", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 5 and not captured.out and not out.exists()
    assert captured.err.startswith("numerical failure: a result is not finite")


@pytest.mark.parametrize("command", [["ri", "-k", "1"], ["weaver"]])
def test_vectors_of_length_zero_exit_2(capsys, tmp_path, command):
    # rows with no coordinates are malformed input, refused by the parser
    # before any arithmetic
    path = tmp_path / "empty-rows.json"
    path.write_text('{"vectors": [[], []]}')
    code = main([command[0], str(path)] + command[1:])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "malformed vector system: need a nonempty list of equal-length, " \
        "nonempty vectors" in captured.err


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_float_mixedchar_roots_at_extreme_scales(capsys, tmp_path, scale):
    # mu = x^2 - 2 scale x: float mode prints the roots exact mode does
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps([[[scale, 0], [0, scale]]]))
    code, payload = run_cli(capsys, ["mixedchar", str(path)])
    assert code == 0 and payload["roots"] == [2 * scale, 0.0]
    code, payload = run_cli(capsys, ["mixedchar", str(path), "--mode", "exact"])
    assert code == 0 and payload["roots"] == [2 * scale, 0.0]


def test_float_mixedchar_on_ten_coordinate_projections_exit_0(capsys, tmp_path):
    # e_i e_i^T, i < 10, are PSD and sum to I, and mu = (x - 1)^10 is
    # real-rooted by theorem: the float derivative chain finds its tenfold
    # root exactly, and exact mode certifies it
    path = tmp_path / "projections.json"
    path.write_text(json.dumps([np.diag(row).tolist() for row in np.eye(10)]))
    code, payload = run_cli(capsys, ["mixedchar", str(path)])
    assert code == 0 and payload["roots"] == [1.0] * 10
    code, payload = run_cli(capsys, ["mixedchar", str(path), "--mode", "exact"])
    assert code == 0 and payload["roots"] == [1] * 10


def test_out_flag_writes_file(capsys, tmp_path, iso_system_file):
    target = tmp_path / "result.json"
    code = main(["ri", iso_system_file, "-k", "1", "--out", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["command"] == "ri"
    assert capsys.readouterr().out == ""


def test_bad_config_exit_2(capsys, tmp_path, iso_system_file):
    k33 = tmp_path / "k33.txt"
    k33.write_text("\n".join(f"{a} {b}" for a in range(3) for b in range(3, 6)))
    for argv in (["ri", iso_system_file, "-k", "1", "--tol", "-1"],
                 ["ri", iso_system_file, "-k", "1", "--tol", "0"],
                 ["ri", iso_system_file, "-k", "0"],
                 ["weaver", iso_system_file, "--budget", "0"],
                 ["lift", str(k33), "--budget", "0"]):
        code, payload = run_cli(capsys, argv)
        assert code == 2 and payload is None, argv


def test_flags_a_command_does_not_read_exit_2(capsys, tmp_path, iso_system_file):
    # each command takes only the flags it reads
    k33 = tmp_path / "k33.txt"
    k33.write_text("\n".join(f"{a} {b}" for a in range(3) for b in range(3, 6)))
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps([[[1, 0], [0, 1]]]))
    for argv in (["lift", str(k33), "--mode", "exact"],
                 ["lift", str(k33), "--tol", "1"],
                 ["mixedchar", str(mats), "--tol", "1"],
                 ["mixedchar", str(mats), "--budget", "5"],
                 ["ri", iso_system_file, "-k", "1", "--budget", "5"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err


def test_config_echoes_the_flags_its_command_read(capsys, tmp_path, iso_system_file):
    k33 = tmp_path / "k33.txt"
    k33.write_text("\n".join(f"{a} {b}" for a in range(3) for b in range(3, 6)))
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps([[[1, 0], [0, 1]]]))
    expected = {("ri", iso_system_file, "-k", "1"): {"mode": "float", "tol": 1e-8},
                ("weaver", iso_system_file): {"mode": "float", "tol": 1e-8,
                                              "budget": 2 ** 30},
                ("lift", str(k33)): {"budget": 2 ** 20},
                ("mixedchar", str(mats)): {"mode": "float"}}
    for argv, config in expected.items():
        code, payload = run_cli(capsys, list(argv))
        assert code == 0 and payload["config"] == config, argv


def test_ri_infinite_tol_exit_2(capsys, tmp_path):
    # with --tol inf the isotropy precondition (defect 4.73) would pass
    aniso = tmp_path / "aniso.json"
    aniso.write_text(json.dumps({"vectors": [[2, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]}))
    target = tmp_path / "result.json"
    assert main(["ri", str(aniso), "-k", "1"]) == 3
    for tol in ("inf", "nan"):
        code = main(["ri", str(aniso), "-k", "1", "--tol", tol, "--out", str(target)])
        assert code == 2
        assert not target.exists()


def test_tol_applies_unfloored_to_float_input(capsys, tmp_path):
    # the Gram sum diag(1, 1 + 5e-10) is inside the default 1e-8 and
    # outside --tol 1e-10, which no floor raises back to 1e-8
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"vectors": [[1.0, 0.0], [0.0, math.sqrt(1 + 5e-10)]]}))
    code, payload = run_cli(capsys, ["ri", str(path), "-k", "1"])
    assert code == 0 and payload["config"]["tol"] == 1e-8
    assert main(["ri", str(path), "-k", "1", "--tol", "1e-10"]) == 3
    assert "not isotropic" in capsys.readouterr().err


def test_exact_input_is_isotropic_exactly_or_exit_3(capsys, tmp_path):
    # the Gram sum misses I by about 2e-10, inside every float tolerance
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1.0000000001]]}))
    assert main(["ri", str(path), "-k", "1"]) == 0
    capsys.readouterr()
    for argv in (["ri", str(path), "-k", "1"], ["weaver", str(path)]):
        assert main(argv + ["--mode", "exact", "--tol", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "not isotropic" in captured.err


def test_exact_roots_real_rooted_by_theorem_skip_the_sturm_check(capsys, tmp_path):
    # the Sturm checker is for polynomials from outside the library, and
    # lives in tests/paper.py: exact mixedchar and the exact weaver walk
    # take every root from root_clusters without it
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps([[[2, 1], [1, 1]], [[1, "1/3"], ["1/3", 1]]]))
    code, payload = run_cli(capsys, ["mixedchar", str(mats), "--mode", "exact"])
    assert code == 0 and payload["degree"] == 2 and len(payload["roots"]) == 2
    # rows of a rational rotation and of I, scaled by 3/5 and 4/5
    vecs = [["9/25", "12/25"], ["-12/25", "9/25"], ["4/5", "0"], ["0", "4/5"]]
    system = tmp_path / "rot.json"
    system.write_text(json.dumps({"vectors": vecs}))
    code, payload = run_cli(capsys, ["weaver", str(system), "--mode", "exact"])
    assert code == 0 and payload["certificate_valid"] is True
    assert sorted(payload["s1"] + payload["s2"]) == [0, 1, 2, 3]


@pytest.mark.parametrize("iterations", ["0", "-2"])
def test_lift_non_positive_iterations_exit_2(capsys, tmp_path, iterations):
    k33 = tmp_path / "k33.txt"
    k33.write_text("\n".join(f"{a} {b}" for a in range(3) for b in range(3, 6)))
    target = tmp_path / "result.json"
    code = main(["lift", str(k33), "--iterations", iterations, "--out", str(target)])
    assert code == 2
    assert not target.exists()


def test_identical_invocations_are_byte_identical(tmp_path, iso_system_file):
    outs = []
    for name in ("a.json", "b.json"):
        target = tmp_path / name
        assert main(["ri", iso_system_file, "-k", "2", "--out", str(target)]) == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


def test_console_script_installed():
    # The `interlace` script exists only after an install, so check that
    # pyproject.toml declares it and run the same entry point as a module.
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert 'interlace = "interlace.cli:main"' in scripts
    proc = subprocess.run([sys.executable, "-m", "interlace", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("ri", "weaver", "lift", "mixedchar"):
        assert sub in proc.stdout


def test_import_loads_numpy_and_standard_library_only():
    # start-up cost: a fresh interpreter importing the library and the CLI
    # loads no third-party package besides numpy (private helper modules,
    # named with a leading underscore, are not counted)
    import os
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; before = set(sys.modules); import interlace, interlace.cli; "
            "tops = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(*sorted(t for t in tops - set(sys.stdlib_module_names) "
            "if not t.startswith('_')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["interlace", "numpy"]


def test_cli_import_loads_neither_the_barriers_nor_the_paper_checks():
    # no command reaches the barrier module, and the package holds none of
    # the paper's identity checks (tests/paper.py) nor copies of the
    # tests' oracles (tests/oracles.py)
    import os
    from pathlib import Path

    gone = ["apply_shift_operator", "laguerre_transform", "diagram_identity_check",
            "sturm_root_count", "is_real_rooted", "kth_largest_root", "interlaces",
            "have_common_interlacing", "ROOT_TOL", "laplacian", "spectral_approx_factors",
            "heilmann_lieb_check", "godsil_gutman_check", "GG_EDGE_CAP", "matching_poly",
            "MATCHING_CAP", "mixed_char_root_bound", "signing_vectors",
            "expected_char_poly", "mixed_identity_check", "sturm_sequence",
            "_sign_changes", "_sturm_certifies_real_roots", "_require_real_roots"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import json, sys; import interlace.cli; "
            "mods = [m for n, m in sys.modules.items() if n.split('.')[0] == 'interlace']; "
            f"print(json.dumps(['interlace.barrier' in sys.modules, "
            f"sorted({{n for m in mods for n in {gone!r} if hasattr(m, n)}})]))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == [False, []]


def test_exact_parse_keeps_json_integers_as_ints():
    text = json.dumps({"matrices": [[[2, 0.5], [0.5, "1/3"]]]})
    (mat,) = interlace.cli._parse_matrices(text, exact=True)
    entries = mat.a.ravel().tolist()
    assert type(entries[0]) is int and entries[0] == 2
    assert entries[1:] == [Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)]
    assert all(isinstance(x, Fraction) for x in entries[1:])
    system = interlace.cli._parse_vector_system(json.dumps([[1, "1/2"], [0.25, -3]]),
                                                exact=True)
    rows = system.vectors.tolist()
    assert [type(x) for x in rows[0] + rows[1]] == [int, Fraction, Fraction, int]


def test_one_parser_serves_every_call_in_a_process(tmp_path, iso_system_file):
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps([[[1, 1], [1, 1]], [[2, -1], [-1, 1]]]))
    calls = [["mixedchar", str(mats), "--mode", "exact"],
             ["ri", iso_system_file, "-k", "2"],
             ["mixedchar", str(mats), "--no-such-flag"],
             ["mixedchar", str(mats), "--mode", "exact"]]

    def run(argv, name):
        target = tmp_path / name
        code = main(argv + ["--out", str(target)])
        return code, target.read_bytes() if target.exists() else None

    interlace.cli._parser.cache_clear()
    first = [run(argv, f"first{i}.json") for i, argv in enumerate(calls)]
    assert [code for code, _ in first] == [0, 0, 2, 0]
    assert first[3] == first[0] and first[2][1] is None
    # every call again on the parser those calls left behind, and on a new one
    again = [run(argv, f"again{i}.json") for i, argv in enumerate(calls)]
    interlace.cli._parser.cache_clear()
    fresh = [run(argv, f"fresh{i}.json") for i, argv in enumerate(calls)]
    assert again == first and fresh == first
