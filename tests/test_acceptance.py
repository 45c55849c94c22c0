"""Acceptance suite: twelve end-to-end guarantees, one test each.

Every test prints a single ``[acceptance NN] PASS/FAIL - <name>`` line
to the real terminal (bypassing capture) before asserting, so a full
run always shows the scoreboard.  Randomized criteria use fixed seeds;
brute-force oracles are recomputed in place rather than frozen where
the instance is generated on the fly.
"""

import functools
import itertools
import math
import time

import numpy as np
import pytest

from interlace import (
    Polynomial,
    real_roots,
    Graph,
    adjacency,
    signed_adjacency,
    two_lift,
    is_ramanujan_bipartite,
    SymMatrix,
    mixed_char,
    VectorSystem,
    restricted_invertibility_bound,
    restricted_invertibility_select,
    weaver_partition,
    weaver_bound,
    signing_select,
)
from barrier import laguerre_root_bounds, lower_shift_check, upper_shift_check
from fixtures import complete, complete_bipartite, from_roots, petersen, random_isotropic, \
    two_point
from oracles import conditional_expected_poly
from paper import covariance, godsil_gutman_check, heilmann_lieb_check, is_real_rooted, \
    laguerre_transform, mixed_char_root_bound, signing_vectors, spectral_approx_factors


def _report(capsys, num, name, ok, elapsed=None):
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    with capsys.disabled():
        print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} - {name}{stamp}")


# ----------------------------------------------------------------------
# 1. Laguerre root bounds for (1-D)^n x^k, all 1 <= k <= n <= 30
# ----------------------------------------------------------------------


def test_criterion_01_laguerre_bounds(capsys):
    t0 = time.monotonic()
    violations = []
    for n in range(1, 31):
        for k in range(1, n + 1):
            p = laguerre_transform(n, k)
            r = real_roots(Polynomial([float(c) for c in p.coeffs]))
            lo, hi = laguerre_root_bounds(n, k)
            if r.min() < lo - 1e-6 or r.max() > hi + 1e-6:
                violations.append((n, k, float(r.min()), float(r.max())))
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 10.0
    _report(capsys, 1, "laguerre root bounds, 1<=k<=n<=30", ok, elapsed)
    assert not violations, f"roots escaped the bound interval: {violations[:5]}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s (limit 10s)"


# ----------------------------------------------------------------------
# 2. Soft-edge shift inequalities on 500 random real-rooted polynomials
# ----------------------------------------------------------------------


def test_criterion_02_shift_inequalities(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(20240502)
    failures = []
    for i in range(500):
        deg = int(rng.integers(1, 13))
        f = from_roots(rng.uniform(-5.0, 5.0, deg).tolist())
        phi_lo = float(rng.uniform(0.05, 4.0))
        phi_up = float(rng.uniform(0.05, 0.95))
        if not lower_shift_check(f, phi_lo):
            failures.append(("lower", i, phi_lo))
        if not upper_shift_check(f, phi_up):
            failures.append(("upper", i, phi_up))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 30.0
    _report(capsys, 2, "soft-edge shift inequalities, 500 random instances", ok, elapsed)
    assert not failures, f"shift inequality violated: {failures[:5]}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s (limit 30s)"


# ----------------------------------------------------------------------
# 3. Signing-average identity, exact arithmetic, 50 random graphs
# ----------------------------------------------------------------------


def signing_average_graphs():
    """Criterion 3's 50 random graphs, up to 8 vertices and 10 edges."""
    rng = np.random.default_rng(20240503)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        rng.shuffle(pairs)
        yield Graph(n, pairs[: int(rng.integers(0, min(10, len(pairs)) + 1))])


def test_criterion_03_signing_average_exact(capsys):
    t0 = time.monotonic()
    failures = []
    for i, g in enumerate(signing_average_graphs()):
        if not godsil_gutman_check(g):
            failures.append((i, g.n, g.m))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    _report(capsys, 3, "average of signed char polys equals matching poly (exact)",
            ok, elapsed)
    assert not failures, f"identity failed on graphs: {failures}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s (limit 60s)"


# ----------------------------------------------------------------------
# 4. Matching-polynomial root bound, 100 random bounded-degree graphs
# ----------------------------------------------------------------------


def bounded_degree_graphs():
    """Criterion 4's 100 random graphs of maximum degree 2 to 6."""
    rng = np.random.default_rng(20240504)
    produced = 0
    while produced < 100:
        n = int(rng.integers(4, 15))
        p = float(rng.uniform(0.15, 0.5))
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < p]
        g = Graph(n, edges)
        if 2 <= max(g.degree_sequence()) <= 6:
            produced += 1
            yield g


def test_criterion_04_matching_root_bound(capsys):
    failures = []
    for produced, g in enumerate(bounded_degree_graphs(), 1):
        if not heilmann_lieb_check(g):
            failures.append((produced, g.n, max(g.degree_sequence())))
    ok = not failures
    _report(capsys, 4, "matching-poly roots within 2 sqrt(d-1), 100 random graphs", ok)
    assert not failures, f"root bound failed: {failures}"


# ----------------------------------------------------------------------
# 5 & 6. Expectation identity, real-rootedness, and outcome bracketing
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _random_rank_one_systems():
    """150 float + 50 exact two-point systems with m <= 5, d <= 5."""
    rng = np.random.default_rng(20240505)
    float_systems = []
    for _ in range(150):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        float_systems.append([
            two_point(rng.standard_normal(d).tolist(), rng.standard_normal(d).tolist())
            for _ in range(m)])
    exact_systems = []
    for _ in range(50):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        exact_systems.append([
            two_point(rng.integers(-2, 3, d).tolist(), rng.integers(-2, 3, d).tolist())
            for _ in range(m)])
    return float_systems, exact_systems


def test_criterion_05_expectation_identity_and_real_roots(capsys):
    float_systems, exact_systems = _random_rank_one_systems()
    failures = []
    for tag, systems in (("float", float_systems), ("exact", exact_systems)):
        for i, rvs in enumerate(systems):
            # enumeration against the engine: equal (exactly, for exact
            # systems) or RuntimeError
            try:
                p = conditional_expected_poly(rvs, cross_check=True)
            except RuntimeError:
                failures.append((f"{tag}-identity", i))
                continue
            assert p.is_exact == (tag == "exact")
            if not is_real_rooted(p):  # exact input: certified by a Sturm count
                failures.append((f"{tag}-roots", i))
    ok = not failures
    _report(capsys, 5, "expectation identity + real-rootedness, 200 systems", ok)
    assert not failures, f"failed systems: {failures[:5]}"


def test_criterion_06_outcome_bracketing(capsys):
    float_systems, exact_systems = _random_rank_one_systems()
    failures = []
    for tag, systems in (("float", float_systems), ("exact", exact_systems)):
        for i, rvs in enumerate(systems):
            d = len(rvs[0][0][1])
            expect = conditional_expected_poly(rvs)
            expect_roots = real_roots(Polynomial([float(c) for c in expect.coeffs]))
            leaf_w = []
            for combo in itertools.product(*rvs):
                acc = np.zeros((d, d))
                for _, v in combo:
                    a = np.asarray(v, dtype=float)
                    acc += np.outer(a, a)
                leaf_w.append(np.linalg.eigvalsh(acc)[::-1])
            leaf_w = np.array(leaf_w)  # (outcomes, d), descending per row
            for k in range(1, d + 1):
                val = expect_roots[k - 1]
                col = leaf_w[:, k - 1]
                if not (col.min() - 1e-7 <= val <= col.max() + 1e-7):
                    failures.append((tag, i, k, float(val)))
    ok = not failures
    _report(capsys, 6, "expected lambda_k bracketed by outcome extremes", ok)
    assert not failures, f"bracketing failed: {failures[:5]}"


# ----------------------------------------------------------------------
# 7. Root bound for PSD decompositions of the identity
# ----------------------------------------------------------------------


def test_criterion_07_identity_decomposition_root_bound(capsys):
    rng = np.random.default_rng(20240507)
    failures = []
    for i in range(100):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 9))
        parts = [rng.standard_normal((d, d)) for _ in range(m)]
        psd = [b @ b.T for b in parts]
        total = sum(psd)
        w, u = np.linalg.eigh(total)
        inv_half = u @ np.diag(1.0 / np.sqrt(w)) @ u.T
        mats = [inv_half @ p @ inv_half for p in psd]
        bound = mixed_char_root_bound(mats)
        top = real_roots(mixed_char(mats))[0]
        if top > bound + 1e-7:
            failures.append((i, d, m, float(top), bound))
    ok = not failures
    _report(capsys, 7, "mixed-char top root within (1+sqrt(eps))^2, 100 decompositions", ok)
    assert not failures, f"bound violated: {failures[:5]}"


# ----------------------------------------------------------------------
# 8. Restricted invertibility certificates
# ----------------------------------------------------------------------


def test_criterion_08_restricted_invertibility(capsys):
    failures = []

    def check(vs, k, tag):
        chosen, cert = restricted_invertibility_select(vs, k)
        bound = restricted_invertibility_bound(vs.dim, vs.m, k)
        if not cert.valid() or cert.achieved < bound - 1e-7:
            failures.append((tag, k, cert.achieved, bound))

    # orthonormal system, every admissible k
    basis = VectorSystem(np.eye(4))
    for k in range(1, 4):
        check(basis, k, "orthonormal")

    # duplicated basis: every direction twice at half energy
    dup = VectorSystem(np.vstack([np.eye(4), np.eye(4)]) / math.sqrt(2))
    for k in range(1, 4):
        check(dup, k, "duplicated")

    # 20 random isotropic systems
    rng = np.random.default_rng(20240508)
    for i in range(20):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(n, 17))
        k = int(rng.integers(1, n))
        check(random_isotropic(n, m, rng), k, f"random-{i}")

    ok = not failures
    _report(capsys, 8, "column selection meets (1-sqrt(k/n))^2 n/m", ok)
    assert not failures, f"certificates below bound: {failures[:5]}"


# ----------------------------------------------------------------------
# 9. Two-block partitions with small spectral norm
# ----------------------------------------------------------------------


def test_criterion_09_weaver_partitions(capsys):
    failures = []

    def check(vs, tag):
        alpha = vs.max_norm_sq()
        s1, s2, cert = weaver_partition(vs)
        bound = weaver_bound(alpha)
        arrs = vs.vectors.astype(float)
        for side, name in ((s1, "s1"), (s2, "s2")):
            block = np.zeros((vs.dim, vs.dim))
            for i in side:
                block += np.outer(arrs[i], arrs[i])
            norm = float(np.linalg.eigvalsh(block)[-1]) if side else 0.0
            if norm > bound + 1e-7:
                failures.append((tag, name, norm, bound))
        if not cert.valid():
            failures.append((tag, "certificate", cert.achieved, cert.pledged))

    check(VectorSystem(np.vstack([np.eye(4), np.eye(4)]) / math.sqrt(2)),
          "duplicated")
    rng = np.random.default_rng(20240509)
    for i in range(20):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n, 13))
        check(random_isotropic(n, m, rng), f"random-{i}")

    ok = not failures
    _report(capsys, 9, "two-block norms within (1+sqrt(2a))^2/2", ok)
    assert not failures, f"partition norms exceeded: {failures[:5]}"


# ----------------------------------------------------------------------
# 10. Signed 2-lift pipeline
# ----------------------------------------------------------------------


def test_criterion_10_ramanujan_pipeline(capsys):
    t0 = time.monotonic()
    failures = []

    g = complete_bipartite(3, 3)
    for step in range(2):
        d = g.regularity()
        signing, cert = signing_select(g)
        lam = float(np.max(signed_adjacency(g, signing).eigenvalues()))
        if lam > 2.0 * math.sqrt(2.0) + 1e-7:
            failures.append((f"lift-{step}", "signed-lambda", lam))
        if not cert.valid():
            failures.append((f"lift-{step}", "certificate", cert.achieved))
        g = two_lift(g, signing)
        if not is_ramanujan_bipartite(g):
            failures.append((f"lift-{step}", "not-ramanujan", g.n))
    if g.n != 24:
        failures.append(("final-size", g.n))

    # K4 signing against the exhaustive 2^6 search
    k4 = complete(4)
    signing, cert = signing_select(k4)
    lam = float(np.max(signed_adjacency(k4, signing).eigenvalues()))
    target = math.sqrt(3.0 + math.sqrt(6.0))
    if lam > target + 1e-7:
        failures.append(("k4", "above-matching-root", lam, target))
    best = math.inf
    for bits in itertools.product([1, -1], repeat=k4.m):
        s = list(bits)
        best = min(best, float(np.max(signed_adjacency(k4, s).eigenvalues())))
    if lam < best - 1e-9:
        failures.append(("k4", "beat-exhaustive-optimum", lam, best))

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300.0
    _report(capsys, 10, "two certified 2-lifts of K33 + K4 signing vs oracle",
            ok, elapsed)
    assert not failures, f"pipeline failures: {failures}"
    assert elapsed < 300.0, f"took {elapsed:.1f}s (limit 300s)"


# ----------------------------------------------------------------------
# 11. Generic bound chain on edge-vector systems of regular graphs
# ----------------------------------------------------------------------


def test_criterion_11_generic_bound_chain(capsys):
    failures = []
    cases = [
        ("K4", complete(4)),
        ("K33", complete_bipartite(3, 3)),
        ("Petersen", petersen()),
        ("K5", complete(5)),
        ("K44", complete_bipartite(4, 4)),
    ]
    for name, g in cases:
        d = g.regularity()
        assert d in (3, 4)
        # the covariances sum to d*I; scaling by 1/d makes an identity
        # decomposition with max trace 2/d, so the generic root bound is
        # d*(1 + sqrt(2/d))^2 = d + 2 + 2 sqrt(2d)
        covs = [SymMatrix(covariance(r).a * (1.0 / d)) for r in signing_vectors(g, exact=False)]
        generic = d * mixed_char_root_bound(covs)
        closed_form = d + 2.0 + 2.0 * math.sqrt(2.0 * d)
        if abs(generic - closed_form) > 1e-9:
            failures.append((name, "formula", generic, closed_form))
        # the certificate is in adjacency coordinates: the Gram spectrum of
        # the signing vectors is that of A_s, shifted by d
        signing, cert = signing_select(g)
        lam = float(np.max(signed_adjacency(g, signing).eigenvalues()))
        if abs(lam - cert.achieved) > 1e-8:
            failures.append((name, "certificate-mismatch", lam, cert.achieved))
        if lam > closed_form - d + 1e-7:
            failures.append((name, "above-generic-bound", lam + d, closed_form))
    ok = not failures
    _report(capsys, 11, "greedy Gram spectra within d+2+2 sqrt(2d), d=3,4", ok)
    assert not failures, f"bound chain failures: {failures}"


# ----------------------------------------------------------------------
# 12. Laplacian approximation factors of a Ramanujan graph vs complete
# ----------------------------------------------------------------------


def test_criterion_12_spectral_approximation(capsys):
    g = petersen()
    n, d = g.n, g.regularity()
    assert n <= 12 and d == 3
    # certify Ramanujan directly: all nontrivial |eigenvalue| <= 2 sqrt(d-1)
    w = np.sort(adjacency(g).eigenvalues())[::-1]
    assert w[0] == pytest.approx(d, abs=1e-9)
    assert float(np.max(np.abs(w[1:]))) <= 2.0 * math.sqrt(d - 1.0) + 1e-9

    # g's Laplacian scaled by n/d, one weight per edge
    k1, k2 = spectral_approx_factors(complete(n), g, g_weights=[n / d] * g.m)
    lo = 1.0 - 2.0 * math.sqrt(2.0) / 3.0
    hi = 1.0 + 2.0 * math.sqrt(2.0) / 3.0
    ok = (lo - 1e-7 <= k1 <= k2 <= hi + 1e-7)
    _report(capsys, 12, "scaled Ramanujan graph approximates the complete graph", ok)
    assert ok, f"factors ({k1}, {k2}) escape [{lo}, {hi}]"
