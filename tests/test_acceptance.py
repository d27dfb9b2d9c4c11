"""End-to-end acceptance suite.

Each test embodies one numbered criterion, enforces its runtime budget,
and records a single [PASS]/[FAIL] line that the terminal summary
echoes after the run.
"""

import math
import time

import numpy as np

import conftest
from pcpsketch.audit import generate_probes, implication_harness, pcp_report, sketch_and_solve
from pcpsketch.generators import GeneratorSpec, gen_synthetic
from pcpsketch.guarantees import certify, jl_moment_estimate
from pcpsketch.linalg import svd, tail_index_p
from pcpsketch.sketch import (
    SketchParams,
    gaussian_sketch,
    orthogonal_sketch,
    ridge_scores,
    svd_sketch,
)
from pcpsketch.solvers import exhaustive_kmeans


def record(num, desc, ok, elapsed, cap, detail=""):
    verdict = "PASS" if (ok and elapsed < cap) else "FAIL"
    line = f"[{verdict}] criterion {num}: {desc} [{elapsed:.2f}s / {cap:.0f}s]{detail}"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, line
    assert elapsed < cap, line


def test_criterion_1_losslessness():
    start = time.perf_counter()
    a = np.random.default_rng(101).standard_normal((10, 24))
    worst = 0.0

    sk = orthogonal_sketch(a, SketchParams(k=3, eps=0.5, seed=1))
    probes = generate_probes(a, sk.operator, 3, 1e-8)
    rep = pcp_report(a, sk.a_tilde, sk.c_const, probes, 1e-8)
    worst = max(worst, rep.max_abs_rel_err)
    ok = rep.passed

    rank = svd(a).rank
    sk = svd_sketch(a, SketchParams(k=3, eps=0.5, m_override=rank))
    probes = generate_probes(a, sk.operator, 3, 1e-8)
    rep = pcp_report(a, sk.a_tilde, sk.c_const, probes, 1e-8)
    worst = max(worst, rep.max_abs_rel_err)
    ok = ok and rep.passed

    elapsed = time.perf_counter() - start
    record(
        1,
        "lossless sketches keep every probe cost (<= 1e-8)",
        ok and worst <= 1e-8,
        elapsed,
        1.0,
        f" max_err={worst:.2e}",
    )


def test_criterion_2_matrix_approx_implication():
    start = time.perf_counter()
    summary = implication_harness(trials=200, seed=20240817)
    elapsed = time.perf_counter() - start
    t1_bad = [v for v in summary.violations if v["t1_holds"]]
    record(
        2,
        "matrix-approximation certificate implies cost preservation (exact audit) "
        "(200 randomized trials, zero violations)",
        not t1_bad and summary.t1_holds >= 1,
        elapsed,
        60.0,
        f" t1_holds={summary.t1_holds}/200 violations={len(t1_bad)}",
    )


def test_criterion_3_spectral_implication():
    start = time.perf_counter()
    summary = implication_harness(trials=200, seed=8161941)
    elapsed = time.perf_counter() - start
    t2_bad = [v for v in summary.violations if v["t2_holds"]]
    record(
        3,
        "spectral certificate implies cost preservation (exact audit) "
        "(200 randomized trials, zero violations)",
        not t2_bad and summary.t2_holds >= 1,
        elapsed,
        60.0,
        f" t2_holds={summary.t2_holds}/200 violations={len(t2_bad)}",
    )


def test_criterion_4_gaussian_width():
    start = time.perf_counter()
    a = gen_synthetic(GeneratorSpec(kind="lowrank", n=60, d=500, rank=3, noise=0.02, seed=2024))
    params = SketchParams(k=3, eps=0.4, delta=0.1, const_c=8.0, seed=0)
    passes = 0
    for seed in range(30):
        sk = gaussian_sketch(a, SketchParams(k=3, eps=0.4, delta=0.1, const_c=8.0, seed=seed))
        probes = generate_probes(a, sk.operator, 3, 0.4)
        rep = pcp_report(a, sk.a_tilde, sk.c_const, probes, 0.4)
        passes += rep.passed
    elapsed = time.perf_counter() - start
    record(
        4,
        "dense Gaussian sketch at its formula width passes the exact audit "
        "in >= 27 of 30 seeds (n=60, d=500, k=3, eps=0.4)",
        passes >= 27,
        elapsed,
        30.0,
        f" passes={passes}/30 m={gaussian_sketch(a, params).m}",
    )


def test_criterion_5_ridge_structure():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    ok = True
    detail = ""
    for i in range(100):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(4, 31))
        a = rng.standard_normal((n, d))
        k = (1, 2, 4)[i % 3]
        rs = ridge_scores(a, k)
        f = svd(a)
        sigma2 = f.sigma**2
        tail2 = float(sigma2[min(k, f.rank) :].sum())
        lam = tail2 / k
        expected_sum = float((sigma2 / (sigma2 + lam)).sum())
        if rs.sum_tau > 2 * k + 1e-8 or abs(rs.sum_tau - expected_sum) > 1e-8:
            ok = False
            detail = f" failed at matrix {i}"
            break
        p = tail_index_p(f, k)
        if tail2 > 0 and p > 2 * k:
            ok = False
            detail = f" tail index {p} > 2k at matrix {i}"
            break
    elapsed = time.perf_counter() - start
    record(
        5,
        "ridge scores sum to at most 2k and match the spectrum formula; "
        "tail index stays <= 2k (100 random matrices)",
        ok,
        elapsed,
        10.0,
        detail,
    )


def test_criterion_6_transfer_bound():
    start = time.perf_counter()
    a = gen_synthetic(
        GeneratorSpec(kind="clustered", n=8, d=6, k_true=2, separation=8.0, noise=0.5, seed=66)
    )
    opt = exhaustive_kmeans(a, 2).cost
    ok = True
    ratios = []
    for sk in (
        svd_sketch(a, SketchParams(k=2, eps=0.5)),
        gaussian_sketch(a, SketchParams(k=2, eps=0.5, seed=3, m_override=24)),
    ):
        res = sketch_and_solve(a, sk, "kmeans", solver="exhaustive")
        ratios.append(res.cost_on_a / opt)
        ok = ok and res.cost_on_a <= 3.0 * opt + 1e-9
    elapsed = time.perf_counter() - start
    record(
        6,
        "k-means solved on the sketch transfers within the certified 3x factor "
        "(planted 2-cluster instance, exhaustive oracle)",
        ok,
        elapsed,
        10.0,
        f" ratios={[f'{r:.3f}' for r in ratios]}",
    )


def test_criterion_7_embedding_error_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(3, 13))
        w = int(rng.integers(1, d + 1))
        m = rng.standard_normal((n, d))
        s = rng.standard_normal((d, w)) / math.sqrt(w)
        exact = certify(m, s, n, 0.5)[0].measured["se_err"]

        x = rng.standard_normal((10_000, n))
        xm = x @ m
        norms = (xm**2).sum(axis=1)
        keep = norms > 1e-12
        ratios = np.abs(((xm[keep] @ s) ** 2).sum(axis=1) - norms[keep]) / norms[keep]
        if exact < ratios.max() - 1e-12:
            ok = False
            break

        f = svd(m)
        defect = f.v.T @ s @ s.T @ f.v - np.eye(f.rank)
        eigvals, eigvecs = np.linalg.eigh(defect)
        z = eigvecs[:, int(np.argmax(np.abs(eigvals)))]
        x_star = f.u @ (z / f.sigma)
        xm = x_star @ m
        attained = abs((xm @ s) @ (xm @ s) - xm @ xm) / (xm @ xm)
        if not (attained - 1e-9 <= exact <= attained + 1e-3):
            ok = False
            break
    elapsed = time.perf_counter() - start
    record(
        7,
        "embedding error dominates 10^4 random probe ratios and is attained "
        "at the top defect eigenvector (200 pairs)",
        ok,
        elapsed,
        30.0,
    )


def test_criterion_8_jl_moment():
    start = time.perf_counter()
    m = 100
    est = jl_moment_estimate("gaussian", 10, m, 2, 100_000, seed=8)
    oracle = 2.0 / m
    ok = abs(est.estimate - oracle) <= 0.1 * oracle
    elapsed = time.perf_counter() - start
    record(
        8,
        "Monte-Carlo second moment of the Gaussian family matches the "
        "chi-square value 2/m within 10% (10^5 trials)",
        ok,
        elapsed,
        20.0,
        f" estimate={est.estimate:.5f} oracle={oracle:.5f}",
    )


def test_criterion_9_svd_sketch_band():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    ok = True
    worst_overshoot = 0.0
    for i in range(50):
        n = int(rng.integers(4, 21))
        d = int(rng.integers(6, 41))
        a = rng.standard_normal((n, d))
        k = (1, 2, 3)[i % 3]
        eps = (0.25, 0.5)[i % 2]
        sk = svd_sketch(a, SketchParams(k=k, eps=eps))
        probes = generate_probes(a, sk.operator, k, eps + 1e-6)
        rep = pcp_report(a, sk.a_tilde, sk.c_const, probes, eps + 1e-6)
        for err in rep.signed_rel_err.tolist():
            if not (-eps - 1e-6 <= err <= eps + 1e-6):
                ok = False
            overshoot = max(abs(err) - eps, 0.0)
            worst_overshoot = max(worst_overshoot, overshoot)
    elapsed = time.perf_counter() - start
    record(
        9,
        "truncated-spectrum sketch with its constant keeps every signed probe "
        "error inside [-eps, eps] (50 random matrices)",
        ok,
        elapsed,
        30.0,
        f" worst_overshoot={worst_overshoot:.2e}",
    )
