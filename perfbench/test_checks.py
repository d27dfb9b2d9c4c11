"""The benchmark's checks, tested on tiny inputs against brute force.

    python3 -m pytest perfbench/test_checks.py
"""

import itertools
import math
import struct

import numpy as np
import pytest

import checks
from checks import CheckError


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def cost(a, q):
    """Brute-force projection cost with the projection matrix formed."""
    p = q @ q.T
    return float(np.sum((a - p @ a) ** 2))


def haar(n, j, rng):
    return np.linalg.qr(rng.standard_normal((n, j)))[0]


def test_tail_energies_are_the_eckart_young_optima():
    a = rand((5, 8))
    spec = checks.Spectrum(a)
    u = np.linalg.svd(a)[0]
    rng = np.random.default_rng(1)
    assert spec.tail_at(0) == pytest.approx(spec.fro2)
    assert spec.fro2 == pytest.approx(np.sum(a * a))
    for j in range(1, 6):
        assert spec.tail_at(j) == pytest.approx(cost(a, u[:, :j]), abs=1e-12)
        assert all(cost(a, haar(5, j, rng)) >= spec.tail_at(j) - 1e-12 for _ in range(200))


def test_ridge_sum_and_tail_index_against_loops():
    a = rand((6, 9), seed=2)
    spec = checks.Spectrum(a)
    s2 = np.linalg.svd(a, compute_uv=False) ** 2
    for k in (1, 2, 3):
        tail = sum(s2[k:])
        assert spec.ridge_sum(k) == pytest.approx(sum(x / (x + tail / k) for x in s2))
        p = max((i + 1 for i in range(len(s2)) if s2[i] >= tail / k), default=0)
        assert spec.tail_index_range(k) == (p, p)


def test_widths_follow_the_documented_formulas():
    k, eps = 5, 0.4
    assert checks.width_range("gaussian", k, eps, 200, 4000) == (366, 366)  # 8 (5 + ln 10) / 0.16 = 365.1
    assert checks.width_range("leverage", k, eps, 200, 4000) == (1957, 1957)  # 80 ln 50 / 0.16 = 1956.01
    assert checks.width_range("svd", k, eps, 200, 4000)[0] == 13
    assert checks.width_range("svd", k, eps, 10, 4000)[0] == 10
    assert checks.width_range("nonoblivious", k, eps, 200, 4000) == (50, 51)  # 4 * 5 / 0.4 sits on 50
    assert checks.width_range("orthogonal", k, eps, 40, 200) == (200, 200)
    ridge = math.ceil(16 * math.log(30) / 0.25 * 2.5)
    assert checks.width_range("ridge", 3, 0.5, 12, 40, ridge_sum=2.5) == (ridge, ridge)


def test_stirling_counts_the_partitions():
    assert sum(checks.stirling2(12, j) for j in range(1, 4)) == 88574
    for n in range(1, 7):
        for k in range(1, 4):
            brute = {canonical(lab) for lab in itertools.product(range(k), repeat=n)}
            labels = checks.partition_labels(n, k)
            assert {tuple(r) for r in labels.tolist()} == brute
            assert len(labels) == len(brute) == sum(checks.stirling2(n, j) for j in range(1, k + 1))


def canonical(labels):
    seen = {}
    return tuple(seen.setdefault(x, len(seen)) for x in labels)


def test_kmeans_costs_against_explicit_means():
    a = rand((6, 3), seed=3)
    labels = checks.partition_labels(6, 3)
    fast = checks.kmeans_costs(a, labels)
    slow = [checks.kmeans_cost(a, lab) for lab in labels]
    assert np.allclose(fast, slow, atol=1e-12)
    parts = checks.PartitionCosts.build(a, 3)
    assert parts.opt == pytest.approx(min(slow))


def partition_rows(a, k):
    rows = [{"probe": "zero-rank", "cost_a": float(np.sum(a * a))}]
    for lab in checks.partition_labels(a.shape[0], k).tolist():
        tag = "partition-" + "".join(map(str, lab)) + f"-{max(lab) + 1}blocks"
        rows.append({"probe": tag, "cost_a": checks.kmeans_cost(a, np.array(lab))})
    return rows


def test_partition_probe_check_catches_missing_and_wrong_probes():
    a = rand((5, 6), seed=4)
    spec, parts = checks.Spectrum(a), checks.PartitionCosts.build(a, 2)
    rows = partition_rows(a, 2)
    checks.check_partition_probes(rows, parts, spec)
    with pytest.raises(CheckError):
        checks.check_partition_probes(rows[:-1], parts, spec)
    rows[3]["cost_a"] += 1e-3
    with pytest.raises(CheckError):
        checks.check_partition_probes(rows, parts, spec)


def test_pcpm_reader_follows_the_documented_layout(tmp_path):
    a = rand((3, 2))
    data = struct.pack("<4sIQQ", b"PCPM", 1, 3, 2) + a.astype("<f8").tobytes()
    path = tmp_path / "m.pcpm"
    path.write_bytes(data)
    assert np.array_equal(checks.read_pcpm(path), a)
    path.write_bytes(data[:-1])
    with pytest.raises(CheckError):
        checks.read_pcpm(path)


def test_sampled_columns():
    a = rand((4, 30), seed=5)
    idx = np.random.default_rng(0).integers(0, 30, 12)
    assert checks.sampled_columns(a, a[:, idx] * np.linspace(0.5, 3, 12), chunk=5)
    assert not checks.sampled_columns(a, a[:, idx] * -1.0)
    assert not checks.sampled_columns(a, a @ rand((30, 12), seed=6))


def test_jl_oracle_by_gauss_hermite_quadrature():
    # |x^T S|^2 = (z_1^2 + ... + z_m^2) / m; quadrature is exact for these polynomials
    z, w = np.polynomial.hermite_e.hermegauss(20)
    w = w / w.sum()
    for m in (1, 2):
        grids = np.meshgrid(*([z] * m), indexing="ij")
        weights = np.prod(np.meshgrid(*([w] * m), indexing="ij"), axis=0)
        y = sum(g * g for g in grids) / m - 1.0
        second = float(np.sum(weights * y**2))
        fourth = float(np.sum(weights * y**4))
        mean, se = checks.jl_oracle(m, trials=1)
        assert mean == pytest.approx(second)
        assert se == pytest.approx(math.sqrt(fourth - second**2))


def fake_report(a, at, c, k, eps, probes):
    """A verify report with every number computed by brute force."""
    rows, worst = [], 0.0
    for tag, q in probes:
        ca, cs = cost(a, q), cost(at, q)
        err = (cs + c - ca) / ca
        worst = max(worst, abs(err))
        rows.append({"probe": tag, "cost_a": ca, "cost_sketch": cs, "signed_rel_err": err, "zero_cost": False})
    return {"pcp": {"per_probe": rows, "n_probes": len(rows), "max_abs_rel_err": worst, "pass": worst <= eps}}


def test_probe_check_on_a_brute_force_report():
    a = rand((6, 20), seed=7)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    k, eps = 2, 0.5
    m = math.ceil(k / eps)
    at, c = u[:, :m] * s[:m], float(np.sum(s[m:] ** 2))
    rng = np.random.default_rng(8)
    probes = [("zero-rank", np.zeros((6, 0)))] + [(f"top-a-{j}", u[:, :j]) for j in (1, 2)]
    probes += [(f"haar-{i}", haar(6, 2, rng)) for i in range(20)]
    rep = fake_report(a, at, c, k, eps, probes)
    spec = checks.Spectrum(a)
    checks.check_pcp(rep, 0, "svd", k, eps, c, spec)
    checks.check_constant(c, "svd", m, spec)
    with pytest.raises(CheckError):
        checks.check_pcp(rep, 2, "svd", k, eps, c, spec)  # exit code contradicts the verdict
    rep["pcp"]["per_probe"][1]["cost_a"] *= 1.001
    with pytest.raises(CheckError):
        checks.check_pcp(rep, 0, "svd", k, eps, c, spec)
    # without its constant the svd sketch leaves +-eps at eps = 0.1: a
    # consistent FAIL verdict for a random sketch, a broken guarantee for svd
    bad = fake_report(a, at, 0.0, k, 0.1, probes)
    assert not bad["pcp"]["pass"]
    checks.check_pcp(bad, 2, "gaussian", k, 0.1, 0.0, spec)
    with pytest.raises(CheckError):
        checks.check_pcp(bad, 2, "svd", k, 0.1, 0.0, spec)


def test_certificate_check_recomputes_thresholds_and_verdicts():
    a = rand((6, 20), seed=9)
    spec = checks.Spectrum(a)
    k, eps = 2, 0.4
    p = spec.tail_index_range(k)[0]
    cross = eps / (6 * math.sqrt(k))
    rep = {
        "certificate_t1": {
            "measured": {"se_err": 0.1, "amm_tail_tail": 0.01, "amm_tail_vk": 0.01, "frob_tail": 0.01},
            "thresholds": {"se_err": eps / 3, "amm_tail_tail": cross, "amm_tail_vk": cross, "frob_tail": eps / 6},
            "holds": True,
        },
        "certificate_t2": {
            "measured": {"spectral_eps": 0.5, "frob_tail_p": 0.0,
                         "lambda_used": eps * spec.tail_at(k) / (24 * k), "p_used": float(p)},
            "thresholds": {"spectral_eps": eps / 24,
                           "frob_tail_p": eps / 12 * spec.tail_at(k) / spec.tail_at(p)},
            "holds": False,
        },
    }
    assert checks.check_certificates(rep, k, eps, spec) == (True, False)
    rep["certificate_t2"]["measured"]["p_used"] = float(p + 1)
    with pytest.raises(CheckError):
        checks.check_certificates(rep, k, eps, spec)
    rep["certificate_t2"]["measured"]["p_used"] = float(p)
    rep["certificate_t1"]["holds"] = False
    with pytest.raises(CheckError):
        checks.check_certificates(rep, k, eps, spec)
