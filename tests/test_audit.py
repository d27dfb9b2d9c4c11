import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from pcpsketch.audit import (
    ProbeSet,
    _factor_sketch,
    approx_transfer_check,
    generate_probes,
    implication_harness,
    pcp_report,
    sketch_and_solve,
    verify_sketch,
)
from pcpsketch.errors import InvalidInputError, InvalidMatrixError, WidthNotReducingWarning
from pcpsketch.generators import GeneratorSpec, gen_synthetic
from pcpsketch.guarantees import certify
from pcpsketch.linalg import (
    Factored,
    Projection,
    SvdFactorization,
    factor,
    frob2,
    haar_subspace,
    projection_cost,
    svd,
)
from pcpsketch.rng import Stream, derive_seed
from pcpsketch.sketch import METHODS, SketchParams, gaussian_sketch, make_sketch, orthogonal_sketch, svd_sketch
from pcpsketch.solvers import cluster_indicator_projection, lloyd_kmeans, partition_costs, partitions

from oracles import (
    dinkelbach_distortion,
    implication_test,
    partitions_reference,
    pcp_error_on_probe,
    probe_projections,
    variance_kmeans_cost,
)


def rand(seed, shape):
    return np.random.default_rng(seed).standard_normal(shape)


def axis_probe(n, j):
    basis = np.zeros((n, 1))
    basis[j, 0] = 1.0
    return Projection(basis)


def probe_set(projections, tags, k, partitions=None):
    """A ``ProbeSet`` of the given projections, each basis zero-padded to
    the widest."""
    width = max(p.rank for p in projections)
    bases = np.zeros((len(projections), projections[0].basis.shape[0], width))
    for i, p in enumerate(projections):
        bases[i, :, : p.rank] = p.basis
    return ProbeSet(bases, tags, k, partitions)


def probe_ranks(probes):
    return [p.rank for p in probe_projections(probes)]


class TestGenerateProbes:
    def test_full_rank_probe_present(self):
        a = rand(0, (3, 7))
        probes = generate_probes(a, a.copy(), 3, 0, seed=1)
        ranks = probe_ranks(probes)
        assert 3 in ranks
        report = pcp_report(a, a.copy(), 0.0, probes, 0.5)
        full = report.signed_rel_err[report.zero_cost]
        assert full.size and np.all(full == 0.0)

    def test_deterministic(self):
        a = rand(1, (5, 9))
        at = a[:, :4].copy()
        p1 = generate_probes(a, at, 2, 6, seed=42)
        p2 = generate_probes(a, at, 2, 6, seed=42)
        assert len(p1) == len(p2)
        assert np.array_equal(p1.tags, p2.tags)
        assert np.array_equal(p1.bases, p2.bases)

    def test_exhaustive_bipartition_count(self):
        a = rand(2, (4, 6))
        probes = generate_probes(a, a.copy(), 2, 0, seed=0, exhaustive=True)
        tags = pcp_report(a, a.copy(), 0.0, probes, 0.5).tags.tolist()
        two_block = [tag for tag in tags if tag.startswith("partition-") and tag.endswith("-2blocks")]
        assert len(two_block) == 7  # Stirling count for 4 rows in 2 blocks
        assert len(probes) == len(tags)

    def test_no_residual_probe_from_rounding_noise_at_rank_le_k(self):
        # exact rank 3 at k = 3: past the sketch's top 3 directions A's residual
        # is rounding noise, about 1e-16 sigma_1, which no probe may be built from
        a = gen_synthetic(GeneratorSpec("lowrank", n=30, d=80, rank=3, noise=0.0, seed=13))
        params = SketchParams(k=3, eps=0.5, seed=2, m_override=40)
        v = verify_sketch(a, "gaussian", params, 6, probe_seed=2)
        assert "residual-top" not in v.report.tags.tolist()
        assert "residual-top" not in generate_probes(a, v.sketch.a_tilde, 3, 0).tags.tolist()
        # one more direction than k leaves a real residual, which is probed
        b = gen_synthetic(GeneratorSpec("lowrank", n=30, d=80, rank=4, noise=0.0, seed=13))
        assert "residual-top" in verify_sketch(b, "gaussian", params, 6, probe_seed=2).report.tags.tolist()

    def test_probe_ranks_bounded(self):
        a = rand(3, (6, 11))
        at = a[:, :5].copy()
        probes = generate_probes(a, at, 2, 5, seed=9)
        assert probes.bases.shape[2] == 2
        assert all(r <= 2 for r in probe_ranks(probes))

    def test_probe_set_validation(self):
        with pytest.raises(InvalidInputError):
            ProbeSet(np.zeros((0, 4, 2)), [], k=2)
        with pytest.raises(InvalidInputError):
            probe_set([haar_subspace(4, 3, 0)], ["x"], k=2)

    def test_probe_set_rejects_bad_bases_and_tags(self):
        good = np.stack([haar_subspace(5, 2, s).basis for s in range(3)])
        padded = good.copy()
        padded[1, :, 1] = 0.0  # a rank-1 probe in a width-2 array
        ProbeSet(padded, ["a", "b", "c"], k=2)
        bad = {
            "non-finite": (InvalidMatrixError, np.where(np.arange(2) == 1, np.nan, good)),
            "columns not orthogonal": (InvalidMatrixError, np.concatenate([good[:, :, :1]] * 2, axis=2)),
            "column not unit": (InvalidMatrixError, good * np.array([1.0, 1.01])),
            "padding not zero": (InvalidMatrixError, np.where(padded == 0.0, 1e-4, padded)),
            "not a stack": (InvalidMatrixError, good[0]),
        }
        for error, bases in bad.values():
            with pytest.raises(error):
                ProbeSet(bases, ["a", "b", "c"][: len(bases)], k=2)
        with pytest.raises(InvalidInputError):
            ProbeSet(good, ["a", "b"], k=2)  # tag count
        with pytest.raises(InvalidInputError):
            ProbeSet(good, ["a", "b", "c"], k=1)  # wider than k
        with pytest.raises(InvalidInputError):
            ProbeSet(good, ["a", "b", "c"], k=2, partitions=np.array([[0, 1, 2, 0, 1]], dtype=np.int8))

    def test_bases_are_read_only_copies(self):
        bases = np.stack([haar_subspace(5, 2, s).basis for s in range(2)])
        probes = ProbeSet(bases, ["a", "b"], k=2)
        bases[0] = 0.0
        assert not probes.bases.flags.writeable
        assert np.array_equal(probes.bases[0], haar_subspace(5, 2, 0).basis)


class TestPcpErrorOnProbe:
    """``pcp_report`` against the one-probe-at-a-time reference."""

    def test_identity_sketch(self):
        a = rand(4, (5, 8))
        p = haar_subspace(5, 2, seed=3)
        assert pcp_error_on_probe(a, a.copy(), 0.0, p) == 0.0
        rep = pcp_report(a, a.copy(), 0.0, probe_set([p], ["haar"], 2), 0.5)
        assert rep.signed_rel_err.tolist() == [0.0]

    def test_orthogonal_sketch_all_probes(self):
        a = rand(5, (5, 8))
        sk = orthogonal_sketch(a, SketchParams(k=2, eps=0.5, seed=1))
        probes = generate_probes(a, sk.a_tilde, 2, 8, seed=2)
        rep = pcp_report(a, sk.a_tilde, 0.0, probes, 0.5)
        for p, err in zip(probe_projections(probes), rep.signed_rel_err.tolist()):
            if projection_cost_positive(a, p):
                assert abs(pcp_error_on_probe(a, sk.a_tilde, 0.0, p)) <= 1e-10
                assert abs(err) <= 1e-10

    def test_diag_svd_sketch_hand_value(self):
        # top axis probe: cost on A is 2^2 + 1^2 = 5, cost on the width-2
        # sketch is 2^2 = 4, and the dropped tail energy c = 1 closes the gap
        a = np.diag([3.0, 2.0, 1.0])
        sk = svd_sketch(a, SketchParams(k=1, eps=0.5))
        assert sk.m == 2 and sk.c_const == pytest.approx(1.0, abs=1e-12)
        err = pcp_error_on_probe(a, sk.a_tilde, sk.c_const, axis_probe(3, 0))
        assert err == pytest.approx(0.0, abs=1e-12)
        rep = pcp_report(a, sk.a_tilde, sk.c_const, probe_set([axis_probe(3, 0)], ["axis"], 1), 0.5)
        assert rep.cost_a[0] == pytest.approx(5.0, abs=1e-12)
        assert rep.cost_sketch[0] == pytest.approx(4.0, abs=1e-12)
        assert rep.signed_rel_err[0] == pytest.approx(0.0, abs=1e-12)

    def test_rotation_invariance(self):
        a = rand(6, (6, 9))
        at = a @ rand(7, (9, 5)) / math.sqrt(5)
        q = haar_subspace(6, 3, seed=11).basis
        rot, _ = np.linalg.qr(rand(8, (3, 3)))
        e1 = pcp_error_on_probe(a, at, 0.3, Projection(q))
        e2 = pcp_error_on_probe(a, at, 0.3, Projection(q @ rot))
        assert e1 == pytest.approx(e2, abs=1e-10)
        rep = pcp_report(a, at, 0.3, probe_set([Projection(q), Projection(q @ rot)], ["q", "qr"], 3), 0.5)
        assert rep.signed_rel_err.tolist() == pytest.approx([e1, e1], abs=1e-10)

    def test_zero_cost_probe_rejected_as_ratio(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        span = Projection(np.array([[1.0], [1.0]]) / math.sqrt(2.0))
        with pytest.raises(ValueError):
            pcp_error_on_probe(a, a.copy(), 0.0, span)
        rep = pcp_report(a, a.copy(), 0.0, probe_set([span], ["span"], 1), 0.5)
        assert rep.zero_cost.tolist() == [True] and rep.signed_rel_err.tolist() == [0.0]


def projection_cost_positive(a, p):
    return projection_cost(a, p) > 1e-12 * frob2(a)


class TestPcpReport:
    def test_identity(self):
        a = rand(9, (5, 8))
        probes = generate_probes(a, a.copy(), 2, 5, seed=1)
        rep = pcp_report(a, a.copy(), 0.0, probes, 1e-9)
        assert rep.max_abs_rel_err == 0.0
        assert rep.passed

    def test_zero_sketch_minus_one(self):
        a = rand(10, (5, 8))
        at = np.zeros((5, 3))
        probes = generate_probes(a, at, 2, 5, seed=2)
        rep = pcp_report(a, at, 0.0, probes, 0.5)
        assert not rep.passed
        positive = rep.signed_rel_err[~rep.zero_cost].tolist()
        assert positive
        assert all(e == pytest.approx(-1.0, abs=1e-12) for e in positive)

    def test_energy_below_the_core_rank_cut_counts_as_unexplained(self):
        # a core cut to the top 2 of 4 directions is scored against the array:
        # the rank-0 and top-2 probes cost exactly what they do on the full
        # core, and no probe or partition costs less, nor more by the cut energy
        m = rand(13, (6, 4))
        full = svd(m)
        cut = Factored.from_factors(m, SvdFactorization(full.u[:, :2], full.sigma[:2], None, 2))
        probes = generate_probes(m, m, 2, 3, seed=1, exhaustive=True)
        got = pcp_report(m, cut, 0.0, probes, 0.5).cost_sketch
        want = pcp_report(m, m, 0.0, probes, 0.5).cost_sketch
        exact = np.isin(probes.tags, ["zero-rank", "top-a-2"]).nonzero()[0]
        assert np.allclose(got[exact], want[exact], rtol=1e-12, atol=0)
        assert np.all(got - want >= -1e-12 * frob2(m))
        assert np.all(got - want <= float(np.sum(full.sigma[2:] ** 2)) * (1 + 1e-12))

    def test_max_matches_recomputation(self):
        a = rand(11, (8, 40))
        sk = gaussian_sketch(a, SketchParams(k=2, eps=0.5, seed=5, m_override=32))
        probes = generate_probes(a, sk.a_tilde, 2, 10, seed=3)
        rep = pcp_report(a, sk.a_tilde, sk.c_const, probes, 0.5)
        recomputed = max(
            abs(pcp_error_on_probe(a, sk.a_tilde, sk.c_const, p))
            for p in probe_projections(probes)
            if projection_cost_positive(a, p)
        )
        assert rep.max_abs_rel_err == pytest.approx(recomputed, abs=1e-15)

    def test_monotone_under_more_probes(self):
        a = rand(12, (6, 20))
        at = a[:, :8] * 1.1
        full = generate_probes(a, at, 2, 12, seed=4)
        sub = ProbeSet(full.bases[:5], full.tags[:5], k=2)
        r_small = pcp_report(a, at, 0.0, sub, 0.5)
        r_big = pcp_report(a, at, 0.0, full, 0.5)
        assert r_big.max_abs_rel_err >= r_small.max_abs_rel_err

    def test_exhaustive_probes_match_one_projection_each(self):
        # rows i and i + 3 are duplicates, so a partition costs nothing on A;
        # the exact sketch keeps it at zero and the perturbed one does not
        a = np.tile(rand(19, (3, 5)), (2, 1))
        rot, _ = np.linalg.qr(rand(20, (5, 5)))
        for at, c in ((a @ rot, 0.0), (a[:, :3] + 0.01 * rand(21, (6, 3)), 0.5)):
            probes = generate_probes(a, at, 3, 2, seed=5, exhaustive=True)
            one_by_one = probe_set(
                probe_projections(probes)
                + [cluster_indicator_projection(row, 3, 6) for row in probes.partitions],
                probes.tags.tolist()
                + [
                    "partition-" + "".join(str(x) for x in row) + f"-{max(row) + 1}blocks"
                    for row in probes.partitions.tolist()
                ],
                k=3,
            )
            assert len(probes) == len(one_by_one)
            got = pcp_report(a, at, c, probes, 0.3)
            ref = pcp_report(a, at, c, one_by_one, 0.3)
            scale = frob2(a)
            assert np.any(ref.zero_cost & np.strings.startswith(ref.tags, "partition-"))
            assert got.tags.tolist() == ref.tags.tolist()
            assert np.array_equal(got.zero_cost, ref.zero_cost)
            assert got.cost_a == pytest.approx(ref.cost_a, rel=0, abs=1e-10 * scale)
            assert got.cost_sketch == pytest.approx(ref.cost_sketch, rel=0, abs=1e-10 * scale)
            assert got.signed_rel_err == pytest.approx(ref.signed_rel_err, rel=1e-8, abs=1e-10)
            assert got.max_abs_rel_err == pytest.approx(ref.max_abs_rel_err, rel=1e-8)
            assert got.passed == ref.passed

    def test_zero_cost_violation_is_infinite(self):
        # rank-1 A whose column space probe has zero cost on A but the
        # mismatched sketch leaves visible energy there
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        at = np.array([[1.0], [0.0]])
        span = Projection(np.array([[1.0], [1.0]]) / math.sqrt(2.0))
        probes = probe_set([span], ["custom"], k=1)
        rep = pcp_report(a, at, 0.0, probes, 100.0)
        assert math.isinf(rep.max_abs_rel_err)
        assert not rep.passed


    def test_tags_of_labels_past_nine(self):
        # hand-built 12-row partitions into up to 12 blocks: labels 10 and 11
        # take two digits each
        rows = [
            list(range(12)),
            [0, 1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            [0] * 12,
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10],
            [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5],
        ]
        a = rand(40, (12, 15))
        probes = probe_set([axis_probe(12, 0)], ["axis"], k=12, partitions=np.array(rows, dtype=np.int8))
        rep = pcp_report(a, a.copy(), 0.0, probes, 0.5)
        want = ["partition-" + "".join(map(str, row)) + f"-{max(row) + 1}blocks" for row in rows]
        assert rep.tags.tolist() == ["axis"] + want
        assert want[0] == "partition-01234567891011-12blocks"

    def test_worst_probe_is_the_first_max(self):
        a = rand(41, (5, 8))
        at = a[:, :4] * 1.3
        probes = generate_probes(a, at, 2, 6, seed=3)
        rep = pcp_report(a, at, 0.0, probes, 0.5)
        i = rep.worst_index
        assert abs(rep.signed_rel_err[i]) == rep.max_abs_rel_err == np.max(np.abs(rep.signed_rel_err))
        assert np.all(np.abs(rep.signed_rel_err[:i]) < rep.max_abs_rel_err)
        # a tie: the same probes twice, so every max appears again later
        twice = ProbeSet(np.concatenate([probes.bases] * 2), np.concatenate([probes.tags] * 2), 2)
        assert pcp_report(a, at, 0.0, twice, 0.5).worst_index == i

    def test_worst_probe_when_every_error_is_infinite(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        at = np.array([[1.0], [0.0]])
        span = Projection(np.array([[1.0], [1.0]]) / math.sqrt(2.0))
        probes = probe_set([span, span, span], ["p", "q", "r"], k=1)
        rep = pcp_report(a, at, 0.0, probes, 100.0)
        assert np.all(np.isinf(rep.signed_rel_err)) and np.all(rep.zero_cost)
        assert rep.worst_index == 0 and rep.tags[rep.worst_index] == "p"

    def test_equality_compares_every_column_exactly(self):
        a = rand(42, (5, 8))
        at = a[:, :4].copy()
        probes = generate_probes(a, at, 2, 3, seed=1)
        rep = pcp_report(a, at, 0.1, probes, 0.5)
        assert rep == pcp_report(a, at, 0.1, probes, 0.5)
        assert rep != pcp_report(a, at, 0.1, probes, 0.6)
        # the last entry of one column changed, floats by one ulp
        last = {
            "tags": "x",
            "cost_a": np.nextafter(rep.cost_a[-1], np.inf),
            "cost_sketch": np.nextafter(rep.cost_sketch[-1], np.inf),
            "signed_rel_err": np.nextafter(rep.signed_rel_err[-1], np.inf),
            "zero_cost": not rep.zero_cost[-1],
        }
        for name, value in last.items():
            column = getattr(rep, name).copy()
            column[-1] = value
            assert rep != dataclasses.replace(rep, **{name: column}), name
        assert rep != "report"


class TestImplicationTest:
    def test_orthogonal_square(self):
        a = rand(13, (5, 9))
        q, _ = np.linalg.qr(rand(14, (9, 9)))
        res = implication_test(a, q, 2, 0.4, seed=6)
        assert res.certificate_t1.holds and res.certificate_t2.holds
        assert res.report.max_abs_rel_err <= 1e-10
        assert res.consistent

    def test_zero_sketch_vacuous(self):
        a = np.diag([3.0, 2.0, 1.0, 0.5])
        res = implication_test(a, np.zeros((4, 2)), 1, 0.4, seed=7)
        assert not res.certificate_t1.holds
        assert not res.certificate_t2.holds
        assert res.consistent  # implications hold vacuously

    def test_explicit_probes_accepted(self):
        a = rand(15, (6, 10))
        q, _ = np.linalg.qr(rand(16, (10, 10)))
        probes = generate_probes(a, a @ q, 2, 4, seed=8)
        res = implication_test(a, q, 2, 0.5, probes=probes, seed=8)
        assert res.consistent


class TestImplicationHarness:
    def test_smoke_run_no_violations(self):
        summary = implication_harness(trials=16, seed=123)
        assert summary.trials == 16
        assert summary.violations == []
        assert summary.t1_holds >= 1
        assert summary.t2_holds >= 1
        assert summary.max_err_over_trials >= 0.0

    def test_rejects_bad_trials(self):
        with pytest.raises(InvalidInputError):
            implication_harness(trials=0)


def costs_on_both(a, a_tilde, candidates):
    return (
        [projection_cost(a, p) for p in candidates],
        [projection_cost(a_tilde, p) for p in candidates],
    )


class TestApproxTransferCheck:
    def test_exact_sketch_exact_minimizer(self):
        a = rand(17, (7, 9))
        eps = 0.4
        candidates = [haar_subspace(7, 2, seed=s) for s in range(6)]
        costs_a, costs_s = costs_on_both(a, a.copy(), candidates)
        check = approx_transfer_check(a, a.copy(), 0.0, eps, costs_a, costs_s)
        assert check.bound_holds
        assert check.lhs == pytest.approx(check.optimum, rel=1e-12)
        assert check.lhs == pytest.approx(check.rhs * (1 - eps) / (1 + eps), rel=1e-9)

    def test_collinear_points_force_zero_cost_clustering(self):
        a = np.array([[0.0], [0.0], [10.0], [10.0]])
        sk = svd_sketch(a, SketchParams(k=2, eps=0.5, m_override=1))
        labels = partitions(4, 2)
        check = approx_transfer_check(
            a,
            sk.a_tilde,
            sk.c_const,
            0.5,
            partition_costs(a, labels),
            partition_costs(sk.a_tilde, labels),
        )
        assert check.bound_holds
        assert check.lhs <= 1e-8  # misclustering would cost 100

    def test_exhaustive_partition_oracle(self):
        rng = np.random.default_rng(18)
        centers = np.array([[0.0] * 6, [6.0] * 6])
        a = centers[np.arange(8) % 2] + 0.4 * rng.standard_normal((8, 6))
        sk = svd_sketch(a, SketchParams(k=2, eps=0.5))
        assert sk.m == 4
        labels = partitions(8, 2)
        check = approx_transfer_check(
            a,
            sk.a_tilde,
            sk.c_const,
            0.5,
            partition_costs(a, labels),
            partition_costs(sk.a_tilde, labels),
        )
        ref = min(variance_kmeans_cost(a, labels) for labels in partitions_reference(8, 2))
        assert check.optimum == pytest.approx(ref, rel=1e-10)
        assert check.bound_holds
        assert check.lhs <= check.rhs

    def test_empty_candidates_rejected(self):
        with pytest.raises(InvalidInputError):
            approx_transfer_check(np.eye(3), np.eye(3), 0.0, 0.5, [], [])
        with pytest.raises(InvalidInputError):
            approx_transfer_check(np.eye(3), np.eye(3), 0.0, 0.5, [1.0, 2.0], [1.0])


def projector(p):
    return p.basis @ p.basis.T


class TestProbesInCoordinates:
    """Probes and costs computed on the cores B = U Sigma agree with the
    same families computed on A and the sketch themselves."""

    def instances(self):
        a = rand(30, (9, 60))
        yield a, gaussian_sketch(a, SketchParams(k=3, eps=0.5, seed=2, m_override=25)).a_tilde
        dup = np.tile(rand(31, (4, 12)), (2, 1))  # duplicate rows: ties in Lloyd and row norms
        yield dup, svd_sketch(dup, SketchParams(k=3, eps=0.5)).a_tilde

    def test_tags_and_costs_match_the_array_path(self):
        for a, at in self.instances():
            k, n = 3, a.shape[0]
            probes = generate_probes(factor(a), factor(at), k, 5, seed=4)
            assert probes.tags.tolist() == generate_probes(a, at, k, 5, seed=4).tags.tolist()
            # the data-driven families, rebuilt on A and the sketch directly
            fs = svd(at)
            q = fs.u[:, :k]
            resid = svd(a - q @ (q.T @ a)).u[:, :k]
            expected = {"residual-top": resid}
            for run in range(5):
                for tag, m, stream in (("a", a, Stream.PROBE_LLOYD_A), ("sketch", at, Stream.PROBE_LLOYD_SKETCH)):
                    cl = lloyd_kmeans(m, k, iters=25, seed=derive_seed(4, stream, run))
                    expected[f"kmeans-{tag}-{run}"] = cluster_indicator_projection(cl.assignment, k, n).basis
            for tag, p in zip(probes.tags.tolist(), probe_projections(probes)):
                if tag in expected:
                    assert np.allclose(projector(p), expected[tag] @ expected[tag].T, atol=1e-10), tag
            report = pcp_report(factor(a), factor(at), 0.2, probes, 0.5)
            scale = frob2(a)
            for cost_a, cost_s, p in zip(
                report.cost_a.tolist(), report.cost_sketch.tolist(), probe_projections(probes)
            ):
                assert cost_a == pytest.approx(projection_cost(a, p), abs=1e-12 * scale)
                assert cost_s == pytest.approx(projection_cost(at, p), abs=1e-12 * scale)

    def test_partition_costs_match_the_array_path(self):
        a = np.tile(rand(32, (3, 7)), (2, 1))
        at = a[:, :4] + 0.01 * rand(33, (6, 4))
        probes = generate_probes(a, at, 3, 0, seed=1, exhaustive=True)
        report = pcp_report(a, at, 0.0, probes, 0.5)
        rows = slice(len(probes.tags), None)
        scale = frob2(a)
        want_a = partition_costs(a, probes.partitions)
        want_s = partition_costs(at, probes.partitions)
        assert len(report.cost_a[rows]) == len(want_a)
        assert np.allclose(report.cost_a[rows], want_a, rtol=0, atol=1e-12 * scale)
        assert np.allclose(report.cost_sketch[rows], want_s, rtol=0, atol=1e-12 * scale)


class TestVerifySketch:
    def test_matches_the_steps_it_runs(self):
        a = rand(34, (8, 30))
        params = SketchParams(k=2, eps=0.5, seed=3, m_override=20)
        v = verify_sketch(a, "ridge", params, 4, probe_seed=5)
        a = factor(a)
        sk = make_sketch(a, "ridge", params)
        assert np.array_equal(v.sketch.a_tilde, sk.a_tilde)
        assert (v.certificate_t1, v.certificate_t2) == certify(a, sk.operator, 2, 0.5)
        at = _factor_sketch(a, sk)
        probes = generate_probes(a, at, 2, 4, seed=5)
        assert v.report == pcp_report(a, at, sk.c_const, probes, 0.5)

    @pytest.mark.parametrize("method", METHODS)
    def test_noise_floor_scores_as_on_the_sketch_own_svd(self, method):
        # noise singular values ~ 1e-6 sigma_1 carry the whole cost of the
        # top-3 probes; read off A's factors they must stay in the sketch
        a = factor(gen_synthetic(GeneratorSpec("lowrank", n=30, d=80, rank=3, noise=1e-6, seed=0)))
        v = verify_sketch(a, method, SketchParams(k=3, eps=0.5, seed=1), 6, probe_seed=1)
        at = factor(v.sketch.a_tilde)
        want = pcp_report(a, at, v.sketch.c_const, generate_probes(a, at, 3, 6, seed=1), 0.5)
        assert list(v.report.tags) == list(want.tags)
        assert np.abs(v.report.cost_sketch - want.cost_sketch).max() <= 1e-14 * a.frob2
        # that rounding, on the least nonzero cost, bounds the change in the error
        least = want.cost_a[~want.zero_cost].min()
        assert abs(v.report.max_abs_rel_err - want.max_abs_rel_err) <= 1e-14 * a.frob2 / least
        assert v.report.passed and want.passed


class TestDinkelbachOracle:
    @pytest.mark.parametrize("method", METHODS)
    def test_exact_value_dominates_every_probe(self, method):
        # full-rank inputs, n <= 10, every probe family including the
        # exhaustive partitions: the exact sup is at least each probe's error
        for seed, (n, d, k) in enumerate(((4, 30, 1), (7, 25, 2), (10, 40, 3), (9, 12, 3))):
            a = rand(70 + seed, (n, d))
            params = SketchParams(k=k, eps=0.5, seed=seed, m_override=8)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WidthNotReducingWarning)
                v = verify_sketch(a, method, params, 6, probe_seed=seed, exhaustive=True)
            assert not v.report.zero_cost.any()
            exact = dinkelbach_distortion(a, v.sketch.a_tilde, v.sketch.c_const, k)
            assert exact >= v.report.max_abs_rel_err - 1e-12, (n, exact, v.report.max_abs_rel_err)


class TestSvdCount:
    """``verify_sketch`` and a lowrank ``sketch_and_solve`` factor A once and
    no n x m or n x r matrix: the sketch's SVD is read off A's and G, and
    the residual probe is found from an r x r SVD.  The nonoblivious
    sketcher factors Pi A on top."""

    def record(self, monkeypatch) -> list:
        shapes = []
        real = np.linalg.svd

        def counting(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return shapes

    @staticmethod
    def factored_shape(shape):
        # a wide matrix is factored through its transpose
        return shape if shape[0] >= shape[1] else shape[::-1]

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("shape", [(8, 30), (30, 8)])
    def test_verify_factors_a_the_residual_and_pi_a_only(self, monkeypatch, method, shape):
        a = rand(41, shape)
        r, m_pi = min(shape), 6
        params = SketchParams(k=2, eps=0.5, seed=1, m_override=m_pi)
        shapes = self.record(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WidthNotReducingWarning)
            verify_sketch(a, method, params, 3, probe_seed=2)
        counts = Counter(shapes)
        assert counts.pop(self.factored_shape(shape)) == 1
        assert counts.pop((r, r)) == 1
        if method == "nonoblivious":
            assert counts.pop(self.factored_shape((m_pi, shape[1]))) == 1
        assert not counts, counts

    @pytest.mark.parametrize("method", METHODS)
    def test_lowrank_solve_factors_a_only(self, monkeypatch, method):
        a = rand(42, (8, 30))
        sk = make_sketch(a, method, SketchParams(k=2, eps=0.5, seed=1, m_override=12))
        shapes = self.record(monkeypatch)
        sketch_and_solve(a, sk, "lowrank")
        assert shapes == [(30, 8)]
