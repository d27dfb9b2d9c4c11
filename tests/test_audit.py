import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from pcpsketch import audit
from pcpsketch.audit import (
    ZERO_CHECK_REL,
    ProbeSet,
    _harness_trial,
    _with_partitions,
    approx_transfer_check,
    generate_probes,
    implication_harness,
    pcp_report,
    sketch_and_solve,
    verify_sketch,
)
from pcpsketch.errors import DimensionError, InvalidInputError, InvalidMatrixError, TooLargeError, WidthNotReducingWarning
from pcpsketch.generators import GeneratorSpec, gen_synthetic
from pcpsketch.guarantees import certify
from pcpsketch.linalg import (
    Factored,
    Projection,
    SvdFactorization,
    factor,
    frob2,
    projection_cost,
    svd,
)
from pcpsketch.rng import Stream, rng_for
from pcpsketch.sketch import METHODS, SamplingPattern, SketchParams, gaussian_sketch, make_sketch, orthogonal_sketch, svd_sketch
from pcpsketch.solvers import _partition_masks, cluster_indicator_projection, partition_costs, partitions

from oracles import (
    dinkelbach_distortion,
    dinkelbach_witness,
    factorization_counts,
    factorization_log,
    haar_projection,
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


def probe_set(projections, tags, k):
    """A ``ProbeSet`` of the given projections, each basis zero-padded to
    the widest."""
    width = max(p.rank for p in projections)
    bases = np.zeros((len(projections), projections[0].basis.shape[0], width))
    for i, p in enumerate(projections):
        bases[i, :, : p.rank] = p.basis
    return ProbeSet(bases, tags, k)


def exhaustive_report(a, at, c, probes, eps):
    """``pcp_report`` over ``probes`` plus every partition into at most
    ``probes.k`` blocks, as ``verify_sketch(..., exhaustive=True)`` scores
    them."""
    rep = pcp_report(a, at, c, probes, eps)
    return _with_partitions(rep, a, at, c, _partition_masks(probes.bases.shape[1], probes.k))


def partition_tag(row):
    return "partition-" + "".join(map(str, row)) + f"-{max(row) + 1}blocks"


def probe_ranks(probes):
    return [p.rank for p in probe_projections(probes)]


class TestGenerateProbes:
    def test_full_rank_probe_present(self):
        a = rand(0, (3, 7))
        probes = generate_probes(a, np.eye(7), 3, 0.5)
        ranks = probe_ranks(probes)
        assert 3 in ranks
        report = pcp_report(a, a.copy(), 0.0, probes, 0.5)
        full = report.signed_rel_err[report.zero_cost]
        assert full.size and np.all(full == 0.0)

    def test_deterministic(self):
        a = rand(1, (5, 9))
        s = np.eye(9)[:, :4]
        p1 = generate_probes(a, s, 2, 0.3)
        p2 = generate_probes(a, s, 2, 0.3)
        assert len(p1) == len(p2)
        assert np.array_equal(p1.tags, p2.tags)
        assert np.array_equal(p1.bases, p2.bases)

    def test_exhaustive_bipartition_count(self):
        a = rand(2, (4, 6))
        probes = generate_probes(a, np.eye(6), 2, 0.5)
        tags = exhaustive_report(a, a.copy(), 0.0, probes, 0.5).tags.tolist()
        two_block = [tag for tag in tags if tag.startswith("partition-") and tag.endswith("-2blocks")]
        assert len(two_block) == 7  # Stirling count for 4 rows in 2 blocks
        assert len(tags) == len(probes) + 1 + 7
        assert tags[: len(probes)] == probes.tags.tolist()

    def test_tags_in_order(self):
        # the rank-0 probe, the top-j subspaces of A, then the two exact
        # probes; a rank-2 A has two top-j subspaces at k = 3
        a = rand(3, (9, 20))
        s = rand(4, (20, 7))
        tags = generate_probes(a, s, 3, 0.5).tags.tolist()
        assert tags == ["zero-rank", "top-a-1", "top-a-2", "top-a-3", "exact-over", "exact-under"]
        low = rand(5, (9, 2)) @ rand(6, (2, 20))
        tags = generate_probes(low, s, 3, 0.5).tags.tolist()
        assert tags == ["zero-rank", "top-a-1", "top-a-2", "exact-over", "exact-under"]

    def test_rejects_nonpositive_eps(self):
        a = rand(3, (5, 9))
        for eps in (0.0, -0.1):
            with pytest.raises(InvalidInputError):
                generate_probes(a, np.eye(9), 2, eps)

    def test_rejects_an_operator_with_the_wrong_row_count(self):
        # the operator acts on A's columns, so it has d rows: the sketch
        # A S of a wide or tall A (n rows) is rejected, dense or sampled
        def pattern(rows):
            return SamplingPattern(np.arange(4), np.ones(4), np.full(rows, 1.0 / rows))

        for a in (rand(3, (5, 9)), rand(3, (9, 5))):
            d = a.shape[1]
            for s in (a.copy(), np.eye(d + 1)[:, :4], pattern(d + 1)):
                with pytest.raises(DimensionError):
                    generate_probes(a, s, 2, 0.5)
            assert generate_probes(a, pattern(d), 2, 0.5).tags[-1] == "exact-under"

    def test_probe_ranks_bounded(self):
        a = rand(3, (6, 11))
        probes = generate_probes(a, np.eye(11)[:, :5], 2, 0.5)
        assert probes.bases.shape[2] == 2
        assert all(r <= 2 for r in probe_ranks(probes))

    def test_probe_set_validation(self):
        with pytest.raises(InvalidInputError):
            ProbeSet(np.zeros((0, 4, 2)), [], k=2)
        with pytest.raises(InvalidInputError):
            probe_set([haar_projection(4, 3, 0)], ["x"], k=2)

    def test_probe_set_rejects_bad_bases_and_tags(self):
        good = np.stack([haar_projection(5, 2, s).basis for s in range(3)])
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

    def test_bases_are_read_only_copies(self):
        bases = np.stack([haar_projection(5, 2, s).basis for s in range(2)])
        probes = ProbeSet(bases, ["a", "b"], k=2)
        bases[0] = 0.0
        assert not probes.bases.flags.writeable
        assert np.array_equal(probes.bases[0], haar_projection(5, 2, 0).basis)


class TestPcpErrorOnProbe:
    """``pcp_report`` against the one-probe-at-a-time reference."""

    def test_identity_sketch(self):
        a = rand(4, (5, 8))
        p = haar_projection(5, 2, seed=3)
        assert pcp_error_on_probe(a, a.copy(), 0.0, p) == 0.0
        # A is scored on its core and the sketch on its array: the two
        # agree to rounding
        rep = pcp_report(a, a.copy(), 0.0, probe_set([p], ["haar"], 2), 0.5)
        assert rep.signed_rel_err.tolist() == pytest.approx([0.0], abs=1e-13)

    def test_orthogonal_sketch_all_probes(self):
        a = rand(5, (5, 8))
        sk = orthogonal_sketch(a, SketchParams(k=2, eps=0.5, seed=1))
        probes = generate_probes(a, sk.operator, 2, 0.5)
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
        q = haar_projection(6, 3, seed=11).basis
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
        probes = generate_probes(a, np.eye(8), 2, 1e-9)
        rep = pcp_report(a, a.copy(), 0.0, probes, 1e-9)
        assert rep.max_abs_rel_err <= 1e-13  # the core's and the array's rounding
        assert rep.passed

    def test_zero_sketch_minus_one(self):
        a = rand(10, (5, 8))
        at = np.zeros((5, 3))
        probes = generate_probes(a, np.zeros((8, 3)), 2, 0.5)
        rep = pcp_report(a, at, 0.0, probes, 0.5)
        assert not rep.passed
        positive = rep.signed_rel_err[~rep.zero_cost].tolist()
        assert positive
        assert all(e == pytest.approx(-1.0, abs=1e-12) for e in positive)

    def test_energy_below_the_core_rank_cut_counts_as_unexplained(self):
        # A's core cut to the top 2 of 4 directions is scored against the
        # array: the rank-0 and top-2 probes cost exactly what they do on the
        # full core, and no probe costs less, nor more by the cut energy;
        # partitions are scored on the array itself
        m = rand(13, (6, 4))
        full = svd(m)
        cut = Factored(m)
        cut._fact = SvdFactorization(full.u[:, :2], full.sigma[:2], full.v[:, :2], 2)
        probes = generate_probes(m, np.eye(4), 2, 0.5)
        got = exhaustive_report(cut, m, 0.0, probes, 0.5).cost_a
        want = exhaustive_report(m, m, 0.0, probes, 0.5).cost_a
        assert len(got) == len(probes) + 1 + 31  # S(6, 1) + S(6, 2) partitions
        exact = np.isin(probes.tags, ["zero-rank", "top-a-2"]).nonzero()[0]
        assert np.allclose(got[exact], want[exact], rtol=1e-12, atol=0)
        assert np.all(got - want >= -1e-12 * frob2(m))
        assert np.all(got - want <= float(np.sum(full.sigma[2:] ** 2)) * (1 + 1e-12))
        assert np.array_equal(got[len(probes) :], want[len(probes) :])

    def test_max_matches_recomputation(self):
        a = rand(11, (8, 40))
        sk = gaussian_sketch(a, SketchParams(k=2, eps=0.5, seed=5, m_override=32))
        probes = generate_probes(a, sk.operator, 2, 0.5)
        rep = pcp_report(a, sk.a_tilde, sk.c_const, probes, 0.5)
        recomputed = max(
            abs(pcp_error_on_probe(a, sk.a_tilde, sk.c_const, p))
            for p in probe_projections(probes)
            if projection_cost_positive(a, p)
        )
        assert rep.max_abs_rel_err == pytest.approx(recomputed, abs=1e-15)

    def test_monotone_under_more_probes(self):
        a = rand(12, (6, 20))
        s = 1.1 * np.eye(20)[:, :8]
        at = a @ s
        full = generate_probes(a, s, 2, 0.5)
        sub = ProbeSet(full.bases[:3], full.tags[:3], k=2)
        r_small = pcp_report(a, at, 0.0, sub, 0.5)
        r_big = pcp_report(a, at, 0.0, full, 0.5)
        assert r_big.max_abs_rel_err >= r_small.max_abs_rel_err

    def test_exhaustive_probes_match_one_projection_each(self):
        # rows i and i + 3 are duplicates, so a partition costs nothing on A;
        # the exact sketch keeps it at zero and the one with a constant does not
        a = np.tile(rand(19, (3, 5)), (2, 1))
        rot, _ = np.linalg.qr(rand(20, (5, 5)))
        labels = partitions(6, 3)
        for s, c in ((rot, 0.0), (np.eye(5)[:, :3] + 0.01 * rand(21, (5, 3)), 0.5)):
            at = a @ s
            probes = generate_probes(a, s, 3, 0.3)
            one_by_one = probe_set(
                probe_projections(probes) + [cluster_indicator_projection(row, 3, 6) for row in labels],
                probes.tags.tolist() + [partition_tag(row) for row in labels.tolist()],
                k=3,
            )
            got = exhaustive_report(a, at, c, probes, 0.3)
            ref = pcp_report(a, at, c, one_by_one, 0.3)
            assert len(got.tags) == len(one_by_one)
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
        # block j's mask has bit i set when row i has label j
        member = np.array(rows)[:, None, :] == np.arange(12)[:, None]
        masks = (member << np.arange(12)).sum(axis=2).astype(np.int16)
        rep = pcp_report(a, a.copy(), 0.0, probe_set([axis_probe(12, 0)], ["axis"], k=12), 0.5)
        rep = _with_partitions(rep, a, a.copy(), 0.0, masks)
        want = [partition_tag(row) for row in rows]
        assert rep.tags.tolist() == ["axis"] + want
        assert want[0] == "partition-01234567891011-12blocks"

    def test_tags_sized_by_the_longest(self):
        # the longest tag is set by its block count: ten blocks take a
        # two-digit "-10blocks" although no label passes 9; a longer head
        # tag keeps its own width
        rows = [[0] * 10, list(range(10)), [0, 1, 2, 3, 4, 5, 6, 7, 8, 8]]
        a = rand(42, (10, 12))
        member = np.array(rows)[:, None, :] == np.arange(10)[:, None]
        masks = (member << np.arange(10)).sum(axis=2).astype(np.int16)
        for head in ("axis", "a-head-tag-longer-than-any-partition-tag"):
            rep = pcp_report(a, a.copy(), 0.0, probe_set([axis_probe(10, 0)], [head], k=10), 0.5)
            rep = _with_partitions(rep, a, a.copy(), 0.0, masks)
            assert rep.tags.tolist() == [head] + [partition_tag(row) for row in rows]
            assert rep.tags.dtype == np.dtype(f"U{max(len(head), len(partition_tag(rows[1])))}")

    def test_worst_probe_is_the_first_max(self):
        a = rand(41, (5, 8))
        s = 1.3 * np.eye(8)[:, :4]
        at = a @ s
        probes = generate_probes(a, s, 2, 0.5)
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
        s = np.eye(8)[:, :4]
        at = a @ s
        probes = generate_probes(a, s, 2, 0.5)
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
        res = implication_test(a, q, 2, 0.4)
        assert res.certificate_t1.holds and res.certificate_t2.holds
        assert res.report.max_abs_rel_err <= 1e-10
        assert res.consistent

    def test_zero_sketch_vacuous(self):
        a = np.diag([3.0, 2.0, 1.0, 0.5])
        res = implication_test(a, np.zeros((4, 2)), 1, 0.4)
        assert not res.certificate_t1.holds
        assert not res.certificate_t2.holds
        assert res.consistent  # implications hold vacuously

    def test_explicit_probes_accepted(self):
        a = rand(15, (6, 10))
        q, _ = np.linalg.qr(rand(16, (10, 10)))
        probes = generate_probes(a, q, 2, 0.5)
        res = implication_test(a, q, 2, 0.5, probes=probes)
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

    def test_trials_form_an_orthogonal_array(self, monkeypatch):
        # every pair of (method, width factor, family) values once in each
        # 16 trials, and every triple once in each 64
        families = []
        real = audit._harness_instance

        def recording(rng, k, family, trial, seed):
            families.append(family)
            return real(rng, k, family, trial, seed)

        monkeypatch.setattr(audit, "_harness_instance", recording)
        factors = np.log(audit._HARNESS_WIDTH_FACTORS)
        trials = []
        for t in range(128):
            a, method, params = _harness_trial(t, 5)
            width = int(np.argmin(np.abs(np.log(params.m_override / a.shape[1]) - factors)))
            trials.append((audit._HARNESS_METHODS.index(method), width, families[-1]))
        for start in range(0, 128, 16):
            block = trials[start : start + 16]
            for x, y in ((0, 1), (0, 2), (1, 2)):
                assert len({(trial[x], trial[y]) for trial in block}) == 16, (start, x, y)
        for start in (0, 64):
            assert len(set(trials[start : start + 64])) == 64


class TestHarnessSoundness:
    """Harness trials scored exactly: wherever a certificate holds on a
    matrix of rank > k, the domain of the dense oracle, the sketch keeps
    every rank-<=k cost within eps."""

    def test_certified_trials_keep_every_cost_within_eps(self):
        lossy = set()
        for t in range(400):
            a, method, params = _harness_trial(t, 0)
            if svd(a).rank <= params.k:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WidthNotReducingWarning)
                sk = make_sketch(a, method, params)
            t1, t2 = certify(a, sk.operator, params.k, params.eps)
            if not (t1.holds or t2.holds):
                continue
            exact = dinkelbach_distortion(a, sk.a_tilde, sk.c_const, params.k)
            assert exact <= params.eps + 1e-9, (t, method, exact)
            if exact > 1e-6:
                lossy.add(method)
        # certificates endorse lossy sketches too, not only lossless ones
        assert {"gaussian", "leverage"} <= lossy, lossy


def costs_on_both(a, a_tilde, candidates):
    return (
        [projection_cost(a, p) for p in candidates],
        [projection_cost(a_tilde, p) for p in candidates],
    )


class TestApproxTransferCheck:
    def test_exact_sketch_exact_minimizer(self):
        a = rand(17, (7, 9))
        eps = 0.4
        candidates = [haar_projection(7, 2, seed=s) for s in range(6)]
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

    def test_verdict_does_not_depend_on_scale(self):
        # the sketch minimizer costs 1.5 times the certified 3 * optimum on A:
        # the bound fails at every scale, and the near-minimum ties stay apart
        for scale in (1.0, 1e-16, 1e16):
            a = np.sqrt(scale) * np.eye(3)
            check = approx_transfer_check(a, a, 0.0, 0.5, [4.5 * scale, scale], [0.5 * scale, scale])
            assert not check.bound_holds, scale
            assert check.lhs == pytest.approx(1.5 * check.rhs, rel=1e-12), scale

    def test_empty_candidates_rejected(self):
        with pytest.raises(InvalidInputError):
            approx_transfer_check(np.eye(3), np.eye(3), 0.0, 0.5, [], [])
        with pytest.raises(InvalidInputError):
            approx_transfer_check(np.eye(3), np.eye(3), 0.0, 0.5, [1.0, 2.0], [1.0])

    def test_non_finite_costs_rejected(self):
        # a NaN would leave no candidate of least sketch cost
        for costs_a, costs_s in (
            ([np.nan, 1.0], [np.nan, 1.0]),
            ([1.0, 2.0], [np.nan, 1.0]),
            ([np.inf, 1.0], [0.0, 1.0]),
            ([1.0, 2.0], [1.0, -np.inf]),
        ):
            with pytest.raises(InvalidInputError, match="finite"):
                approx_transfer_check(np.eye(3), np.eye(3), 0.0, 0.5, costs_a, costs_s)


def projector(p):
    return p.basis @ p.basis.T


class TestProbesInCoordinates:
    """Probes found in A's coordinates, from A's factors and the Gram G,
    and A's costs computed on its core B = U Sigma, agree with the same
    quantities computed on A and the sketch themselves."""

    def instances(self):
        """(A, its sketch) pairs: wide, duplicate rows, rank < k."""
        a = rand(30, (9, 60))
        yield a, gaussian_sketch(a, SketchParams(k=3, eps=0.5, seed=2, m_override=25))
        dup = np.tile(rand(31, (4, 12)), (2, 1))  # duplicate rows: rank 4 of 8 rows
        yield dup, svd_sketch(dup, SketchParams(k=3, eps=0.5))
        low = rand(32, (7, 2)) @ rand(33, (2, 30))  # rank 2 < k = 3
        yield low, gaussian_sketch(low, SketchParams(k=3, eps=0.5, seed=4, m_override=6))

    def test_tags_and_costs_match_the_array_path(self):
        for a, sk in self.instances():
            k, at = 3, sk.a_tilde
            probes = generate_probes(factor(a), sk.operator, k, 0.3)
            assert probes.tags.tolist() == generate_probes(a, sk.operator, k, 0.3).tags.tolist()
            # the singular subspaces, rebuilt from the SVD of A
            f = svd(a)
            expected = {f"top-a-{j}": f.u[:, :j] for j in range(1, min(k, f.rank) + 1)}
            assert set(expected) < set(probes.tags.tolist())
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

    def test_exact_probes_attain_the_dense_maximum(self):
        # for sign s the exact probe maximizes
        # F(Q) = s (cost_sketch + c - cost_a) - eps cost_a over rank-<=k Q;
        # in A's own n x n coordinates that maximum is
        # s (|A_tilde|^2 + c - |A|^2) - eps |A|^2 minus the negative ones among
        # the k smallest eigenvalues of s A_tilde A_tilde^T - (s + eps) A A^T
        c = 0.2
        for a, sk in self.instances():
            at, scale = sk.a_tilde, frob2(a)
            for k, eps in ((1, 0.1), (2, 0.3), (3, 0.5), (4, 0.05)):
                probes = generate_probes(a, sk.operator, k, eps)
                report = pcp_report(a, at, c, probes, eps)
                for s, tag in ((1.0, "exact-over"), (-1.0, "exact-under")):
                    lam = np.linalg.eigvalsh(s * (at @ at.T) - (s + eps) * (a @ a.T))[:k]
                    dense = s * (frob2(at) + c - scale) - eps * scale - np.minimum(lam, 0.0).sum()
                    i = probes.tags.tolist().index(tag)
                    got = s * (report.cost_sketch[i] + c - report.cost_a[i]) - eps * report.cost_a[i]
                    assert got == pytest.approx(dense, abs=1e-12 * scale), (tag, k, eps)

    def test_partition_costs_match_the_array_path(self):
        a = np.tile(rand(32, (3, 7)), (2, 1))
        s = np.eye(7)[:, :4] + 0.01 * rand(33, (7, 4))
        at = a @ s
        probes = generate_probes(a, s, 3, 0.5)
        report = exhaustive_report(a, at, 0.0, probes, 0.5)
        rows = slice(len(probes), None)
        scale = frob2(a)
        want_a = partition_costs(a, partitions(6, 3))
        want_s = partition_costs(at, partitions(6, 3))
        assert len(report.cost_a[rows]) == len(want_a)
        assert np.allclose(report.cost_a[rows], want_a, rtol=0, atol=1e-12 * scale)
        assert np.allclose(report.cost_sketch[rows], want_s, rtol=0, atol=1e-12 * scale)


class TestVerifySketch:
    def test_matches_the_steps_it_runs(self):
        a = rand(34, (8, 30))
        params = SketchParams(k=2, eps=0.5, seed=3, m_override=20)
        v = verify_sketch(a, "ridge", params)
        a = factor(a)
        sk = make_sketch(a, "ridge", params)
        assert np.array_equal(v.sketch.a_tilde, sk.a_tilde)
        assert (v.certificate_t1, v.certificate_t2) == certify(a, sk.operator, 2, 0.5)
        probes = generate_probes(a, sk.operator, 2, 0.5)
        assert v.report == pcp_report(a, sk.a_tilde, sk.c_const, probes, 0.5)
        v = verify_sketch(a, "ridge", params, exhaustive=True)
        assert v.report == exhaustive_report(a, sk.a_tilde, sk.c_const, probes, 0.5)

    def test_exhaustive_is_capped_at_12_rows(self):
        params = SketchParams(k=2, eps=0.5, seed=3, m_override=20)
        verify_sketch(rand(35, (12, 30)), "gaussian", params, exhaustive=True)
        with pytest.raises(TooLargeError):
            verify_sketch(rand(35, (13, 30)), "gaussian", params, exhaustive=True)

    @pytest.mark.parametrize("method", METHODS)
    def test_noise_floor_scores_as_on_the_sketch_own_svd(self, method):
        # noise singular values ~ 1e-6 sigma_1 carry the whole cost of the
        # top-3 probes; scored on the sketch's array they must cost what
        # they do on the core of the sketch's own SVD
        a = factor(gen_synthetic(GeneratorSpec("lowrank", n=30, d=80, rank=3, noise=1e-6, seed=0)))
        v = verify_sketch(a, method, SketchParams(k=3, eps=0.5, seed=1))
        at = factor(v.sketch.a_tilde)
        assert at.fact.rank > 3
        want = pcp_report(a, at.core, v.sketch.c_const, generate_probes(a, v.sketch.operator, 3, 0.5), 0.5)
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
                v = verify_sketch(a, method, params, exhaustive=True)
            assert not v.report.zero_cost.any()
            exact = dinkelbach_distortion(a, v.sketch.a_tilde, v.sketch.c_const, k)
            assert exact >= v.report.max_abs_rel_err - 1e-12, (n, exact, v.report.max_abs_rel_err)

    @pytest.mark.parametrize("method", METHODS)
    def test_witness_scores_its_value(self, method):
        # full-rank inputs, n <= 10: the library's projection_cost at the
        # witness Q, on A and on the sketch, gives the signed error s * value
        for seed, (n, d, k) in enumerate(((4, 30, 1), (7, 25, 2), (10, 40, 3), (9, 12, 3))):
            a = rand(70 + seed, (n, d))
            params = SketchParams(k=k, eps=0.5, seed=seed, m_override=8)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WidthNotReducingWarning)
                sk = make_sketch(a, method, params)
            at, c = sk.a_tilde, sk.c_const
            value, sign, j, q = dinkelbach_witness(a, at, c, k)
            assert value == dinkelbach_distortion(a, at, c, k)
            assert sign in (1.0, -1.0) and 0 <= j <= k and q.shape == (n, j)
            p = Projection(q)
            cost_a = projection_cost(a, p)
            signed = (projection_cost(at, p) + c - cost_a) / cost_a
            assert signed == pytest.approx(sign * value, rel=1e-12, abs=0.0), (n, method, j)

    @pytest.mark.parametrize("method", METHODS)
    def test_exact_value_dominates_partitions_and_200_haar_probes(self, method):
        # full-rank inputs at n = 11 and 12: the exact sup is at least the
        # error of every partition into at most k blocks, costed by
        # partition_costs, and of each of 200 Haar subspaces of rank k
        for seed, (n, d, k) in enumerate(((11, 40, 2), (12, 30, 3))):
            a = rand(80 + seed, (n, d))
            params = SketchParams(k=k, eps=0.5, seed=seed, m_override=10)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WidthNotReducingWarning)
                sk = make_sketch(a, method, params)
            at, c = sk.a_tilde, sk.c_const
            exact = dinkelbach_distortion(a, at, c, k)
            labels = partitions(n, k)
            cost_a = partition_costs(a, labels)
            assert cost_a.min() > 0.0
            partition_err = np.abs((partition_costs(at, labels) + c - cost_a) / cost_a)
            assert exact >= partition_err.max() - 1e-12, (n, exact, partition_err.max())
            haar = [haar_projection(n, k, seed=1000 * seed + i) for i in range(200)]
            report = pcp_report(a, at, c, probe_set(haar, [f"haar-{i}" for i in range(200)], k), 0.5)
            assert not report.zero_cost.any()
            assert exact >= report.max_abs_rel_err - 1e-12, (n, exact, report.max_abs_rel_err)


class TestExactVerdict:
    """The audit passes exactly when every rank-<=k projection keeps its
    cost within eps: on inputs of rank > k its verdict is the dense
    Dinkelbach oracle's, and on rank <= k the zero-cost rule decides the
    projections that cost nothing on A."""

    @staticmethod
    def cases(count: int, seed: int):
        """``count`` seeded small cases of rank > k, (a, method, params): the
        six methods in turn, widths 3..d, spectra from flat to decaying."""
        rng = np.random.default_rng(seed)
        i = 0
        while i < count:
            n, k = int(rng.integers(4, 20)), int(rng.integers(1, 4))
            d = int(rng.integers(k + 2, 40))
            a = rng.standard_normal((n, d)) * np.arange(1, d + 1) ** -rng.uniform(0.0, 1.5)
            if np.linalg.matrix_rank(a) <= k:
                continue
            eps, m = float(rng.choice([0.1, 0.3, 0.5])), int(rng.integers(3, d + 1))
            yield a, METHODS[i % len(METHODS)], SketchParams(k=k, eps=eps, seed=i, m_override=m)
            i += 1

    @staticmethod
    def verify(a, method, params):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WidthNotReducingWarning)
            return verify_sketch(a, method, params)

    def test_verdict_equals_the_dense_oracle(self):
        verdicts = Counter()
        for a, method, params in self.cases(240, 21):
            v = self.verify(a, method, params)
            exact, sign, _, _ = dinkelbach_witness(a, v.sketch.a_tilde, v.sketch.c_const, params.k)
            assert v.report.passed == (exact <= params.eps), (method, a.shape, params, exact)
            # the probe max is a lower bound on the exact value
            assert v.report.max_abs_rel_err <= exact + 1e-12
            if exact > params.eps:
                # the exact probe of the witness's sign breaks eps itself
                tag = "exact-over" if sign > 0 else "exact-under"
                assert sign * v.report.signed_rel_err[v.report.tags.tolist().index(tag)] > params.eps
                verdicts[tag] += 1
            verdicts[v.report.passed] += 1
        assert min(verdicts[True], verdicts[False]) >= 40, verdicts
        assert min(verdicts["exact-over"], verdicts["exact-under"]) >= 10, verdicts

    def test_verdict_flips_at_the_exact_value(self):
        # the sketch is fixed by its width and seed, so only eps moves
        lossy = 0
        for a, method, params in self.cases(120, 22):
            v = self.verify(a, method, params)
            exact = dinkelbach_distortion(a, v.sketch.a_tilde, v.sketch.c_const, params.k)
            if not 1e-3 < exact < 0.9:
                continue
            lossy += 1
            for factor_, passes in ((1.0 - 1e-7, False), (1.0 + 1e-7, True)):
                w = self.verify(a, method, dataclasses.replace(params, eps=exact * factor_))
                assert np.array_equal(w.sketch.a_tilde, v.sketch.a_tilde)
                assert w.report.passed is passes, (method, a.shape, params, exact, factor_)
        assert lossy >= 40, lossy

    @staticmethod
    def rank_le_k_verdict(a, at, c, eps) -> bool:
        """The verdict the zero-cost rule defines when rank(A) = r <= k: the
        projections onto A's column space cost nothing on A and must keep
        |cost_sketch + c| within ZERO_CHECK_REL |A|_F^2, and every other one
        counts as one of rank < r (what it keeps outside the column space
        changes neither cost), which the dense oracle scores at k = r - 1."""
        r = np.linalg.matrix_rank(a)
        if abs(c) > ZERO_CHECK_REL * frob2(a):
            return False
        return r == 0 or dinkelbach_distortion(a, at, c, r - 1) <= eps

    def test_degenerate_inputs_get_defined_verdicts(self):
        rng = np.random.default_rng(23)
        dup = np.tile(rng.standard_normal((3, 12)), (2, 1))
        inputs = {
            "rank 0": (np.zeros((6, 20)), 2),
            "rank < k": (rng.standard_normal((8, 2)) @ rng.standard_normal((2, 25)), 3),
            "rank 1 < k": (np.outer(rng.standard_normal(7), rng.standard_normal(15)), 2),
            "rank = k": (rng.standard_normal((9, 3)) @ rng.standard_normal((3, 20)), 3),
            "duplicate rows, rank = k": (dup, 3),
            "duplicate rows, rank > k": (dup, 2),
        }
        verdicts = Counter()
        for name, (a, k) in inputs.items():
            for method in METHODS:
                for m, eps in ((2, 0.3), (4, 0.5), (10, 0.2)):
                    v = self.verify(a, method, SketchParams(k=k, eps=eps, seed=m, m_override=m))
                    at, c = v.sketch.a_tilde, v.sketch.c_const
                    if np.linalg.matrix_rank(a) > k:
                        want = dinkelbach_distortion(a, at, c, k) <= eps
                    else:
                        want = self.rank_le_k_verdict(a, at, c, eps)
                    assert v.report.passed == want, (name, method, m, eps)
                    assert v.report.tags.tolist()[-2:] == ["exact-over", "exact-under"]
                    verdicts[name, v.report.passed] += 1
        # the zero matrix costs nothing anywhere and every sketch of it is zero
        assert verdicts["rank 0", True] == 3 * len(METHODS)
        for name in ("rank < k", "rank = k", "duplicate rows, rank = k"):
            assert verdicts[name, True] and verdicts[name, False], (name, verdicts)

    def test_zero_cost_projection_breaks_with_a_constant(self):
        # rank 2 <= k: the projection onto A's column space costs nothing on
        # A, so a constant c beyond ZERO_CHECK_REL |A|_F^2 fails the audit
        # through it, whatever every other projection does
        a = rand(24, (6, 2)) @ rand(25, (2, 10))
        probes = generate_probes(a, np.eye(10), 3, 0.5)
        for c, passes in ((0.0, True), (0.5 * ZERO_CHECK_REL * frob2(a), True), (1e-6 * frob2(a), False)):
            report = pcp_report(a, a.copy(), c, probes, 0.5)
            assert report.passed is passes, c
            assert report.zero_cost.any()


class TestSvdCount:
    """``verify_sketch`` and a lowrank ``sketch_and_solve`` factor A once and
    no n x m or n x r matrix: each of the two exact probes takes one r x r
    eigh of a matrix built from A's factors and G, and the lowrank solve
    reads the sketch's top subspace off A's and G by one r x r eigh.
    The nonoblivious sketcher factors Pi A on top.  A is factored through its
    smaller Gram, and an exactly low-rank A, whose Gram is too close to
    singular, through LAPACK's SVD after that eigh; each test runs one input
    of each kind and counts both drivers."""

    @staticmethod
    def inputs(shape) -> dict:
        """A well-conditioned input and one of rank 3, by the branch each takes."""
        low = rand(43, (shape[0], 3)) @ rand(44, (3, shape[1]))
        return {"gram": rand(41, shape), "lapack": low}

    @staticmethod
    def expected_a(branch: str) -> dict:
        return {("A", "gram"): 1, ("A", "svd"): int(branch == "lapack")}

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("shape", [(8, 30), (30, 8)])
    def test_verify_factors_a_and_pi_a_only(self, monkeypatch, method, shape):
        m_pi = 6
        params = SketchParams(k=2, eps=0.5, seed=1, m_override=m_pi)
        log = factorization_log(monkeypatch)
        for branch, a in self.inputs(shape).items():
            r = np.linalg.matrix_rank(a)
            pi_a = rng_for(params.seed, Stream.NON_OBLIVIOUS).standard_normal((m_pi, shape[0])) @ a
            log.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WidthNotReducingWarning)
                verify_sketch(a, method, params)
            counts = factorization_counts(log, {"A": a, "PiA": pi_a})
            want = {**self.expected_a(branch), ("eigh", (r, r)): 2}
            if method == "nonoblivious":
                # Pi A has rank 3 < m_pi on the low-rank input
                want.update({("PiA", "gram"): 1, ("PiA", "svd"): int(branch == "lapack")})
            assert +counts == +Counter(want), (branch, counts)

    def test_verify_on_a_factored_a_runs_two_eighs(self, monkeypatch):
        # with A factored beforehand, a verify factors nothing: the two
        # exact probes' eighs read the Gram certify formed, and the sketch
        # is never factored
        params = SketchParams(k=2, eps=0.5, seed=1, m_override=6)
        log = factorization_log(monkeypatch)
        for shape in ((8, 40), (30, 8)):
            a = factor(rand(45, shape))
            a.fact
            log.clear()
            verify_sketch(a, "gaussian", params)
            assert Counter(driver for driver, _ in log) == Counter({"eigh": 2}), shape

    @pytest.mark.parametrize("method", METHODS)
    def test_lowrank_solve_factors_a_only(self, monkeypatch, method):
        log = factorization_log(monkeypatch)
        for branch, a in self.inputs((8, 30)).items():
            r = np.linalg.matrix_rank(a)
            sk = make_sketch(a, method, SketchParams(k=2, eps=0.5, seed=1, m_override=12))
            log.clear()
            sketch_and_solve(a, sk, "lowrank")
            counts = factorization_counts(log, {"A": a, "sketch": sk.a_tilde})
            # the rank-3 svd sketch is the 8 x 3 U_3 Sigma_3, whose Gram is the
            # r x r Sigma G Sigma = Sigma^2 its SVD is read off
            sketch_eigh = ("sketch", "gram") if (method, branch) == ("svd", "lapack") else ("eigh", (r, r))
            assert +counts == +Counter({**self.expected_a(branch), sketch_eigh: 1}), (branch, counts)
