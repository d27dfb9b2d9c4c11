import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcpsketch import audit
from pcpsketch.audit import approx_transfer_check, sketch_and_solve
from pcpsketch.errors import InvalidInputError, InvalidRankError, TooLargeError
from pcpsketch.generators import GeneratorSpec, gen_synthetic
from pcpsketch.linalg import frob2, projection_cost, svd
from pcpsketch.rng import Stream, rng_for
from pcpsketch.sketch import SketchParams, gaussian_sketch, orthogonal_sketch, svd_sketch
from pcpsketch.solvers import (
    Clustering,
    _exhaustive_search,
    _mask_costs,
    _partition_masks,
    _plusplus_init,
    _tail_masks,
    best_rank_k_projection,
    cluster_indicator_projection,
    exhaustive_kmeans,
    kmeans_cost,
    lloyd_kmeans,
    partition_costs,
    partitions,
)

from oracles import (
    gram_eigenvalues,
    lloyd_reference,
    partition_costs_by_labels,
    partitions_reference,
    plusplus_reference,
    variance_kmeans_cost,
)


def rand(seed, shape):
    return np.random.default_rng(seed).standard_normal(shape)


def three_clusters():
    return gen_synthetic(GeneratorSpec("clustered", n=9, d=6, k_true=3, separation=8.0, noise=0.3, seed=2))


def spread_points():
    return np.array([[0.0], [0.0], [10.0], [10.0]])


class TestBestRankK:
    def test_diagonal(self):
        p = best_rank_k_projection(np.diag([3.0, 2.0, 1.0]), 1)
        assert np.allclose(np.abs(p.basis), [[1.0], [0.0], [0.0]], atol=1e-12)
        assert projection_cost(np.diag([3.0, 2.0, 1.0]), p) == pytest.approx(5.0, abs=1e-12)

    def test_rank_saturation(self):
        a = rand(0, (4, 3))
        p = best_rank_k_projection(a, 10)
        assert projection_cost(a, p) <= 1e-10 * frob2(a)

    def test_cost_from_gram_oracle(self):
        a = np.random.default_rng(1).standard_normal((6, 5))
        p = best_rank_k_projection(a, 2)
        eigs = np.sort(gram_eigenvalues(a))[::-1]
        assert projection_cost(a, p) == pytest.approx(eigs[2:5].sum(), rel=1e-10)

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidRankError):
            best_rank_k_projection(np.eye(2), 0)


class TestClusterIndicator:
    def test_two_singletons(self):
        p = cluster_indicator_projection(np.array([0, 1]), 2, 2)
        assert np.allclose(np.abs(p.basis), np.eye(2))

    def test_one_cluster(self):
        p = cluster_indicator_projection(np.array([0, 0, 0, 0]), 1, 4)
        assert np.allclose(p.basis, np.full((4, 1), 0.5))

    def test_orthonormal_for_random_assignments(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, 5))
            labels = rng.integers(0, k, size=n)
            p = cluster_indicator_projection(labels, k, n)
            r = p.basis.shape[1]
            assert r == len(np.unique(labels))
            assert np.max(np.abs(p.basis.T @ p.basis - np.eye(r))) <= 1e-12

    def test_basis_built_cluster_by_cluster(self):
        # bit for bit one column per nonempty cluster, 1/sqrt(|C_j|) on its members
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(1, 6))
            labels = rng.integers(0, k, size=n)
            cols = []
            for j in range(k):
                members = labels == j
                if members.any():
                    col = np.zeros(n)
                    col[members] = 1.0 / np.sqrt(members.sum())
                    cols.append(col)
            assert np.array_equal(cluster_indicator_projection(labels, k, n).basis, np.column_stack(cols))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            cluster_indicator_projection(np.array([0, 2]), 2, 2)

    def test_rejects_non_integer_labels(self):
        for labels in (np.array([0.5, 1.7, 0.2]), np.array([True, False, True])):
            with pytest.raises(InvalidInputError, match="integer"):
                cluster_indicator_projection(labels, 2, 3)


class TestClustering:
    def test_rejects_fractional_labels(self):
        # a cast would truncate them to [0, 1, 0]
        with pytest.raises(InvalidInputError, match="integer"):
            Clustering(np.array([0.5, 1.7, 0.2]), 2, 0.0)

    def test_empty_assignment_is_reported_as_empty(self):
        # an empty list has a float dtype; the shape is what is wrong with it
        with pytest.raises(InvalidInputError, match="nonempty 1-D"):
            Clustering([], 2, 0.0)

    def test_integer_labels_of_any_width(self):
        for dtype in (np.int8, np.uint8, np.int64):
            assert Clustering(np.array([0, 1, 0], dtype=dtype), 2, 0.0).assignment.tolist() == [0, 1, 0]


class TestKmeansCost:
    def test_rejects_non_integer_labels(self):
        # a cast would score both as the labels [0, 1, 0], at cost 16
        m = np.arange(6.0).reshape(3, 2)
        for labels in ([0.5, 1.7, 0.2], [True, False, True]):
            with pytest.raises(InvalidInputError, match="integer"):
                kmeans_cost(m, labels)
        assert kmeans_cost(m, [0, 1, 0]) == 16.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(1, 4))
    def test_equals_projection_residual_and_variances(self, seed, n, k):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, 3))
        labels = rng.integers(0, k, size=n)
        cost = kmeans_cost(m, labels)
        assert cost == pytest.approx(variance_kmeans_cost(m, labels), abs=1e-8)
        p = cluster_indicator_projection(labels, k, n)
        assert cost == pytest.approx(projection_cost(m, p), abs=1e-8)


class TestLloyd:
    def test_separated_duplicates(self):
        res = lloyd_kmeans(spread_points(), 2, seed=0)
        assert res.cost <= 1e-12
        a = res.assignment
        assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]

    def test_k_equals_n(self):
        res = lloyd_kmeans(rand(3, (5, 2)), 5, seed=0)
        assert res.cost <= 1e-12

    def test_planted_clusters_match_exhaustive(self):
        rng = np.random.default_rng(4)
        centers = np.array([[0.0, 0.0, 0.0], [20.0, 20.0, 20.0]])
        m = centers[np.arange(8) % 2] + rng.standard_normal((8, 3))
        best = exhaustive_kmeans(m, 2)
        res = lloyd_kmeans(m, 2, seed=1)
        assert res.cost == pytest.approx(best.cost, rel=1e-10)

    def test_monotone_objective(self):
        # the reference run's objective per iteration never rises, and the
        # library run ends in the reference's assignment
        for seed in range(10):
            m = rand(seed, (12, 3))
            trace: list[float] = []
            want = lloyd_reference(m, 3, 50, seed, trace)
            assert len(trace) >= 1
            diffs = np.diff(np.asarray(trace))
            assert np.all(diffs <= 1e-12)
            assert np.array_equal(lloyd_kmeans(m, 3, seed=seed).assignment, want)

    def test_gemm_distances_assign_as_the_broadcast_formula(self):
        # separated clusters: every point is far nearer one center than the rest
        rng = np.random.default_rng(6)
        centers = 30.0 * rng.standard_normal((4, 20))
        m = centers[np.arange(60) % 4] + rng.standard_normal((60, 20))
        res = lloyd_kmeans(m, 4, seed=2)
        means = np.array([m[res.assignment == j].mean(axis=0) for j in range(4)])
        broadcast = ((m[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(res.assignment, np.argmin(broadcast, axis=1))
        assert np.array_equal(res.assignment[:4], res.assignment[4:8])
        assert len(set(res.assignment[:4].tolist())) == 4

    def test_deterministic(self):
        m = rand(5, (10, 2))
        r1 = lloyd_kmeans(m, 3, seed=9)
        r2 = lloyd_kmeans(m, 3, seed=9)
        assert np.array_equal(r1.assignment, r2.assignment)
        assert r1.cost == r2.cost

    def test_rejects_small_n(self):
        with pytest.raises(InvalidInputError):
            lloyd_kmeans(np.eye(2), 3)


class TestLloydRuns:
    """Each run draws its k-means++ start from the stream (seed,
    Stream.LLOYD) and matches the loop oracle bit for bit."""

    def cases(self):
        rng = np.random.default_rng(50)
        yield "gaussian", rng.standard_normal((40, 6)), 4
        centers = 8.0 * rng.standard_normal((3, 5))
        yield "planted", centers[np.arange(30) % 3] + rng.standard_normal((30, 5)), 3
        # three distinct rows, each three times: at most three distinct
        # centers for five clusters, so empty clusters must be reseeded
        yield "duplicates", np.repeat(rng.standard_normal((3, 4)), 3, axis=0), 5
        yield "k = n", rng.standard_normal((6, 3)), 6
        yield "one column", rng.standard_normal((25, 1)), 3

    def test_lloyd_kmeans_matches_the_choice_oracle(self):
        # the oracle draws its starts with rng.choice, the library by its
        # own cumulative sum and search: the same draws, bit for bit
        for seed in (3, 17, 2**40 + 5, 0, 99, 12345, 7):
            for name, m, k in self.cases():
                want = lloyd_reference(m, k, 25, seed)
                assert np.array_equal(lloyd_kmeans(m, k, iters=25, seed=seed).assignment, want), (name, seed)

    def test_plusplus_draw_equals_rng_choice(self):
        rng = np.random.default_rng(55)
        for case in range(300):
            n, k = int(rng.integers(1, 40)), int(rng.integers(1, 6))
            m = rng.standard_normal((n, int(rng.integers(1, 5)))) ** int(rng.integers(1, 4))
            if case % 3 == 0:
                m[rng.random(n) < 0.6] = m[0]  # repeated rows: zero distances, all-zero d2
            got = _plusplus_init(m, k, rng_for(case, Stream.LLOYD))
            want = plusplus_reference(m, k, rng_for(case, Stream.LLOYD))
            assert np.array_equal(got, want), case

    def test_runs_stop_at_different_iterations(self):
        m = np.random.default_rng(51).standard_normal((60, 4))
        traces: list = [[] for _ in range(8)]
        for seed, trace in enumerate(traces):
            want = lloyd_reference(m, 5, 50, seed, trace)
            assert np.array_equal(lloyd_kmeans(m, 5, iters=50, seed=seed).assignment, want), seed
        assert len({len(trace) for trace in traces}) > 1

    def test_empty_clusters_are_reseeded(self):
        # nearest-center assignment alone uses at most three labels on three
        # distinct rows; every label past those was placed by a reseed
        m = np.repeat(np.random.default_rng(52).standard_normal((3, 4)), 3, axis=0)
        for seed in range(6):
            got = lloyd_kmeans(m, 5, iters=25, seed=seed).assignment
            assert len(set(got.tolist())) > 3
            assert np.array_equal(got, lloyd_reference(m, 5, 25, seed)), seed

    def test_k_equals_n_gives_singletons(self):
        m = np.random.default_rng(53).standard_normal((6, 3))
        for seed in range(4):
            assert sorted(lloyd_kmeans(m, 6, iters=25, seed=seed).assignment.tolist()) == list(range(6))

    def test_iteration_cap(self):
        m = np.random.default_rng(54).standard_normal((50, 3))
        for iters in (1, 2, 3):
            for seed in range(5):
                want = lloyd_reference(m, 4, iters, seed)
                assert np.array_equal(lloyd_kmeans(m, 4, iters=iters, seed=seed).assignment, want), (iters, seed)


class TestPartitions:
    def test_count_n4_k2(self):
        got = list(partitions(4, 2))
        assert len(got) == 8  # 1 single-block + 7 bipartitions
        assert sum(1 for p in got if max(p) == 1) == 7

    def test_matches_reference_enumeration(self):
        # same rows in the same (lexicographic) order
        grid = [(n, kmax) for n in (1, 2, 3, 5, 7) for kmax in (1, 2, 3, 9)]
        grid += [(n, kmax) for n in (4, 6) for kmax in range(1, n + 2)]
        for n, kmax in grid:
            ours = partitions(n, kmax)
            assert ours.dtype == np.int8
            assert np.array_equal(ours, np.array(partitions_reference(n, kmax)).reshape(-1, n))

    def test_count_n12_k3(self):
        assert len(partitions(12, 3)) == 88_574  # S(12,1) + S(12,2) + S(12,3)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            partitions(13, 2)

    def test_restricted_growth_canonical(self):
        for p in partitions(6, 3):
            assert p[0] == 0
            running_max = 0
            for x in p[1:]:
                assert x <= running_max + 1
                running_max = max(running_max, x)


class TestPartitionCosts:
    def test_equals_cluster_indicator_projection_cost(self):
        rng = np.random.default_rng(12)
        for n in range(1, 8):
            m = rng.standard_normal((n, 3))
            m[n // 2] = m[0]  # a duplicate row gives zero-cost blocks
            scale = frob2(m)
            for k in (1, 2, 3):
                labels = partitions(n, k)
                costs = partition_costs(m, labels)
                ref = [projection_cost(m, cluster_indicator_projection(row, k, n)) for row in labels]
                assert np.max(np.abs(costs - ref)) <= 1e-10 * scale

    def test_rejects_bad_labels(self):
        m = rand(13, (4, 2))
        with pytest.raises(InvalidInputError):
            partition_costs(m, np.zeros((3, 5), dtype=np.int8))
        with pytest.raises(InvalidInputError):
            partition_costs(m, np.array([[0, -1, 0, 1]]))

    def test_rejects_non_integer_labels(self):
        # a fractional label would match no block and drop its row from the cost
        with pytest.raises(InvalidInputError, match="integer"):
            partition_costs(np.arange(12.0).reshape(3, 4), np.array([[0, 0.5, 1]]))
        m = rand(14, (3, 2))
        for labels in (np.zeros((2, 3)), np.zeros((2, 3), dtype=bool), np.array([["0", "1", "1"]])):
            with pytest.raises(InvalidInputError, match="integer"):
                partition_costs(m, labels)
        for dtype in (np.int8, np.uint8, np.int64):
            got = partition_costs(m, np.array([[0, 1, 1]], dtype=dtype))
            assert np.array_equal(got, partition_costs_by_labels(m, [[0, 1, 1]]))


def first_cheapest(m, labels, costs):
    """The row ``exhaustive_kmeans`` keeps: the first whose cost ties the
    least within 1e-12 |M|_F^2."""
    return labels[int(np.argmax(costs <= costs.min() + 1e-12 * frob2(m)))]


class TestPartitionMasks:
    """The search scores a table of block bitmasks built once; every number
    it gives must equal the label-table route bit for bit."""

    GRID = [(n, k) for n in range(1, 10) for k in range(1, n + 2)] + [(12, 3)]

    def test_masks_are_the_partitions(self):
        for n, k in self.GRID:
            masks = _partition_masks(n, k)
            labels = partitions(n, k)
            assert masks.dtype == np.int16 and masks.shape == (len(labels), min(n, k))
            for j in range(masks.shape[1]):
                want = ((labels == j) << np.arange(n)).sum(axis=1)
                assert np.array_equal(masks[:, j], want), (n, k, j)

    def test_search_costs_equal_the_label_route(self):
        rng = np.random.default_rng(21)
        for n, k in self.GRID:
            m = rng.standard_normal((n, 3))
            m[n // 2] = m[0]
            _, masks, costs, _ = _exhaustive_search(m, k)
            labels = partitions(n, k)
            want = partition_costs_by_labels(m, labels)
            assert np.array_equal(costs, want), (n, k)
            assert np.array_equal(partition_costs(m, labels), want), (n, k)
            assert np.array_equal(_mask_costs(m, masks), want), (n, k)

    def test_winner_is_the_first_tied_row(self):
        rng = np.random.default_rng(22)
        for n, k in self.GRID:
            m = rng.standard_normal((n, 2))
            clustering, _, costs, best = _exhaustive_search(m, k)
            labels = partitions(n, k)
            want = first_cheapest(m, labels, costs)
            assert clustering.assignment.tolist() == want.tolist() == labels[best].tolist(), (n, k)
            assert clustering.assignment.dtype == np.int64

    def test_exact_ties_between_duplicate_rows(self):
        # four distinct points, each twice: with k >= 5 blocks, splitting a
        # pair keeps the cost at zero, so many partitions tie exactly
        points = rand(23, (4, 3))
        m = points[[0, 1, 0, 2, 3, 1, 2, 3]]
        for k in range(4, 9):
            clustering, _, costs, _ = _exhaustive_search(m, k)
            labels = partitions(8, k)
            assert np.count_nonzero(costs <= 1e-12 * frob2(m)) > (k > 4)
            assert clustering.assignment.tolist() == first_cheapest(m, labels, costs).tolist()
            assert clustering.assignment.tolist() == [0, 1, 0, 2, 3, 1, 2, 3]
            assert clustering.cost <= 1e-12 * frob2(m)

    def test_rounding_ties_keep_the_first_row(self):
        # a regular hexagon splits into halves three ways at one cost; in
        # floating point the costs of the tied rows differ in their last
        # bits and the first is not the smallest, so only the tolerance
        # picks it
        angle = np.random.default_rng(12).uniform(0, 2 * np.pi, 3)
        turn = angle[0] + 2 * np.pi * np.arange(6) / 6
        m = np.stack([np.cos(turn), np.sin(turn)], axis=1) + 3 * angle[1:]
        for k in (2, 3):
            clustering, _, costs, _ = _exhaustive_search(m, k)
            assert clustering.assignment.tolist() == first_cheapest(m, partitions(6, k), costs).tolist()

    def test_tail_tables_only_for_reachable_largest_labels(self):
        # after `start` positions the largest label is below min(start, width);
        # a table for any other would grow as width^(n - start) and go unused
        for n, width in ((10, 10), (9, 3), (12, 12)):
            labels = partitions(n, width) if n < 12 else None
            for start in range(max(1, n - 6), n + 1):
                tails = _tail_masks(n, width, start)
                assert len(tails) == min(start, width)
                for t, table in enumerate(tails if labels is not None else ()):
                    head = [0] * (start - t) + list(range(1, t + 1))  # a head whose largest label is t
                    assert len(table) == np.all(labels[:, :start] == head, axis=1).sum(), (n, width, start, t)

    def test_largest_table_counts_every_partition(self):
        masks = _partition_masks(11, 11)
        assert len(masks) == 678_570  # Bell(11)
        full = np.bitwise_or.reduce(masks, axis=1)
        assert np.all(full == (1 << 11) - 1)
        sizes = sum(np.bitwise_count(masks[:, j]).astype(int) for j in range(11))
        assert np.all(sizes == 11)  # the blocks are disjoint


class TestExhaustive:
    def test_separated_duplicates(self):
        res = exhaustive_kmeans(spread_points(), 2)
        assert res.cost <= 1e-12

    def test_misclustering_cost(self):
        # pairing one near and one far point in each cluster puts every
        # point 5 away from its mean: 4 * 25 = 100
        assert kmeans_cost(spread_points(), np.array([0, 1, 0, 1])) == pytest.approx(100.0)

    def test_lexicographic_tie_break(self):
        res = exhaustive_kmeans(np.zeros((4, 2)), 2)
        assert res.assignment.tolist() == [0, 0, 0, 0]

    def test_beats_lloyd(self):
        for seed in range(8):
            m = rand(seed, (9, 3))
            ex = exhaustive_kmeans(m, 3)
            ll = lloyd_kmeans(m, 3, seed=seed)
            assert ex.cost <= ll.cost + 1e-10

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            exhaustive_kmeans(np.zeros((13, 2)), 2)

    def test_scaling_keeps_the_optimum(self):
        # ties are relative to |M|_F^2: at 1e-8 scale every cost is below
        # 1e-12, and an absolute tolerance would tie them all
        m = three_clusters()
        want = exhaustive_kmeans(m, 3)
        for scale in (1e-8, 1e8):
            got = exhaustive_kmeans(scale * m, 3)
            assert got.assignment.tolist() == want.assignment.tolist(), scale
            assert got.cost == pytest.approx(scale**2 * want.cost, rel=1e-9), scale

    def test_matches_brute_force_reference(self):
        for seed in range(5):
            m = rand(seed + 100, (7, 2))
            res = exhaustive_kmeans(m, 2)
            ref = min(variance_kmeans_cost(m, labels) for labels in partitions_reference(7, 2))
            assert res.cost == pytest.approx(ref, rel=1e-10)


class TestClusteringType:
    def test_validates_labels(self):
        with pytest.raises(InvalidInputError):
            Clustering(np.array([0, 3]), 2, 0.0)


class TestSketchAndSolve:
    def test_identity_sketch_lowrank(self):
        a = rand(6, (6, 10))
        sk = orthogonal_sketch(a, SketchParams(k=2, eps=0.5))
        res = sketch_and_solve(a, sk, "lowrank")
        f = svd(a)
        opt = float((f.sigma[2:] ** 2).sum())
        assert res.cost_on_a == pytest.approx(opt, rel=1e-10)
        assert res.transfer.bound_holds
        assert res.transfer.lhs == pytest.approx(opt, rel=1e-10)
        assert res.transfer.optimum == pytest.approx(opt, rel=1e-10)
        assert res.certified_ratio == pytest.approx(3.0)

    def test_lossless_svd_sketch_both_tasks(self):
        a = rand(7, (8, 12))
        sk = svd_sketch(a, SketchParams(k=2, eps=0.5, m_override=8))
        low = sketch_and_solve(a, sk, "lowrank")
        f = svd(a)
        assert low.cost_on_a == pytest.approx(float((f.sigma[2:] ** 2).sum()), rel=1e-8)
        km = sketch_and_solve(a, sk, "kmeans")
        best = exhaustive_kmeans(a, 2)
        assert km.cost_on_a == pytest.approx(best.cost, rel=1e-8)

    def test_gaussian_kmeans_within_certified_ratio(self):
        rng = np.random.default_rng(8)
        centers = np.array([[0.0] * 6, [8.0] * 6])
        a = centers[np.arange(8) % 2] + 0.5 * rng.standard_normal((8, 6))
        sk = gaussian_sketch(a, SketchParams(k=2, eps=0.5, seed=11, m_override=24))
        res = sketch_and_solve(a, sk, "kmeans")
        opt = exhaustive_kmeans(a, 2).cost
        assert res.cost_on_a <= 3.0 * opt + 1e-9

    def test_lloyd_solver_reports_unknown_gamma(self):
        a = rand(9, (10, 5))
        sk = orthogonal_sketch(a, SketchParams(k=2, eps=0.5))
        res = sketch_and_solve(a, sk, "kmeans", solver="lloyd", seed=3)
        assert res.transfer is None
        assert res.certified_ratio is None
        assert res.cost_on_a >= 0.0

    def test_exhaustive_transfer_matches_fresh_partition_tables(self):
        a = rand(16, (7, 9))
        sk = gaussian_sketch(a, SketchParams(k=3, eps=0.5, seed=2, m_override=5))
        res = sketch_and_solve(a, sk, "kmeans")
        labels = partitions(7, 3)
        want = approx_transfer_check(
            a, sk.a_tilde, sk.c_const, 0.5, partition_costs(a, labels), partition_costs(sk.a_tilde, labels)
        )
        assert res.transfer == want
        assert res.certified_ratio == 3.0
        assert want.optimum == pytest.approx(exhaustive_kmeans(a, 3).cost, rel=1e-10)

    def test_lowrank_transfer_matches_a_own_best_projection(self):
        a = rand(17, (8, 30))
        sk = gaussian_sketch(a, SketchParams(k=2, eps=0.4, seed=5, m_override=6))
        res = sketch_and_solve(a, sk, "lowrank")
        top = best_rank_k_projection(sk.a_tilde, 2).basis
        q = res.solution.basis
        assert np.abs(q @ q.T - top @ top.T).max() <= 1e-8
        candidates = [res.solution, best_rank_k_projection(a, 2)]
        want = approx_transfer_check(
            a,
            sk.a_tilde,
            sk.c_const,
            0.4,
            [projection_cost(a, p) for p in candidates],
            [projection_cost(sk.a_tilde, p) for p in candidates],
        )
        assert res.transfer == want
        assert res.transfer.lhs == res.cost_on_a
        assert want.optimum == pytest.approx(float((svd(a).sigma[2:] ** 2).sum()), rel=1e-10)

    def test_scaled_input_transfers_alike(self):
        a = three_clusters()
        params = SketchParams(k=3, eps=0.5)
        want = sketch_and_solve(a, svd_sketch(a, params), "kmeans")
        assert want.transfer.lhs == pytest.approx(want.transfer.optimum, rel=1e-9)
        for scale in (1e-8, 1e8):
            got = sketch_and_solve(scale * a, svd_sketch(scale * a, params), "kmeans")
            assert got.solution.assignment.tolist() == want.solution.assignment.tolist(), scale
            ratio = got.transfer.lhs / got.transfer.optimum
            assert ratio == pytest.approx(want.transfer.lhs / want.transfer.optimum, rel=1e-9), scale
            assert got.transfer.bound_holds

    def test_exhaustive_costs_read_off_the_tables(self, monkeypatch):
        # the answer's costs are rows of the scored tables: no projection is
        # built, and they match the indicator projection's to rounding
        a = rand(19, (8, 10))
        sk = gaussian_sketch(a, SketchParams(k=3, eps=0.5, seed=4, m_override=6))
        with monkeypatch.context() as patch:
            for name in ("cluster_indicator_projection", "projection_cost", "Projection"):
                patch.setattr(audit, name, lambda *args: pytest.fail("built a projection"))
            res = sketch_and_solve(a, sk, "kmeans")
        proj = cluster_indicator_projection(res.solution.assignment, 3, 8)
        assert res.cost_on_a == pytest.approx(projection_cost(a, proj), rel=1e-12)
        assert res.cost_on_sketch == pytest.approx(projection_cost(sk.a_tilde, proj), rel=1e-12)
        assert res.cost_on_sketch == res.solution.cost
        assert res.transfer.lhs == res.cost_on_a

    def test_rejects_unknown_task(self):
        a = rand(10, (4, 5))
        sk = orthogonal_sketch(a, SketchParams(k=1, eps=0.5))
        with pytest.raises(InvalidInputError):
            sketch_and_solve(a, sk, "regression")
