import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcpsketch.errors import (
    DimensionError,
    InvalidInputError,
    InvalidMatrixError,
    InvalidRankError,
)
from pcpsketch.linalg import (
    Projection,
    _haar_bases,
    _orthonormal_stack,
    as_matrix,
    factor,
    frob2,
    haar_subspace,
    orthonormal_columns,
    projection_cost,
    svd,
    tail_index_p,
)
from pcpsketch.rng import rng_for

from oracles import direct_projection_cost, gram_eigenvalues, head_tail_split


def random_matrix(seed, n=None, d=None):
    rng = np.random.default_rng(seed)
    n = n if n is not None else int(rng.integers(2, 9))
    d = d if d is not None else int(rng.integers(2, 9))
    return rng.standard_normal((n, d))


class TestSvd:
    def test_diagonal(self):
        f = svd(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(f.sigma, [3.0, 2.0, 1.0], atol=1e-12)
        assert f.rank == 3
        assert np.allclose(f.u @ np.diag(f.sigma) @ f.v.T, np.diag([3.0, 2.0, 1.0]), atol=1e-12)

    def test_permutation(self):
        f = svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(f.sigma, [1.0, 1.0], atol=1e-12)
        assert f.rank == 2

    def test_reconstruction_and_gram_oracle(self):
        a = np.random.default_rng(7).uniform(-1.0, 1.0, size=(5, 4))
        f = svd(a)
        assert np.linalg.norm(f.u @ np.diag(f.sigma) @ f.v.T - a) <= 1e-8 * np.linalg.norm(a)
        oracle = np.sort(gram_eigenvalues(a))[::-1][: f.rank]
        assert np.allclose(f.sigma**2, oracle, atol=1e-8)

    def test_orthonormal_factors(self):
        f = svd(random_matrix(3))
        assert np.max(np.abs(f.u.T @ f.u - np.eye(f.rank))) <= 1e-8
        assert np.max(np.abs(f.v.T @ f.v - np.eye(f.rank))) <= 1e-8

    def test_truncation(self):
        a = np.diag([1.0, 1e-14])
        f = svd(a)
        assert f.rank == 1

    def test_determinism(self):
        a = random_matrix(11)
        f1, f2 = svd(a), svd(a)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.v, f2.v)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrixError):
            svd(np.array([[1.0, np.nan]]))
        with pytest.raises(InvalidMatrixError):
            svd(np.array([[1.0, np.inf]]))


def svd_cases() -> dict:
    rng = np.random.default_rng(50)
    low = rng.standard_normal((7, 2)) @ rng.standard_normal((2, 30))
    return {
        "wide": rng.standard_normal((6, 40)),
        "tall": rng.standard_normal((40, 6)),
        "square": rng.standard_normal((9, 9)),
        "row": rng.standard_normal((1, 25)),
        "column": rng.standard_normal((25, 1)),
        "zero": np.zeros((4, 11)),
        "rank-deficient wide": low,
        "rank-deficient tall": low.T,
    }


class TestSvdAgainstDirect:
    """``svd`` factors wide inputs through their transpose; every shape must
    give what the direct ``np.linalg.svd`` of the input gives, up to the
    signs of singular vector pairs."""

    @pytest.mark.parametrize("name", list(svd_cases()))
    def test_matches_direct_svd(self, name):
        a = svd_cases()[name]
        f = svd(a)
        _, s, _ = np.linalg.svd(a, full_matrices=False)
        direct_rank = int(np.sum(s > 1e-10 * s[0])) if s[0] > 0 else 0
        assert f.rank == direct_rank
        assert f.u.shape == (a.shape[0], f.rank) and f.v.shape == (a.shape[1], f.rank)
        assert np.allclose(f.sigma, s[: f.rank], rtol=1e-13, atol=0)
        assert np.allclose(f.u.T @ f.u, np.eye(f.rank), atol=1e-12)
        assert np.allclose(f.v.T @ f.v, np.eye(f.rank), atol=1e-12)
        scale = max(np.linalg.norm(a), 1.0)
        assert np.linalg.norm(f.u @ np.diag(f.sigma) @ f.v.T - a) <= 1e-12 * scale
        for arr in (f.u, f.sigma, f.v):
            assert not arr.flags.writeable

    def test_lapack_sees_only_tall_or_square(self, monkeypatch):
        shapes = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda x, *ar, **kw: shapes.append(np.shape(x)) or real(x, *ar, **kw))
        for a in svd_cases().values():
            svd(a)
        assert shapes and all(rows >= cols for rows, cols in shapes)


class TestHeadTailSplit:
    """Self-checks of the reference split in tests/oracles.py against brute
    force: Jacobi eigenvalues of the Gram matrix and residuals summed
    entry by entry."""

    def test_diagonal_r1(self):
        a = np.diag([3.0, 2.0, 1.0])
        split = head_tail_split(svd(a), a, 1)
        assert np.allclose(split.head, np.diag([3.0, 0.0, 0.0]), atol=1e-12)
        assert np.allclose(split.tail, np.diag([0.0, 2.0, 1.0]), atol=1e-12)

    def test_full_rank_kept(self):
        a = random_matrix(2)
        f = svd(a)
        split = head_tail_split(f, a, f.rank)
        assert np.max(np.abs(split.tail)) <= 1e-10 * max(1.0, np.max(np.abs(a)))

    def test_tail_norm_from_gram_oracle(self):
        a = np.random.default_rng(5).standard_normal((6, 5))
        split = head_tail_split(svd(a), a, 2)
        eigs = np.sort(gram_eigenvalues(a))[::-1]
        assert abs(frob2(split.tail) - eigs[2:5].sum()) <= 1e-8 * frob2(a)

    def test_negative_rank_rejected(self):
        a = np.eye(2)
        with pytest.raises(ValueError):
            head_tail_split(svd(a), a, -1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 8))
    def test_split_invariants(self, seed, r):
        a = random_matrix(seed)
        f = svd(a)
        split = head_tail_split(f, a, r)
        assert np.max(np.abs(split.head + split.tail - a)) <= 1e-8 * max(1.0, np.linalg.norm(a))
        assert abs(np.trace(split.head @ split.tail.T)) <= 1e-8 * frob2(a)
        expected_tail = float(np.sort(gram_eigenvalues(a))[::-1][min(r, f.rank) :].sum())
        assert abs(frob2(split.tail) - expected_tail) <= 1e-8 * max(1.0, frob2(a))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_head_is_best_rank_r(self, seed, r):
        a = random_matrix(seed)
        r = min(r, a.shape[0])
        split = head_tail_split(svd(a), a, r)
        rng = rng_for(seed, 99)
        for _ in range(50):
            p = haar_subspace(a.shape[0], r, int(rng.integers(2**63)))
            assert frob2(split.tail) <= direct_projection_cost(a, p.basis) + 1e-8 * frob2(a)


class TestTailIndexP:
    def test_ties_included(self):
        # tail past k=2 is 1+1=2, threshold 1, every sigma^2 >= 1
        f = svd(np.diag([3.0, 2.0, 1.0, 1.0]))
        assert tail_index_p(f, 2) == 4

    def test_small_head(self):
        # threshold (1+0.25+0.25)/1 = 1.5 keeps only sigma_1
        f = svd(np.diag([3.0, 1.0, 0.5, 0.5]))
        assert tail_index_p(f, 1) == 1

    def test_zero_tail_returns_rank(self):
        a = np.outer([1.0, 2.0], [1.0, 0.0, 1.0]) + np.outer([0.0, 1.0], [0.0, 1.0, 0.0])
        f = svd(a)
        assert f.rank == 2
        assert tail_index_p(f, 2) == 2

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidRankError):
            tail_index_p(svd(np.eye(2)), 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_p_at_most_2k_with_positive_tail(self, seed, k):
        f = svd(random_matrix(seed))
        tail2 = float((f.sigma[min(k, f.rank) :] ** 2).sum())
        p = tail_index_p(f, k)
        assert 0 <= p <= f.rank
        if tail2 > 0:
            assert p <= 2 * k


class TestProjectionCost:
    def test_axis_on_identity(self):
        p = Projection(np.array([[1.0], [0.0]]))
        assert projection_cost(np.eye(2), p) == pytest.approx(1.0, abs=1e-12)

    def test_column_space_containment(self):
        a = random_matrix(9, n=5, d=3)
        f = svd(a)
        assert projection_cost(a, Projection(f.u)) <= 1e-10 * frob2(a)

    def test_matches_direct_residual(self):
        a = np.random.default_rng(2).standard_normal((5, 4))
        p = haar_subspace(5, 2, seed=4)
        assert abs(projection_cost(a, p) - direct_projection_cost(a, p.basis)) <= 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            projection_cost(np.eye(3), haar_subspace(4, 2, seed=0))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_pythagorean_identity(self, seed, k):
        a = random_matrix(seed)
        k = min(k, a.shape[0])
        p = haar_subspace(a.shape[0], k, seed=seed ^ 0xABCD)
        direct = frob2(a) - frob2(p.basis.T @ a)
        assert abs(projection_cost(a, p) - direct) <= 1e-8 * max(1.0, frob2(a))


class TestProjection:
    def test_validates_orthonormality(self):
        with pytest.raises(InvalidMatrixError):
            Projection(np.array([[1.0], [1.0]]))



class TestOrthonormalColumns:
    def test_positive_diagonal_factorization(self):
        g = random_matrix(5, n=7, d=4)
        q = orthonormal_columns(g)
        assert np.max(np.abs(q.T @ q - np.eye(4))) <= 1e-12
        r = q.T @ g  # g = q r with r upper triangular, positive diagonal
        assert np.max(np.abs(np.tril(r, -1))) <= 1e-12
        assert np.all(np.diag(r) > 0.0)

    def test_dependent_columns(self):
        # a column combined from two others, a zero column, and stacks
        # where only one matrix is dependent: every one is an error
        g = np.random.default_rng(60).standard_normal((3, 7, 3))
        g[1, :, 2] = g[1, :, 0] - 2.0 * g[1, :, 1]
        g[2, :, 1] = 0.0
        for i in (1, 2):
            with pytest.raises(InvalidInputError):
                orthonormal_columns(g[i])
            with pytest.raises(InvalidInputError):
                _orthonormal_stack(g[[0, i]])
        with pytest.raises(InvalidInputError):
            _orthonormal_stack(g)
        assert np.array_equal(_orthonormal_stack(g[:1])[0], orthonormal_columns(g[0]))


class TestHaarSubspace:
    def test_full_dimension_is_identity_projector(self):
        q = haar_subspace(3, 3, seed=0).basis
        assert np.max(np.abs(q @ q.T - np.eye(3))) <= 1e-8

    def test_orthonormal(self):
        q = haar_subspace(5, 2, seed=1).basis
        assert np.max(np.abs(q.T @ q - np.eye(2))) <= 1e-8

    def test_seed_determinism(self):
        a = haar_subspace(6, 3, seed=42).basis
        b = haar_subspace(6, 3, seed=42).basis
        c = haar_subspace(6, 3, seed=43).basis
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stack_equals_one_draw_per_seed(self):
        seeds = [0, 1, 42, 2**63 + 7, 5]
        for n, k in ((6, 3), (9, 1), (4, 4), (200, 5)):
            stack = _haar_bases(n, k, seeds)
            assert stack.shape == (len(seeds), n, k)
            for seed, basis in zip(seeds, stack):
                assert np.array_equal(basis, haar_subspace(n, k, seed).basis)
        assert _haar_bases(5, 2, []).shape == (0, 5, 2)

    def test_rejects_bad_rank(self):
        with pytest.raises(InvalidRankError):
            haar_subspace(3, 4, seed=0)
        with pytest.raises(InvalidRankError):
            haar_subspace(3, 0, seed=0)


class TestFactored:
    def test_lazy_and_computed_once(self, monkeypatch):
        a = random_matrix(40, n=5, d=9)
        inst = factor(a)
        assert factor(inst) is inst
        calls = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *ar, **kw: calls.append(1) or real(*ar, **kw))
        assert inst.frob2 == frob2(a)
        assert calls == []
        assert inst.fact is inst.fact
        assert inst.core is inst.core
        assert len(calls) == 1

    def test_core_has_the_row_gram_and_known_svd(self):
        a = random_matrix(41, n=5, d=9)
        inst = factor(a)
        b = inst.core
        assert b.shape == (5, inst.fact.rank)
        assert np.allclose(b @ b.T, a @ a.T, atol=1e-12)
        # B = U Sigma I_r: its own SVD has A's singular values and V = I_r up to signs
        fb = factor(b).fact
        assert np.allclose(fb.sigma, inst.fact.sigma, rtol=1e-12)
        assert np.allclose(np.abs(fb.v), np.eye(inst.fact.rank), atol=1e-12)
        p = haar_subspace(5, 2, seed=3)
        assert projection_cost(b, p) == pytest.approx(projection_cost(a, p), abs=1e-12 * frob2(a))

    def test_zero_matrix_has_one_zero_column_core(self):
        inst = factor(np.zeros((4, 6)))
        assert inst.fact.rank == 0
        assert inst.core.shape == (4, 1) and not inst.core.any()

    def test_validated_once_at_entry(self):
        with pytest.raises(InvalidMatrixError):
            factor(np.array([[1.0, np.nan]]))
        inst = factor([[1.0, 2.0]])
        assert as_matrix(inst) is inst.a
