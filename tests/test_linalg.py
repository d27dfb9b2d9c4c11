from collections import Counter

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
from pcpsketch.guarantees import certify
from pcpsketch.linalg import (
    Factored,
    Projection,
    as_matrix,
    factor,
    frob2,
    orthonormal_columns,
    projection_cost,
    svd,
    tail_index_p,
)
from pcpsketch.rng import Stream, rng_for
from pcpsketch.sketch import (
    SamplingPattern,
    SketchParams,
    leverage_residual_sample,
    non_oblivious_rp,
    ridge_leverage_sample,
    svd_sketch,
)

from oracles import (
    direct_projection_cost,
    factorization_counts,
    factorization_log,
    gram_eigenvalues,
    haar_projection,
    head_tail_split,
    right_factor_counts,
    right_factor_log,
    row_space_action,
)


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
            p = haar_projection(a.shape[0], r, int(rng.integers(2**63)))
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
        p = haar_projection(5, 2, seed=4)
        assert abs(projection_cost(a, p) - direct_projection_cost(a, p.basis)) <= 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            projection_cost(np.eye(3), haar_projection(4, 2, seed=0))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_pythagorean_identity(self, seed, k):
        a = random_matrix(seed)
        k = min(k, a.shape[0])
        p = haar_projection(a.shape[0], k, seed=seed ^ 0xABCD)
        direct = frob2(a) - frob2(p.basis.T @ a)
        assert abs(projection_cost(a, p) - direct) <= 1e-8 * max(1.0, frob2(a))


class TestProjection:
    def test_validates_orthonormality(self):
        # a non-finite or huge entry fails the same Gram test, without a warning
        for basis in ([[1.0], [1.0]], [[np.nan], [0.0]], [[1.0, 0.0], [0.0, np.inf]], [[1e200], [0.0]]):
            with pytest.raises(InvalidMatrixError, match="not orthonormal"):
                Projection(np.array(basis))



class TestOrthonormalColumns:
    def test_positive_diagonal_factorization(self):
        g = random_matrix(5, n=7, d=4)
        q = orthonormal_columns(g)
        assert np.max(np.abs(q.T @ q - np.eye(4))) <= 1e-12
        r = q.T @ g  # g = q r with r upper triangular, positive diagonal
        assert np.max(np.abs(np.tril(r, -1))) <= 1e-12
        assert np.all(np.diag(r) > 0.0)

    def test_dependent_columns(self):
        # a column combined from two others, and a zero column: both errors
        g = np.random.default_rng(60).standard_normal((3, 7, 3))
        g[1, :, 2] = g[1, :, 0] - 2.0 * g[1, :, 1]
        g[2, :, 1] = 0.0
        orthonormal_columns(g[0])
        for i in (1, 2):
            with pytest.raises(InvalidInputError):
                orthonormal_columns(g[i])

    @pytest.mark.parametrize("shape", [(5,), (2, 2, 5, 3), (3, 5), (2, 3, 5), (2, 5, 3)])
    def test_rejects_vectors_deep_stacks_and_wide_matrices(self, shape):
        with pytest.raises(InvalidMatrixError):
            orthonormal_columns(np.ones(shape))


class TestFactored:
    def test_lazy_and_computed_once(self, monkeypatch):
        # A is factored by one eigh of its Gram, and by LAPACK's SVD after it
        # when that Gram is too close to singular (here: rank 2 of 5)
        log = factorization_log(monkeypatch)
        low = random_matrix(42, n=5, d=2) @ random_matrix(43, n=2, d=9)
        for a, svds in ((random_matrix(40, n=5, d=9), 0), (low, 1)):
            inst = factor(a)
            assert factor(inst) is inst
            log.clear()
            assert inst.frob2 == frob2(a)
            assert log == []
            assert inst.fact is inst.fact
            assert +factorization_counts(log, {"A": a}) == +Counter({("A", "gram"): 1, ("A", "svd"): svds})

    def test_right_factor_formed_where_read(self, monkeypatch):
        # a wide A on the Gram route keeps U and sigma; V = A^T U Sigma^-1 is
        # formed on the first read of fact.v and kept, and v_head(m) forms
        # only its first m columns.  A tall A gets V from its Gram's eigh,
        # and a low-rank one from LAPACK, so neither forms one.
        log = right_factor_log(monkeypatch)
        wide = random_matrix(44, n=6, d=20)
        inst = factor(wide)
        f = inst.fact
        assert log == []
        head = f.v_head(4)
        assert head.shape == (20, 4) and not head.flags.writeable
        assert +right_factor_counts(log, {"A": wide}) == Counter({("A", 4): 1})
        assert f.v is f.v
        assert +right_factor_counts(log, {"A": wide}) == Counter({("A", 4): 1, ("A", 6): 1})
        assert not f.v.flags.writeable
        assert np.allclose(head, f.v[:, :4], rtol=0.0, atol=1e-14)
        assert np.array_equal(f.v_head(3), f.v[:, :3]) and len(log) == 2
        low = random_matrix(45, n=6, d=2) @ random_matrix(46, n=2, d=20)
        for a in (random_matrix(47, n=20, d=6), low):
            log.clear()
            g = factor(a).fact
            assert g.v is g.v and g.v_head(2).shape == (a.shape[1], 2)
            assert log == []

    def test_product_kept_for_the_last_operator(self):
        a = factor(random_matrix(48, n=6, d=20))
        s = random_matrix(49, n=20, d=5)
        sk = svd_sketch(a, SketchParams(k=2, eps=0.5))
        assert a.product(sk.operator) is sk.a_tilde
        at = a.product(s)
        assert a.product(s) is at and np.array_equal(at, a.a @ s)
        assert a.product(sk.operator) is not sk.a_tilde

    def test_validated_once_at_entry(self):
        with pytest.raises(InvalidMatrixError):
            factor(np.array([[1.0, np.nan]]))
        # finite entries whose squared norm overflows: typed, and no warning
        for a in (np.full((2, 3), 1e160), np.array([[1e300, -1e300]])):
            with pytest.raises(InvalidMatrixError, match="overflows"):
                factor(a)
        inst = factor([[1.0, 2.0]])
        assert as_matrix(inst) is inst.a


def geometric(shape, floor, seed):
    """A matrix with random singular vectors and singular values falling
    geometrically from 1 to ``floor``."""
    rng = np.random.default_rng(seed)
    r = min(shape)
    u = np.linalg.qr(rng.standard_normal((shape[0], r)))[0]
    v = np.linalg.qr(rng.standard_normal((shape[1], r)))[0]
    return (u * np.geomspace(1.0, floor, r)) @ v.T


def gram_cases() -> dict:
    """Inputs by name, with the branch ``Factored.fact`` must take: through
    the Gram while sigma_min / sigma_1 stays above 1e-4, else LAPACK."""
    cases = {}
    for i, floor in enumerate((1e-2, 1e-3, 2e-4, 3e-5, 1e-6, 1e-8, 1e-12)):
        branch = "gram" if floor > 1e-4 else "lapack"
        for j, shape in enumerate(((30, 200), (200, 30))):
            cases[f"geometric {floor:g} {shape[0]}x{shape[1]}"] = (geometric(shape, floor, 10 * i + j), branch)
    rng = np.random.default_rng(60)
    cases["rank 2"] = (rng.standard_normal((20, 2)) @ rng.standard_normal((2, 90)), "lapack")
    cases["zero"] = (np.zeros((6, 40)), "lapack")
    cases["row"] = (rng.standard_normal((1, 40)), "gram")
    cases["column"] = (rng.standard_normal((40, 1)), "gram")
    return cases


class TestGramFactorization:
    """``Factored.fact`` against LAPACK's SVD of the same matrix
    (an instance holding ``svd(a)``) on both of its branches.
    Singular values are compared on LAPACK's own accuracy scale, relative
    to sigma_1; the Gram branch keeps the orthogonality of the recovered
    factor to about eps * (sigma_1 / sigma_min)^2 <= 1e-8."""

    @pytest.fixture(params=list(gram_cases()))
    def case(self, request, monkeypatch):
        a, branch = gram_cases()[request.param]
        log = factorization_log(monkeypatch)
        fact = factor(a).fact
        taken = "lapack" if any(driver == "svd" for driver, _ in log) else "gram"
        assert taken == branch
        monkeypatch.undo()
        ref = Factored(a)
        ref._fact = svd(a)
        return a, branch, fact, ref

    def test_spectrum_and_orthonormal_factors(self, case):
        a, branch, f, ref = case
        _, s, _ = np.linalg.svd(a, full_matrices=False)
        assert f.rank == ref.fact.rank
        assert np.all(np.abs(f.sigma - s[: f.rank]) <= 1e-12 * s[0])
        tol = 1e-8 if branch == "gram" else 1e-12
        assert np.max(np.abs(f.u.T @ f.u - np.eye(f.rank)), initial=0.0) <= tol
        assert np.max(np.abs(f.v.T @ f.v - np.eye(f.rank)), initial=0.0) <= tol
        # both reconstruct the same truncation of a
        truncated = (ref.fact.u * ref.fact.sigma) @ ref.fact.v.T
        assert np.linalg.norm((f.u * f.sigma) @ f.v.T - truncated) <= 1e-12 * max(s[0], 1.0)

    def test_top_projectors_agree_across_a_gap(self, case):
        # Davis-Kahan: a perturbation of eps * sigma_1^2 in the Gram moves the
        # top-j singular subspaces by about that over sigma_j^2 - sigma_(j+1)^2
        a, _, f, ref = case
        s = np.append(ref.fact.sigma, 0.0)
        for j in range(1, f.rank + 1):
            gap = s[j - 1] ** 2 - s[j] ** 2
            for mine, theirs in ((f.u, ref.fact.u), (f.v, ref.fact.v)):
                moved = np.linalg.norm(mine[:, :j] @ mine[:, :j].T - theirs[:, :j] @ theirs[:, :j].T, 2)
                assert moved <= 1e-12 * s[0] ** 2 / gap

    def test_sign_convention(self, case):
        # the largest-magnitude entry of each left vector is positive, on both branches
        _, _, f, ref = case
        for u in (f.u, ref.fact.u):
            assert np.all(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] > 0.0)

    def test_sampled_columns_and_certificates_agree(self, case):
        a, _, f, ref = case
        params = SketchParams(k=2, eps=0.5, seed=3, m_override=25)
        for sample in (leverage_residual_sample, ridge_leverage_sample):
            if f.rank and a.shape[1] >= 2:
                assert np.array_equal(sample(factor(a), params).operator.indices, sample(ref, params).operator.indices)
        s = rng_for(4, Stream.GAUSSIAN_SKETCH).standard_normal((a.shape[1], 12)) / np.sqrt(12)
        for mine, theirs in zip(certify(factor(a), s, 2, 0.5), certify(ref, s, 2, 0.5)):
            assert mine.measured.keys() == theirs.measured.keys() and mine.holds == theirs.holds
            for key, value in mine.measured.items():
                assert value == pytest.approx(theirs.measured[key], rel=1e-10, abs=1e-10), key

    def test_nonoblivious_operator_is_orthonormal(self, case):
        a, _, f, _ = case
        z = non_oblivious_rp(a, SketchParams(k=2, eps=0.5, seed=5, m_override=8)).operator
        if f.rank:
            assert np.max(np.abs(z.T @ z - np.eye(z.shape[1]))) <= 1e-12


class TestRowSpaceGram:
    """``Factored.gram(S)`` against ``(V^T S)(V^T S)^T`` with the oracle's
    V, LAPACK's, for a dense S, a sampling pattern and the svd sketch's V_m.
    A wide A on the Gram route reads ``V^T S`` off ``Sigma^-1 U^T (A S)``,
    a tall one off its V.  Entries are compared relative to the largest.
    For sigma_1 / sigma_min <= 1e2 they agree to 1e-12.  Nearer the Gram
    route's guard, 1e4, the Gram route's V itself is off LAPACK's by about
    eps * kappa^2 (item 13 of the roadmap), which bounds the comparison
    (4e-9 measured at kappa = 1e4 against 2.2e-8); against the instance's
    own V, formed after the fact, the two routes to ``V^T S`` agree to
    about eps * kappa (3e-12 measured)."""

    @pytest.mark.parametrize("floor", [1e-1, 1e-2, 2e-4, 1.02e-4])
    @pytest.mark.parametrize("shape", [(30, 200), (20, 600), (200, 30)])
    @pytest.mark.parametrize("operator", ["dense", "pattern", "v_m"])
    def test_matches_the_oracle(self, floor, shape, operator):
        a = geometric(shape, floor, seed=3)
        d = shape[1]
        rng = np.random.default_rng(shape[1])
        inst = factor(a)
        if operator == "dense":
            s = rng.standard_normal((d, 12)) / np.sqrt(12)
        elif operator == "pattern":
            idx = rng.integers(0, d, 15)
            probs = np.full(d, 1.0 / d)
            s = SamplingPattern(idx, 1.0 / np.sqrt(15 * probs[idx]), probs)
        else:
            s = svd_sketch(inst, SketchParams(k=2, eps=0.4)).operator
        g = inst.gram(s)
        w = row_space_action(a, s)
        want = w @ w.T
        eps = np.finfo(float).eps
        tol = 1e-12 if floor >= 1e-2 else eps / floor**2
        assert np.max(np.abs(g - want)) <= tol * np.max(np.abs(want))
        own = inst.fact.v.T @ s
        assert np.max(np.abs(g - own @ own.T)) <= 100 * eps / floor * np.max(np.abs(want))

    def test_svd_sketch_reads_the_head_of_v(self):
        for shape in ((30, 200), (200, 30)):
            a = geometric(shape, 1e-2, seed=7)
            inst = factor(a)
            sk = svd_sketch(inst, SketchParams(k=2, eps=0.2))
            assert sk.m == 10
            v = inst.fact.v
            assert np.allclose(sk.operator, v[:, :10], rtol=0.0, atol=1e-14)
            assert frob2(sk.a_tilde) + sk.c_const == pytest.approx(frob2(a), rel=1e-13)
