import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcpsketch.errors import (
    DimensionError,
    InvalidInputError,
    InvalidRankError,
    UnsupportedFamilyError,
    WidthNotReducingWarning,
    ZeroMatrixError,
)
from pcpsketch.guarantees import HOLDS_TOL, _holds, certify, jl_moment_estimate, spectral_approx_error
from pcpsketch.linalg import svd, tail_index_p
from pcpsketch.rng import Stream, rng_for
from pcpsketch.sketch import (
    SketchParams,
    gaussian_sketch,
    make_sketch,
    orthogonal_sketch,
    ridge_leverage_sample,
)

from oracles import (
    amm_error,
    frobenius_preservation_error,
    head_tail_split,
    jacobi_eigh,
    spectral_sandwich_sides,
    subspace_embedding_error,
)
from oracles import certify_dense_measured as oracle_certify_dense


def rand(seed, shape):
    return np.random.default_rng(seed).standard_normal(shape)


def seeded_orthogonal(d, seed=0):
    q, _ = np.linalg.qr(rand(seed, (d, d)))
    return q


# The three dense functionals below are references in tests/oracles.py,
# which ``certify`` must agree with (TestCoordinatesMatchDenseOracle); these
# classes check the references themselves against brute force.


class TestSubspaceEmbeddingError:
    def test_identity_sketch(self):
        m = rand(0, (4, 6))
        assert subspace_embedding_error(m, np.eye(6)) <= 1e-12

    def test_hand_example(self):
        # M = I2, S = (sqrt 2, 0)^T: x = e1 doubles, x = e2 vanishes
        s = np.array([[math.sqrt(2.0)], [0.0]])
        assert subspace_embedding_error(np.eye(2), s) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            subspace_embedding_error(np.zeros((3, 3)), np.eye(3))

    def test_dominates_random_probes_and_attained(self):
        for seed in range(10):
            m = rand(seed, (5, 9))
            s = rand(seed + 1000, (9, 6)) / math.sqrt(6)
            exact = subspace_embedding_error(m, s)

            rng = np.random.default_rng(seed + 2000)
            x = rng.standard_normal((10_000, 5))
            xm = x @ m
            keep = (xm**2).sum(axis=1) > 1e-12
            r1 = (xm[keep] ** 2).sum(axis=1)
            r2 = ((xm[keep] @ s) ** 2).sum(axis=1)
            ratios = np.abs(r2 - r1) / r1
            assert exact >= ratios.max() - 1e-12

            # the worst direction comes from the top eigenvector of the
            # embedded Gram defect; the defining ratio there attains the sup
            f = svd(m)
            w = f.v.T @ s @ s.T @ f.v - np.eye(f.rank)
            eigvals, eigvecs = jacobi_eigh(w)
            z = eigvecs[:, int(np.argmax(np.abs(eigvals)))]
            x_star = f.u @ (z / f.sigma)
            xm = x_star @ m
            ratio = abs((xm @ s) @ (xm @ s) - xm @ xm) / (xm @ xm)
            assert exact <= ratio + 1e-3
            assert exact >= ratio - 1e-9


class TestAmmError:
    def test_identity(self):
        m, n = rand(1, (3, 5)), rand(2, (5, 4))
        assert amm_error(m, n, np.eye(5)) <= 1e-14

    def test_zero_sketch_cauchy_schwarz(self):
        m, n = rand(3, (3, 5)), rand(4, (5, 4))
        err = amm_error(m, n, np.zeros((5, 2)))
        direct = np.linalg.norm(m @ n) / (np.linalg.norm(m) * np.linalg.norm(n))
        assert err == pytest.approx(direct, rel=1e-12)
        assert err <= 1.0 + 1e-12

    def test_matches_direct_evaluation(self):
        m, n, s = rand(5, (4, 6)), rand(6, (6, 3)), rand(7, (6, 2))
        direct = np.linalg.norm(m @ n - m @ s @ s.T @ n) / (
            np.linalg.norm(m) * np.linalg.norm(n)
        )
        assert amm_error(m, n, s) == pytest.approx(direct, abs=1e-10)

    def test_inner_dimension_mismatch(self):
        with pytest.raises(ValueError):
            amm_error(rand(8, (3, 5)), rand(9, (4, 2)), rand(10, (5, 2)))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.1, 50.0),
        st.floats(0.1, 50.0),
    )
    def test_scaling_covariance(self, seed, alpha, beta):
        m, n, s = rand(seed, (3, 6)), rand(seed ^ 1, (6, 4)), rand(seed ^ 2, (6, 3))
        base = amm_error(m, n, s)
        assert amm_error(alpha * m, beta * n, s) == pytest.approx(base, abs=1e-12, rel=1e-9)


class TestFrobeniusPreservation:
    def test_orthogonal_square(self):
        m = rand(11, (4, 7))
        assert frobenius_preservation_error(m, seeded_orthogonal(7)) <= 1e-12

    def test_zero_sketch(self):
        assert frobenius_preservation_error(rand(12, (3, 5)), np.zeros((5, 2))) == 1.0

    def test_matches_direct(self):
        m, s = rand(13, (4, 6)), rand(14, (6, 3))
        direct = abs((m**2).sum() - ((m @ s) ** 2).sum()) / (m**2).sum()
        assert frobenius_preservation_error(m, s) == pytest.approx(direct, abs=1e-12)


class TestSpectralApproxError:
    def test_orthogonal_square_any_lambda(self):
        a = rand(15, (4, 6))
        for lam in (0.0, 0.5, 10.0):
            assert spectral_approx_error(a, seeded_orthogonal(6), lam) <= 1e-10

    def test_diag_zero_sketch(self):
        # (1 - eps) * 4 <= 1 forces eps >= 3/4 on the top direction
        a = np.diag([2.0, 1.0])
        assert spectral_approx_error(a, np.zeros((2, 2)), 1.0) == pytest.approx(0.75, abs=1e-12)

    def test_scaled_identity_sketch_identity(self):
        a = rand(16, (4, 7))
        for gamma in (0.3, -0.2):
            s = math.sqrt(1.0 + gamma) * np.eye(7)
            assert spectral_approx_error(a, s, 0.0) == pytest.approx(abs(gamma), abs=1e-8)

    def test_certified_by_psd_sandwich(self):
        for seed in range(8):
            a = rand(seed, (4, 8))
            a /= np.linalg.norm(a)
            s = rand(seed + 50, (8, 3)) / math.sqrt(3)
            lam = 0.01
            eps = spectral_approx_error(a, s, lam)
            hi, lo = spectral_sandwich_sides(a, s, lam, eps + 1e-8)
            assert hi >= -1e-8 and lo >= -1e-8
            if eps > 1e-4:
                hi, lo = spectral_sandwich_sides(a, s, lam, eps - 1e-4)
                assert min(hi, lo) < 0.0

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrixError):
            spectral_approx_error(np.zeros((2, 3)), np.eye(3), 0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(InvalidInputError):
            spectral_approx_error(np.eye(2), np.eye(2), -1.0)


class TestCertifyMatrixApprox:
    def test_orthogonal_square_holds_any_eps(self):
        a = rand(17, (5, 9))
        for eps in (0.05, 0.5, 0.95):
            cert = certify(a, seeded_orthogonal(9), 2, eps)[0]
            assert cert.holds
            assert cert.theorem == "T1"
            assert all(v <= 1e-10 for v in cert.measured.values())

    def test_zero_sketch_fails(self):
        a = np.diag([3.0, 2.0, 1.0])
        cert = certify(a, np.zeros((3, 2)), 1, 0.5)[0]
        assert cert.measured["se_err"] == pytest.approx(1.0, abs=1e-12)
        assert not cert.holds

    def test_thresholds(self):
        cert = certify(rand(18, (4, 8)), np.eye(8), 2, 0.3)[0]
        assert cert.thresholds["se_err"] == pytest.approx(0.1)
        assert cert.thresholds["amm_tail_tail"] == pytest.approx(0.3 / (6 * math.sqrt(2)))
        assert cert.thresholds["amm_tail_vk"] == pytest.approx(0.3 / (6 * math.sqrt(2)))
        assert cert.thresholds["frob_tail"] == pytest.approx(0.05)

    def test_compositional_bit_identity(self):
        a = rand(19, (6, 14))
        s = gaussian_sketch(a, SketchParams(k=2, eps=0.5, seed=1, m_override=40)).operator_matrix()
        k = 2
        cert = certify(a, s, k, 0.5)[0]
        # to rounding: the functionals on A's own head and tail and S
        f = svd(a)
        split = head_tail_split(f, a, k)
        head_basis = f.v[:, :k]
        dense = {
            "se_err": subspace_embedding_error(split.head, s),
            "amm_tail_tail": amm_error(split.tail, split.tail.T, s),
            "amm_tail_vk": amm_error(split.tail, head_basis, s),
            "frob_tail": frobenius_preservation_error(split.tail, s),
        }
        assert cert.measured == pytest.approx(dense, rel=1e-10)

    def test_rank_at_most_k_degenerate(self):
        rng = np.random.default_rng(20)
        a = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 8))
        cert = certify(a, seeded_orthogonal(8), 3, 0.4)[0]
        assert cert.holds
        assert cert.measured["amm_tail_tail"] == 0.0
        assert cert.measured["frob_tail"] == 0.0


class TestCertifySpectral:
    def test_orthogonal_square_holds(self):
        a = rand(21, (5, 9))
        cert = certify(a, seeded_orthogonal(9), 2, 0.4)[1]
        assert cert.holds
        assert cert.theorem == "T2"
        assert cert.measured["spectral_eps"] <= 1e-10
        assert cert.measured["frob_tail_p"] <= 1e-10

    def test_lambda_formula(self):
        a = rand(22, (5, 9))
        k, eps = 2, 0.4
        cert = certify(a, seeded_orthogonal(9), k, eps)[1]
        f = svd(a)
        tail2 = float((f.sigma[k:] ** 2).sum())
        assert cert.measured["lambda_used"] == pytest.approx(eps * tail2 / (24 * k), rel=1e-12)
        assert cert.measured["p_used"] == float(tail_index_p(f, k))
        # informational values are not thresholded
        assert "lambda_used" not in cert.thresholds
        assert "p_used" not in cert.thresholds

    def test_rank_at_most_k_lambda_zero(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 9))
        cert = certify(a, seeded_orthogonal(9), 2, 0.3)[1]
        assert cert.measured["lambda_used"] == 0.0
        assert cert.holds

    def test_compositional_consistency(self):
        a = rand(24, (6, 14))
        s = ridge_leverage_sample(
            a, SketchParams(k=2, eps=0.5, seed=9, m_override=60)
        ).operator_matrix()
        cert = certify(a, s, 2, 0.5)[1]
        f = svd(a)
        lam = 0.5 * float((f.sigma[2:] ** 2).sum()) / (24 * 2)
        p = tail_index_p(f, 2)
        # bit for bit: the sandwich is one shared computation on sigma and G
        assert cert.measured["spectral_eps"] == spectral_approx_error(a, s, lam)
        # to rounding: the Frobenius functional on A's own p-tail and S
        split = head_tail_split(f, a, p)
        assert cert.measured["frob_tail_p"] == pytest.approx(
            frobenius_preservation_error(split.tail, s), rel=1e-10
        )

    def test_never_holds_beyond_tolerance(self):
        # compositional guard: holds=true requires every measured value
        # within tolerance of its threshold
        for seed in range(30):
            a = rand(seed, (5, 11))
            s = rand(seed + 500, (11, 4)) / 2.0
            for cert in certify(a, s, 2, 0.4):
                if cert.holds:
                    for key, thr in cert.thresholds.items():
                        assert cert.measured[key] <= thr + HOLDS_TOL


class TestHoldsTolerance:
    def test_boundary(self):
        assert _holds({"x": 1.0 + 5e-13}, {"x": 1.0})
        assert not _holds({"x": 1.0 + 5e-12}, {"x": 1.0})
        assert _holds({"x": 0.5, "extra": 99.0}, {"x": 1.0})


class TestJlMoment:
    def test_matches_chi_square_variance(self):
        m = 25
        est = jl_moment_estimate("gaussian", 10, m, 2, 5000, seed=0)
        assert abs(est.estimate - 2.0 / m) <= 0.15 * (2.0 / m)

    def test_monotone_in_width(self):
        results = [jl_moment_estimate("gaussian", 8, m, 2, 3000, seed=1) for m in (25, 100, 400)]
        assert results[0].estimate - 3 * results[0].stderr > results[1].estimate
        assert results[1].estimate - 3 * results[1].stderr > results[2].estimate

    def test_stderr_scaling(self):
        small = jl_moment_estimate("gaussian", 6, 50, 2, 100, seed=2)
        big = jl_moment_estimate("gaussian", 6, 50, 2, 10_000, seed=2)
        ratio = small.stderr / big.stderr
        assert 6.0 <= ratio <= 16.0  # expect ~sqrt(100) = 10

    def test_higher_moments_nonnegative(self):
        est = jl_moment_estimate("gaussian", 5, 30, 4, 500, seed=3)
        assert est.estimate >= 0.0
        assert est.stderr >= 0.0

    def test_determinism(self):
        e1 = jl_moment_estimate("gaussian", 5, 20, 2, 300, seed=7)
        e2 = jl_moment_estimate("gaussian", 5, 20, 2, 300, seed=7)
        assert e1.estimate == e2.estimate and e1.stderr == e2.stderr

    def test_rejections(self):
        with pytest.raises(UnsupportedFamilyError):
            jl_moment_estimate("rademacher", 5, 20, 2, 300, seed=0)
        with pytest.raises(InvalidInputError):
            jl_moment_estimate("gaussian", 5, 20, 2, 99, seed=0)
        with pytest.raises(InvalidInputError):
            jl_moment_estimate("gaussian", 5, 20, 1, 300, seed=0)


def _rank4(seed, d):
    # at k = 3 the one tail value clears the cut sigma_4^2 / 3, so p = rank = 4
    q, _ = np.linalg.qr(rand(seed, (d, 4)))
    return np.diag([3.0, 2.0, 1.5, 1.0]) @ q.T


CERT_INSTANCES = {
    "generic": (lambda: rand(30, (6, 14)), 2),
    "rank<k": (lambda: np.outer(rand(31, (6,)), rand(32, (14,))), 2),
    "rank=k": (lambda: rand(33, (6, 2)) @ rand(34, (2, 14)), 2),
    "rank<=p": (lambda: _rank4(35, 12), 3),
    "zero-tail": (lambda: np.diag([3.0, 2.0, 0.0, 0.0]) @ rand(36, (4, 10)), 3),
    "duplicate-rows": (lambda: np.tile(rand(37, (3, 9)), (2, 1)), 2),
    "zero": (lambda: np.zeros((5, 8)), 2),
}


class TestCoordinatesMatchDenseOracle:
    """The certificates read off sigma and G equal the dense-operator
    formulas on A and S: full rank, rank < k, rank = k, rank <= p, a zero
    tail, duplicate rows and the zero matrix, each with a sampling pattern
    and with its dense operator, as well as with dense sketches."""

    @pytest.mark.parametrize("case", sorted(CERT_INSTANCES))
    @pytest.mark.parametrize("method", ["gaussian", "orthogonal", "leverage", "ridge"])
    def test_matches_dense_formulas(self, case, method):
        make, k = CERT_INSTANCES[case]
        a = make()
        eps = 0.4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WidthNotReducingWarning)
            sk = make_sketch(a, method, SketchParams(k=k, eps=eps, seed=3, m_override=3 * a.shape[1]))
        dense = sk.operator_matrix()
        want1, want2, budget = oracle_certify_dense(a, dense, k, eps)
        rank, p = svd(a).rank, int(want2["p_used"])
        assert {
            "rank<k": rank < k,
            "rank=k": rank == k,
            "rank<=p": k < rank <= p,
            "zero-tail": 0 < rank <= k,
            "zero": rank == 0,
        }.get(case, rank > k)
        # a sampling pattern is passed as it is, a dense operator as its array
        for op in (sk.operator, dense):
            t1, t2 = certify(a, op, k, eps)
            for got, want in ((t1.measured, want1), (t2.measured, want2)):
                assert set(got) == set(want)
                for key in want:
                    # values that are exactly 0 come out at rounding level either way
                    assert got[key] == pytest.approx(want[key], rel=1e-10, abs=1e-12), (case, key)
            assert t2.thresholds["frob_tail_p"] == pytest.approx(budget, rel=1e-12)
            assert t1.holds == _holds(want1, t1.thresholds)
            assert t2.holds == _holds(want2, t2.thresholds)

    def test_sampling_pattern_equals_its_dense_operator(self):
        a = rand(38, (7, 20))
        sk = ridge_leverage_sample(a, SketchParams(k=2, eps=0.5, seed=4, m_override=30))
        for c1, c2 in zip(certify(a, sk.operator, 2, 0.5), certify(a, sk.operator_matrix(), 2, 0.5)):
            assert c1.measured == pytest.approx(c2.measured, rel=1e-12, abs=1e-15)

    def test_operator_rows_checked(self):
        a = rand(39, (4, 9))
        pattern = ridge_leverage_sample(rand(40, (4, 8)), SketchParams(k=1, eps=0.5, m_override=5)).operator
        with pytest.raises(DimensionError):
            certify(a, pattern, 1, 0.5)
        with pytest.raises(DimensionError):
            certify(a, np.ones((8, 3)), 1, 0.5)

    def test_rank_and_eps_checked(self):
        a = rand(41, (4, 9))
        with pytest.raises(InvalidRankError):
            certify(a, np.eye(9), 0, 0.5)
        for eps in (0.0, 1.0, float("nan")):
            with pytest.raises(InvalidInputError):
                certify(a, np.eye(9), 1, eps)
