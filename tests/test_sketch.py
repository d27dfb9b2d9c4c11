import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcpsketch.audit import _factor_sketch, verify_sketch
from pcpsketch.errors import (
    InvalidInputError,
    InvalidOverestimateError,
    InvalidRankError,
    UnsupportedFamilyError,
    WidthNotReducingWarning,
)
from pcpsketch.generators import GeneratorSpec, gen_synthetic
from pcpsketch.guarantees import certify
from pcpsketch.linalg import factor, frob2, svd
from pcpsketch.sketch import (
    METHODS,
    _indices_from_uniforms,
    SamplingPattern,
    SketchParams,
    gaussian_sketch,
    gaussian_width,
    leverage_residual_sample,
    make_sketch,
    non_oblivious_rp,
    orthogonal_sketch,
    ridge_leverage_sample,
    ridge_scores,
    svd_sketch,
)

from oracles import gram_eigenvalues, head_tail_split, indices_from_uniforms_loop


def params(**kw):
    base = dict(k=2, eps=0.5, delta=0.1, seed=0)
    base.update(kw)
    return SketchParams(**base)


def wide_matrix(seed, n=6, d=40):
    return np.random.default_rng(seed).standard_normal((n, d))


class TestSketchParams:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(k=0),
            dict(eps=0.0),
            dict(eps=1.0),
            dict(delta=0.0),
            dict(delta=1.0),
            dict(const_c=0.0),
            dict(m_override=0),
        ],
    )
    def test_rejects_invalid(self, kw):
        with pytest.raises((InvalidInputError, InvalidRankError)):
            params(**kw)


class TestGaussian:
    def test_width_formula(self):
        # ceil(8 * (k + ln(1/delta)) / eps^2) at k=2, delta=0.1, eps=0.5
        expected = math.ceil(8.0 * (2.0 + math.log(10.0)) / 0.25)
        assert expected == 138
        assert gaussian_width(params(const_c=8.0)) == 138

    def test_entry_distribution(self):
        # one wide sketch gives ~1e6 entries; sample variance should be 1/m
        a = wide_matrix(0, n=2, d=100)
        m = 10_000
        sk = gaussian_sketch(a, params(m_override=m))
        s = sk.operator_matrix()
        assert s.shape == (100, m)
        assert abs(s.var() * m - 1.0) <= 0.02
        assert abs(s.mean()) <= 3.0 / math.sqrt(s.size)

    def test_a_tilde_is_product(self):
        a = wide_matrix(1)
        sk = gaussian_sketch(a, params(m_override=7))
        assert np.allclose(sk.a_tilde, a @ sk.operator_matrix(), atol=1e-12)
        assert sk.c_const == 0.0

    def test_width_warning(self):
        a = wide_matrix(2, n=3, d=5)
        with pytest.warns(WidthNotReducingWarning):
            gaussian_sketch(a, params(m_override=5))

    def test_width_warning_names_the_callers_line(self):
        # the warning names the first frame outside the package, whichever
        # entry point was called; the pytest ignore filter is overridden here
        a = wide_matrix(2, n=5, d=20)
        p = params(m_override=30)
        for call in (
            lambda: gaussian_sketch(a, p),
            lambda: make_sketch(a, "gaussian", p),
            lambda: verify_sketch(a, "gaussian", p, 2, 0),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", WidthNotReducingWarning)
                call()
            (w,) = [w for w in caught if issubclass(w.category, WidthNotReducingWarning)]
            assert w.filename == __file__


class TestOrthogonal:
    def test_square_orthonormal(self):
        a = wide_matrix(3, n=4, d=9)
        with pytest.warns(WidthNotReducingWarning):
            sk = orthogonal_sketch(a, params())
        s = sk.operator_matrix()
        assert s.shape == (9, 9)
        assert np.max(np.abs(s.T @ s - np.eye(9))) <= 1e-10
        assert abs(frob2(sk.a_tilde) - frob2(a)) <= 1e-8 * frob2(a)


class TestNonOblivious:
    def test_rank_one_row_space(self):
        a = np.outer([1.0, -2.0, 0.5], [3.0, 1.0, 4.0, 1.0, 5.0])
        sk = non_oblivious_rp(a, params(k=1))
        assert sk.m == 1
        assert abs(math.sqrt(frob2(sk.a_tilde)) - math.sqrt(frob2(a))) <= 1e-8

    def test_exact_rank_capture(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((7, 3)) @ rng.standard_normal((3, 30))
        sk = non_oblivious_rp(a, params(k=3))
        z = sk.operator_matrix()
        assert np.linalg.norm(a - sk.a_tilde @ z.T) <= 1e-6 * np.linalg.norm(a)

    def test_operator_orthonormal(self):
        sk = non_oblivious_rp(wide_matrix(5), params())
        z = sk.operator_matrix()
        assert np.max(np.abs(z.T @ z - np.eye(z.shape[1]))) <= 1e-8


class TestLeverageResidual:
    def test_identity_probs_uniform(self):
        sk = leverage_residual_sample(np.eye(4), params(k=2, m_override=10))
        assert np.allclose(sk.operator.probs, [0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_diag_211_probs(self):
        # top singular direction e1 carries all leverage at k=1; the
        # residual diag(0,1,1) splits its mass over the last two columns
        sk = leverage_residual_sample(np.diag([2.0, 1.0, 1.0]), params(k=1, m_override=10))
        assert np.allclose(sk.operator.probs, [0.5, 0.25, 0.25], atol=1e-12)

    def test_probs_sum_to_one(self):
        for seed in range(100):
            sk = leverage_residual_sample(wide_matrix(seed, n=5, d=12), params(m_override=6))
            assert abs(sk.operator.probs.sum() - 1.0) <= 1e-12
            assert np.all(sk.operator.probs >= 0.0)

    def test_zero_probability_never_sampled(self):
        a = np.diag([2.0, 1.0, 1.0]).copy()
        a = np.hstack([a, np.zeros((3, 1))])  # dead column, p = 0
        sk = leverage_residual_sample(a, params(k=1, m_override=5000))
        assert sk.operator.probs[3] == 0.0
        assert not np.any(sk.operator.indices == 3)

    def test_weights_match_pattern(self):
        sk = leverage_residual_sample(wide_matrix(8), params(m_override=50))
        pat = sk.operator
        assert np.allclose(pat.weights, 1.0 / np.sqrt(pat.m * pat.probs[pat.indices]))

    def test_rank_deficient_falls_back_to_pure_leverage(self):
        a = np.outer([1.0, 1.0], [1.0, 2.0, 2.0])
        sk = leverage_residual_sample(a, params(k=2, m_override=10))
        # rank 1 < k: probabilities proportional to squared column entries
        col2 = (a**2).sum(axis=0)
        assert np.allclose(sk.operator.probs, col2 / col2.sum(), atol=1e-12)

    @pytest.mark.parametrize("rank", [None, 1, 2, 0])
    def test_probs_match_head_tail_formula(self, rank):
        # generic, rank < k, rank = k and zero inputs at k = 2, against the
        # formula on A's own rank-k split
        rng = np.random.default_rng(30)
        a = rng.standard_normal((6, 25))
        if rank is not None:
            a = rng.standard_normal((6, rank)) @ rng.standard_normal((rank, 25))
        k = 2
        probs = leverage_residual_sample(a, params(k=k, m_override=10)).operator.probs
        fact = svd(a)
        split = head_tail_split(fact, a, k)
        if fact.rank > k:
            res2 = np.sum(split.tail**2, axis=0)
            expected = np.sum(split.v_r**2, axis=1) / (2 * k) + res2 / (2 * res2.sum())
        elif fact.rank > 0:
            expected = np.sum(split.v_r**2, axis=1)
        else:
            expected = np.ones(25)
        expected /= expected.sum()
        assert np.allclose(probs, expected, rtol=1e-12, atol=0.0)


class TestRidgeScores:
    def test_identity(self):
        rs = ridge_scores(np.eye(4), 2)
        assert rs.lam == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rs.tau, 0.5, atol=1e-12)
        assert rs.sum_tau == pytest.approx(2.0, abs=1e-12)

    def test_diag_21(self):
        rs = ridge_scores(np.diag([2.0, 1.0]), 1)
        assert rs.lam == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rs.tau, [0.8, 0.5], atol=1e-12)
        assert rs.sum_tau == pytest.approx(1.3, abs=1e-12)

    def test_sum_matches_gram_oracle(self):
        a = np.random.default_rng(6).standard_normal((6, 8))
        k = 2
        rs = ridge_scores(a, k)
        sigma2 = np.sort(gram_eigenvalues(a))[::-1]
        sigma2 = sigma2[sigma2 > 1e-12 * sigma2.max()]
        lam = sigma2[k:].sum() / k
        assert rs.lam == pytest.approx(lam, rel=1e-10)
        assert rs.sum_tau == pytest.approx((sigma2 / (sigma2 + lam)).sum(), abs=1e-8)

    def test_zero_ridge_is_plain_leverage(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 9))
        rs = ridge_scores(a, 2)  # rank <= k so lam = 0
        assert rs.lam == 0.0
        f = svd(a)
        assert np.allclose(rs.tau, (f.v**2).sum(axis=1), atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_bounds(self, seed, k):
        rs = ridge_scores(wide_matrix(seed, n=5, d=11), k)
        assert np.all(rs.tau >= -1e-12)
        assert np.all(rs.tau <= 1.0 + 1e-12)
        assert rs.sum_tau <= 2 * k + 1e-8


class TestRidgeLeverageSample:
    def test_identity_uniform(self):
        sk = ridge_leverage_sample(np.eye(4), params(k=2, m_override=9))
        assert np.allclose(sk.operator.probs, 0.25, atol=1e-12)

    def test_overestimate_scaling(self):
        a = wide_matrix(9, n=5, d=12)
        tau = ridge_scores(a, 2).tau
        sk1 = ridge_leverage_sample(a, params())
        sk2 = ridge_leverage_sample(a, params(), tau_over=2.0 * tau)
        assert np.allclose(sk1.operator.probs, sk2.operator.probs, atol=1e-15)
        assert sk2.m in (2 * sk1.m - 1, 2 * sk1.m)

    def test_rejects_underestimate(self):
        a = wide_matrix(10, n=5, d=12)
        tau = ridge_scores(a, 2).tau
        bad = tau.copy()
        bad[int(np.argmax(tau))] *= 0.5
        with pytest.raises(InvalidOverestimateError):
            ridge_leverage_sample(a, params(), tau_over=bad)

    def test_multinomial_frequencies(self):
        # columns drawn i.i.d. from probs: observed frequency within 5%
        a = np.diag([4.0, 3.0, 2.0, 2.0])
        t = 10_000
        sk = ridge_leverage_sample(a, params(k=1, m_override=t, seed=3))
        probs = sk.operator.probs
        counts = np.bincount(sk.operator.indices, minlength=4)
        assert np.all(probs >= 0.1)  # frequencies are comparable on this instance
        assert np.max(np.abs(counts / t - probs) / probs) <= 0.05


class TestSvdSketch:
    def test_diag_example(self):
        sk = svd_sketch(np.diag([3.0, 2.0, 1.0]), params(k=1))
        assert sk.m == 2
        assert np.allclose(np.abs(sk.a_tilde), [[3.0, 0.0], [0.0, 2.0], [0.0, 0.0]], atol=1e-10)
        assert sk.c_const == pytest.approx(1.0, abs=1e-10)

    def test_lossless_at_full_rank(self):
        a = wide_matrix(11, n=4, d=20)
        sk = svd_sketch(a, params(k=4, eps=0.9, m_override=4))
        assert sk.c_const <= 1e-10 * frob2(a)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_energy_split(self, seed, k):
        a = wide_matrix(seed, n=5, d=13)
        sk = svd_sketch(a, params(k=k, eps=0.37))
        assert frob2(sk.a_tilde) + sk.c_const == pytest.approx(frob2(a), rel=1e-10)


class TestDispatchAndDeterminism:
    def test_all_methods_deterministic(self):
        a = wide_matrix(12)
        for method in METHODS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                s1 = make_sketch(a, method, params(seed=77))
                s2 = make_sketch(a, method, params(seed=77))
            assert np.array_equal(s1.a_tilde, s2.a_tilde), method
            assert np.array_equal(s1.operator_matrix(), s2.operator_matrix()), method
            assert s1.c_const == s2.c_const, method

    def test_seed_changes_randomized_output(self):
        a = wide_matrix(13)
        for method in ("gaussian", "nonoblivious", "leverage", "ridge"):
            s1 = make_sketch(a, method, params(seed=1))
            s2 = make_sketch(a, method, dataclasses.replace(params(seed=1), seed=2))
            assert not np.array_equal(s1.a_tilde, s2.a_tilde), method

    def test_methods_use_distinct_streams(self):
        # equal seeds must not replay the same variates across methods
        from pcpsketch.rng import Stream, rng_for

        draws = {
            stream: rng_for(5, stream).standard_normal(64)
            for stream in (Stream.GAUSSIAN_SKETCH, Stream.NON_OBLIVIOUS, Stream.HAAR)
        }
        keys = list(draws)
        for i, x in enumerate(keys):
            for y in keys[i + 1 :]:
                assert not np.allclose(draws[x], draws[y])

    def test_unknown_method(self):
        with pytest.raises(UnsupportedFamilyError):
            make_sketch(np.eye(3), "countsketch", params())


class TestSamplingPatternInvariants:
    def test_thousand_inputs(self):
        checked = 0
        for seed in range(500):
            a = wide_matrix(seed, n=4, d=9)
            for ctor, kw in (
                (leverage_residual_sample, {}),
                (ridge_leverage_sample, {}),
            ):
                sk = ctor(a, params(m_override=7, seed=seed), **kw)
                pat = sk.operator
                assert abs(pat.probs.sum() - 1.0) <= 1e-12
                assert np.all(pat.probs >= 0.0)
                assert pat.indices.shape == (pat.m,)
                assert np.allclose(
                    pat.weights, 1.0 / np.sqrt(pat.m * pat.probs[pat.indices])
                )
                assert np.allclose(a @ sk.operator_matrix(), sk.a_tilde, atol=1e-12)
                checked += 1
        assert checked == 1000


class TestSamplingPatternValidation:
    # patterns over 3 input columns; index -1 used to wrap silently to
    # column 2, so certify scored a different operator than the one given
    @pytest.mark.parametrize(
        "indices, weights, probs",
        [
            ([0, -1], [1.0, 1.0], [0.5, 0.25, 0.25]),
            ([0, 5], [1.0, 1.0], [0.5, 0.25, 0.25]),
            ([0, 1], [1.0, np.nan], [0.5, 0.25, 0.25]),
            ([0, 1], [1.0, np.inf], [0.5, 0.25, 0.25]),
            ([0, 1], [1.0, 1.0], [0.5, np.nan, 0.25]),
        ],
    )
    def test_rejects_out_of_range_indices_and_non_finite_values(self, indices, weights, probs):
        with pytest.raises(InvalidInputError):
            SamplingPattern(np.array(indices), np.array(weights), np.array(probs))


class TestIndicesFromUniforms:
    def test_matches_loop_reference(self):
        # zero-probability columns at the start, in the middle and after the
        # last positive column; uniforms on every CDF boundary and around it
        probs = np.array([0.0, 0.0, 0.25, 0.0, 0.0, 0.125, 0.375, 0.0, 0.25, 0.0, 0.0])
        cum = np.cumsum(probs)
        rng = np.random.default_rng(0)
        u = np.concatenate([[0.0, 1.0], cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0), rng.random(200)])
        got = _indices_from_uniforms(probs, u)
        assert got.dtype == np.int64
        assert np.array_equal(got, indices_from_uniforms_loop(probs, u))
        assert np.all(probs[got] > 0.0)


class TestOperatorApply:
    def test_sampling_pattern_apply_equals_dense_product(self):
        a = wide_matrix(20, n=5, d=30)
        for ctor in (leverage_residual_sample, ridge_leverage_sample):
            sk = ctor(a, params(m_override=17))
            x = np.random.default_rng(21).standard_normal((9, 30))
            assert sk.operator.shape == (30, 17)
            assert np.allclose(x @ sk.operator, x @ sk.operator_matrix(), rtol=1e-14, atol=1e-14)

    def test_every_method_applies_its_operator(self):
        a = wide_matrix(22, n=5, d=30)
        x = np.random.default_rng(23).standard_normal((4, 30))
        for method in METHODS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WidthNotReducingWarning)
                sk = make_sketch(a, method, params(m_override=12))
            dense = sk.operator_matrix()
            assert sk.operator.shape == dense.shape, method
            assert np.allclose(x @ sk.operator, x @ dense, atol=1e-12), method
            assert np.allclose(a @ sk.operator, sk.a_tilde, atol=1e-12), method


class TestFactoredInput:
    def test_instance_and_array_give_identical_sketches(self):
        a = wide_matrix(24, n=6, d=40)
        for method in METHODS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WidthNotReducingWarning)
                s1 = make_sketch(a, method, params(seed=5))
                s2 = make_sketch(factor(a), method, params(seed=5))
            assert np.array_equal(s1.a_tilde, s2.a_tilde), method
            assert s1.c_const == s2.c_const, method

    @pytest.mark.parametrize("ctor", [svd_sketch, non_oblivious_rp])
    def test_zero_matrix_one_column_zero_sketch(self, ctor):
        sk = ctor(np.zeros((6, 20)), params())
        assert sk.m == 1
        assert sk.a_tilde.shape == (6, 1) and not sk.a_tilde.any()
        assert sk.operator_matrix().shape == (20, 1)
        assert sk.c_const == 0.0


class TestFactorSketch:
    """``_factor_sketch`` reads the sketch's SVD off A's and G; it agrees with
    ``svd`` of the sketch itself for every method on wide, tall, zero and
    rank <= k inputs, and on a noise floor far below its rank cut."""

    def inputs(self):
        rng = np.random.default_rng(60)
        yield "wide", rng.standard_normal((6, 40))
        yield "tall", rng.standard_normal((30, 8))
        yield "zero", np.zeros((5, 12))
        yield "rank<=k", rng.standard_normal((8, 2)) @ rng.standard_normal((2, 30))

    @staticmethod
    def factors(a, method, **kw):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WidthNotReducingWarning)
            sk = make_sketch(a, method, params(k=3, **kw))
        return sk, _factor_sketch(factor(a), sk).fact, svd(sk.a_tilde)

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_svd_of_the_sketch(self, method):
        for name, a in self.inputs():
            sk, got, want = self.factors(a, method, m_override=10)
            scale = want.sigma[0] if want.rank else 1.0
            assert got.rank == want.rank, name
            assert np.abs(got.sigma - want.sigma).max(initial=0.0) <= 1e-12 * scale, name
            # top-j projectors wherever the spectrum has a gap to resolve them
            gaps = want.sigma - np.append(want.sigma[1:], 0.0)
            for j in np.flatnonzero(gaps >= 1e-6 * scale) + 1:
                p_got, p_want = got.u[:, :j] @ got.u[:, :j].T, want.u[:, :j] @ want.u[:, :j].T
                assert np.abs(p_got - p_want).max() <= 1e-8, (name, j)
            assert got.v is None
            core = got.u * got.sigma
            assert np.abs(core @ core.T - sk.a_tilde @ sk.a_tilde.T).max() <= 1e-10 * scale**2, name

    @pytest.mark.parametrize("method", METHODS)
    def test_keeps_a_noise_floor_at_1e_6(self, method):
        # sigma_j ~ 1e-6 sigma_1 past the rank: lambda ~ 1e-12 lambda_1, well
        # above what the eigensolve resolves, so every direction is kept
        a = gen_synthetic(GeneratorSpec("lowrank", n=30, d=80, rank=3, noise=1e-6, seed=0))
        _, got, want = self.factors(a, method)
        assert got.rank == want.rank
        assert want.sigma[-1] <= 1e-5 * want.sigma[0]
        assert np.abs(got.sigma**2 - want.sigma**2).max() <= 1e-13 * want.sigma[0] ** 2

    def test_reads_the_gram_certify_formed(self, monkeypatch):
        a = factor(wide_matrix(61))
        sk = make_sketch(a, "leverage", params(m_override=10))
        calls = []
        real = SamplingPattern.__rmatmul__
        monkeypatch.setattr(SamplingPattern, "__rmatmul__", lambda *ar: calls.append(1) or real(*ar))
        certify(a, sk.operator, 2, 0.5)
        g = a.gram(sk.operator)
        assert _factor_sketch(a, sk).fact.rank == 6
        assert a.gram(sk.operator) is g
        assert len(calls) == 1
        # kept for the operator object it was formed for, not for equal values
        assert a.gram(dataclasses.replace(sk.operator)) is not g
        assert len(calls) == 2
