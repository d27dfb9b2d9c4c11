"""Sufficient-condition certificates and the spectral error functional.

``certify`` checks an operator S against two sufficient conditions for the
cost-preservation guarantee at a given (k, eps): one through
matrix-approximation conditions on the rank-k head and tail (subspace
embedding, approximate matrix multiplication, Frobenius mass), one through
a regularized spectral sandwich on A A^T.  Certificates never have false
positives up to floating point; they may be conservative.

An operator S is a dense d x m array or a ``SamplingPattern``; either one
applies as ``x @ S``.  Every measured value depends on A only through
A A^T and on S only through how S acts on A's row space, so with
A = U Sigma V^T of rank r ``certify`` reads each one off the singular
values sigma and the r x r Gram G = (V^T S)(V^T S)^T, formed once and kept
on A (``Factored.gram``).
With tau_q = sum_{j>=q} sigma_j^2 and t the tail indices j >= k:
se_err = |G[:k, :k] - I|_2, amm_tail_tail = |Sigma_t (G_tt - I) Sigma_t|_F / tau_k,
amm_tail_vk = |Sigma_t G[k:, :k]|_F / sqrt(tau_k k), and the Frobenius tails
|sum_{j>=q} sigma_j^2 (G_jj - 1)| / tau_q at q = k and q = p.
``spectral_approx_error`` is the sandwich error on its own, from the same
sigma and G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInputError, InvalidRankError, ZeroMatrixError, _check_count
from .linalg import as_matrix, factor, tail_index_p
from .rng import Stream, rng_for
from .sketch import SamplingPattern

__all__ = [
    "Certificate",
    "JlMomentEstimate",
    "HOLDS_TOL",
    "spectral_approx_error",
    "certify",
    "jl_moment_estimate",
]

# slack added to every threshold comparison, absorbing float rounding only
HOLDS_TOL = 1e-12
# float64 entries per chunk of JL trial rows (64 KB: one buffer, reused for
# every chunk, that stays in cache and below malloc's mmap threshold)
_JL_CHUNK_ENTRIES = 1 << 13


@dataclass(frozen=True)
class Certificate:
    """Outcome of a sufficient-condition check.

    ``theorem`` is the wire-format route tag ("T1" matrix-approximation,
    "T2" spectral).  ``holds`` is true iff every measured value named in
    ``thresholds`` is at most its threshold plus ``HOLDS_TOL``; extra
    entries in ``measured`` (like the regularizer used) are informational.
    """

    theorem: str
    measured: dict
    thresholds: dict
    holds: bool


@dataclass(frozen=True)
class JlMomentEstimate:
    """Monte-Carlo estimate of E |x^T S|_2^2 - 1|^ell for a unit vector x."""

    ell: int
    trials: int
    estimate: float
    stderr: float


def _check_operator(m, s):
    if not isinstance(s, SamplingPattern):
        s = as_matrix(s, "operator")
    if s.shape[0] != m.shape[1]:
        raise DimensionError(f"operator has {s.shape[0]} rows, matrix has {m.shape[1]} columns")
    return s


def spectral_approx_error(a, s, lam: float) -> float:
    """Smallest eps' >= 0 with (1-eps') A A^T - lam I <= A S S^T A^T <= (1+eps') A A^T + lam I.

    The sandwich binds only on the column space of A, where it reduces to
    two symmetric eigenproblems in the SVD basis; solved exactly.
    """
    a = factor(a)
    s = _check_operator(a, s)
    if lam < 0.0 or not math.isfinite(lam):
        raise InvalidInputError(f"lam must be finite and >= 0, got {lam}")
    fact = a.fact
    if fact.rank == 0:
        raise ZeroMatrixError("spectral approximation error undefined for the zero matrix")
    return _sandwich_error(fact.sigma, a.gram(s), lam)


def _embedding_error(g: np.ndarray) -> float:
    """|G - I|_2 by a symmetric eigensolve."""
    return float(np.max(np.abs(np.linalg.eigvalsh(g - np.eye(g.shape[0])))))


def _sandwich_error(sigma: np.ndarray, g: np.ndarray, lam: float) -> float:
    """``spectral_approx_error`` from sigma and G: two eigenproblems on the column space."""
    # D = U^T (A S S^T A^T - A A^T) U restricted to the column space
    d_r = sigma[:, None] * g * sigma[None, :]
    np.fill_diagonal(d_r, np.diagonal(d_r) - sigma * sigma)
    scale = np.outer(sigma, sigma)
    lam_eye = lam * np.eye(sigma.shape[0])
    hi = float(np.max(np.linalg.eigvalsh((d_r - lam_eye) / scale)))
    lo = float(np.max(np.linalg.eigvalsh((-d_r - lam_eye) / scale)))
    return max(0.0, hi, lo)


def _frob_tail_error(sigma2: np.ndarray, g: np.ndarray, q: int) -> float:
    """Relative loss of squared Frobenius mass of the rank-q tail under S,
    | |A - A_q|_F^2 - |(A - A_q) S|_F^2 | / |A - A_q|_F^2, from sigma^2 and G."""
    tail2 = sigma2[q:]
    return abs(float(tail2 @ (np.diagonal(g)[q:] - 1.0))) / float(np.sum(tail2))


def _holds(measured: dict, thresholds: dict) -> bool:
    return all(measured[name] <= thresholds[name] + HOLDS_TOL for name in thresholds)


def certify(a, s, k: int, eps: float) -> tuple[Certificate, Certificate]:
    """Both sufficient-condition certificates of the operator S at (k, eps),
    read off A's singular values and one G: (T1, T2).

    T1, the matrix-approximation route, bounds the subspace embedding error
    on the rank-k head, two product errors involving the tail, and the tail
    Frobenius preservation; if all four fall under their budgets (eps/3,
    eps/(6 sqrt k) twice, eps/6), then A S preserves every rank-<=k
    projection cost within relative eps with a zero additive constant.

    T2, the regularized spectral route, uses the regularizer
    lam = eps |A - A_k|_F^2 / (24 k) and the tail index p (largest index
    whose squared singular value reaches the mean tail mass
    |A - A_k|_F^2 / k).  It requires the spectral sandwich within eps/24 and
    Frobenius preservation of the rank-p tail within
    (eps/12) |A - A_k|_F^2 / |A - A_p|_F^2; the p-tail condition is vacuous
    when that tail is zero.
    """
    a = factor(a)
    s = _check_operator(a, s)
    _check_count(k, "k", error=InvalidRankError)
    if not 0.0 < eps < 1.0:
        raise InvalidInputError(f"eps must be in (0, 1), got {eps}")
    g = a.gram(s)
    return _matrix_approx(a.fact, g, k, eps), _spectral(a.fact, g, k, eps)


def _matrix_approx(fact, g, k: int, eps: float) -> Certificate:
    # a tail that is structurally zero (rank <= k) passes every tail check
    se = amm_tt = amm_tv = frob_t = 0.0
    if fact.rank > 0:
        head = min(k, fact.rank)
        se = _embedding_error(g[:head, :head])
        if fact.rank > k:
            sigma_t = fact.sigma[k:, None]
            sigma2 = fact.sigma * fact.sigma
            tail2 = float(np.sum(sigma2[k:]))
            g_tt = g[k:, k:] - np.eye(fact.rank - k)
            amm_tt = float(np.linalg.norm(sigma_t * g_tt * sigma_t.T)) / tail2
            amm_tv = float(np.linalg.norm(sigma_t * g[k:, :k])) / math.sqrt(tail2 * k)
            frob_t = _frob_tail_error(sigma2, g, k)
    measured = {
        "se_err": se,
        "amm_tail_tail": amm_tt,
        "amm_tail_vk": amm_tv,
        "frob_tail": frob_t,
    }
    cross_budget = eps / (6.0 * math.sqrt(k))
    thresholds = {
        "se_err": eps / 3.0,
        "amm_tail_tail": cross_budget,
        "amm_tail_vk": cross_budget,
        "frob_tail": eps / 6.0,
    }
    return Certificate("T1", measured, thresholds, _holds(measured, thresholds))


def _spectral(fact, g, k: int, eps: float) -> Certificate:
    sigma2 = fact.sigma * fact.sigma
    tail2_k = float(np.sum(sigma2[k:]))
    lam = eps * tail2_k / (24.0 * k)
    p = tail_index_p(fact, k)
    spectral = frob_tp = 0.0
    frob_budget = math.inf
    if fact.rank > 0:
        spectral = _sandwich_error(fact.sigma, g, lam)
        if fact.rank > p:
            frob_tp = _frob_tail_error(sigma2, g, p)
            frob_budget = (eps / 12.0) * tail2_k / float(np.sum(sigma2[p:]))
    measured = {
        "spectral_eps": spectral,
        "frob_tail_p": frob_tp,
        "lambda_used": lam,
        "p_used": float(p),
    }
    thresholds = {
        "spectral_eps": eps / 24.0,
        "frob_tail_p": frob_budget,
    }
    return Certificate("T2", measured, thresholds, _holds(measured, thresholds))


def jl_moment_estimate(d: int, m: int, ell: int, trials: int, seed: int = 0) -> JlMomentEstimate:
    """Monte-Carlo estimate of the ell-th moment E | |x^T S|_2^2 - 1 |^ell
    for the d x m gaussian sketch S, entries N(0, 1/m).

    The gaussian family is rotation invariant, so the fixed probe x = e_1
    is fully general, and x = e_1 touches only the first row of S.  Trial
    t's row is row t of one (trials, m) standard-normal draw from the
    stream ``(seed, Stream.JL_TRIAL)``, so trial t of seed s reproduces
    bit for bit inside any longer run with the same seed.  The
    rows are drawn and squared in place, a chunk of about 64 KB at a time,
    in one buffer: no allocation per chunk, whatever the trial count.
    d, m, ell and trials are integers of at least 1, 1, 2 and 100.
    """
    _check_count(d, "d")
    _check_count(m, "m")
    ell = _check_count(ell, "ell", minimum=2)
    _check_count(trials, "trials", minimum=100)
    rng = rng_for(seed, Stream.JL_TRIAL)
    chunk = max(1, min(trials, _JL_CHUNK_ENTRIES // m))
    buf = np.empty((chunk, m))
    norms = np.empty(trials)  # |x^T S|_2^2 of each trial
    for start in range(0, trials, chunk):
        rows = buf[: min(chunk, trials - start)]
        rng.standard_normal(out=rows)
        rows /= math.sqrt(m)
        rows *= rows
        rows.sum(axis=1, out=norms[start : start + len(rows)])
    vals = np.abs(norms - 1.0) ** ell
    estimate = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(trials))
    return JlMomentEstimate(ell, trials, estimate, stderr)
