"""Column sketches that preserve projection costs.

Every construction maps an n x d matrix A to a narrower A_tilde = A S by
drawing or computing an operator S with d rows, together with the additive
constant c that enters the cost comparison |A_tilde - P A_tilde|_F^2 + c.
Dense random projections, the non-oblivious variant, two importance
samplers, the deterministic SVD compression, and a square orthogonal
rotation (useful as a lossless control) are provided; `make_sketch`
dispatches on the method tag.  An operator is a dense d x m array or, for
the samplers, a ``SamplingPattern``; either one applies as ``x @ S``.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidOverestimateError,
    InvalidRankError,
    UnsupportedFamilyError,
    WidthNotReducingWarning,
    _check_count,
)
from .linalg import _gram_svd, factor, frob2, orthonormal_columns, svd
from .rng import Stream, rng_for

__all__ = [
    "SketchParams",
    "SamplingPattern",
    "Sketch",
    "RidgeScores",
    "METHODS",
    "DEFAULT_CONST",
    "gaussian_sketch",
    "orthogonal_sketch",
    "non_oblivious_rp",
    "leverage_residual_sample",
    "ridge_scores",
    "ridge_leverage_sample",
    "svd_sketch",
    "make_sketch",
]

# Calibrated width constants per method; overridable through SketchParams.
DEFAULT_CONST = {
    "gaussian": 8.0,
    "nonoblivious": 4.0,
    "leverage": 16.0,
    "ridge": 16.0,
}


@dataclass(frozen=True)
class SketchParams:
    """Shared knobs for every construction.

    ``const_c`` of None picks the per-method default; ``m_override`` forces
    the sketch width (number of columns drawn) regardless of the formula.
    ``k`` and ``m_override`` are Python or NumPy integers, bool excluded;
    ``const_c`` is finite and positive.
    """

    k: int
    eps: float
    delta: float = 0.1
    const_c: float | None = None
    seed: int = 0
    m_override: int | None = None

    def __post_init__(self):
        _check_count(self.k, "k", error=InvalidRankError)
        # eps**2 divides the widths, so it must not underflow to zero
        if not (0.0 < self.eps < 1.0 and self.eps**2 > 0.0):
            raise InvalidInputError(f"eps must be in (0, 1) with a nonzero square, got {self.eps}")
        if not 0.0 < self.delta < 1.0:
            raise InvalidInputError(f"delta must be in (0, 1), got {self.delta}")
        if self.const_c is not None and not 0.0 < self.const_c < math.inf:
            raise InvalidInputError(f"const_c must be finite and positive, got {self.const_c}")
        if self.m_override is not None:
            _check_count(self.m_override, "m_override")

    def const_for(self, method: str) -> float:
        if self.const_c is not None:
            return float(self.const_c)
        return DEFAULT_CONST[method]


@dataclass(frozen=True)
class SamplingPattern:
    """Columns drawn i.i.d. with replacement, with their rescaling weights.

    ``indices[j]`` is the source column of sketch column j, scaled by
    ``weights[j] = 1 / sqrt(m * probs[indices[j]])``; ``probs`` is the full
    sampling distribution over the d input columns.  The pattern is the
    d x m selection-and-rescale operator S: ``x @ pattern`` gathers x's
    columns and rescales them, without forming S.
    """

    indices: np.ndarray
    weights: np.ndarray
    probs: np.ndarray

    # numpy defers ``x @ pattern`` to ``__rmatmul__``
    __array_ufunc__ = None

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        w = np.asarray(self.weights, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if idx.ndim != 1 or w.shape != idx.shape or p.ndim != 1:
            raise InvalidInputError("malformed sampling pattern")
        if ((idx < 0) | (idx >= p.shape[0])).any():
            raise InvalidInputError(f"sampling indices must lie in range({p.shape[0]})")
        if not (np.isfinite(w).all() and np.isfinite(p).all()):
            raise InvalidInputError("sampling weights and probabilities must be finite")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "probs", p)
        for arr in (idx, w, p):
            arr.setflags(write=False)

    @property
    def m(self) -> int:
        return int(self.indices.shape[0])

    @property
    def shape(self) -> tuple:
        return (self.probs.shape[0], self.m)

    def __rmatmul__(self, x) -> np.ndarray:
        return np.asarray(x)[:, self.indices] * self.weights


@dataclass(frozen=True)
class Sketch:
    """A column sketch A_tilde = A S plus everything needed to audit it."""

    a_tilde: np.ndarray
    operator: np.ndarray | SamplingPattern
    c_const: float
    method: str
    params: SketchParams
    m: int

    def operator_matrix(self) -> np.ndarray:
        """The operator as a dense d x m matrix; a sampling pattern becomes
        its selection-and-rescale matrix."""
        op = self.operator
        if isinstance(op, SamplingPattern):
            s = np.zeros(op.shape)
            s[op.indices, np.arange(op.m)] = op.weights
            return s
        return np.asarray(op)


@dataclass(frozen=True)
class RidgeScores:
    """Ridge leverage scores of the columns, with the regularizer used."""

    tau: np.ndarray
    lam: float
    sum_tau: float


def _ln_floored(x: float) -> float:
    # widths must never vanish for easy (k, delta)
    return max(math.log(x), 1.0)


def _width(x: float) -> int:
    """A width formula's value rounded up; inf (delta or eps near 0) is an error."""
    if not math.isfinite(x):
        raise InvalidInputError(f"sketch width overflows: {x}")
    return math.ceil(x)


_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _warn_if_not_reducing(m: int, d: int, method: str) -> None:
    """Warn when the sketch is no narrower than A, naming the first caller
    outside this package (whichever public entry point was called)."""
    if m >= d:
        frame, level = sys._getframe(1), 2
        while frame is not None and os.path.abspath(frame.f_code.co_filename).startswith(_PACKAGE_DIR):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"{method} sketch width {m} does not reduce input width {d}",
            WidthNotReducingWarning,
            stacklevel=level,
        )


def _finish(a, s, method: str, params: SketchParams) -> Sketch:
    """The sketch A_tilde = A S of operator ``s``, m = its column count,
    kept on ``a`` as ``a.product(s)``.

    Warns when m does not reduce A's width.  The additive constant is 0,
    except for "svd", where it is the mass A_tilde leaves out,
    max(|A|_F^2 - |A_tilde|_F^2, 0).
    """
    a_tilde = a.product(s)
    m = s.shape[1]
    _warn_if_not_reducing(m, a.shape[1], method)
    c_const = max(a.frob2 - frob2(a_tilde), 0.0) if method == "svd" else 0.0
    return Sketch(a_tilde, s, c_const, method, params, m)


def gaussian_width(params: SketchParams) -> int:
    c = params.const_for("gaussian")
    return _width(c * (params.k + math.log(1.0 / params.delta)) / params.eps**2)


def gaussian_sketch(a, params: SketchParams) -> Sketch:
    """Dense Gaussian sketch: S has i.i.d. N(0, 1/m) entries.

    Width m = ceil(const * (k + ln(1/delta)) / eps^2) unless overridden;
    the additive constant is zero.
    """
    a = factor(a)
    m = params.m_override if params.m_override is not None else gaussian_width(params)
    rng = rng_for(params.seed, Stream.GAUSSIAN_SKETCH)
    return _finish(a, rng.standard_normal((a.shape[1], m)) / math.sqrt(m), "gaussian", params)


def orthogonal_sketch(a, params: SketchParams) -> Sketch:
    """Square seeded orthogonal rotation; lossless, for control experiments."""
    a = factor(a)
    d = a.shape[1]
    s = orthonormal_columns(rng_for(params.seed, Stream.ORTHOGONAL_SKETCH).standard_normal((d, d)))
    return _finish(a, s, "orthogonal", params)


def non_oblivious_rp(a, params: SketchParams) -> Sketch:
    """Project rows through a Gaussian map, then re-express A in that row space.

    Pi is an m' x n Gaussian with m' = ceil(const * k / eps); the operator is
    an orthonormal basis Z of the row space of Pi A and the sketch is A Z, so
    the final width is rank(Pi A) <= m'.  A zero matrix gets the one-column
    zero sketch.  Pi A is factored through its smaller Gram (``_gram_svd``)
    unless n < min(m', d): then its rank, at most n, falls short of that
    Gram's order, which fails the Gram route's condition-number guard, and
    it goes straight to ``svd``.
    """
    a = factor(a)
    n, d = a.shape
    c = params.const_for("nonoblivious")
    m_pi = params.m_override if params.m_override is not None else _width(c * params.k / params.eps)
    rng = rng_for(params.seed, Stream.NON_OBLIVIOUS)
    pi_a = rng.standard_normal((m_pi, n)) @ a.a
    z = (svd(pi_a) if n < min(pi_a.shape) else _gram_svd(pi_a)).v
    if z.shape[1] == 0:
        z = np.zeros((d, 1))
    else:
        # read off a Gram, Z is orthonormal only to about eps * kappa(Pi A)^2;
        # one Cholesky QR step, Z L^-T with L L^T = Z^T Z, brings it to rounding
        z = z @ np.linalg.inv(np.linalg.cholesky(z.T @ z)).T
    return _finish(a, z, "nonoblivious", params)


def _indices_from_uniforms(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF lookup: boundary hits go to the lowest positive-probability
    interval, and zero-probability columns are never selected.

    The first index whose cumulative mass reaches u has positive mass,
    except index 0 at u = 0 and the slot past the end (when rounding leaves
    the total below u); clipping to the first and last positive columns
    covers both.
    """
    positive = np.flatnonzero(probs > 0.0)
    return np.clip(np.searchsorted(np.cumsum(probs), u, side="left"), positive[0], positive[-1])


def _sample(a, probs: np.ndarray, m: int, stream: Stream, method: str, params: SketchParams) -> Sketch:
    """The sketch of m columns drawn i.i.d. from ``probs`` on the stream
    ``(params.seed, stream)``, each rescaled by 1 / sqrt(m p_i)."""
    if probs.shape[0] < 2:
        raise InvalidInputError("column sampling needs at least 2 columns")
    idx = _indices_from_uniforms(probs, rng_for(params.seed, stream).random(m))
    return _finish(a, SamplingPattern(idx, 1.0 / np.sqrt(m * probs[idx]), probs), method, params)


def leverage_width(params: SketchParams) -> int:
    c = params.const_for("leverage")
    return _width(c * params.k * _ln_floored(params.k / params.delta) / params.eps**2)


def leverage_residual_sample(a, params: SketchParams) -> Sketch:
    """Columns sampled by mixed rank-k leverage and residual mass.

    p_i = |(V_k)_i|^2 / (2k) + |(A - A_k)_{:,i}|^2 / (2 |A - A_k|_F^2);
    with a zero residual the probabilities fall back to pure leverage.
    Both terms are read off the SVD: the residual mass of column i is
    sum_{j>k} sigma_j^2 V_ij^2.  Draws are i.i.d. with replacement,
    rescaled by 1 / sqrt(m p_i).
    """
    a = factor(a)
    k = params.k
    fact = a.fact
    v2 = fact.v * fact.v
    lev = np.sum(v2[:, :k], axis=1)
    if fact.rank > k:
        res2 = v2[:, k:] @ (fact.sigma[k:] * fact.sigma[k:])
        probs = lev / (2.0 * k) + res2 / (2.0 * float(np.sum(res2)))
    elif fact.rank > 0:
        probs = lev
    else:
        probs = np.ones(a.shape[1])
    probs = probs / probs.sum()
    m = params.m_override if params.m_override is not None else leverage_width(params)
    return _sample(a, probs, m, Stream.LEVERAGE_SAMPLE, "leverage", params)


def ridge_scores(a, k: int) -> RidgeScores:
    """Ridge leverage scores at the rank-k regularizer lam = |A - A_k|_F^2 / k.

    tau_i = sum_j (sigma_j^2 / (sigma_j^2 + lam)) V_ij^2, computed in the SVD
    basis; at lam = 0 (rank <= k) this is the plain column leverage.  The
    spectral sum sum_j sigma_j^2 / (sigma_j^2 + lam) never exceeds 2k.
    """
    a = factor(a)
    _check_count(k, "k", error=InvalidRankError)
    fact = a.fact
    sigma2 = fact.sigma * fact.sigma
    tail2 = float(np.sum(sigma2[k:]))
    lam = tail2 / k
    if fact.rank == 0:
        return RidgeScores(np.zeros(a.shape[1]), 0.0, 0.0)
    w = sigma2 / (sigma2 + lam) if lam > 0.0 else np.ones(fact.rank)
    tau = (fact.v * fact.v) @ w
    return RidgeScores(tau, lam, float(np.sum(w)))


def ridge_width(params: SketchParams, sum_tau: float) -> int:
    c = params.const_for("ridge")
    return _width(c * _ln_floored(params.k / params.delta) / params.eps**2 * sum_tau)


def ridge_leverage_sample(a, params: SketchParams, tau_over=None) -> Sketch:
    """Columns sampled proportionally to (overestimated) ridge leverage scores.

    ``tau_over``, when given, must dominate the true scores entrywise; the
    draw count scales linearly with its sum.
    """
    a = factor(a)
    d = a.shape[1]
    scores = ridge_scores(a, params.k)
    if tau_over is not None:
        tau_over = np.asarray(tau_over, dtype=float)
        if tau_over.shape != (d,):
            raise InvalidInputError(f"tau_over must have shape ({d},)")
        if not np.isfinite(tau_over).all() or (tau_over < 0).any():
            raise InvalidInputError("tau_over must be finite and nonnegative")
        if (tau_over < scores.tau - 1e-10).any():
            raise InvalidOverestimateError("tau_over falls below the true ridge scores")
        tau = tau_over
    else:
        tau = scores.tau
    total = float(np.sum(tau))
    if total <= 0.0:
        probs = np.ones(d) / d
        total = float(d)
    else:
        probs = tau / total
    m = params.m_override if params.m_override is not None else ridge_width(params, total)
    return _sample(a, probs, m, Stream.RIDGE_SAMPLE, "ridge", params)


def svd_sketch(a, params: SketchParams) -> Sketch:
    """Deterministic compression onto the top right singular directions.

    With m = ceil(k / eps) (capped at the rank), A_tilde = A V_m = U_m S_m and
    the additive constant is the discarded mass |A - A_m|_F^2, so
    |A_tilde|_F^2 + c = |A|_F^2 holds exactly.  Only the m columns V_m of
    the right factor are formed (``SvdFactorization.v_head``).  A zero
    matrix (rank 0) gets the one-column zero sketch with c = 0.
    """
    a = factor(a)
    m_req = params.m_override if params.m_override is not None else _width(params.k / params.eps)
    v_m = np.array(a.fact.v_head(m_req)) if a.fact.rank else np.zeros((a.shape[1], 1))
    return _finish(a, v_m, "svd", params)


_CONSTRUCTORS = {
    "gaussian": gaussian_sketch,
    "orthogonal": orthogonal_sketch,
    "nonoblivious": non_oblivious_rp,
    "leverage": leverage_residual_sample,
    "ridge": ridge_leverage_sample,
    "svd": svd_sketch,
}

METHODS = tuple(sorted(_CONSTRUCTORS))


def make_sketch(a, method: str, params: SketchParams) -> Sketch:
    """Build a sketch of ``a`` (an array or a ``Factored`` instance) by method tag."""
    try:
        ctor = _CONSTRUCTORS[method]
    except KeyError:
        raise UnsupportedFamilyError(
            f"unknown sketch method {method!r}; choose from {METHODS}"
        ) from None
    return ctor(factor(a), params)

