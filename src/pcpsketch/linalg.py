"""Dense linear-algebra kernel.

Matrices are plain 2-D float64 numpy arrays (row-major), or ``Factored``
instances that keep one with its SVD; this module owns the instance and
the SVD with relative-rank truncation, the tail index used by the
spectral certificate, projection costs, and seeded random subspaces.
A sketch operator S, a dense array or a ``SamplingPattern``, is only ever
applied as ``x @ S``, so nothing here depends on ``sketch``.
Everything here is deterministic for fixed inputs within a build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InvalidInputError,
    InvalidMatrixError,
    InvalidRankError,
)
from .rng import Stream, rng_for

__all__ = [
    "Factored",
    "SvdFactorization",
    "Projection",
    "as_matrix",
    "factor",
    "frob2",
    "svd",
    "tail_index_p",
    "projection_cost",
    "haar_subspace",
    "orthonormal_columns",
]

# singular values at or below RANK_TOL * sigma_1 count as zero
RANK_TOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a 2-D float64 array with finite entries.

    A ``Factored`` instance was validated when it was made; its array is
    returned as it is.
    """
    if isinstance(a, Factored):
        return a.a
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise InvalidMatrixError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidMatrixError(f"{name} must have positive dimensions, got {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidMatrixError(f"{name} contains non-finite entries")
    return a


def frob2(a) -> float:
    """Squared Frobenius norm."""
    a = np.asarray(a, dtype=float)
    return float(np.sum(a * a))


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SvdFactorization:
    """Truncated thin SVD: ``u @ diag(sigma) @ v.T`` reconstructs the input.

    ``sigma`` holds the strictly positive singular values, non-increasing;
    columns beyond ``rank`` were dropped by the relative truncation rule
    ``sigma_i > RANK_TOL * sigma_1``.  ``v`` is None where only the left
    factors were formed (a sketch's, read off A's).
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray | None
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "u", _readonly(self.u))
        object.__setattr__(self, "sigma", _readonly(self.sigma))
        if self.v is not None:
            object.__setattr__(self, "v", _readonly(self.v))


@dataclass(frozen=True)
class Projection:
    """Orthogonal projection onto the span of ``basis`` (orthonormal columns).

    The matrix never materializes as n x n; costs use the basis directly.
    A zero-column basis is the rank-0 projection.
    """

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2:
            raise InvalidMatrixError("projection basis must be 2-D")
        if not np.isfinite(basis).all():
            raise InvalidMatrixError("projection basis contains non-finite entries")
        if basis.shape[1] > 0:
            gram = basis.T @ basis
            if np.max(np.abs(gram - np.eye(basis.shape[1]))) > 1e-8:
                raise InvalidMatrixError("projection basis columns are not orthonormal")
        object.__setattr__(self, "basis", _readonly(basis))

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


def svd(a) -> SvdFactorization:
    """Thin SVD truncated at relative tolerance ``RANK_TOL``.

    Parameters
    ----------
    a : array_like, shape (n, d)
        Input matrix; all entries finite.  Singular values
        ``sigma_i <= RANK_TOL * sigma_1`` are treated as zero.

    Returns
    -------
    SvdFactorization
        Factors with exactly ``rank`` columns / entries kept.

    A wide matrix (n < d) is factored through its transpose,
    ``A^T = V Sigma U^T``, with the factors swapped: LAPACK's path for tall
    inputs is the faster one, and the singular values are the same.
    """
    a = as_matrix(a)
    if a.shape[0] < a.shape[1]:
        v, s, ut = np.linalg.svd(a.T, full_matrices=False)
        u = ut.T
    else:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        v = vt.T
    if s.size == 0 or s[0] <= 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > RANK_TOL * s[0]))
    return SvdFactorization(u[:, :rank], s[:rank], v[:, :rank], rank)


class Factored:
    """A validated n x d matrix with its SVD, core and squared Frobenius norm.

    Each of ``fact`` (its ``svd``), ``core`` and ``frob2`` is computed on
    first use and kept, so a matrix that passes through sketching, both
    certificates, the probes and a solve is factored at most once.  The array must not change afterwards.

    Every quantity of A that depends only on A A^T (costs |A - PA|_F^2
    of left projections P, distances between rows) is the same on the
    core ``B = A V = U Sigma``, which is n x r for rank r, as on A; the
    certificates need only ``sigma`` and how an operator S acts on the
    row space, ``V^T S``, through its Gram ``gram(S)``.  A zero matrix has
    the n x 1 zero core, so that it stays a matrix.  Make instances with
    ``factor``, which validates the array, or ``from_factors``.
    """

    def __init__(self, a: np.ndarray):
        self.a = a
        self._fact: SvdFactorization | None = None
        self._frob2: float | None = None
        self._core: np.ndarray | None = None
        self._gram: tuple | None = None

    @classmethod
    def from_factors(cls, a: np.ndarray, fact: SvdFactorization) -> Factored:
        """An instance of a validated array whose SVD ``fact`` is known."""
        out = cls(a)
        out._fact = fact
        return out

    @property
    def shape(self) -> tuple:
        return self.a.shape

    @property
    def fact(self) -> SvdFactorization:
        if self._fact is None:
            self._fact = svd(self.a)
        return self._fact

    @property
    def frob2(self) -> float:
        if self._frob2 is None:
            self._frob2 = frob2(self.a)
        return self._frob2

    @property
    def core(self) -> np.ndarray:
        if self._core is None:
            f = self.fact
            self._core = f.u * f.sigma if f.rank else np.zeros((self.shape[0], 1))
        return self._core

    def gram(self, s) -> np.ndarray:
        """G = (V^T S)(V^T S)^T for a sketch operator S, kept for the last S
        it was formed for, which must not change afterwards."""
        if self._gram is None or self._gram[0] is not s:
            w = self.fact.v.T @ s
            self._gram = (s, w @ w.T)
        return self._gram[1]


def factor(a, name: str = "matrix") -> Factored:
    """``a`` as a ``Factored`` instance, validated once; instances pass through."""
    if isinstance(a, Factored):
        return a
    return Factored(as_matrix(a, name))


def tail_index_p(fact: SvdFactorization, k: int) -> int:
    """Largest index p with ``sigma_p^2 >= |A - A_k|_F^2 / k`` (ties included).

    Returns ``rank`` when the rank-k residual is exactly zero.  Whenever the
    residual is nonzero, p <= 2k.
    """
    if k < 1:
        raise InvalidRankError(f"k must be >= 1, got {k}")
    sigma2 = fact.sigma * fact.sigma
    tail2 = float(np.sum(sigma2[k:]))
    if tail2 <= 0.0:
        return fact.rank
    return int(np.sum(sigma2 >= tail2 / k))


def projection_cost(a, p: Projection) -> float:
    """Squared Frobenius distance from ``a`` to its projection, ``|a - P a|_F^2``.

    Computed as ``|a|_F^2 - |Q^T a|_F^2`` (Pythagoras), clamped at zero.
    """
    a = factor(a)
    q = p.basis
    if q.shape[0] != a.shape[0]:
        raise DimensionError(f"projection on {q.shape[0]} rows, matrix has {a.shape[0]}")
    cost = a.frob2 - frob2(q.T @ a.a)
    return max(cost, 0.0)


def orthonormal_columns(g) -> np.ndarray:
    """Orthonormalize the columns of ``g`` by Householder QR.

    The signs of ``diag(R)`` are moved into Q, which makes the factorization
    unique, so a standard-normal ``g`` gives a Haar-distributed basis
    (Mezzadri, arXiv:math-ph/0609050).  Numerically dependent columns
    (``|R_jj|`` at or below 1e-12 * sqrt(n)) are an error.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2:
        raise InvalidMatrixError("need a tall 2-D array to orthonormalize")
    return _orthonormal_stack(g[None])[0]


def _orthonormal_stack(g: np.ndarray) -> np.ndarray:
    """``orthonormal_columns`` of each matrix of a (count, n, j) stack, in one
    stacked ``np.linalg.qr``, which runs LAPACK on each matrix as a single
    call would, so each basis is bit for bit the one that matrix gets alone."""
    g = np.asarray(g, dtype=float)
    if g.shape[-1] > g.shape[-2]:
        raise InvalidMatrixError("need a tall 2-D array to orthonormalize")
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=1, axis2=2)
    if (np.abs(diag) <= 1e-12 * np.sqrt(g.shape[1])).any():
        raise InvalidInputError("columns are numerically dependent")
    return q * np.sign(diag)[:, None, :]


def _haar_bases(n: int, k: int, count: int, rng) -> np.ndarray:
    """(count, n, k) stack of Haar bases from one standard-normal draw of
    ``rng``, orthonormalized together: basis i comes from the i-th n x k
    block of the stream, so it is the same in any longer stack."""
    return _orthonormal_stack(rng.standard_normal((count, n, k)))


def haar_subspace(n: int, k: int, seed: int = 0) -> Projection:
    """Rank-``k`` projection onto a Haar-random subspace of R^n.

    The basis is the sign-corrected QR orthonormalization of an n x k
    standard-normal draw (``orthonormal_columns``); deterministic per seed.
    """
    if not 1 <= k <= n:
        raise InvalidRankError(f"need 1 <= k <= n, got k={k}, n={n}")
    return Projection(_haar_bases(n, k, 1, rng_for(seed, Stream.HAAR))[0])
