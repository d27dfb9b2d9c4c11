"""Dense linear-algebra kernel.

Matrices are plain 2-D float64 numpy arrays (row-major), or ``Factored``
instances that keep one with its SVD; this module owns the instance and
the SVD with relative-rank truncation, the tail index used by the
spectral certificate, projection costs and orthonormal bases.
An instance's SVD is read off one eigh of its smaller Gram matrix when
the condition number allows it, else taken from LAPACK's SVD
(``_gram_svd``); either way each singular pair has one fixed sign.
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
    "orthonormal_columns",
]

# singular values at or below RANK_TOL * sigma_1 count as zero
RANK_TOL = 1e-10
# largest sigma_1 / sigma_min that ``_gram_svd`` factors through the Gram
_GRAM_KAPPA = 1e4


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


class SvdFactorization:
    """Truncated thin SVD: ``u @ diag(sigma) @ v.T`` reconstructs the input.

    ``sigma`` holds the strictly positive singular values, non-increasing;
    columns beyond ``rank`` were dropped by the relative truncation rule
    ``sigma_i > RANK_TOL * sigma_1``.  Either ``v`` or the input ``a`` is
    given.  Given ``a`` in place of ``v``, the right factor
    ``V = A^T U Sigma^-1`` is formed on first read of ``v`` and kept, and
    ``v_head(m)`` forms its first m columns alone (``_gram_svd`` of a wide
    matrix).  The arrays are read-only.
    """

    __slots__ = ("u", "sigma", "rank", "_v", "_a")

    def __init__(self, u, sigma, v, rank: int, a: np.ndarray | None = None):
        self.u = _readonly(u)
        self.sigma = _readonly(sigma)
        self.rank = rank
        self._v = None if v is None else _readonly(v)
        self._a = a

    @property
    def v(self) -> np.ndarray:
        if self._v is None:
            self._v = _right_factor(self._a, self.u, self.sigma)
        return self._v

    def v_head(self, m: int) -> np.ndarray:
        """The first ``m`` columns of ``v``: read off it once formed, else
        ``A^T U_m Sigma_m^-1``, at m / rank of the full product's cost."""
        if self._v is None:
            return _right_factor(self._a, self.u[:, :m], self.sigma[:m])
        return self.v[:, :m]


def _right_factor(a: np.ndarray, u: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``A^T U Sigma^-1``, the right singular vectors that go with the left
    ones ``u``, as a new read-only array."""
    v = a.T @ u
    v /= sigma
    v.setflags(write=False)
    return v


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
    inputs is the faster one, and the singular values are the same.  The
    sign of each singular pair is fixed as ``_signed`` says.
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
    return _signed(u[:, :rank], s[:rank], v[:, :rank])


def _signed(u: np.ndarray, sigma: np.ndarray, v: np.ndarray | None, a=None) -> SvdFactorization:
    """The factorization with each singular pair's sign fixed: the entry of
    largest magnitude in every column of ``u`` (the first, on a tie) is
    positive.  Singular vectors are defined only up to that sign, and
    LAPACK's SVD and eigensolver choose it differently.  With ``v`` None
    and the input ``a`` given, V is left to be formed from the signed U."""
    sign = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    return SvdFactorization(u * sign, sigma, None if v is None else v * sign, sigma.size, a)


def _eigh_desc(gram: np.ndarray, floor: float) -> tuple:
    """Eigenpairs of a symmetric positive semi-definite Gram matrix, largest
    first, and the count of eigenvalues above ``floor * lambda_1`` (0 for a
    zero matrix): the ones taken as resolved."""
    lam, q = np.linalg.eigh(gram)  # ascending
    lam, q = lam[::-1], q[:, ::-1]
    return lam, q, int(np.sum(lam > floor * lam.max(initial=0.0)))


def _gram_svd(a: np.ndarray) -> SvdFactorization:
    """``svd(a)`` read off an eigendecomposition of the smaller Gram matrix
    when that is accurate.

    A wide ``a`` has ``A A^T = U Sigma^2 U^T``, so ``V = A^T U Sigma^-1``,
    which is left to be formed when it is read (``SvdFactorization.v``); a
    tall one has ``A^T A = V Sigma^2 V^T`` and ``U = A V Sigma^-1``.  That
    costs one product and one min(n, d)-square eigh, and on a tall ``a`` one
    more product, against LAPACK's SVD of the whole matrix.  The Gram squares the
    condition number, so the eigenvalues' rounding, about eps * lambda_1,
    costs sigma_i a relative error near eps * kappa_i^2 and the recovered
    vectors their orthogonality with it.  The Gram result is therefore taken
    only when every eigenvalue is above ``_GRAM_KAPPA**-2 * lambda_1``;
    anything closer to singular (an exactly low-rank or zero matrix, a
    steeply decaying spectrum) goes to ``svd``.  Both routes return the
    singular pairs with the signs of ``_signed``.
    """
    wide = a.shape[0] <= a.shape[1]
    lam, q, rank = _eigh_desc(a @ a.T if wide else a.T @ a, _GRAM_KAPPA**-2)
    if rank < lam.size:
        return svd(a)
    sigma = np.sqrt(lam)
    if wide:
        return _signed(q, sigma, None, a)
    return _signed(a @ q / sigma, sigma, q)


class Factored:
    """A validated n x d matrix with its SVD, core and squared Frobenius norm.

    Each of ``fact``, ``core`` and ``frob2`` is computed on first use and
    kept, so a matrix that passes through sketching, both certificates, the
    probes and a solve is factored at most once.  ``fact`` is what ``svd``
    returns, to rounding and with the same signs, but read off an eigh of
    the smaller Gram matrix unless sigma_1 / sigma_min exceeds about 1e4
    (``_gram_svd``); on that route for a wide A, the d x r right factor V
    is formed only if a caller reads ``fact.v``.  The array must not change
    afterwards.

    Every quantity of A that depends only on A A^T (costs |A - PA|_F^2
    of left projections P, distances between rows) is the same on the
    core ``B = A V = U Sigma``, which is n x r for rank r, as on A; the
    certificates need only ``sigma`` and how an operator S acts on the
    row space, ``V^T S``, through its Gram ``gram(S)``.  The sketch
    ``A S`` is ``product(S)``, kept for the last S, so that ``gram`` can
    read ``V^T S`` off it without V.  A zero matrix has
    the n x 1 zero core, so that it stays a matrix.  Make instances with
    ``factor``, which validates the array.
    """

    def __init__(self, a: np.ndarray):
        self.a = a
        self._fact: SvdFactorization | None = None
        self._frob2: float | None = None
        self._core: np.ndarray | None = None
        self._gram: tuple | None = None
        self._product: tuple | None = None

    @property
    def shape(self) -> tuple:
        return self.a.shape

    @property
    def fact(self) -> SvdFactorization:
        if self._fact is None:
            self._fact = _gram_svd(self.a)
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

    def product(self, s) -> np.ndarray:
        """A S for a sketch operator S, kept for the last S it was formed
        for, which must not change afterwards."""
        if self._product is None or self._product[0] is not s:
            self._product = (s, self.a @ s)
        return self._product[1]

    def gram(self, s) -> np.ndarray:
        """G = (V^T S)(V^T S)^T for a sketch operator S, kept for the last S
        it was formed for, which must not change afterwards.

        ``V^T S`` is that product when V is formed; otherwise it is
        ``Sigma^-1 U^T (A S)``, from ``product(S)``.  V is left unformed on
        the Gram route of a wide A, where r = n, so that costs r n m
        against d n r + r d m for forming V first."""
        if self._gram is None or self._gram[0] is not s:
            f = self.fact
            if f._v is None:
                w = (f.u.T @ self.product(s)) / f.sigma[:, None]
            else:
                w = f.v.T @ s
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
    if g.ndim != 2 or g.shape[1] > g.shape[0]:
        raise InvalidMatrixError("need a tall 2-D array to orthonormalize")
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    if (np.abs(diag) <= 1e-12 * np.sqrt(g.shape[0])).any():
        raise InvalidInputError("columns are numerically dependent")
    return q * np.sign(diag)
