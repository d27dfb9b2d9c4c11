"""Downstream solvers run on a matrix or its sketch.

k-means (seeded Lloyd and an exhaustive brute-force oracle for small n),
the partition tables the exhaustive search scores, and best rank-k
projections.  The sketch-and-solve driver, which runs these on a sketch
and checks the transfer bound, is ``audit.sketch_and_solve``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidRankError, TooLargeError
from .linalg import Projection, as_matrix, factor, frob2
from .rng import Stream, rng_for

__all__ = [
    "Clustering",
    "best_rank_k_projection",
    "cluster_indicator_projection",
    "kmeans_cost",
    "lloyd_kmeans",
    "partitions",
    "partition_costs",
    "exhaustive_kmeans",
]

MAX_EXHAUSTIVE_ROWS = 12


@dataclass(frozen=True)
class Clustering:
    """Row clustering with its k-means objective value."""

    assignment: np.ndarray
    k: int
    cost: float

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        if a.ndim != 1 or a.size == 0:
            raise InvalidInputError("assignment must be a nonempty 1-D array")
        if a.min() < 0 or a.max() >= self.k:
            raise InvalidInputError("cluster labels out of range")
        object.__setattr__(self, "assignment", a)
        a.setflags(write=False)


def best_rank_k_projection(m, k: int) -> Projection:
    """Projection onto the top-k left singular subspace of ``m`` (an array,
    or a ``Factored`` instance whose SVD is reused)."""
    m = factor(m)
    if k < 1:
        raise InvalidRankError(f"k must be >= 1, got {k}")
    fact = m.fact
    return Projection(fact.u[:, : min(k, fact.rank)])


def cluster_indicator_projection(assignment, k: int, n: int) -> Projection:
    """Normalized cluster-indicator projection for a row clustering.

    One column per nonempty cluster, constant 1/sqrt(|C_j|) on its members;
    empty clusters are dropped, so the rank can fall below k.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (n,):
        raise InvalidInputError(f"assignment must have shape ({n},)")
    if k < 1:
        raise InvalidRankError(f"k must be >= 1, got {k}")
    if assignment.min() < 0 or assignment.max() >= k:
        raise InvalidInputError("cluster labels out of range")
    basis = _indicators(assignment, k)
    return Projection(basis[:, basis.any(axis=0)])


def _indicators(labels: np.ndarray, k: int) -> np.ndarray:
    """Normalized cluster indicators of a (..., n) label array, shape
    (..., n, k): column j is 1/sqrt(|C_j|) on the members of cluster j,
    and zero when the cluster is empty."""
    onehot = labels[..., :, None] == np.arange(k)
    return onehot / np.sqrt(np.maximum(onehot.sum(axis=-2), 1))[..., None, :]


def kmeans_cost(m, assignment) -> float:
    """Sum of squared distances of rows to their cluster means."""
    m = as_matrix(m)
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (m.shape[0],):
        raise InvalidInputError("assignment length must match row count")
    cost = 0.0
    for j in np.unique(assignment):
        rows = m[assignment == j]
        cost += frob2(rows - rows.mean(axis=0))
    return cost


def _plusplus_init(m: np.ndarray, k: int, rng) -> np.ndarray:
    n = m.shape[0]
    centers = np.empty((k, m.shape[1]))
    first = int(rng.integers(n))
    centers[0] = m[first]
    d2 = np.sum((m - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            choice = int(rng.integers(n))
        else:
            # the steps of rng.choice(n, p=d2 / total), without its checks
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            choice = int(cdf.searchsorted(rng.random(), side="right"))
        centers[j] = m[choice]
        d2 = np.minimum(d2, np.sum((m - centers[j]) ** 2, axis=1))
    return centers


def lloyd_kmeans(m, k: int, iters: int = 50, seed: int = 0) -> Clustering:
    """Lloyd's algorithm with k-means++ seeding; deterministic per seed.

    Empty clusters are reseeded with the point farthest from its current
    center, so the objective never increases across iterations.  One run
    of ``_lloyd_assignments`` on the stream ``(seed, Stream.LLOYD)``.
    """
    m = as_matrix(m)
    assignment = _lloyd_assignments(m, k, rng_for(seed, Stream.LLOYD), 1, iters)[0]
    return Clustering(assignment, k, kmeans_cost(m, assignment))


def _lloyd_assignments(m: np.ndarray, k: int, rng, runs: int, iters: int) -> np.ndarray:
    """Final assignments of ``runs`` Lloyd runs on the rows of ``m``, as a
    (runs, n) array; the runs go through each iteration together.

    The runs draw their k-means++ centers from the one generator ``rng``,
    run 0 first, so run r is the single run started from that stream after
    r draws of centers; each stops when its assignment stops changing.  An
    iteration is two matrix products per run, stacked over the runs still
    going: squared distances ``max(|x|^2 - 2 x c^T + |c|^2, 0)``, with the
    row norms computed once, and the cluster sums (indicators times rows) for the new centers.  A
    stacked product runs the same BLAS call on each run as a single run
    would, so every run's assignment is bit for bit its own alone.
    """
    n = m.shape[0]
    if k < 1:
        raise InvalidRankError(f"k must be >= 1, got {k}")
    if n < k:
        raise InvalidInputError(f"need at least k={k} rows, got {n}")
    if iters < 1:
        raise InvalidInputError(f"iters must be >= 1, got {iters}")
    centers = np.stack([_plusplus_init(m, k, rng) for _ in range(runs)])
    assignment = np.zeros((runs, n), dtype=np.int64)
    going = np.arange(runs)
    minus_2m = -2.0 * m
    row_norm2 = (m * m).sum(axis=1)[:, None]
    labels = np.arange(k)
    for _ in range(iters):
        c = centers[going]
        d2 = minus_2m @ c.transpose(0, 2, 1)
        d2 += row_norm2
        d2 += (c * c).sum(axis=2)[:, None, :]
        np.maximum(d2, 0.0, out=d2)
        new_assignment = np.argmin(d2, axis=2)
        member = new_assignment[:, None, :] == labels[:, None]
        for i in np.flatnonzero(~member.any(axis=2).all(axis=1)).tolist():
            point_d2 = d2[i, np.arange(n), new_assignment[i]]
            for j in range(k):
                if not (new_assignment[i] == j).any():
                    far = int(np.argmax(point_d2))
                    new_assignment[i, far] = j
                    point_d2[far] = 0.0
            member[i] = new_assignment[i] == labels[:, None]
        unchanged = (new_assignment == assignment[going]).all(axis=1)
        assignment[going] = new_assignment
        counts = member.sum(axis=2)
        sums = member.astype(float) @ m
        filled = counts > 0
        centers[going] = np.where(filled[:, :, None], sums / np.maximum(counts, 1)[:, :, None], c)
        going = going[~unchanged]
        if not going.size:
            break
    return assignment


def partitions(n: int, max_blocks: int) -> np.ndarray:
    """All partitions of range(n) into at most ``max_blocks`` nonempty blocks.

    One int8 row per partition, a restricted growth string (first label 0,
    each label at most one above the largest before it), in lexicographic
    order.  Capped at n <= 12 rows (Bell(12) is about 4.2 million).
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if max_blocks < 1:
        raise InvalidInputError(f"max_blocks must be >= 1, got {max_blocks}")
    if n > MAX_EXHAUSTIVE_ROWS:
        raise TooLargeError(f"exhaustive search capped at {MAX_EXHAUSTIVE_ROWS} rows, got {n}")
    max_blocks = min(max_blocks, n)
    labels = np.zeros((1, 1), dtype=np.int8)
    for _ in range(1, n):
        # row r extends by each label 0 .. min(max(row r) + 1, max_blocks - 1), in order
        fanout = np.minimum(labels.max(axis=1) + 2, max_blocks)
        parent = np.repeat(np.arange(len(labels), dtype=np.int32), fanout)
        first = np.repeat(np.cumsum(fanout, dtype=np.int32) - fanout, fanout)
        # column-major, so that each column is one contiguous array
        grown = np.empty((parent.size, labels.shape[1] + 1), dtype=np.int8, order="F")
        for i in range(labels.shape[1]):
            grown[:, i] = labels[parent, i]
        grown[:, -1] = np.arange(parent.size, dtype=np.int32) - first
        labels = grown
    return labels


def partition_costs(m, labels) -> np.ndarray:
    """k-means cost of ``m``'s rows under each row of ``labels``.

    A clustering into blocks T_j costs |M|_F^2 - sum_j q[T_j] / |T_j|, where
    q[T] sums the Gram matrix M M^T over T x T, tabulated once for all 2^n
    row subsets (n <= 12).  Equals ``projection_cost`` of the clustering's
    ``cluster_indicator_projection`` up to rounding, clamped at zero alike.
    """
    m = as_matrix(m)
    labels = np.asarray(labels)
    n = m.shape[0]
    if labels.ndim != 2 or labels.shape[1] != n or (labels.size and labels.min() < 0):
        raise InvalidInputError(f"labels must be a nonnegative (count, {n}) table")
    if n > MAX_EXHAUSTIVE_ROWS:
        raise TooLargeError(f"exhaustive search capped at {MAX_EXHAUSTIVE_ROWS} rows, got {n}")
    member = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    q = np.sum((member @ (m @ m.T)) * member, axis=1)
    explained_by = q / np.maximum(member.sum(axis=1), 1.0)  # q = 0 for the empty block
    explained = np.zeros(labels.shape[0])
    for j in range(int(labels.max(initial=-1)) + 1):
        # bitmask of block j, one column at a time: no (count, n) temporaries
        mask = np.zeros(labels.shape[0], dtype=np.int16)
        for i in range(n):
            mask |= (labels[:, i] == j).astype(np.int16) << i
        explained += explained_by[mask]
    return np.maximum(frob2(m) - explained, 0.0)


def exhaustive_kmeans(m, k: int) -> Clustering:
    """Globally optimal k-means over all partitions into at most k clusters.

    Capped at n <= 12 rows; cost ties (within 1e-12 * (|M|_F^2 + 1)) keep
    the lexicographically smallest assignment.
    """
    return _exhaustive_search(m, k)[0]


def _exhaustive_search(m, k: int) -> tuple:
    """``exhaustive_kmeans`` with the partition table it searched and the
    cost of each row: (clustering, labels, costs)."""
    m = as_matrix(m)
    if k < 1:
        raise InvalidRankError(f"k must be >= 1, got {k}")
    labels = partitions(m.shape[0], k)
    costs = partition_costs(m, labels)
    tied = costs <= costs.min() + 1e-12 * (frob2(m) + 1.0)
    assignment = labels[int(np.argmax(tied))].astype(np.int64)
    return Clustering(assignment, k, kmeans_cost(m, assignment)), labels, costs

