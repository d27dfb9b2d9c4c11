"""Downstream solvers run on a matrix or its sketch.

k-means (seeded Lloyd and an exhaustive brute-force oracle for small n),
the partition tables the exhaustive search scores, and best rank-k
projections.  The sketch-and-solve driver, which runs these on a sketch
and checks the transfer bound, is ``audit.sketch_and_solve``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidRankError, TooLargeError, _check_count
from .linalg import Projection, factor, frob2
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
        a = np.asarray(self.assignment)
        if a.ndim != 1 or a.size == 0:
            raise InvalidInputError("assignment must be a nonempty 1-D array")
        _require_integer(a)
        a = a.astype(np.int64, copy=False)
        if a.min() < 0 or a.max() >= self.k:
            raise InvalidInputError("cluster labels out of range")
        object.__setattr__(self, "assignment", a)
        a.setflags(write=False)


def best_rank_k_projection(m, k: int) -> Projection:
    """Projection onto the top-k left singular subspace of ``m`` (an array,
    or a ``Factored`` instance whose SVD is reused)."""
    m = factor(m)
    _check_count(k, "k", error=InvalidRankError)
    fact = m.fact
    return Projection(fact.u[:, : min(k, fact.rank)])


def cluster_indicator_projection(assignment, k: int, n: int) -> Projection:
    """Normalized cluster-indicator projection for a row clustering.

    One column per nonempty cluster, constant 1/sqrt(|C_j|) on its members;
    empty clusters are dropped, so the rank can fall below k.
    """
    assignment = np.asarray(assignment)
    _check_count(n, "n")
    if assignment.shape != (n,):
        raise InvalidInputError(f"assignment must have shape ({n},)")
    _require_integer(assignment)
    _check_count(k, "k", error=InvalidRankError)
    if assignment.min() < 0 or assignment.max() >= k:
        raise InvalidInputError("cluster labels out of range")
    onehot = assignment[:, None] == np.arange(k)
    onehot = onehot[:, onehot.any(axis=0)]
    return Projection(onehot / np.sqrt(onehot.sum(axis=0)))


def _require_integer(labels: np.ndarray) -> None:
    """Reject cluster labels of a non-integer dtype (bool included), which
    a cast would silently truncate."""
    if not np.issubdtype(labels.dtype, np.integer):
        raise InvalidInputError(f"cluster labels must be integers, got dtype {labels.dtype}")


def kmeans_cost(m, assignment) -> float:
    """Sum of squared distances of rows to their cluster means."""
    m = factor(m).a
    assignment = np.asarray(assignment)
    if assignment.shape != (m.shape[0],):
        raise InvalidInputError("assignment length must match row count")
    _require_integer(assignment)
    cost = 0.0
    # the labels in use, ascending; np.unique would import numpy.ma (~13 ms) on first use
    ordered = np.sort(assignment)
    for j in ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]:
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
        choice = int(rng.integers(n)) if not 0.0 < total < np.inf else int(rng.choice(n, p=d2 / total))
        centers[j] = m[choice]
        d2 = np.minimum(d2, np.sum((m - centers[j]) ** 2, axis=1))
    return centers


def lloyd_kmeans(m, k: int, iters: int = 50, seed: int = 0) -> Clustering:
    """Lloyd's algorithm with k-means++ seeding; deterministic per seed.

    The centers are drawn from the stream ``(seed, Stream.LLOYD)``, each
    uniformly when the squared distances to the centers so far sum to zero
    or overflow, else by ``rng.choice`` weighted by those distances.  An
    iteration is two matrix products: squared distances
    ``max(|x|^2 - 2 x c^T + |c|^2, 0)``, with the row norms computed once,
    and the cluster sums (indicators times rows) for the new centers.
    Empty clusters are reseeded with the point farthest from its current
    center, so the objective never increases across iterations; the run
    stops when the assignment stops changing.
    """
    m = factor(m).a
    n = m.shape[0]
    if n < _check_count(k, "k", error=InvalidRankError):
        raise InvalidInputError(f"need at least k={k} rows, got {n}")
    _check_count(iters, "iters")
    centers = _plusplus_init(m, k, rng_for(seed, Stream.LLOYD))
    assignment = np.zeros(n, dtype=np.int64)
    minus_2m = -2.0 * m
    row_norm2 = (m * m).sum(axis=1)[:, None]
    labels = np.arange(k)[:, None]
    for _ in range(iters):
        d2 = minus_2m @ centers.T
        d2 += row_norm2
        d2 += (centers * centers).sum(axis=1)
        np.maximum(d2, 0.0, out=d2)
        new_assignment = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(n), new_assignment]
        for j in range(k):
            if not (new_assignment == j).any():
                far = int(np.argmax(point_d2))
                new_assignment[far] = j
                point_d2[far] = 0.0
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        member = assignment == labels
        counts = member.sum(axis=1)
        sums = member.astype(float) @ m
        centers = np.where((counts > 0)[:, None], sums / np.maximum(counts, 1)[:, None], centers)
    return Clustering(assignment, k, kmeans_cost(m, assignment))


def partitions(n: int, max_blocks: int) -> np.ndarray:
    """All partitions of range(n) into at most ``max_blocks`` nonempty blocks.

    One int8 row per partition, a restricted growth string (first label 0,
    each label at most one above the largest before it), in lexicographic
    order: the rows of ``_partition_masks`` as labels, assembled from the
    same pieces with each head and tail decoded once.  Capped at n <= 12
    rows (Bell(12) is about 4.2 million).
    """
    split, heads, tails, spans = _partition_parts(n, max_blocks)
    head_labels = _mask_labels(heads, range(split))
    tail_labels = [_mask_labels(tail, range(split, n)) for tail in tails]
    labels = np.empty((spans[-1][2].stop, n), dtype=np.int8, order="F")
    for head, top, rows in spans:
        labels[rows, :split] = head_labels[head]
        labels[rows, split:] = tail_labels[top]
    return labels


def _partition_masks(n: int, max_blocks: int) -> np.ndarray:
    """Every partition of range(n) into at most ``max_blocks`` blocks as a
    table of block bitmasks: int16, one column per block (bit i set when
    row i is in the block, 0 for an unused block), the rows in the order of
    ``partitions``.  Each head's rows are its tail table OR its own masks,
    written in place."""
    _, heads, tails, spans = _partition_parts(n, max_blocks)
    masks = np.empty((spans[-1][2].stop, heads.shape[1]), dtype=np.int16, order="F")
    for head, top, rows in spans:
        np.bitwise_or(tails[top], heads[head], out=masks[rows])
    return masks


def _partition_parts(n: int, max_blocks: int) -> tuple:
    """The pieces the partition tables are assembled from.

    A partition is a head, the labels of the positions below
    split = ceil(n / 3), followed by a tail; the tails that can follow a
    head depend only on the head's largest label.  So the heads and one
    tail table per reachable largest label are enumerated once, as block
    masks (``_tail_masks``).  Returns (split, heads, tails, spans), where
    spans lists for each head in order its index, its largest label and
    its slice of the table's rows.
    """
    _check_count(n, "n")
    _check_count(max_blocks, "max_blocks")
    if n > MAX_EXHAUSTIVE_ROWS:
        raise TooLargeError(f"exhaustive search capped at {MAX_EXHAUSTIVE_ROWS} rows, got {n}")
    width = min(max_blocks, n)
    split = (n + 2) // 3
    tails = _tail_masks(n, width, split)
    heads = _tail_masks(split, width, 1)[0]
    heads[:, 0] |= 1  # row 0 is in block 0
    spans, start = [], 0
    for head, top in enumerate((np.count_nonzero(heads, axis=1) - 1).tolist()):
        spans.append((head, top, slice(start, start + len(tails[top]))))
        start += len(tails[top])
    return split, heads, tails, spans


def _tail_masks(n: int, width: int, start: int) -> list:
    """Block masks of every labelling of positions start..n-1 that can
    follow a prefix whose largest label is t, for each reachable t
    (t < min(start, width)): entry t is a (count, width) int16 table in
    lexicographic order.

    Built from the last position down.  The tails at a position with
    largest label t so far are, for each label x <= min(t + 1, width - 1)
    in turn, the tails at the next position under max(t, x) with the
    position's bit set in block x.
    """
    tails = [np.zeros((1, width), dtype=np.int16, order="F")] * width
    for pos in range(n - 1, start - 1, -1):
        grown = []
        for t in range(min(pos, width)):
            parts = [tails[max(t, x)] for x in range(min(t + 2, width))]
            table = np.empty((sum(map(len, parts)), width), dtype=np.int16, order="F")
            np.concatenate(parts, out=table)
            row = 0
            for x, part in enumerate(parts):
                table[row : row + len(part), x] |= 1 << pos
                row += len(part)
            grown.append(table)
        tails = grown
    return tails


def _mask_labels(masks: np.ndarray, positions: range) -> np.ndarray:
    """The int8 labels of the given positions under each row of a
    block-mask table: position i takes the label of the block whose mask
    has bit i."""
    labels = np.zeros((len(masks), len(positions)), dtype=np.int8, order="F")
    for j in range(1, masks.shape[1]):
        for column, i in enumerate(positions):
            labels[:, column] += ((masks[:, j] >> i) & 1).astype(np.int8) * np.int8(j)
    return labels


def partition_costs(m, labels) -> np.ndarray:
    """k-means cost of ``m``'s rows under each row of ``labels``, an integer
    (count, n) table of cluster labels.

    Each row's blocks are turned into bitmasks and scored by ``_mask_costs``
    (|M|_F^2 - sum_j q[T_j] / |T_j|).  Equals ``projection_cost`` of the
    clustering's ``cluster_indicator_projection`` up to rounding, clamped
    at zero alike.
    """
    m = factor(m).a
    labels = np.asarray(labels)
    n = m.shape[0]
    _require_integer(labels)
    if labels.ndim != 2 or labels.shape[1] != n or (labels.size and labels.min() < 0):
        raise InvalidInputError(f"labels must be a nonnegative (count, {n}) table")
    if n > MAX_EXHAUSTIVE_ROWS:
        raise TooLargeError(f"exhaustive search capped at {MAX_EXHAUSTIVE_ROWS} rows, got {n}")
    blocks = int(labels.max()) + 1 if labels.size else 0
    masks = np.zeros((labels.shape[0], blocks), dtype=np.int16, order="F")
    for j in range(masks.shape[1]):
        # bitmask of block j, one column at a time: no (count, n) temporaries
        for i in range(n):
            masks[:, j] |= (labels[:, i] == j).astype(np.int16) << i
    return _mask_costs(m, masks)


_COST_ROWS = 1 << 15  # rows of a block-mask table scored at a time


def _mask_costs(m: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """k-means cost of the rows of the matrix ``m`` under each row of a
    block-mask table (see ``_partition_masks``).

    A clustering into blocks T_j costs |M|_F^2 - sum_j q[T_j] / |T_j|, where
    q[T] sums the Gram matrix M M^T over T x T, tabulated once for all 2^n
    row subsets (n <= 12); an empty block explains q = 0.  The table is
    scored ``_COST_ROWS`` rows at a time, so the only full-length array
    made is the result.
    """
    bits = np.arange(m.shape[0], dtype=np.int16)
    member = ((np.arange(1 << m.shape[0], dtype=np.int16)[:, None] >> bits) & 1).astype(float)
    q = np.sum((member @ (m @ m.T)) * member, axis=1)
    explained_by = q / np.maximum(member.sum(axis=1), 1.0)
    total = frob2(m)
    costs = np.zeros(masks.shape[0])
    for start in range(0, len(costs), _COST_ROWS):
        block = masks[start : start + _COST_ROWS]
        explained = costs[start : start + _COST_ROWS]
        for j in range(block.shape[1]):
            explained += explained_by[block[:, j].astype(np.intp)]
        np.subtract(total, explained, out=explained)
    return np.maximum(costs, 0.0, out=costs)


def exhaustive_kmeans(m, k: int) -> Clustering:
    """Globally optimal k-means over all partitions into at most k clusters.

    Capped at n <= 12 rows; cost ties (within 1e-12 * |M|_F^2, see
    ``_cheapest``) keep the lexicographically smallest assignment.
    """
    return _exhaustive_search(m, k)[0]


def _exhaustive_search(m, k: int) -> tuple:
    """``exhaustive_kmeans`` with the block-mask table it searched
    (``_partition_masks``), the cost of each row and the winning row's
    index: (clustering, masks, costs, best).  Only the winning row is
    decoded to labels."""
    m = factor(m).a
    _check_count(k, "k", error=InvalidRankError)
    masks = _partition_masks(m.shape[0], k)
    costs = _mask_costs(m, masks)
    best = int(np.argmax(_cheapest(costs, frob2(m))))
    assignment = _mask_labels(masks[best : best + 1], range(m.shape[0]))[0].astype(np.int64)
    return Clustering(assignment, k, kmeans_cost(m, assignment)), masks, costs, best


def _cheapest(costs: np.ndarray, total: float) -> np.ndarray:
    """Which of the candidate ``costs`` tie for the least: those within
    ``1e-12 * total`` of it, where ``total`` is the squared Frobenius norm
    of the matrix they are costs on, so that the ties of a scaled matrix
    are those of the matrix."""
    return costs <= costs.min() + 1e-12 * total
