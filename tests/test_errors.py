"""The integer contract shared by every rank, count and dimension argument.

Each entry takes a Python or NumPy integer, bool excluded, of at least its
minimum, and raises its own typed error for anything else: a fraction, an
integral float, a bool or a value below the minimum.
"""

import numpy as np
import pytest

from pcpsketch.audit import ProbeSet, generate_probes, implication_harness
from pcpsketch.errors import ConfigError, InvalidInputError, InvalidRankError
from pcpsketch.generators import GeneratorSpec
from pcpsketch.guarantees import certify, jl_moment_estimate
from pcpsketch.linalg import svd, tail_index_p
from pcpsketch.sketch import SketchParams, ridge_scores
from pcpsketch.solvers import (
    best_rank_k_projection,
    cluster_indicator_projection,
    exhaustive_kmeans,
    lloyd_kmeans,
    partitions,
)

A = np.random.default_rng(0).standard_normal((4, 6))
BASES = np.eye(4)[None, :, :1]

# (entry, argument, typed error, least valid value, call)
ENTRIES = [
    ("SketchParams", "k", InvalidRankError, 1, lambda v: SketchParams(k=v, eps=0.5)),
    ("SketchParams", "m_override", InvalidInputError, 1, lambda v: SketchParams(k=1, eps=0.5, m_override=v)),
    ("ridge_scores", "k", InvalidRankError, 1, lambda v: ridge_scores(A, v)),
    ("certify", "k", InvalidRankError, 1, lambda v: certify(A, np.eye(6), v, 0.5)),
    ("jl_moment_estimate", "d", InvalidInputError, 1, lambda v: jl_moment_estimate(v, 3, 2, 100)),
    ("jl_moment_estimate", "m", InvalidInputError, 1, lambda v: jl_moment_estimate(3, v, 2, 100)),
    ("jl_moment_estimate", "ell", InvalidInputError, 2, lambda v: jl_moment_estimate(3, 3, v, 100)),
    ("jl_moment_estimate", "trials", InvalidInputError, 100, lambda v: jl_moment_estimate(3, 3, 2, v)),
    ("generate_probes", "k", InvalidRankError, 1, lambda v: generate_probes(A, np.eye(6), v, 0.5)),
    ("implication_harness", "trials", InvalidInputError, 1, lambda v: implication_harness(v)),
    ("ProbeSet", "k", InvalidRankError, 1, lambda v: ProbeSet(BASES, ["a"], v)),
    ("tail_index_p", "k", InvalidRankError, 1, lambda v: tail_index_p(svd(A), v)),
    ("best_rank_k_projection", "k", InvalidRankError, 1, lambda v: best_rank_k_projection(A, v)),
    ("cluster_indicator_projection", "n", InvalidInputError, 1,
     lambda v: cluster_indicator_projection(np.zeros(2, dtype=int), 1, v)),
    ("cluster_indicator_projection", "k", InvalidRankError, 1,
     lambda v: cluster_indicator_projection(np.zeros(4, dtype=int), v, 4)),
    ("lloyd_kmeans", "k", InvalidRankError, 1, lambda v: lloyd_kmeans(A, v)),
    ("lloyd_kmeans", "iters", InvalidInputError, 1, lambda v: lloyd_kmeans(A, 2, iters=v)),
    ("exhaustive_kmeans", "k", InvalidRankError, 1, lambda v: exhaustive_kmeans(A, v)),
    ("partitions", "n", InvalidInputError, 1, lambda v: partitions(v, 2)),
    ("partitions", "max_blocks", InvalidInputError, 1, lambda v: partitions(4, v)),
    ("GeneratorSpec", "n", ConfigError, 1, lambda v: GeneratorSpec("powerlaw", n=v, d=4)),
    ("GeneratorSpec", "d", ConfigError, 1, lambda v: GeneratorSpec("powerlaw", n=4, d=v)),
    ("GeneratorSpec", "rank", ConfigError, 1, lambda v: GeneratorSpec("lowrank", n=4, d=4, rank=v)),
    ("GeneratorSpec", "k_true", ConfigError, 1, lambda v: GeneratorSpec("clustered", n=4, d=4, k_true=v)),
]


@pytest.mark.parametrize(("entry", "name", "error", "least", "call"), ENTRIES, ids=[f"{e}-{n}" for e, n, *_ in ENTRIES])
def test_every_count_argument_is_checked_alike(entry, name, error, least, call):
    # least + 1: the smallest value that is valid and above 1, so that True
    # (== 1) and an integral float are refused for their type, not their size
    good = least + 1
    for bad in (good + 0.5, float(good), True, np.bool_(True), str(good), least - 1, 0):
        with pytest.raises(error, match=f"{name} must be an integer >= {least}"):
            call(bad)
    call(np.int64(good))


def test_a_numpy_moment_order_is_reported_as_an_int():
    # the CLI writes ell to JSON, which takes no NumPy integer
    assert type(jl_moment_estimate(3, 3, np.int64(2), 100).ell) is int
