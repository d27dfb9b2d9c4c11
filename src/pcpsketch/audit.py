"""Empirical audits of cost preservation.

A sketch claims that |A_tilde - P A_tilde|_F^2 + c tracks |A - P A|_F^2
within a relative eps for every rank-<=k projection P.  This module builds
adversarial probe sets (singular subspaces of both matrices, residual
directions, random subspaces, coordinate axes, cluster indicators), scores
the signed relative error on each, ties certificates to the observed
errors (the randomized implication harness), and checks the transfer
bound for minimizers found on the sketch.

A probe set is columnar: a ``ProbeSet`` holds every basis in one
(count, n, min(k, n)) array, zero-padded past each probe's rank, beside
an array of tags, and is checked by one stacked Gram product.
``generate_probes`` fills the array a family at a time (the Lloyd runs on
each core as one batch, the Haar bases from one stacked QR), and
``pcp_report`` scores all of it with one matrix product per core.

A and the sketch are ``Factored`` instances (arrays are wrapped at the
entry).  Probe costs and the Lloyd probes run on their n x r cores
B = U Sigma, which have the same row Gram matrix, and so the same costs
and row distances, as the matrices themselves.  ``verify_sketch`` is the
one sketch -> certify -> probe -> score sequence behind ``pcp verify``,
``pcp bench`` and ``implication_harness``.

``sketch_and_solve``, behind ``pcp solve``, solves on the sketch, scores
the solution on both matrices and checks the transfer bound over the
candidates it builds itself: A's own best rank-k projection for "lowrank",
every partition the exhaustive k-means search scored for "kmeans".  Both
read the sketch's SVD off A's and the Gram ``certify`` forms
(``_factor_sketch``), so the only n-row matrix either factors is A.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from math import inf

import numpy as np

from .errors import DimensionError, InvalidInputError, InvalidMatrixError, WidthNotReducingWarning
from .generators import GeneratorSpec, gen_synthetic
from .guarantees import Certificate, certify
from .linalg import RANK_TOL, Factored, SvdFactorization, _haar_bases, as_matrix, factor, frob2, projection_cost, svd
from .rng import Stream, derive_seed, rng_for
from .sketch import Sketch, SketchParams, make_sketch
from .solvers import (
    _exhaustive_search, _indicators, _lloyd_assignments, best_rank_k_projection,
    cluster_indicator_projection, lloyd_kmeans, partition_costs, partitions,
)

__all__ = [
    "ProbeSet",
    "PcpReport",
    "TransferCheck",
    "HarnessSummary",
    "SolveResult",
    "Verification",
    "generate_probes",
    "pcp_report",
    "implication_harness",
    "approx_transfer_check",
    "sketch_and_solve",
    "verify_sketch",
]

ZERO_COST_REL = 1e-12
ZERO_CHECK_REL = 1e-8
_PROBE_LLOYD_RUNS = 5
_PROBE_LLOYD_ITERS = 25
# the implication harness cycles through these per trial
_HARNESS_EPS = (0.3, 0.5)
_HARNESS_KS = (1, 2, 3)
_HARNESS_METHODS = ("gaussian", "nonoblivious", "leverage", "ridge")
_HARNESS_WIDTH_FACTORS = (0.25, 1.0, 2.0, 130.0)


@dataclass(frozen=True, eq=False)
class ProbeSet:
    """Rank-<=k probe projections as one array, with their provenance tags,
    plus an optional table of row partitions, each one cluster-indicator
    probe.

    ``bases[i]`` is an n x w orthonormal basis of probe i (w <= k), whose
    columns past the probe's rank are zero; ``tags[i]`` names its family.
    One stacked Gram matrix checks every basis at once, to the tolerance
    of ``Projection``: finite entries, and each column of unit or zero norm
    and orthogonal to the others within 1e-8.
    """

    bases: np.ndarray
    tags: np.ndarray
    k: int
    partitions: np.ndarray | None = None

    def __post_init__(self):
        bases = np.array(self.bases, dtype=float)
        tags = np.asarray(self.tags, dtype=str)
        if bases.ndim != 3:
            raise InvalidMatrixError("probe bases must be a (count, n, width) array")
        if tags.shape != bases.shape[:1]:
            raise InvalidInputError("one provenance tag per probe required")
        if len(self) == 0:
            raise InvalidInputError("probe set must be nonempty")
        if bases.shape[2] > self.k:
            raise InvalidInputError("probe rank exceeds k")
        if not np.isfinite(bases).all():
            raise InvalidMatrixError("probe basis contains non-finite entries")
        gram = bases.transpose(0, 2, 1) @ bases
        unit = np.diagonal(gram, axis1=1, axis2=2) > 0.5
        if gram.size and np.max(np.abs(gram - unit[:, :, None] * np.eye(bases.shape[2]))) > 1e-8:
            raise InvalidMatrixError("probe basis columns are not orthonormal")
        if self.partitions is not None and self.partitions.max(initial=0) >= self.k:
            raise InvalidInputError("partition probe has more than k blocks")
        bases.setflags(write=False)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "tags", tags)

    def __len__(self) -> int:
        extra = 0 if self.partitions is None else len(self.partitions)
        return len(self.tags) + extra


@dataclass(frozen=True, eq=False)
class PcpReport:
    """Signed relative errors over a probe set; passes iff the max is under target.

    One entry per probe in each column: its provenance tag, its costs on A
    and on the sketch, its signed error and whether it was scored as a
    zero-cost probe.  Probes with cost_a below 1e-12 * |A|_F^2 are scored
    by the absolute check |cost_sketch + c| <= 1e-8 * |A|_F^2 instead of a
    ratio (their signed error is recorded as 0, or +inf on failure, so the
    pass rule stays a single max comparison).  ``worst_index`` is the first
    probe whose |signed error| is the max.  Two reports are equal when
    every field is, arrays entry for entry.
    """

    tags: np.ndarray
    cost_a: np.ndarray
    cost_sketch: np.ndarray
    signed_rel_err: np.ndarray
    zero_cost: np.ndarray
    max_abs_rel_err: float
    worst_index: int
    eps_target: float
    passed: bool

    def __eq__(self, other):
        if not isinstance(other, PcpReport):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True)
class TransferCheck:
    """The transfer bound lhs <= rhs over a candidate set: ``lhs`` is the
    worst cost on A among the sketch's minimizers, ``rhs`` the certified
    factor times ``optimum``, the least cost on A."""

    bound_holds: bool
    lhs: float
    rhs: float
    optimum: float


@dataclass(frozen=True)
class SolveResult:
    """Solution found on the sketch, with costs on both matrices.

    ``certified_ratio`` is the factor (1 + eps) / (1 - eps) that the sketch
    guarantee carries over to an exact minimizer on the sketch, and
    ``transfer`` the check of that bound; both are None for Lloyd, which
    certifies nothing.
    """

    solution: object
    cost_on_a: float
    cost_on_sketch: float
    certified_ratio: float | None
    transfer: TransferCheck | None


def generate_probes(
    a, a_tilde, k: int, n_random: int, seed: int = 0, exhaustive: bool = False
) -> ProbeSet:
    """Deterministic probe set targeting where cost preservation can break.

    Structured families: top-j singular subspaces of A and of the sketch for
    j = 1..k, the top subspace of A's residual after removing the sketch's
    top-k directions, spans of standard basis vectors (first k, and the k
    heaviest rows), cluster indicators from seeded Lloyd runs on the rows of
    both matrices, and the rank-0 probe.  ``n_random`` Haar subspaces are
    appended, and ``exhaustive`` adds every cluster indicator over
    partitions into at most k blocks (n <= 12 only, else TooLargeError).
    The Lloyd probes are computed on the cores of A and of the sketch, the
    residual in A's coordinates, where its singular values <= RANK_TOL *
    sigma_1(A) count as zero; the heaviest rows are A's own.  The bases are
    filled into one array a family at a time: the Lloyd runs on each core go
    as one batch, and the Haar bases share one stacked QR.
    """
    a = factor(a)
    at = factor(a_tilde, "a_tilde")
    if at.shape[0] != a.shape[0]:
        raise DimensionError("matrix and sketch must have the same number of rows")
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    if n_random < 0:
        raise InvalidInputError(f"n_random must be >= 0, got {n_random}")
    n = a.shape[0]
    kk = min(k, n)

    fa = a.fact
    fs = at.fact
    spans = [
        (f"top-{name}-{j}", f.u[:, :j])
        for j in range(1, kk + 1)
        for name, f in (("a", fa), ("sketch", fs))
        if j <= f.rank
    ]
    if fs.rank > 0 and fa.rank > 0:
        # A's core past the sketch's top-k q, in A's coordinates: U^T (B - q q^T B), c = U^T q
        c = fa.u.T @ fs.u[:, : min(kk, fs.rank)]
        fr = svd(np.diag(fa.sigma) - c @ (c.T * fa.sigma))
        keep = min(kk, int(np.sum(fr.sigma > RANK_TOL * fa.sigma[0])))
        if keep > 0:
            spans.append(("residual-top", fa.u @ fr.u[:, :keep]))
    heavy = np.argsort(-np.sum(a.a * a.a, axis=1), kind="stable")[:kk]
    runs = range(_PROBE_LLOYD_RUNS)
    # (run, core) order: kmeans-a-0, kmeans-sketch-0, kmeans-a-1, ...
    labels = np.stack(
        [
            _lloyd_assignments(core, kk, [derive_seed(seed, stream, run) for run in runs], _PROBE_LLOYD_ITERS)
            for core, stream in ((a.core, Stream.PROBE_LLOYD_A), (at.core, Stream.PROBE_LLOYD_SKETCH))
        ],
        axis=1,
    ).reshape(-1, n)

    tags = ["zero-rank"] + [tag for tag, _ in spans] + ["axes-first", "axes-heavy"]
    tags += [f"kmeans-{core}-{run}" for run in runs for core in ("a", "sketch")]
    tags += [f"haar-{i}" for i in range(n_random)]
    bases = np.zeros((len(tags), n, kk))
    for i, (_, u) in enumerate(spans, start=1):
        bases[i, :, : u.shape[1]] = u
    i = 1 + len(spans)
    bases[i, np.arange(kk), np.arange(kk)] = 1.0
    bases[i + 1, np.sort(heavy), np.arange(kk)] = 1.0
    i += 2
    bases[i : i + len(labels)] = _indicators(labels, kk)
    i += len(labels)
    bases[i:] = _haar_bases(n, kk, [derive_seed(seed, Stream.PROBE_HAAR, j) for j in range(n_random)])
    return ProbeSet(bases, tags, k, partitions(n, kk) if exhaustive else None)


def pcp_report(a, a_tilde, c: float, probes: ProbeSet, eps_target: float) -> PcpReport:
    """Score every probe on the cores; pass iff max |signed error| <= eps_target.

    A probe with basis Q costs |M|_F^2 - |Q^T B|_F^2 on a matrix M with
    core B, clamped at zero, so energy below the core's rank cut counts as
    unexplained; the explained parts of all the probes come from one
    product of the stacked bases with each core.
    """
    a = factor(a)
    at = factor(a_tilde, "a_tilde")
    n = a.shape[0]
    if at.shape[0] != n:
        raise DimensionError("matrix and sketch must have the same number of rows")
    if probes.bases.shape[1] != n:
        raise DimensionError(f"probes on {probes.bases.shape[1]} rows, matrix has {n}")
    if eps_target <= 0.0:
        raise InvalidInputError(f"eps_target must be positive, got {eps_target}")
    count, _, width = probes.bases.shape
    stacked = probes.bases.transpose(1, 0, 2).reshape(n, count * width)

    def costs(m: Factored) -> np.ndarray:
        explained = stacked.T @ m.core
        explained *= explained
        out = np.maximum(m.frob2 - explained.reshape(count, width * m.core.shape[1]).sum(axis=1), 0.0)
        if probes.partitions is None:
            return out
        return np.concatenate([out, partition_costs(m.core, probes.partitions) + (m.frob2 - frob2(m.core))])

    cost_a, cost_s, tags = costs(a), costs(at), probes.tags
    if probes.partitions is not None:
        tags = np.concatenate([tags, _partition_tags(probes.partitions)])
    total = a.frob2
    zero = cost_a <= ZERO_COST_REL * total
    zero_err = np.where(np.abs(cost_s + c) <= ZERO_CHECK_REL * total, 0.0, inf)
    err = np.where(zero, zero_err, (cost_s + c - cost_a) / np.where(zero, 1.0, cost_a))
    worst = int(np.argmax(np.abs(err)))
    worst_err = abs(float(err[worst]))
    return PcpReport(tags, cost_a, cost_s, err, zero, worst_err, worst, eps_target, worst_err <= eps_target)


def _partition_tags(labels: np.ndarray) -> np.ndarray:
    """``partition-<labels>-<b>blocks`` for each row of a label table, built
    one column at a time from the decimal text of each label."""
    digits = np.array([str(j) for j in range(int(labels.max(initial=0)) + 1)])
    tags = np.full(len(labels), "partition-")
    for column in labels.T:
        tags = np.strings.add(tags, digits[column])
    blocks = np.array([f"-{b}blocks" for b in range(1, len(digits) + 1)])
    return np.strings.add(tags, blocks[labels.max(axis=1)])


def _factor_sketch(a: Factored, sk: Sketch) -> Factored:
    """The sketch A_tilde = A S as a ``Factored`` instance, its SVD read off
    A's and G = ``a.gram(S)``: A_tilde A_tilde^T = U (Sigma G Sigma) U^T, so
    the eigenpairs (lambda, Q) of that r x r matrix give the singular values
    sqrt(lambda) and left vectors U Q.  Rounding in G and in the eigensolve
    blurs lambda by about max(n, m) * eps * lambda_1; below that it counts as
    zero, and ``pcp_report`` keeps the energy so dropped.  The right vectors,
    which no caller reads, are not formed."""
    f = a.fact
    lam, q = np.linalg.eigh(f.sigma[:, None] * a.gram(sk.operator) * f.sigma)  # ascending
    tol = max(sk.a_tilde.shape) * np.finfo(float).eps * lam.max(initial=0.0)
    rank = int(np.sum(lam > tol))
    sigma, u = np.sqrt(lam[::-1][:rank]), f.u @ q[:, ::-1][:, :rank]
    return Factored.from_factors(sk.a_tilde, SvdFactorization(u, sigma, None, rank))


@dataclass(frozen=True)
class Verification:
    """A sketch with both certificates on its operator and its probe audit."""

    sketch: Sketch
    certificate_t1: Certificate
    certificate_t2: Certificate
    report: PcpReport


def verify_sketch(
    a, method: str, params: SketchParams, n_random: int, probe_seed: int, exhaustive: bool = False
) -> Verification:
    """Sketch ``a`` by ``method``, certify the operator by both routes and
    audit the sketch over ``generate_probes(..., n_random, probe_seed,
    exhaustive)`` at eps = params.eps.  A is factored at most once, the
    sketch never: its SVD is read off A's (``_factor_sketch``)."""
    a = factor(a)
    sk = make_sketch(a, method, params)
    t1, t2 = certify(a, sk.operator, params.k, params.eps)
    at = _factor_sketch(a, sk)
    probes = generate_probes(a, at, params.k, n_random, seed=probe_seed, exhaustive=exhaustive)
    report = pcp_report(a, at, sk.c_const, probes, params.eps)
    return Verification(sk, t1, t2, report)


@dataclass(frozen=True)
class HarnessSummary:
    trials: int
    t1_holds: int
    t2_holds: int
    violations: list
    max_err_over_trials: float


def _harness_instance(rng, k: int, trial: int, seed: int):
    n = int(rng.integers(4, 13))
    d = int(rng.integers(max(8, k + 2), 31))
    family = trial % 4
    gseed = derive_seed(seed, Stream.HARNESS, trial, 1)
    if family == 0:
        return rng.standard_normal((n, d))
    if family == 1:
        r = min(int(rng.integers(1, 4)), n, d)
        eta = [0.0, 0.1, 0.5][trial % 3]
        return gen_synthetic(
            GeneratorSpec("lowrank", n=n, d=d, rank=r, noise=eta, seed=gseed)
        )
    if family == 2:
        alpha = [0.5, 1.0, 2.0][trial % 3]
        return gen_synthetic(GeneratorSpec("powerlaw", n=n, d=d, alpha=alpha, seed=gseed))
    # exact rank <= k so the spectral route can certify exactly
    r = min(k, n, d)
    return gen_synthetic(GeneratorSpec("lowrank", n=n, d=d, rank=r, noise=0.0, seed=gseed))


def implication_harness(trials: int, seed: int = 0, n_random_probes: int = 6) -> HarnessSummary:
    """Randomized sweep of the certificate-to-audit implication.

    Instances are small random matrices of mixed character (i.i.d., planted
    low rank with and without noise, power-law spectra, exact rank <= k);
    the operator cycles through the zero-constant constructions across a
    width sweep from far-too-narrow to generously wide.  Returns the trial
    summary including every implication violation found (expected: none).
    """
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    violations = []
    t1_holds = t2_holds = 0
    worst = 0.0
    for t in range(trials):
        rng = rng_for(seed, Stream.HARNESS, t)
        k = _HARNESS_KS[t % len(_HARNESS_KS)]
        eps = _HARNESS_EPS[(t // len(_HARNESS_KS)) % len(_HARNESS_EPS)]
        method = _HARNESS_METHODS[t % len(_HARNESS_METHODS)]
        a = _harness_instance(rng, k, t, seed)
        d = a.shape[1]
        width = max(2, int(round(d * _HARNESS_WIDTH_FACTORS[t % len(_HARNESS_WIDTH_FACTORS)])))
        params = SketchParams(
            k=k,
            eps=eps,
            delta=0.1,
            seed=derive_seed(seed, Stream.HARNESS, t, 2),
            m_override=width,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WidthNotReducingWarning)
            v = verify_sketch(
                a, method, params, n_random_probes, derive_seed(seed, Stream.HARNESS, t, 3)
            )
        t1, t2, report = v.certificate_t1, v.certificate_t2, v.report
        t1_holds += t1.holds
        t2_holds += t2.holds
        worst = max(worst, report.max_abs_rel_err)
        if (t1.holds or t2.holds) and not report.passed:
            violations.append(
                {
                    "trial": t,
                    "method": method,
                    "k": k,
                    "eps": eps,
                    "width": width,
                    "max_abs_rel_err": report.max_abs_rel_err,
                    "t1_holds": t1.holds,
                    "t2_holds": t2.holds,
                }
            )
    return HarnessSummary(trials, t1_holds, t2_holds, violations, worst)


def approx_transfer_check(a, a_tilde, c: float, eps: float, costs_a, costs_sketch) -> TransferCheck:
    """Check the cost bound transferred to A by a minimizer on the sketch.

    ``costs_a[i]`` and ``costs_sketch[i]`` are the costs of candidate
    solution i on A and on the sketch (A_tilde, c).  Among the candidates
    of least sketch cost, the one costing the most on A is the adversarial
    choice P_tilde; the bound |A - P_tilde A|_F^2 <= (1+eps) / (1-eps) *
    min cost on A must hold for it (hence for every minimizer).  The
    constant c shifts every sketch cost alike and so drops out.
    """
    a = factor(a)
    at = as_matrix(a_tilde, "a_tilde")
    a_costs = np.asarray(costs_a, dtype=float)
    sketch_costs = np.asarray(costs_sketch, dtype=float)
    if a_costs.ndim != 1 or a_costs.size == 0:
        raise InvalidInputError("need at least one candidate cost")
    if sketch_costs.shape != a_costs.shape:
        raise InvalidInputError("one sketch cost per candidate required")
    if not 0.0 < eps < 1.0:
        raise InvalidInputError(f"eps must be in (0, 1), got {eps}")
    eligible = sketch_costs <= float(sketch_costs.min()) + 1e-12 * (frob2(at) + 1.0)
    lhs = float(a_costs[eligible].max())
    optimum = float(a_costs.min())
    rhs = (1.0 + eps) / (1.0 - eps) * optimum
    return TransferCheck(lhs <= rhs + 1e-8 * max(1.0, a.frob2), lhs, rhs, optimum)


def sketch_and_solve(
    a,
    sk: Sketch,
    task: str,
    solver: str = "exhaustive",
    iters: int = 50,
    seed: int = 0,
) -> SolveResult:
    """Solve ``task`` on the sketch, evaluate the solution on ``a`` and check
    the transfer bound.

    For "lowrank" the solution is the top-k subspace of the sketch, checked
    against A's own top-k subspace; for "kmeans" the rows of the sketch are
    clustered exhaustively, checked over every partition into at most k
    blocks, or with Lloyd, which certifies no ratio and gets no check.  The
    certified ratio is (1 + eps) / (1 - eps).  ``a`` may be a ``Factored``
    instance; the costs on it use its array and cached Frobenius norm.
    """
    a = factor(a)
    at = sk.a_tilde
    if at.shape[0] != a.shape[0]:
        raise InvalidInputError("sketch row count does not match the matrix")
    k, eps = sk.params.k, sk.params.eps
    if task == "lowrank":
        proj = best_rank_k_projection(_factor_sketch(a, sk), k)
        solution: object = proj
    elif task == "kmeans":
        if solver == "exhaustive":
            solution, labels, costs_sketch = _exhaustive_search(at, k)
        elif solver == "lloyd":
            solution = lloyd_kmeans(at, k, iters=iters, seed=seed)
        else:
            raise InvalidInputError(f"unknown solver {solver!r}")
        proj = cluster_indicator_projection(solution.assignment, k, a.shape[0])
    else:
        raise InvalidInputError(f"unknown task {task!r}")
    cost_on_a, cost_on_sketch = projection_cost(a, proj), projection_cost(at, proj)
    if task == "lowrank":
        best = best_rank_k_projection(a, k)
        costs_a = [cost_on_a, projection_cost(a, best)]
        costs_sketch = [cost_on_sketch, projection_cost(at, best)]
    elif solver == "exhaustive":
        costs_a = partition_costs(a, labels)
    else:
        return SolveResult(solution, cost_on_a, cost_on_sketch, None, None)
    check = approx_transfer_check(a, at, sk.c_const, eps, costs_a, costs_sketch)
    return SolveResult(solution, cost_on_a, cost_on_sketch, (1.0 + eps) / (1.0 - eps), check)
