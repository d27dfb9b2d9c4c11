"""Empirical audits of cost preservation.

A sketch claims that |A_tilde - P A_tilde|_F^2 + c tracks |A - P A|_F^2
within a relative eps for every rank-<=k projection P.  This module builds
probe sets (A's top singular subspaces, and the two exact probes that
decide that claim at eps for A_tilde = A S), scores the signed relative
error on each, ties certificates to the observed errors (the randomized
implication harness), and checks the transfer bound for minimizers found
on the sketch.

A probe set is columnar: a ``ProbeSet`` holds every basis in one
(count, n, min(k, n)) array, zero-padded past each probe's rank, beside
an array of tags, and is checked by one stacked Gram product.
``generate_probes`` fills the array, and ``pcp_report`` scores all of it
with one matrix product per matrix.

A is a ``Factored`` instance (an array is wrapped at the entry).  The
sketch acts on A's row space only through the r x r Gram G = ``a.gram(S)``
that ``certify`` forms: A_tilde A_tilde^T = U (Sigma G Sigma) U^T.  The
exact probes are found in A's coordinates, from two r x r eighs of
matrices built from Sigma G Sigma, and probe costs run on A's n x r core
B = U Sigma, which has the same row Gram matrix, and so the same costs,
as A, and on the sketch's own array.  ``verify_sketch`` is the one
sketch -> certify -> probe -> score sequence behind ``pcp verify``,
``pcp bench`` and ``implication_harness``.

``sketch_and_solve``, behind ``pcp solve``, solves on the sketch, scores
the solution on both matrices and checks the transfer bound over the
candidates it builds itself: A's own best rank-k projection for "lowrank",
every partition the exhaustive k-means search scored for "kmeans".  The
lowrank solution, the sketch's top-k left singular subspace, is read off
Sigma G Sigma by one r x r eigh, so the only n-row matrix either factors
is A.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from math import inf

import numpy as np

from .errors import DimensionError, InvalidInputError, InvalidMatrixError, WidthNotReducingWarning
from .generators import GeneratorSpec, gen_synthetic
from .guarantees import Certificate, _check_operator, certify
from .linalg import Projection, _eigh_desc, as_matrix, factor, frob2, projection_cost
from .rng import Stream, derive_seed, rng_for
from .sketch import Sketch, SketchParams, make_sketch
from .solvers import (
    _cheapest, _exhaustive_search, _mask_costs, _mask_labels, _partition_masks,
    best_rank_k_projection, cluster_indicator_projection, lloyd_kmeans,
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
# the implication harness draws its trials from these (``_harness_trial``)
_HARNESS_EPS = (0.3, 0.5)
_HARNESS_KS = (1, 2, 3)
_HARNESS_METHODS = ("gaussian", "nonoblivious", "leverage", "ridge")
_HARNESS_WIDTH_FACTORS = (0.25, 1.0, 2.0, 130.0)


@dataclass(frozen=True, eq=False)
class ProbeSet:
    """Rank-<=k probe projections as one array, with their provenance tags.

    ``bases[i]`` is an n x w orthonormal basis of probe i (w <= k), whose
    columns past the probe's rank are zero; ``tags[i]`` names its family.
    One stacked Gram matrix checks every basis at once, to the tolerance
    of ``Projection``: finite entries, and each column of unit or zero norm
    and orthogonal to the others within 1e-8.
    """

    bases: np.ndarray
    tags: np.ndarray
    k: int

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
        bases.setflags(write=False)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "tags", tags)

    def __len__(self) -> int:
        return len(self.tags)


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


def generate_probes(a, s, k: int, eps: float) -> ProbeSet:
    """Deterministic probe set whose audit at ``eps`` is exact for the sketch
    A S of the operator ``s`` (a d x m array or a ``SamplingPattern``).

    The rank-0 probe and the top-j singular subspaces of A for
    j = 1..min(k, rank A) are diagnostics.  The two exact probes, ``exact-over`` and ``exact-under``,
    are for sign +1 and -1 the rank-<=k projection that maximizes
    sign * (cost_sketch + c - cost_a) - eps * cost_a, as ``pcp_report``
    scores the costs (c shifts it by a constant).  In A's coordinates, with
    H H^T = Sigma G Sigma (G = ``a.gram(s)``, the Gram ``certify`` forms)
    and D = H H^T - Sigma^2, a basis U Y makes that a constant minus
    tr(Y^T M Y), M = sign * D - eps * Sigma^2; by Ky Fan's principle the
    maximizer Y holds the eigenvectors of the negative eigenvalues among
    the k smallest of M (none: a rank-0 probe).  The columns of A S lie in
    A's column space, so directions outside it change neither cost.  Then
    whenever some rank-<=k projection has |signed error| > eps, so does one
    of these two (Dinkelbach's function at lambda = eps), unless that one
    costs zero on A, where the absolute check decides; the audit's verdict
    at ``eps`` is exact.  Their errors are no ratio maximum: the probe max
    only bounds the distortion below.
    """
    a = factor(a)
    s = _check_operator(a, s)
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    if eps <= 0.0:
        raise InvalidInputError(f"eps must be positive, got {eps}")
    kk = min(k, a.shape[0])
    fa = a.fact
    spans = [(f"top-a-{j}", fa.u[:, :j]) for j in range(1, min(k, fa.rank) + 1)]
    hh = fa.sigma[:, None] * a.gram(s) * fa.sigma
    sigma2 = fa.sigma * fa.sigma
    for sign, tag in ((1.0, "exact-over"), (-1.0, "exact-under")):
        lam, y = np.linalg.eigh(sign * hh - np.diag((sign + eps) * sigma2))  # ascending
        spans.append((tag, fa.u @ y[:, : int(np.count_nonzero(lam[:kk] < 0.0))]))

    bases = np.zeros((1 + len(spans), a.shape[0], kk))
    for i, (_, u) in enumerate(spans, start=1):
        bases[i, :, : u.shape[1]] = u
    return ProbeSet(bases, ["zero-rank"] + [tag for tag, _ in spans], k)


def pcp_report(a, a_tilde, c: float, probes: ProbeSet, eps_target: float) -> PcpReport:
    """Score every probe; pass iff max |signed error| <= eps_target.

    A probe with basis Q costs |M|_F^2 - |Q^T M|_F^2 on a matrix M,
    clamped at zero.  A is scored on its core B = U Sigma, which has the
    same costs, so energy below the core's rank cut counts as unexplained;
    the sketch on its own array.  The explained parts of all the probes
    come from one product of the stacked bases with each.
    """
    a = factor(a)
    at = as_matrix(a_tilde, "a_tilde")
    n = a.shape[0]
    if at.shape[0] != n:
        raise DimensionError("matrix and sketch must have the same number of rows")
    if probes.bases.shape[1] != n:
        raise DimensionError(f"probes on {probes.bases.shape[1]} rows, matrix has {n}")
    if eps_target <= 0.0:
        raise InvalidInputError(f"eps_target must be positive, got {eps_target}")
    count, _, width = probes.bases.shape
    stacked = probes.bases.transpose(1, 0, 2).reshape(n, count * width)

    def costs(m: np.ndarray, total: float) -> np.ndarray:
        explained = stacked.T @ m
        explained *= explained
        return np.maximum(total - explained.reshape(count, width * m.shape[1]).sum(axis=1), 0.0)

    return _verdict(probes.tags, costs(a.core, a.frob2), costs(at, frob2(at)), a.frob2, c, eps_target)


def _verdict(tags, cost_a, cost_s, total: float, c: float, eps_target: float) -> PcpReport:
    """The report of probes with these costs, under ``PcpReport``'s zero-cost rule."""
    zero = cost_a <= ZERO_COST_REL * total
    zero_err = np.where(np.abs(cost_s + c) <= ZERO_CHECK_REL * total, 0.0, inf)
    err = np.where(zero, zero_err, (cost_s + c - cost_a) / np.where(zero, 1.0, cost_a))
    worst = int(np.argmax(np.abs(err)))
    worst_err = abs(float(err[worst]))
    return PcpReport(tags, cost_a, cost_s, err, zero, worst_err, worst, eps_target, worst_err <= eps_target)


def _with_partitions(report: PcpReport, a, a_tilde, c: float, masks: np.ndarray) -> PcpReport:
    """``report`` plus the cluster indicator of each partition in the block-mask
    table ``masks`` (``solvers._partition_masks``), each matrix scored by
    ``_mask_costs`` on its array."""
    a, at = factor(a), as_matrix(a_tilde, "a_tilde")
    tags = _partition_tags(report.tags, _mask_labels(masks, range(a.shape[0])))
    cost_a = np.concatenate([report.cost_a, _mask_costs(a.a, masks)])
    cost_s = np.concatenate([report.cost_sketch, _mask_costs(at, masks)])
    return _verdict(tags, cost_a, cost_s, a.frob2, c, report.eps_target)


def _partition_tags(head: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``head`` followed by ``partition-<labels>-<b>blocks`` for each row of
    a label table, in one array as wide as the longest tag, written in place
    one label column and then one block count at a time: no intermediate
    array of tags is made."""
    digits = np.array([str(j) for j in range(int(labels.max(initial=0)) + 1)])
    blocks = np.array([f"-{b}blocks" for b in range(1, len(digits) + 1)])
    top = labels.max(axis=1)
    text = np.strings.str_len(digits).astype(np.uint8)[labels].sum(axis=1) + np.strings.str_len(blocks)[top]
    width = len("partition-") + int(text.max(initial=0))
    tags = np.empty(len(head) + len(labels), dtype=np.promote_types(head.dtype, f"U{width}"))
    tags[: len(head)] = head
    part = tags[len(head) :]
    part[:] = "partition-"
    for column in labels.T:
        np.strings.add(part, digits[column], out=part)
    for b, suffix in enumerate(blocks):
        np.strings.add(part, suffix, out=part, where=top == b)
    return tags


@dataclass(frozen=True)
class Verification:
    """A sketch with both certificates on its operator and its probe audit."""

    sketch: Sketch
    certificate_t1: Certificate
    certificate_t2: Certificate
    report: PcpReport


def verify_sketch(a, method: str, params: SketchParams, exhaustive: bool = False) -> Verification:
    """Sketch ``a`` by ``method``, certify the operator by both routes and
    audit the sketch over ``generate_probes`` at eps = params.eps, an exact
    verdict, plus, if ``exhaustive``, every partition into at most k blocks
    (n <= 12, else TooLargeError).  A is factored at most once, the
    sketch never: the probes read the Gram ``certify`` formed."""
    a = factor(a)
    sk = make_sketch(a, method, params)
    t1, t2 = certify(a, sk.operator, params.k, params.eps)
    probes = generate_probes(a, sk.operator, params.k, params.eps)
    report = pcp_report(a, sk.a_tilde, sk.c_const, probes, params.eps)
    if exhaustive:
        report = _with_partitions(report, a, sk.a_tilde, sk.c_const, _partition_masks(a.shape[0], params.k))
    return Verification(sk, t1, t2, report)


@dataclass(frozen=True)
class HarnessSummary:
    trials: int
    t1_holds: int
    t2_holds: int
    violations: list
    max_err_over_trials: float


def _harness_instance(rng, k: int, family: int, trial: int, seed: int):
    n = int(rng.integers(4, 13))
    d = int(rng.integers(max(8, k + 2), 31))
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


def _harness_trial(t: int, seed: int):
    """Trial ``t`` of the implication harness: its matrix, its method and
    the sketch parameters.  With i = t % 4, j = t // 4 % 4 and
    g = t // 16 % 4, the method is i, the width factor i ^ j and the
    instance family j ^ g (XOR): every pair of values of two of the three
    occurs once in every 16 trials, and every triple once in every 64."""
    i, j, g = t % 4, t // 4 % 4, t // 16 % 4
    k = _HARNESS_KS[t % len(_HARNESS_KS)]
    a = _harness_instance(rng_for(seed, Stream.HARNESS, t), k, j ^ g, t, seed)
    width = max(2, int(round(a.shape[1] * _HARNESS_WIDTH_FACTORS[i ^ j])))
    params = SketchParams(
        k=k,
        eps=_HARNESS_EPS[(t // len(_HARNESS_KS)) % len(_HARNESS_EPS)],
        delta=0.1,
        seed=derive_seed(seed, Stream.HARNESS, t, 2),
        m_override=width,
    )
    return a, _HARNESS_METHODS[i], params


def implication_harness(trials: int, seed: int = 0) -> HarnessSummary:
    """Randomized sweep of the certificate-to-audit implication.

    Instances are small random matrices of four families (i.i.d., planted
    low rank with and without noise, power-law spectra, exact rank <= k);
    the operator is one of the zero-constant constructions, at a width
    from far too narrow to generously wide.  Family, method and width
    factor follow an orthogonal array (``_harness_trial``), so each method
    meets each family and each width.  The audit is exact, so a violation,
    a holding certificate on a failing audit, is a sketch the certificate
    endorsed that breaks eps.  Returns the trial summary including every
    violation found (expected: none).
    """
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    violations = []
    t1_holds = t2_holds = 0
    worst = 0.0
    for t in range(trials):
        a, method, params = _harness_trial(t, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WidthNotReducingWarning)
            v = verify_sketch(a, method, params)
        t1, t2, report = v.certificate_t1, v.certificate_t2, v.report
        t1_holds += t1.holds
        t2_holds += t2.holds
        worst = max(worst, report.max_abs_rel_err)
        if (t1.holds or t2.holds) and not report.passed:
            violations.append(
                {
                    "trial": t,
                    "method": method,
                    "k": params.k,
                    "eps": params.eps,
                    "width": params.m_override,
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
    of least sketch cost (ties as ``exhaustive_kmeans`` takes them), the
    one costing the most on A is the adversarial choice P_tilde; the bound
    |A - P_tilde A|_F^2 <= (1+eps) / (1-eps) * min cost on A must hold for
    it (hence for every minimizer), within 1e-8 * |A|_F^2, so that scaling
    A changes no verdict.  The constant c shifts every sketch cost alike
    and so drops out.
    """
    a = factor(a)
    at = as_matrix(a_tilde, "a_tilde")
    a_costs = np.asarray(costs_a, dtype=float)
    sketch_costs = np.asarray(costs_sketch, dtype=float)
    if a_costs.ndim != 1 or a_costs.size == 0:
        raise InvalidInputError("need at least one candidate cost")
    if sketch_costs.shape != a_costs.shape:
        raise InvalidInputError("one sketch cost per candidate required")
    if not (np.isfinite(a_costs).all() and np.isfinite(sketch_costs).all()):
        raise InvalidInputError("candidate costs must be finite")
    if not 0.0 < eps < 1.0:
        raise InvalidInputError(f"eps must be in (0, 1), got {eps}")
    lhs = float(a_costs[_cheapest(sketch_costs, frob2(at))].max())
    optimum = float(a_costs.min())
    rhs = (1.0 + eps) / (1.0 - eps) * optimum
    return TransferCheck(lhs <= rhs + 1e-8 * a.frob2, lhs, rhs, optimum)


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
    certified ratio is (1 + eps) / (1 - eps).  The exhaustive solution's
    costs are read off the partition tables the check scores; Lloyd's cost
    on A is that of its cluster-indicator projection.  ``a`` may be a
    ``Factored`` instance; the costs on it use its array and cached
    Frobenius norm.
    """
    a = factor(a)
    at = sk.a_tilde
    if at.shape[0] != a.shape[0]:
        raise InvalidInputError("sketch row count does not match the matrix")
    k, eps = sk.params.k, sk.params.eps
    if task == "lowrank":
        # the sketch's top left singular vectors: A_tilde A_tilde^T =
        # U (Sigma G Sigma) U^T, whose eigenvalues below the rounding of G and
        # of the eigensolve, about max(n, m) * eps * lambda_1, count as zero
        f = a.fact
        floor = max(at.shape) * np.finfo(float).eps
        _, q, rank = _eigh_desc(f.sigma[:, None] * a.gram(sk.operator) * f.sigma, floor)
        solution: object = Projection(f.u @ q[:, : min(k, rank)])
        candidates = (solution, best_rank_k_projection(a, k))
        costs_a = [projection_cost(a, p) for p in candidates]
        costs_sketch = [projection_cost(at, p) for p in candidates]
        cost_on_a, cost_on_sketch = costs_a[0], costs_sketch[0]
    elif task != "kmeans":
        raise InvalidInputError(f"unknown task {task!r}")
    elif solver == "exhaustive":
        solution, masks, costs_sketch, best = _exhaustive_search(at, k)
        costs_a = _mask_costs(a.a, masks)
        cost_on_a, cost_on_sketch = float(costs_a[best]), solution.cost
    elif solver == "lloyd":
        solution = lloyd_kmeans(at, k, iters=iters, seed=seed)
        proj = cluster_indicator_projection(solution.assignment, k, a.shape[0])
        return SolveResult(solution, projection_cost(a, proj), solution.cost, None, None)
    else:
        raise InvalidInputError(f"unknown solver {solver!r}")
    check = approx_transfer_check(a, at, sk.c_const, eps, costs_a, costs_sketch)
    return SolveResult(solution, cost_on_a, cost_on_sketch, (1.0 + eps) / (1.0 - eps), check)
