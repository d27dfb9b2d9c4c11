"""Checks of pcp outputs against computations made apart from the program.

Nothing here imports pcpsketch.  Every expected value comes from the input
matrix the benchmark generated itself (its Gram spectrum, its Frobenius
mass, its k-means optimum by enumerating every partition), from the
closed-form widths the sketch docstrings state, or from a property the
method guarantees whatever its random draws (the svd sketch keeps every
probe within +-eps, an orthogonal sketch is lossless, a certificate that
holds implies a passing audit).  A failed check raises CheckError.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

DELTA = 0.1  # the pcp default for --delta, which no benchmark op overrides
HOLDS_TOL = 1e-12  # slack the certificates document for their comparisons
REL_TOL = 1e-9  # agreement of two computations of one cost, relative to |A|_F^2

# Width constants documented per method (sketch.DEFAULT_CONST).
CONST = {"gaussian": 8.0, "nonoblivious": 4.0, "leverage": 16.0, "ridge": 16.0}

PCPM_HEADER = struct.Struct("<4sIQQ")


class CheckError(Exception):
    """An operation's output disagrees with the benchmark's own computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# --------------------------------------------------------------------------
# Oracles of one input matrix


class Spectrum:
    """Gram eigenvalues, Frobenius mass and tail energies of an input A.

    ``lam`` holds the positive eigenvalues of A A^T in decreasing order
    (the squared singular values) and ``tail[j]`` is the energy beyond the
    top j of them, the Eckart-Young optimum of a rank-j projection.
    """

    def __init__(self, a: np.ndarray):
        self.a = np.asarray(a, dtype=float)
        self.n, self.d = self.a.shape
        self.fro2 = float(np.sum(self.a * self.a))
        lam = np.clip(np.linalg.eigvalsh(self.a @ self.a.T)[::-1], 0.0, None)
        # Inputs are generated full rank with a clear gap above rounding
        # level, so the rank is not a matter of thresholds.
        tiny = (lam > 1e-24 * lam[0]) & (lam <= 1e-12 * lam[0])
        if tiny.any():
            raise ValueError("input has singular values near rounding level")
        self.rank = int(np.sum(lam > 1e-12 * lam[0]))
        self.lam = lam[: self.rank]
        suffix = np.concatenate([np.cumsum(self.lam[::-1])[::-1], [0.0]])
        self.tail = suffix  # tail[j] = sum of lam[j:], j = 0..rank
        self.tol = REL_TOL * self.fro2

    def tail_at(self, j: int) -> float:
        return float(self.tail[min(j, self.rank)])

    def ridge_sum(self, k: int) -> float:
        """sum_j lam_j / (lam_j + tail_k / k), the ridge-score total."""
        reg = self.tail_at(k) / k
        if reg <= 0.0:
            return float(self.rank)
        return float(np.sum(self.lam / (self.lam + reg)))

    def tail_index_range(self, k: int) -> tuple[int, int]:
        """Bounds on the largest p with lam_p >= tail_k / k (rank if tail_k = 0).

        The bounds differ only when an eigenvalue sits within rounding of
        the cut, where the program's SVD and this eigensolve may disagree.
        """
        tail_k = self.tail_at(k)
        if tail_k <= 0.0:
            return self.rank, self.rank
        cut = tail_k / k
        lo = int(np.sum(self.lam >= cut * (1.0 + 1e-9)))
        hi = int(np.sum(self.lam >= cut * (1.0 - 1e-9)))
        return lo, hi


def ceil_range(x: float) -> tuple[int, int]:
    """ceil(x) allowing for x computed in another order of float operations."""
    return math.ceil(x * (1.0 - 1e-12)), math.ceil(x * (1.0 + 1e-12))


def width_range(method: str, k: int, eps: float, rank: int, d: int, ridge_sum: float = 0.0) -> tuple[int, int]:
    """The sketch width each method's documented formula gives on an input
    of this rank and column count (and ridge-score total, for ridge)."""
    if method == "gaussian":
        return ceil_range(CONST["gaussian"] * (k + math.log(1.0 / DELTA)) / eps**2)
    if method == "leverage":
        log_term = max(math.log(k / DELTA), 1.0)
        return ceil_range(CONST["leverage"] * k * log_term / eps**2)
    if method == "ridge":
        log_term = max(math.log(k / DELTA), 1.0)
        return ceil_range(CONST["ridge"] * log_term / eps**2 * ridge_sum)
    if method == "svd":
        lo, hi = ceil_range(k / eps)
        return min(lo, rank), min(hi, rank)
    if method == "nonoblivious":
        # rank of (Gaussian m' x n) @ A is min(m', rank A) with probability one
        lo, hi = ceil_range(CONST["nonoblivious"] * k / eps)
        return min(lo, rank), min(hi, rank)
    if method == "orthogonal":
        return d, d
    raise ValueError(f"unknown method {method!r}")


def check_width(m: int, method: str, k: int, eps: float, spec: Spectrum) -> None:
    lo, hi = width_range(method, k, eps, spec.rank, spec.d, spec.ridge_sum(k))
    require(lo <= m <= hi, f"{method} width {m}, formula gives {lo}..{hi}")


def check_constant(c: float, method: str, m: int, spec: Spectrum) -> None:
    """The svd sketch carries the energy beyond its m directions; others carry 0."""
    expected = spec.tail_at(m) if method == "svd" else 0.0
    require(abs(c - expected) <= spec.tol, f"c_const {c}, expected {expected}")


# --------------------------------------------------------------------------
# Certificates (reports spell non-finite numbers as strings, which float() reads)


def check_certificates(rep: dict, k: int, eps: float, spec: Spectrum) -> tuple[bool, bool]:
    """Thresholds from eps and k, T2's regulariser and tail index from the
    spectrum, and each ``holds`` flag against its own measured values."""
    t1, t2 = rep["certificate_t1"], rep["certificate_t2"]
    cross = eps / (6.0 * math.sqrt(k))
    expect1 = {"se_err": eps / 3.0, "amm_tail_tail": cross, "amm_tail_vk": cross, "frob_tail": eps / 6.0}
    lam_used = eps * spec.tail_at(k) / (24.0 * k)
    m2 = t2["measured"]
    require(
        abs(float(m2["lambda_used"]) - lam_used) <= 1e-9 * lam_used + 1e-15 * spec.fro2,
        f"T2 lambda_used {m2['lambda_used']}, spectrum gives {lam_used}",
    )
    p_lo, p_hi = spec.tail_index_range(k)
    p = float(m2["p_used"])
    require(p_lo <= p <= p_hi, f"T2 p_used {p}, spectrum gives {p_lo}..{p_hi}")
    p = int(p)
    if spec.rank <= p:
        frob_budget = math.inf
    else:
        frob_budget = (eps / 12.0) * spec.tail_at(k) / spec.tail_at(p)
    expect2 = {"spectral_eps": eps / 24.0, "frob_tail_p": frob_budget}
    holds = []
    for cert, expect, tag in ((t1, expect1, "T1"), (t2, expect2, "T2")):
        thr = {name: float(v) for name, v in cert["thresholds"].items()}
        require(set(thr) == set(expect), f"{tag} threshold names {sorted(thr)}")
        for name, want in expect.items():
            got = thr[name]
            same = got == want or abs(got - want) <= 1e-9 * abs(want)
            require(same, f"{tag} threshold {name} = {got}, expected {want}")
        measured = {name: float(v) for name, v in cert["measured"].items()}
        for name in expect:
            require(measured[name] >= 0.0, f"{tag} {name} is negative")
        verdict = all(measured[name] <= thr[name] + HOLDS_TOL for name in expect)
        require(cert["holds"] == verdict, f"{tag} holds={cert['holds']} contradicts its measurements")
        holds.append(verdict)
    return holds[0], holds[1]


# --------------------------------------------------------------------------
# Probe audits


def signed_error(cost_a: float, cost_s: float, c: float) -> float:
    return (cost_s + c - cost_a) / cost_a


def check_pcp(rep: dict, rc: int, method: str, k: int, eps: float, c: float, spec: Spectrum) -> list:
    """Every probe's cost on A against the spectrum, every signed error
    recomputed from its two costs, the max and the verdict, the exit code,
    and the svd sketch's +-eps property.  Returns the per-probe rows."""
    pcp = rep["pcp"]
    rows = pcp["per_probe"]
    require(pcp["n_probes"] == len(rows) and rows, "probe count mismatch")
    floor = spec.tail_at(k) - spec.tol  # Eckart-Young: no rank-<=k probe costs less
    worst = 0.0
    for row in rows:
        tag = row["probe"]
        cost_a, cost_s = float(row["cost_a"]), float(row["cost_sketch"])
        require(floor <= cost_a <= spec.fro2 + spec.tol, f"{tag}: cost_a {cost_a} outside [opt_k, |A|^2]")
        require(cost_s >= 0.0, f"{tag}: negative sketch cost")
        if tag == "zero-rank":
            require(abs(cost_a - spec.fro2) <= spec.tol, f"zero-rank cost {cost_a} != |A|_F^2 {spec.fro2}")
        elif tag.startswith("top-a-"):
            j = int(tag[len("top-a-"):])
            want = spec.tail_at(j)
            require(abs(cost_a - want) <= spec.tol, f"{tag}: cost {cost_a}, tail energy {want}")
        require(row["zero_cost"] is False, f"{tag}: flagged zero cost on a full-rank input")
        err = signed_error(cost_a, cost_s, c)
        got = float(row["signed_rel_err"])
        require(abs(got - err) <= 1e-9 * (1.0 + abs(err)), f"{tag}: signed error {got}, costs give {err}")
        if method == "svd":
            require(abs(err) <= eps + 1e-9, f"{tag}: svd sketch error {err} outside +-{eps}")
        worst = max(worst, abs(err))
    reported = float(pcp["max_abs_rel_err"])
    require(abs(reported - worst) <= 1e-9 * (1.0 + worst), f"max error {reported}, probes give {worst}")
    passed = reported <= eps
    require(pcp["pass"] == passed, f"pass={pcp['pass']} with max error {reported} and eps {eps}")
    require(rc == (0 if passed else 2), f"exit code {rc} with pass={passed}")
    return rows


def check_report_head(rep: dict, method: str, k: int, eps: float, spec: Spectrum) -> None:
    require(rep["method"] == method, f"method {rep['method']}")
    check_width(int(rep["m"]), method, k, eps, spec)
    check_constant(float(rep["c_const"]), method, int(rep["m"]), spec)


def check_verify(rep: dict, rc: int, method: str, k: int, eps: float, spec: Spectrum, parts=None) -> None:
    check_report_head(rep, method, k, eps, spec)
    h1, h2 = check_certificates(rep, k, eps, spec)
    rows = check_pcp(rep, rc, method, k, eps, float(rep["c_const"]), spec)
    if h1 or h2:
        require(rep["pcp"]["pass"], "a certificate holds but the audit of the same sketch fails")
    if parts is not None:
        check_partition_probes(rows, parts, spec)


def check_certify(rep: dict, rc: int, method: str, k: int, eps: float, spec: Spectrum) -> None:
    check_report_head(rep, method, k, eps, spec)
    h1, h2 = check_certificates(rep, k, eps, spec)
    require(rc == (0 if (h1 or h2) else 2), f"exit code {rc} with T1={h1}, T2={h2}")


# --------------------------------------------------------------------------
# Partitions and k-means


def stirling2(n: int, j: int) -> int:
    """Number of partitions of n items into exactly j nonempty blocks."""
    row = [1] + [0] * j  # S(0, .)
    for i in range(1, n + 1):
        new = [0] * (j + 1)
        for b in range(1, min(i, j) + 1):
            new[b] = b * row[b] + row[b - 1]
        row = new
    return row[j]


def partition_labels(n: int, max_blocks: int) -> np.ndarray:
    """Every partition of range(n) into at most max_blocks blocks, one row
    each, as restricted growth strings (first label 0, each label at most
    one above the largest before it)."""
    labels = np.zeros((1, 1), dtype=np.int8)
    top = np.zeros(1, dtype=np.int8)
    for _ in range(1, n):
        parts, tops = [], []
        for lab in range(max_blocks):
            ok = lab <= top + 1
            parts.append(np.hstack([labels[ok], np.full((int(ok.sum()), 1), lab, dtype=np.int8)]))
            tops.append(np.maximum(top[ok], lab))
        labels = np.vstack(parts)
        top = np.concatenate(tops)
    return labels


def kmeans_costs(a: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """k-means cost |A|^2 - sum_j |sum of block j rows|^2 / |block j| per row of labels."""
    gram = a @ a.T
    total = float(np.trace(gram))
    explained = np.zeros(labels.shape[0])
    for lab in range(int(labels.max()) + 1):
        ind = (labels == lab).astype(float)
        size = ind.sum(axis=1)
        mass = np.einsum("ij,jk,ik->i", ind, gram, ind)
        explained += np.where(size > 0, mass / np.maximum(size, 1.0), 0.0)
    return total - explained


def kmeans_cost(a: np.ndarray, assignment) -> float:
    """Sum of squared distances of rows to their block means."""
    assignment = np.asarray(assignment)
    return float(sum(np.sum((a[assignment == j] - a[assignment == j].mean(axis=0)) ** 2) for j in np.unique(assignment)))


@dataclass
class PartitionCosts:
    """k-means cost on A of every partition into at most k blocks."""

    keys: np.ndarray  # labels read as base-k numbers, sorted
    costs: np.ndarray
    k: int

    @classmethod
    def build(cls, a: np.ndarray, k: int) -> "PartitionCosts":
        labels = partition_labels(a.shape[0], k)
        keys = labels_key(labels, k)
        order = np.argsort(keys)
        return cls(keys[order], kmeans_costs(a, labels)[order], k)

    @property
    def opt(self) -> float:
        return float(self.costs.min())


def labels_key(labels: np.ndarray, k: int) -> np.ndarray:
    weights = k ** np.arange(labels.shape[1] - 1, -1, -1, dtype=np.int64)
    return labels.astype(np.int64) @ weights


def check_partition_probes(rows: list, parts: PartitionCosts, spec: Spectrum) -> None:
    """All Stirling-many partition probes are present once, each with its cost on A."""
    n = spec.n
    tags = [r["probe"] for r in rows if r["probe"].startswith("partition-")]
    expected = sum(stirling2(n, j) for j in range(1, parts.k + 1))
    require(len(tags) == expected == len(parts.keys), f"{len(tags)} partition probes, expected {expected}")
    labels = np.array([[int(ch) for ch in t.split("-")[1]] for t in tags], dtype=np.int8)
    require(labels.shape == (expected, n), "malformed partition probe tags")
    blocks = np.array([int(t.split("-")[2][: -len("blocks")]) for t in tags])
    require(np.array_equal(blocks, labels.max(axis=1) + 1), "partition block counts disagree with labels")
    keys = labels_key(labels, parts.k)
    pos = np.searchsorted(parts.keys, keys)
    require(bool(np.all(parts.keys[np.minimum(pos, len(parts.keys) - 1)] == keys)), "unknown partition probe")
    require(len(np.unique(keys)) == expected, "duplicate partition probes")
    costs = np.array([float(r["cost_a"]) for r in rows if r["probe"].startswith("partition-")])
    bad = np.abs(costs - parts.costs[pos]) > spec.tol
    require(not bad.any(), f"{int(bad.sum())} partition probes with a wrong cost on A")


# --------------------------------------------------------------------------
# Solves


def ratio(eps: float) -> float:
    return (1.0 + eps) / (1.0 - eps)


def check_transfer(rep: dict, rc: int, eps: float, opt: float, spec: Spectrum) -> None:
    """gamma = 1 solvers: rhs is (1+eps)/(1-eps) times OPT_A, and the exit
    code follows lhs <= rhs."""
    tr, sol = rep["transfer"], rep["solution"]
    want = ratio(eps)
    require(abs(float(sol["certified_ratio"]) - want) <= 1e-12 * want, "certified ratio")
    rhs, lhs = float(tr["rhs"]), float(tr["lhs"])
    require(abs(rhs - want * opt) <= want * spec.tol, f"rhs {rhs}, ratio * OPT_A gives {want * opt}")
    require(lhs >= opt - spec.tol, f"transfer lhs {lhs} below OPT_A {opt}")
    holds = lhs <= rhs + 1e-8 * max(1.0, spec.fro2)
    require(tr["holds"] == holds and rc == (0 if holds else 2), f"holds={tr['holds']} exit {rc} with lhs {lhs}, rhs {rhs}")
    if rc == 0:
        require(float(sol["cost_on_a"]) <= want * opt + spec.tol, "cost_on_a exceeds the certified factor")


def check_solve_lowrank(rep: dict, rc: int, method: str, k: int, eps: float, spec: Spectrum) -> None:
    check_report_head(rep, method, k, eps, spec)
    opt = spec.tail_at(k)  # Eckart-Young
    cost = float(rep["solution"]["cost_on_a"])
    require(opt - spec.tol <= cost <= spec.fro2 + spec.tol, f"cost_on_a {cost} below Eckart-Young {opt}")
    check_transfer(rep, rc, eps, opt, spec)


def check_solve_kmeans(rep: dict, rc: int, method: str, k: int, eps: float, spec: Spectrum, parts=None) -> None:
    """Exhaustive solves (``parts`` given) against OPT_A over all partitions;
    Lloyd solves certify no factor and are checked for their own cost."""
    check_report_head(rep, method, k, eps, spec)
    sol = rep["solution"]
    assignment = np.array(sol["assignment"])
    require(assignment.shape == (spec.n,) and assignment.min() >= 0 and assignment.max() < k, "bad assignment")
    cost = float(sol["cost_on_a"])
    own = kmeans_cost(spec.a, assignment)
    require(abs(cost - own) <= spec.tol, f"cost_on_a {cost}, assignment costs {own}")
    require(cost >= spec.tail_at(k) - spec.tol, "k-means cost below the rank-k optimum")
    if parts is None:
        require(sol["certified_ratio"] is None and rep["transfer"]["holds"] is None and rc == 0, "Lloyd solve certified a factor")
        return
    require(cost >= parts.opt - spec.tol, f"cost_on_a {cost} below OPT_A {parts.opt}")
    check_transfer(rep, rc, eps, parts.opt, spec)


# --------------------------------------------------------------------------
# Sketch files


def read_pcpm(path) -> np.ndarray:
    """Read a PCPM file from its documented layout: magic b"PCPM", u32
    version 1, u64 rows, u64 columns, then row-major little-endian float64."""
    with open(path, "rb") as fh:
        data = fh.read()
    require(len(data) >= PCPM_HEADER.size, "truncated PCPM header")
    magic, version, n, d = PCPM_HEADER.unpack_from(data)
    require(magic == b"PCPM" and version == 1, f"bad PCPM header {magic!r} v{version}")
    require(len(data) == PCPM_HEADER.size + 8 * n * d, "PCPM size does not match its header")
    return np.frombuffer(data, dtype="<f8", offset=PCPM_HEADER.size).reshape(n, d)


def sampled_columns(a: np.ndarray, at: np.ndarray, chunk: int = 256) -> bool:
    """True when every column of ``at`` is a positive multiple of a column of ``a``."""
    an = a / np.linalg.norm(a, axis=0)
    for lo in range(0, at.shape[1], chunk):
        block = at[:, lo : lo + chunk]
        norms = np.linalg.norm(block, axis=0)
        if not (norms > 0).all():
            return False
        cos = (block / norms).T @ an
        if not (cos.max(axis=1) >= 1.0 - 1e-9).all():
            return False
    return True


def check_sketch(stdout: str, path, rc: int, method: str, k: int, eps: float, spec: Spectrum) -> None:
    out = json.loads(stdout)
    require(rc == 0 and out["command"] == "sketch", f"sketch exit {rc}")
    m = int(out["m"])
    check_width(m, method, k, eps, spec)
    c = float(out["c_const"])
    check_constant(c, method, m, spec)
    at = read_pcpm(path)
    require(at.shape == (spec.n, m) and np.isfinite(at).all(), f"sketch file shape {at.shape}")
    mass = float(np.sum(at * at))
    if method == "svd":
        # A V_m = U_m S_m: the top m squared singular values, and all the mass with c
        lam = np.sort(np.linalg.eigvalsh(at @ at.T))[::-1][:m]
        require(np.allclose(lam, spec.lam[:m], rtol=0, atol=spec.tol), "svd sketch spectrum differs from A's")
        require(abs(mass + c - spec.fro2) <= spec.tol, "svd sketch mass plus c differs from |A|_F^2")
    elif method in ("leverage", "ridge"):
        require(sampled_columns(spec.a, at), "sampled sketch column is not a rescaled input column")
    elif method == "nonoblivious":
        # A Z with orthonormal Z: A Z Z^T A^T is dominated by A A^T
        gap = np.linalg.eigvalsh(spec.a @ spec.a.T - at @ at.T)
        require(gap.min() >= -spec.tol, "nonoblivious sketch carries more than A")
    elif method == "gaussian":
        require(0.25 <= mass / spec.fro2 <= 2.0, f"gaussian sketch mass ratio {mass / spec.fro2}")


# --------------------------------------------------------------------------
# Trial sweeps


def check_bench(rep: dict, rc: int, method: str, k: int, eps: float, trials: int, n: int, d: int) -> None:
    """Per-trial widths (each generated instance is full rank n <= d), the
    pass tally, the implication per trial, and the methods whose every
    trial must pass: svd (within +-eps) and orthogonal (lossless)."""
    rows = rep["per_trial"]
    require(rep["trials"] == trials == len(rows), "trial count")
    for row in rows:
        m = int(row["m"])
        if method == "ridge":
            # the ridge-score total lies in (0, 2k]
            hi = ceil_range(CONST["ridge"] * max(math.log(k / DELTA), 1.0) / eps**2 * 2 * k)[1]
            require(1 <= m <= hi, f"ridge width {m} above {hi}")
        else:
            lo, hi = width_range(method, k, eps, n, d)
            require(lo <= m <= hi, f"{method} width {m}, formula gives {lo}..{hi}")
        err = float(row["max_abs_rel_err"])
        require(row["pass"] == (err <= eps), f"trial {row['trial']}: pass={row['pass']} with error {err}")
        if row["t1_holds"] or row["t2_holds"]:
            require(row["pass"], f"trial {row['trial']}: a certificate holds but the audit fails")
        if method == "svd":
            require(row["pass"], f"trial {row['trial']}: svd sketch outside +-eps")
        if method == "orthogonal":
            require(err <= 1e-8, f"trial {row['trial']}: orthogonal sketch error {err}")
    passes = sum(bool(r["pass"]) for r in rows)
    require(rep["pass_count"] == passes and abs(float(rep["pass_rate"]) - passes / trials) <= 1e-12, "pass tally")
    errs = [float(r["max_abs_rel_err"]) for r in rows]
    require(abs(float(rep["max_abs_rel_err_max"]) - max(errs)) <= 1e-12 * (1 + max(errs)), "max error over trials")
    require(rc == (0 if passes == trials else 2), f"exit code {rc} with {passes}/{trials} passing")


def jl_oracle(m: int, trials: int) -> tuple[float, float]:
    """Mean and standard error of |x^T S|^2 - 1|^2 for Gaussian S with m
    columns: |x^T S|^2 is chi-square(m) / m, whose second central moment is
    2/m and fourth is 12/m^2 + 48/m^3."""
    mean = 2.0 / m
    var = 12.0 / m**2 + 48.0 / m**3 - mean**2
    return mean, math.sqrt(var / trials)


def check_jl(stdout: str, rc: int, d: int, m: int, trials: int) -> None:
    out = json.loads(stdout)
    require(rc == 0 and out["command"] == "jl-moment", f"jl-moment exit {rc}")
    require(out["d"] == d and out["m"] == m and out["trials"] == trials and out["ell"] == 2, "jl-moment echo")
    mean, se = jl_oracle(m, trials)
    est = float(out["estimate"])
    require(abs(est - mean) <= 6.0 * se, f"jl-moment {est}, chi-square oracle {mean} +- {se}")


def check_harness(summary, trials: int) -> None:
    require(summary.trials == trials, "harness trial count")
    require(0 <= summary.t1_holds <= trials and 0 <= summary.t2_holds <= trials, "harness tallies")
    require(not summary.violations, f"harness found {len(summary.violations)} implication violations")
