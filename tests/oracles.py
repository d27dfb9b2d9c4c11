"""Independent reference computations used to check the library.

Everything here except the dense certificate functionals, the dense
Dinkelbach audit, the per-probe audit and the report writers at the end
deliberately avoids np.linalg so that spectral quantities are confirmed
through a second, unrelated route: a hand-rolled cyclic Jacobi
eigensolver, direct entrywise residual sums, and brute-force enumeration.  The dense certificate functionals are the
row-space action ``V^T S`` and the subspace embedding, product and
Frobenius errors of a dense operator on A's own head and tail, which the
tests check against those routes and ``certify`` must agree with.  The dense Dinkelbach audit solves for the
worst rank-<=k projection in A's n x n coordinates, with ``np.linalg.eigh``
as its only solver.  The Haar projection draws the random subspaces
the tests score, with the library's QR.  The per-probe audit scores one probe at a
time, as the library did before it scored the stacked probe array, and
the report writers are the plain row-by-row encoders that the CLI's
columnar writer must agree with.  The factorization log at the end
records the library's calls to np.linalg's SVD and eigensolver and names
each by the matrix it factors; the right-factor log beside it records each
right singular factor the library forms from a left one.  Slow is fine;
these only see desk-scale inputs.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np


def jacobi_eigh(sym, sweeps=100, tol=1e-13):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, eigenvectors as columns).  Uses only
    elementary array arithmetic, no LAPACK.
    """
    a = np.array(sym, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    n = a.shape[0]
    v = np.eye(n)
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            row_max = float(np.max(np.abs(a[p, p + 1 :])))
            off = max(off, row_max)
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol * scale * 1e-3:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                sgn = 1.0 if theta >= 0.0 else -1.0
                t = sgn / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def gram_eigenvalues(a):
    """Eigenvalues of A^T A (ascending), i.e. squared singular values padded with zeros."""
    a = np.asarray(a, dtype=float)
    w, _ = jacobi_eigh(a.T @ a)
    return np.clip(w, 0.0, None)


def direct_projection_cost(a, q):
    """||A - QQ^T A||_F^2 by materializing the residual, no Pythagorean shortcut."""
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    resid = a - q @ (q.T @ a)
    total = 0.0
    for row in resid:
        for x in row:
            total += float(x) * float(x)
    return total


def variance_kmeans_cost(m, labels):
    """k-means objective as a sum of within-cluster squared distances to the mean."""
    m = np.asarray(m, dtype=float)
    labels = np.asarray(labels, dtype=int)
    total = 0.0
    for c in np.unique(labels):
        block = m[labels == c]
        mu = block.mean(axis=0)
        total += float(((block - mu) ** 2).sum())
    return total


def partitions_reference(n, max_blocks):
    """All partitions of range(n) into at most max_blocks nonempty blocks.

    Independent of the library's generator: enumerate every label vector
    and keep the canonical representative of each partition.
    """
    seen = set()
    out = []
    for labels in itertools.product(range(min(n, max_blocks)), repeat=n):
        canon = []
        remap = {}
        for lab in labels:
            if lab not in remap:
                remap[lab] = len(remap)
            canon.append(remap[lab])
        canon = tuple(canon)
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


def partition_costs_by_labels(m, labels):
    """k-means cost of ``m``'s rows under each row of a label table, each
    block's bitmask rebuilt from the labels, one block at a time.

    The same arithmetic as the library's kernel, in the same order: q[T]
    sums the Gram matrix over T x T for every subset T of rows, and a row
    costs |M|_F^2 - sum_j q[T_j] / |T_j|, the blocks added in label order
    to a zero start and the result clamped at zero.  So the library's costs
    must equal these bit for bit, however it enumerates the partitions.
    """
    m = np.asarray(m, dtype=float)
    labels = np.asarray(labels)
    n = m.shape[0]
    member = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    q = np.sum((member @ (m @ m.T)) * member, axis=1)
    explained_by = q / np.maximum(member.sum(axis=1), 1.0)
    explained = np.zeros(labels.shape[0])
    for j in range(int(labels.max(initial=-1)) + 1):
        mask = np.zeros(labels.shape[0], dtype=np.int64)
        for i in range(n):
            mask |= (labels[:, i] == j).astype(np.int64) << i
        explained += explained_by[mask]
    return np.maximum(float(np.sum(m * m)) - explained, 0.0)


def plusplus_reference(m, k, rng):
    """k-means++ centers drawn with numpy's own weighted choice: the first
    row uniformly (``rng.integers``), each next one by
    ``rng.choice(n, p=d2 / total)`` over the squared distances d2 to the
    nearest center so far, or uniformly when every distance is zero."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    rows = [int(rng.integers(n))]
    d2 = np.sum((m - m[rows[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        rows.append(int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total)))
        d2 = np.minimum(d2, np.sum((m - m[rows[-1]]) ** 2, axis=1))
    return m[rows]


def lloyd_reference(m, k, iters, rng, trace=None):
    """One Lloyd run as a loop of its own, from ``plusplus_reference``
    centers drawn from ``rng``, a generator (advanced by the draw) or a seed
    of the stream ``lloyd_kmeans`` uses: each iteration assigns rows by the
    distance product, reseeds empty clusters with the farthest points, and
    moves the centers to the cluster means; it stops when the assignment
    repeats.  Returns the final assignment; ``trace``, when a list, gets the
    k-means objective of each iteration's assignment."""
    from pcpsketch.rng import Stream, rng_for

    if not isinstance(rng, np.random.Generator):
        rng = rng_for(rng, Stream.LLOYD)
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    centers = plusplus_reference(m, k, rng)
    assignment = np.zeros(n, dtype=np.int64)
    row_norm2 = (m * m).sum(axis=1)[:, None]
    for _ in range(iters):
        d2 = np.maximum(-2.0 * m @ centers.T + row_norm2 + (centers * centers).sum(axis=1), 0.0)
        new = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(n), new]
        for j in range(k):
            if not (new == j).any():
                far = int(np.argmax(point_d2))
                new[far] = j
                point_d2[far] = 0.0
        if trace is not None:
            trace.append(variance_kmeans_cost(m, new))
        unchanged = np.array_equal(new, assignment)
        assignment = new
        counts = np.bincount(assignment, minlength=k)
        filled = counts > 0
        sums = (assignment == np.arange(k)[:, None]) @ m
        centers[filled] = sums[filled] / counts[filled, None]
        if unchanged:
            break
    return assignment


def jl_moment_reference(m, ell, trials, seed):
    """(estimate, stderr) of E | |x^T S|_2^2 - 1 |^ell at x = e_1 from one
    (trials, m) standard-normal draw of the stream (seed, Stream.JL_TRIAL),
    all rows at once: trial t is row t, scaled by 1/sqrt(m)."""
    from pcpsketch.rng import Stream, rng_for

    rows = rng_for(seed, Stream.JL_TRIAL).standard_normal((trials, m)) / math.sqrt(m)
    vals = np.abs(np.sum(rows * rows, axis=1) - 1.0) ** ell
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials))


def indices_from_uniforms_loop(probs, u):
    """Inverse-CDF column lookup with the next-positive table built by a
    reversed Python loop: each hit moves to the first positive-probability
    column at or after it, or to the last positive column past the end."""
    probs = np.asarray(probs, dtype=float)
    cum = np.cumsum(probs)
    idx = np.minimum(np.searchsorted(cum, u, side="left"), probs.shape[0] - 1)
    positive = probs > 0.0
    next_pos = np.full(probs.shape[0], -1, dtype=np.int64)
    cur = int(np.nonzero(positive)[0][-1])
    for i in range(probs.shape[0] - 1, -1, -1):
        if positive[i]:
            cur = i
        next_pos[i] = cur
    return next_pos[idx]


def min_eig_sym(sym):
    w, _ = jacobi_eigh(sym)
    return float(w[0])


def spectral_sandwich_sides(a, s, lam, eps):
    """Min eigenvalues of the two PSD conditions defining the spectral error.

    The claim "error <= eps" means eps*AA^T + lam*I - E and
    eps*AA^T + lam*I + E are both PSD on col(A), where
    E = A S S^T A^T - A A^T.  Returns those two minimum eigenvalues,
    restricted to col(A) using a Jacobi eigenbasis.
    """
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    b = a @ a.T
    e = (a @ s) @ (a @ s).T - b
    w, vecs = jacobi_eigh(b)
    keep = w > 1e-12 * max(w.max(), 1e-300)
    q = vecs[:, keep]
    base = eps * b + lam * np.eye(a.shape[0])
    upper = q.T @ (base - e) @ q
    lower = q.T @ (base + e) @ q
    return min_eig_sym(upper), min_eig_sym(lower)


@dataclass(frozen=True)
class HeadTailSplit:
    """A matrix split into its best rank-r part and the rest, with the top
    r right singular vectors: ``head + tail`` is the matrix."""

    head: np.ndarray
    tail: np.ndarray
    v_r: np.ndarray


def head_tail_split(fact, m, r):
    """``m`` split into its projection onto the top-``r`` left singular
    subspace of ``fact`` (an ``SvdFactorization``) and the remainder; ``r``
    past the rank clamps, so head is the whole matrix and tail is zero."""
    if r < 0:
        raise ValueError(f"split rank must be >= 0, got {r}")
    m = np.asarray(m, dtype=float)
    r = min(int(r), fact.rank)
    u_r = fact.u[:, :r]
    head = u_r @ (u_r.T @ m)
    return HeadTailSplit(head, m - head, fact.v[:, :r])


def row_space_action(m, s):
    """``V^T S`` for V the right singular vectors of ``m``, from the
    library's SVD (LAPACK's, with the library's signs), and a dense operator
    or sampling pattern ``s``."""
    from pcpsketch.linalg import svd

    return svd(m).v.T @ s


def subspace_embedding_error(m, s):
    """Worst relative squared-norm distortion of S over the row space of
    ``m``, |V^T S S^T V - I|_2 for V an orthonormal basis of that space.
    The zero matrix has no row space and is an error."""
    from pcpsketch.linalg import svd

    fact = svd(m)
    if fact.rank == 0:
        raise ValueError("subspace embedding error undefined for the zero matrix")
    w = fact.v.T @ np.asarray(s, dtype=float)
    return float(np.max(np.abs(np.linalg.eigvalsh(w @ w.T - np.eye(fact.rank)))))


def amm_error(m, n, s):
    """Normalized product error |M N - M S S^T N|_F / (|M|_F |N|_F), zero
    when either factor is zero."""
    m, n, s = (np.asarray(x, dtype=float) for x in (m, n, s))
    denom = float(np.linalg.norm(m) * np.linalg.norm(n))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(m @ n - (m @ s) @ (s.T @ n))) / denom


def frobenius_preservation_error(m, s):
    """Relative loss of squared Frobenius mass, | |M|_F^2 - |M S|_F^2 | / |M|_F^2,
    zero for the zero matrix."""
    m = np.asarray(m, dtype=float)
    total = float(np.sum(m * m))
    if total == 0.0:
        return 0.0
    ms = m @ np.asarray(s, dtype=float)
    return abs(total - float(np.sum(ms * ms))) / total


def certify_dense_measured(a, s, k, eps):
    """Both certificates' measured values by the dense-operator formulas:
    the functionals above on A's own n x d head and tail and the d x m
    operator S, each head factored again.  Like them, this reuses the
    library's SVD, and its ``spectral_approx_error``; it pins the original
    coordinates that ``certify`` leaves for sigma and one r x r Gram.

    Returns (T1 measured, T2 measured, T2 frob_tail_p threshold)."""
    from pcpsketch.guarantees import spectral_approx_error
    from pcpsketch.linalg import svd, tail_index_p

    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    fact = svd(a)
    split = head_tail_split(fact, a, k)
    if fact.rank == 0:
        se = amm_tt = amm_tv = frob_t = 0.0
    elif fact.rank <= k:
        se = subspace_embedding_error(split.head, s)
        amm_tt = amm_tv = frob_t = 0.0
    else:
        se = subspace_embedding_error(split.head, s)
        amm_tt = amm_error(split.tail, split.tail.T, s)
        amm_tv = amm_error(split.tail, split.v_r, s)
        frob_t = frobenius_preservation_error(split.tail, s)
    t1 = {"se_err": se, "amm_tail_tail": amm_tt, "amm_tail_vk": amm_tv, "frob_tail": frob_t}

    sigma2 = fact.sigma * fact.sigma
    tail2_k = float(np.sum(sigma2[k:]))
    lam = eps * tail2_k / (24.0 * k)
    p = tail_index_p(fact, k)
    spectral = 0.0 if fact.rank == 0 else spectral_approx_error(a, s, lam)
    if fact.rank <= p:
        frob_tp, budget = 0.0, float("inf")
    else:
        frob_tp = frobenius_preservation_error(head_tail_split(fact, a, p).tail, s)
        budget = (eps / 12.0) * tail2_k / float(np.sum(sigma2[p:]))
    t2 = {"spectral_eps": spectral, "frob_tail_p": frob_tp, "lambda_used": lam, "p_used": float(p)}
    return t1, t2, budget


def dinkelbach_distortion(a, a_tilde, c, k):
    """Exact sup over rank-j projections P, j = 0..k, of the |signed error|
    (cost_sketch(P) + c - cost_a(P)) / cost_a(P), in A's own n x n
    coordinates; cost_a must be positive at every rank-<=k P (rank(A) > k).
    The value of ``dinkelbach_witness``."""
    return dinkelbach_witness(a, a_tilde, c, k)[0]


def dinkelbach_witness(a, a_tilde, c, k):
    """(value, sign, j, Q) of ``dinkelbach_distortion``: the sup, the sign s
    and rank j of the error it is attained at, and an n x j orthonormal Q
    whose projection QQ^T has signed error s * value.

    With E = A_tilde A_tilde^T - A A^T, the error at P = Q Q^T is
    s (tr E + c - tr Q^T E Q) / (tr A A^T - tr Q^T A A^T Q) for sign s.
    Dinkelbach's iteration maximizes that ratio globally: at the current
    value lam, the eigenvectors of the j smallest eigenvalues of
    s E - lam A A^T give the next Q, whose ratio is the next lam, until lam
    stops rising.  Every value is the error at an actual Q, scored as the
    audit scores a probe, |M|_F^2 - |Q^T M|_F^2."""
    a = np.asarray(a, dtype=float)
    a_tilde = np.asarray(a_tilde, dtype=float)
    aat = a @ a.T
    e = a_tilde @ a_tilde.T - aat

    def cost(m, q):
        return float(np.sum(m * m)) - float(np.sum((q.T @ m) ** 2))

    def signed(q):
        cost_a = cost(a, q)
        return (cost(a_tilde, q) + c - cost_a) / cost_a

    q0 = np.zeros((a.shape[0], 0))
    err0 = signed(q0)
    best, witness = abs(err0), (1.0 if err0 >= 0 else -1.0, 0, q0)
    for s in (1.0, -1.0):
        for j in range(1, k + 1):
            lam, q_lam = 0.0, None
            for _ in range(200):
                q = np.linalg.eigh(s * e - lam * aat)[1][:, :j]
                nxt = s * signed(q)
                if nxt <= lam:
                    break
                lam, q_lam = nxt, q
            if lam > best:
                best, witness = lam, (s, j, q_lam)
    return (best,) + witness


def probe_projections(probes):
    """One ``Projection`` per probe of a ``ProbeSet``, its zero padding
    columns dropped."""
    from pcpsketch.linalg import Projection

    return [Projection(basis[:, np.any(basis != 0.0, axis=0)]) for basis in probes.bases]


def haar_projection(n, k, seed):
    """Rank-``k`` projection onto a Haar-random subspace of R^n: the
    sign-corrected QR of an n x k standard-normal draw from the stream
    (seed, 1), deterministic per seed.  Stream id 1 is retired from the
    library's registry, so these draws share no bits with its own."""
    from pcpsketch.linalg import Projection, orthonormal_columns
    from pcpsketch.rng import rng_for

    return Projection(orthonormal_columns(rng_for(seed, 1).standard_normal((n, k))))


def pcp_error_on_probe(a, a_tilde, c, p):
    """Signed relative cost error (cost_sketch + c - cost_a) / cost_a of one
    ``Projection``, both costs on the cores by ``projection_cost``.  Raises
    ValueError when the cost on A is (numerically) zero, where the audit
    uses its absolute check instead of a ratio."""
    from pcpsketch.linalg import factor, projection_cost

    a = factor(a)
    at = factor(a_tilde, "a_tilde")
    cost_a = projection_cost(factor(a.core), p)
    if cost_a <= 1e-12 * a.frob2:
        raise ValueError("probe cost on A is (numerically) zero; use the absolute zero check")
    return (projection_cost(factor(at.core), p) + c - cost_a) / cost_a


@dataclass(frozen=True)
class Implication:
    certificate_t1: object
    certificate_t2: object
    report: object
    consistent: bool


def implication_test(a, s, k, eps, probes=None):
    """Certificates against the audit on one operator S.

    Forms A_tilde = A S with c = 0 and runs ``certify`` and the probe
    report at eps, over ``generate_probes`` at eps (an exact verdict) unless
    ``probes`` is given; consistent means each certificate that holds is
    matched by a passing report.  The certificates are sufficient conditions, so an
    inconsistency is a bug, not noise."""
    from pcpsketch.audit import generate_probes, pcp_report
    from pcpsketch.guarantees import certify

    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    a_tilde = a @ s
    t1, t2 = certify(a, s, k, eps)
    if probes is None:
        probes = generate_probes(a, s, k, eps)
    report = pcp_report(a, a_tilde, 0.0, probes, eps)
    consistent = (not t1.holds or report.passed) and (not t2.holds or report.passed)
    return Implication(t1, t2, report, consistent)


def probe_rows(report):
    """One dict per probe of a ``PcpReport``, keyed as a report row."""
    return [
        {"probe": t, "cost_a": ca, "cost_sketch": cs, "signed_rel_err": e, "zero_cost": z}
        for t, ca, cs, e, z in zip(
            report.tags.tolist(),
            report.cost_a.tolist(),
            report.cost_sketch.tolist(),
            report.signed_rel_err.tolist(),
            report.zero_cost.tolist(),
        )
    ]


def json_safe(obj):
    """``obj`` with numpy scalars unwrapped and non-finite floats spelled
    "inf", "-inf" or "nan", one value at a time."""
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def json_report_text(report: dict) -> str:
    """The report made JSON-safe, then encoded by one ``json.dumps(indent=2)``."""
    return json.dumps(json_safe(report), indent=2, allow_nan=False)


def csv_report_text(report: dict) -> str:
    """The report flattened to dotted keys (list items by index), a header
    line and a value line: None empty, booleans true/false, else ``str``.
    A cell holding a comma, a double quote or a line break is quoted as
    RFC 4180 says: wrapped in double quotes, its own doubled."""
    flat = {}

    def walk(obj, prefix):
        if isinstance(obj, dict):
            for key, value in obj.items():
                walk(value, f"{prefix}.{key}" if prefix else str(key))
        elif isinstance(obj, list):
            for i, value in enumerate(obj):
                walk(value, f"{prefix}.{i}")
        else:
            flat[prefix] = obj

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    def quote(text):
        if any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    walk(json_safe(report), "")
    return ",".join(map(quote, flat)) + "\n" + ",".join(quote(cell(v)) for v in flat.values())


def factorization_log(monkeypatch) -> list:
    """Patch ``np.linalg.svd`` and ``np.linalg.eigh`` to append
    ``(driver, copy of the argument)`` to the returned list on every call."""
    log = []
    for driver in ("svd", "eigh"):
        real = getattr(np.linalg, driver)

        def counting(x, *args, _real=real, _driver=driver, **kwargs):
            log.append((_driver, np.array(x)))
            return _real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, driver, counting)
    return log


def factorization_counts(log: list, named: dict) -> Counter:
    """The calls of a ``factorization_log``, each counted by the matrix it
    factors.  A matrix of ``named`` is factored through its smaller Gram
    (``A A^T`` when wide, else ``A^T A``), which an eigh is counted as
    ``(name, "gram")``, and through an SVD of it or its transpose, counted
    as ``(name, "svd")``; the first name that fits is counted, since two
    matrices can share a Gram (a sketch ``A S`` with orthogonal ``S`` has
    A's).  Any other call counts as ``(driver, shape)``."""
    counts = Counter()
    for driver, x in log:
        key = (driver, x.shape)
        for name, m in named.items():
            gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
            if driver == "svd" and x.shape in (m.shape, m.shape[::-1]):
                if np.array_equal(x, m if x.shape == m.shape else m.T):
                    key = (name, "svd")
                    break
            elif driver == "eigh" and x.shape == gram.shape:
                if np.allclose(x, gram, rtol=0.0, atol=1e-12 * max(np.abs(gram).max(), 1.0)):
                    key = (name, "gram")
                    break
        counts[key] += 1
    return counts


def right_factor_log(monkeypatch) -> list:
    """Patch ``linalg._right_factor``, where the library forms a right
    singular factor ``A^T U Sigma^-1`` from a left one, to append
    ``(copy of A, columns formed)`` to the returned list on every call."""
    from pcpsketch import linalg

    log = []
    real = linalg._right_factor

    def counting(a, u, sigma):
        log.append((np.array(a), u.shape[1]))
        return real(a, u, sigma)

    monkeypatch.setattr(linalg, "_right_factor", counting)
    return log


def right_factor_counts(log: list, named: dict) -> Counter:
    """The calls of a ``right_factor_log`` counted as ``(name, columns)`` by
    the matrix of ``named`` they were made on, else as ``(shape, columns)``."""
    counts = Counter()
    for a, cols in log:
        name = next((name for name, m in named.items() if m.shape == a.shape and np.array_equal(m, a)), a.shape)
        counts[(name, cols)] += 1
    return counts
