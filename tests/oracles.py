"""Independent reference computations used to check the library.

Everything here deliberately avoids np.linalg so that spectral
quantities are confirmed through a second, unrelated route: a
hand-rolled cyclic Jacobi eigensolver, direct entrywise residual
sums, and brute-force enumeration.  Slow is fine; these only see
desk-scale inputs.
"""

from __future__ import annotations

import itertools

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
