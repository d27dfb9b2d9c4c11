"""Seeded synthetic matrix families for experiments and tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .linalg import orthonormal_columns
from .rng import Stream, rng_for

__all__ = ["GeneratorSpec", "gen_synthetic", "parse_generator_spec"]

KINDS = ("lowrank", "clustered", "powerlaw")


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic matrix.

    kind "lowrank": planted U_r S_r V_r^T with singular values linearly
    spaced in [1, r], plus entrywise Gaussian noise scaled by ``noise``.
    kind "clustered": rows drawn around k_true centers of typical pairwise
    distance ~ ``separation``, blob width ``noise``.
    kind "powerlaw": singular values i^(-alpha) with Haar factors.
    """

    kind: str
    n: int
    d: int
    rank: int | None = None
    k_true: int | None = None
    noise: float = 0.0
    alpha: float = 1.0
    separation: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}; choose from {KINDS}")
        if self.n < 1 or self.d < 1:
            raise ConfigError(f"dimensions must be positive, got n={self.n}, d={self.d}")
        if self.noise < 0.0:
            raise ConfigError(f"noise must be >= 0, got {self.noise}")
        if self.kind == "lowrank":
            if self.rank is None or not 1 <= self.rank <= min(self.n, self.d):
                raise ConfigError(f"lowrank needs 1 <= rank <= min(n, d), got {self.rank}")
        if self.kind == "clustered":
            if self.k_true is None or not 1 <= self.k_true <= self.n:
                raise ConfigError(f"clustered needs 1 <= k_true <= n, got {self.k_true}")
        if self.kind == "powerlaw" and self.alpha <= 0.0:
            raise ConfigError(f"powerlaw needs alpha > 0, got {self.alpha}")


def gen_synthetic(spec: GeneratorSpec) -> np.ndarray:
    """Materialize the matrix described by ``spec``; deterministic per seed."""
    if spec.kind == "lowrank":
        rng = rng_for(spec.seed, Stream.GEN_LOWRANK)
        r = spec.rank
        u = orthonormal_columns(rng.standard_normal((spec.n, r)))
        v = orthonormal_columns(rng.standard_normal((spec.d, r)))
        sigma = np.linspace(r, 1.0, r)
        a = (u * sigma) @ v.T
        if spec.noise > 0.0:
            a = a + spec.noise * rng.standard_normal((spec.n, spec.d))
        return a
    if spec.kind == "clustered":
        rng = rng_for(spec.seed, Stream.GEN_CLUSTERED)
        centers = spec.separation * rng.standard_normal((spec.k_true, spec.d)) / np.sqrt(spec.d)
        assignment = np.arange(spec.n) % spec.k_true
        a = centers[assignment]
        if spec.noise > 0.0:
            a = a + spec.noise * rng.standard_normal((spec.n, spec.d))
        return np.ascontiguousarray(a)
    rng = rng_for(spec.seed, Stream.GEN_POWERLAW)
    r = min(spec.n, spec.d)
    u = orthonormal_columns(rng.standard_normal((spec.n, r)))
    v = orthonormal_columns(rng.standard_normal((spec.d, r)))
    sigma = np.arange(1, r + 1, dtype=float) ** (-spec.alpha)
    return (u * sigma) @ v.T


_FIELD_TYPES = {
    "n": int,
    "d": int,
    "rank": int,
    "k_true": int,
    "noise": float,
    "alpha": float,
    "separation": float,
    "seed": int,
}


def parse_generator_spec(text: str, seed: int | None = None) -> GeneratorSpec:
    """Parse a CLI generator string like ``powerlaw:n=40,d=200,alpha=1``."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    fields: dict = {}
    if rest.strip():
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in _FIELD_TYPES:
                raise ConfigError(f"bad generator field {item!r} in {text!r}")
            try:
                fields[key] = _FIELD_TYPES[key](value.strip())
            except ValueError:
                raise ConfigError(f"bad value for {key!r} in {text!r}") from None
    if seed is not None and "seed" not in fields:
        fields["seed"] = seed
    if "n" not in fields or "d" not in fields:
        raise ConfigError(f"generator spec {text!r} must set n and d")
    try:
        return GeneratorSpec(kind=kind, **fields)
    except TypeError:
        raise ConfigError(f"bad generator spec {text!r}") from None
