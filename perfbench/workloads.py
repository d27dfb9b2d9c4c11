"""The benchmark's workloads: inputs made from the seed, and one round of ops.

Each workload function generates its input matrices with the benchmark's
own numpy code, writes them to files the program then reads, and returns
the round of operations a run repeats.  The program never sees the seed
of an input, only the file, so inputs stay bit-identical across commits
whatever the program's own generators do.  Every operation carries the
check that its output must pass (see checks.py).

Every workload reports every end-to-end metric, so each round holds at
least one operation of each kind; the kinds a workload is not named for
run on that workload's own inputs at a small share of the round's time.
Short operations are spread over the round rather than run back to back,
so that no single stretch of a noisy host decides their figures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# per-op files in the work directory, removed before each op
REPORT_FILE = "report.json"
SKETCH_FILE = "sketch.pcpm"

METHODS5 = ("gaussian", "leverage", "ridge", "svd", "nonoblivious")
METHODS6 = METHODS5[:1] + ("orthogonal",) + METHODS5[1:]
# per-call-overhead ops: trials per op, and passes of the millisecond ops per round
BENCH_TRIALS = 4
JL_TRIALS = 5000
HARNESS_TRIALS = 20
SHORT_PASSES = 8
SMALL_GEN = "lowrank:n=40,d=200,rank=3,noise=0.05"


@dataclass
class Op:
    """One closed-loop operation: a pcp command line, or (``argv`` None)
    the library call ``implication_harness(trials)`` at its default seed 0."""

    kind: str
    label: str
    argv: list | None
    check: Callable  # check(outcome) raises checks.CheckError
    trials: int = 0  # trials the operation runs, for the throughput kinds


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    report_path: Path
    value: object = None

    def report(self) -> dict:
        with open(self.report_path) as fh:
            return json.load(fh)


@dataclass
class Setup:
    ops: list  # one round
    warmup: Op


def write_csv(path: Path, a: np.ndarray) -> None:
    """CSV as pcp documents it: '# n d' then rows at 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(f"# {a.shape[0]} {a.shape[1]}\n")
        for row in a:
            fh.write(",".join(f"{x:.17g}" for x in row.tolist()))
            fh.write("\n")


def write_pcpm(path: Path, a: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(checks.PCPM_HEADER.pack(b"PCPM", 1, a.shape[0], a.shape[1]))
        fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.sign(np.diag(r))


def planted_lowrank(rng, n: int, d: int, sigma, noise: float) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    r = sigma.size
    return (orthonormal(rng, n, r) * sigma) @ orthonormal(rng, d, r).T + noise * rng.standard_normal((n, d))


def powerlaw(rng, n: int, d: int, alpha: float) -> np.ndarray:
    r = min(n, d)
    sigma = np.arange(1, r + 1, dtype=float) ** (-alpha)
    return (orthonormal(rng, n, r) * sigma) @ orthonormal(rng, d, r).T


def clustered(rng, n: int, d: int, k: int, separation: float, noise: float) -> np.ndarray:
    centers = separation * rng.standard_normal((k, d)) / np.sqrt(d)
    labels = rng.permutation(np.arange(n) % k)
    return centers[labels] + noise * rng.standard_normal((n, d))


def write_inputs(work: Path, matrices: dict) -> dict:
    inputs = {}
    for name, a in matrices.items():
        path = work / name
        (write_pcpm if name.endswith(".pcpm") else write_csv)(path, a)
        inputs[name] = (path, a)
    return inputs


class _Ops:
    """Builds ops whose checks compute the inputs' oracles on first use and
    keep them in ``spectra`` and ``parts``, so the oracles are computed
    outside set-up and outside the timed region."""

    def __init__(self, spectra: dict, inputs: dict, work: Path, seed: int, parts: dict):
        self.spectra = spectra
        self.inputs = inputs
        self.report = work / REPORT_FILE
        self.sketch_out = work / SKETCH_FILE
        self.seed = seed
        self.parts = parts

    def spec(self, name: str) -> checks.Spectrum:
        if name not in self.spectra:
            self.spectra[name] = checks.Spectrum(self.inputs[name][1])
        return self.spectra[name]

    def _partitions(self, name: str, k: int) -> checks.PartitionCosts:
        if name not in self.parts:
            self.parts[name] = checks.PartitionCosts.build(self.inputs[name][1], k)
        return self.parts[name]

    def _base(self, cmd: str, name: str, method: str, k: int, eps: float) -> list:
        return [cmd, "--input", str(self.inputs[name][0]), "--method", method,
                "--k", str(k), "--eps", str(eps), "--seed", str(self.seed)]

    def verify(self, name, method, k, eps, exhaustive=False) -> Op:
        argv = self._base("verify", name, method, k, eps) + ["--report-out", str(self.report)]
        if exhaustive:
            argv.append("--exhaustive-probes")

        def check(out: Outcome):
            parts = self._partitions(name, k) if exhaustive else None
            checks.check_verify(out.report(), out.rc, method, k, eps, self.spec(name), parts)

        return Op("verify", f"verify {method} {name}", argv, check)

    def certify(self, name, method, k, eps) -> Op:
        argv = self._base("certify", name, method, k, eps) + ["--report-out", str(self.report)]

        def check(out: Outcome):
            checks.check_certify(out.report(), out.rc, method, k, eps, self.spec(name))

        return Op("certify", f"certify {method} {name}", argv, check)

    def sketch(self, name, method, k, eps) -> Op:
        argv = self._base("sketch", name, method, k, eps) + ["--out", str(self.sketch_out)]

        def check(out: Outcome):
            checks.check_sketch(out.stdout, self.sketch_out, out.rc, method, k, eps, self.spec(name))

        return Op("sketch", f"sketch {method} {name}", argv, check)

    def solve_lowrank(self, name, method, k, eps) -> Op:
        argv = self._base("solve", name, method, k, eps) + ["--task", "lowrank", "--report-out", str(self.report)]

        def check(out: Outcome):
            checks.check_solve_lowrank(out.report(), out.rc, method, k, eps, self.spec(name))

        return Op("solve_lowrank", f"solve lowrank {method} {name}", argv, check)

    def solve_kmeans(self, name, method, k, eps, solver) -> Op:
        argv = self._base("solve", name, method, k, eps) + [
            "--task", "kmeans", "--solver", solver, "--report-out", str(self.report)]

        def check(out: Outcome):
            parts = self._partitions(name, k) if solver == "exhaustive" else None
            checks.check_solve_kmeans(out.report(), out.rc, method, k, eps, self.spec(name), parts)

        return Op("solve_kmeans", f"solve kmeans {solver} {method} {name}", argv, check)

    def bench(self, gen: str, n: int, d: int, method, k, eps, trials) -> Op:
        argv = ["bench", "--gen", gen, "--method", method, "--k", str(k), "--eps", str(eps),
                "--trials", str(trials), "--seed", str(self.seed), "--report-out", str(self.report)]

        def check(out: Outcome):
            checks.check_bench(out.report(), out.rc, method, k, eps, trials, n, d)

        return Op("bench", f"bench {method} {gen}", argv, check, trials=trials)

    def jl(self, d: int, m: int, trials: int) -> Op:
        argv = ["jl-moment", "--d", str(d), "--m", str(m), "--trials", str(trials), "--seed", str(self.seed)]

        def check(out: Outcome):
            checks.check_jl(out.stdout, out.rc, d, m, trials)

        return Op("jl", f"jl-moment d={d} m={m}", argv, check, trials=trials)

    def harness(self, trials: int) -> Op:
        """The harness draws its own instances, whose sizes vary with its
        seed, so it keeps its default seed and the same work in every run."""

        def check(out: Outcome):
            checks.check_harness(out.value, trials)

        return Op("harness", f"implication_harness({trials})", None, check, trials=trials)


def small_calls(b: _Ops) -> list:
    """The per-call-overhead ops: ``pcp bench`` over all six methods on
    SMALL_GEN (k=3, eps=0.4, orthogonal included, no ``--parallel``), each
    followed by ``jl-moment --d 64 --m 100`` and ``implication_harness``.
    A few trials each, so that every one runs several times a run."""
    jl, harness = b.jl(64, 100, JL_TRIALS), b.harness(HARNESS_TRIALS)
    return [op for method in METHODS6
            for op in (b.bench(SMALL_GEN, 40, 200, method, 3, 0.4, BENCH_TRIALS), jl, harness)]


def interleave(calls: list, short: list) -> list:
    """Each call followed by its share of ``short``, so that both spread
    over the same stretch of the round."""
    ops = []
    for i, op in enumerate(calls):
        ops += [op] + short[i :: len(calls)]
    return ops


def wide_verify(seed: int, work: Path, spectra: dict, parts: dict) -> Setup:
    """Two 200 x 4000 inputs at k=5, eps=0.4: planted rank 5 plus noise as
    CSV, and a power-law spectrum as PCPM.  The round is every pairing of
    certify, verify, sketch and solve-lowrank with the five methods, the
    file alternating.  Between them run the kinds this workload is not
    named for, each cheap and run many times a round: five Lloyd k-means
    solves (svd, PCPM input), and ten each of jl-moment, a gaussian bench
    and the harness, at half the trials of ``small_calls``."""
    rng = np.random.default_rng([seed, 1])
    inputs = write_inputs(work, {
        "lowrank.csv": planted_lowrank(rng, 200, 4000, [50.0, 40.0, 30.0, 20.0, 10.0], 0.05),
        "powerlaw.pcpm": powerlaw(rng, 200, 4000, 1.0),
    })
    k, eps = 5, 0.4
    b = _Ops(spectra, inputs, work, seed, parts)
    files = list(inputs)
    core = []
    for j, method in enumerate(METHODS5):
        for i, make in enumerate((b.certify, b.verify, b.sketch, b.solve_lowrank)):
            core.append(make(files[(i + j) % 2], method, k, eps))
    small = [
        b.jl(64, 100, JL_TRIALS // 2),
        b.bench(SMALL_GEN, 40, 200, "gaussian", 3, 0.4, BENCH_TRIALS // 2),
        b.harness(HARNESS_TRIALS // 2),
    ]
    filler = ([b.solve_kmeans("powerlaw.pcpm", "svd", k, eps, "lloyd")] + small + small) * 5
    return Setup(interleave(core, filler), b.sketch("lowrank.csv", "gaussian", k, eps))


def exhaustive_small(seed: int, work: Path, spectra: dict, parts: dict) -> Setup:
    """Two planted 3-cluster 12 x 40 inputs (CSV and PCPM) at k=3, eps=0.5.
    The round is one exhaustive k-means solve (gaussian) and one verify with
    every partition probe (svd), each enumerating all 88,574 partitions.
    Before each runs half of the per-call-overhead block: the ops of
    ``small_calls``, and between them passes of certify, sketch and
    solve-lowrank with each of the five methods on the 12 x 40 inputs.
    These take milliseconds to a few tenths of a second and vary from call
    to call, so each runs many times a round for a steady median."""
    rng = np.random.default_rng([seed, 2])
    inputs = write_inputs(work, {
        "clusters-a.csv": clustered(rng, 12, 40, 3, 10.0, 0.5),
        "clusters-b.pcpm": clustered(rng, 12, 40, 3, 10.0, 0.5),
    })
    k, eps = 3, 0.5
    b = _Ops(spectra, inputs, work, seed, parts)
    a_, b_ = list(inputs)
    short = []
    for _ in range(SHORT_PASSES):
        for j, method in enumerate(METHODS5):
            for i, make in enumerate((b.certify, b.sketch, b.solve_lowrank)):
                short.append(make((a_, b_)[(i + j) % 2], method, k, eps))
    block = interleave(small_calls(b), short)
    half = len(block) // 2
    ops = block[:half] + [b.solve_kmeans(a_, "gaussian", k, eps, "exhaustive")]
    ops += block[half:] + [b.verify(b_, "svd", k, eps, exhaustive=True)]
    return Setup(ops, b.certify(a_, "gaussian", k, eps))


WORKLOADS = {
    "wide-verify": wide_verify,
    "exhaustive-small": exhaustive_small,
}
