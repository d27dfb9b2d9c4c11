"""Benchmark of the pcp sketch -> certify -> audit -> solve pipeline.

    python3 perfbench/run.py --workload wide-verify --seed 1 --seconds 52 --trace 0

Run from a checkout: the program is imported from ``src/`` next to this
directory, in-process, and driven through ``pcpsketch.cli.main`` with the
arguments a user would pass (plus one library call, the implication
harness).  A run times the program's import in three fresh interpreters
and sets up its inputs three times, for a median set-up time, then
repeats whole rounds of its workload's operations, closed loop: at least
one, and as many as bring its length nearest to ``--seconds``.  Every
operation's output is checked outside the timed region.  OpenBLAS runs
one thread, so the process keeps to one core of the host.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same run is traced and the
object carries the per-layer metrics instead, and the spans are written
to ``.perfbench/traces/``.  The lines before it give every metric with its
unit and the attempted and failed operations behind it.
"""

from __future__ import annotations

import os

# before numpy is first imported: one BLAS thread, in this process and in
# the interpreters that time the import
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# run in a fresh interpreter: the seconds it takes to import the program
IMPORT_PROBE = ("import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import pcpsketch.cli, pcpsketch.audit; print(time.perf_counter() - t0)")
MAX_FAILURE_LINES = 5

# end-to-end metric -> op kind.  A round holds a fixed mix of operations per
# kind (methods and inputs), each identified by its label.  A timing is the
# mean over the mix of each operation's median time: a median over all of the
# kind's samples would jump between the mix's methods from run to run, and a
# plain mean follows the one sample a busy host or a first call slowed.  The
# median and tail of all the kind's samples are printed beside it.  A
# throughput is the trials of one pass over the mix over the sum of each
# operation's median time.
TIMINGS = {
    "verify_s": "verify",
    "certify_s": "certify",
    "sketch_s": "sketch",
    "solve_lowrank_s": "solve_lowrank",
    "solve_kmeans_s": "solve_kmeans",
}
THROUGHPUTS = {
    "bench_trials_per_s": "bench",
    "jl_trials_per_s": "jl",
    "harness_trials_per_s": "harness",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import pcpsketch from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "pcpsketch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src / 'pcpsketch'}")
    sys.path.insert(0, str(src))
    import pcpsketch
    from pcpsketch import audit, cli

    if not Path(pcpsketch.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: pcpsketch imported from {pcpsketch.__file__}, not {src}")
    return cli, audit


def import_seconds() -> float:
    """Time ``import pcpsketch.cli, pcpsketch.audit`` (numpy included) in a
    fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def percentile_tail(samples: list):
    """The highest percentile with at least ten samples beyond it, given 40+ samples."""
    n = len(samples)
    if n < 40:
        return None
    return 100 * (n - 10) // n, sorted(samples)[n - 11]


class Runner:
    def __init__(self, cli, audit, tracer=None):
        self.cli, self.audit, self.tracer = cli, audit, tracer
        self.times = defaultdict(lambda: defaultdict(list))  # kind -> label -> seconds
        self.trials = {}  # label -> trials of one such op
        self.attempted = defaultdict(int)
        self.failed = defaultdict(int)
        self.wrong = 0
        self.failures: list = []
        self.log: list = []  # (kind, label, seconds, ok) per operation, in order

    def execute(self, op, report_path=None):
        """Run one op; returns (seconds, outcome, error text or None)."""
        out, err = io.StringIO(), io.StringIO()
        value, rc, error = None, None, None
        traced = self.tracer.op(op.kind) if self.tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                with traced:
                    if op.argv is None:
                        value = self.audit.implication_harness(op.trials)
                        rc = 0
                    else:
                        rc = self.cli.main(op.argv)
            except Exception:  # an op that raises is counted failed; the run goes on
                error = traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
        if error is None and rc == 1:
            error = f"exit 1: {err.getvalue().strip()[-300:]}"
        return dt, workloads.Outcome(rc, out.getvalue(), report_path, value), error

    def run(self, op, report_path: Path, sketch_path: Path) -> None:
        for p in (report_path, sketch_path):
            p.unlink(missing_ok=True)
        gc.collect()  # each op starts from a collected heap, not the last op's garbage
        dt, outcome, error = self.execute(op, report_path)
        self.attempted[op.kind] += 1
        self.times[op.kind][op.label].append(dt)
        self.trials[op.label] = op.trials
        if error is None:
            try:
                op.check(outcome)
            except (checks.CheckError, KeyError, TypeError, ValueError, OSError) as exc:
                error = f"wrong output: {type(exc).__name__}: {exc}"
                self.wrong += 1
        self.log.append((op.kind, op.label, dt, error is None))
        if error is not None:
            self.failed[op.kind] += 1
            if len(self.failures) < MAX_FAILURE_LINES:
                self.failures.append(f"{op.label}: {error}")


def setup_once(name, seed, work, spectra, parts, runner):
    """Generate and write the inputs, then one untimed warm-up operation."""
    t0 = time.perf_counter()
    setup = workloads.WORKLOADS[name](seed, work, spectra, parts)
    runner.execute(setup.warmup)
    return setup, time.perf_counter() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, audit = import_program()
    import_s = statistics.median(import_seconds() for _ in range(IMPORT_REPEATS))

    base = ROOT / ".perfbench"
    work = base / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, cli, audit, import_s, base, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, audit, import_s, base, work) -> int:
    spectra, parts = {}, {}
    warm = Runner(cli, audit)
    repeats = 1 if args.trace else SETUP_REPEATS
    setup_times = []
    for _ in range(repeats):
        setup, dt = setup_once(args.workload, args.seed, work, spectra, parts, warm)
        setup_times.append(dt)
    setup_s = import_s + statistics.median(setup_times)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    runner = Runner(cli, audit, tracer)
    report_path, sketch_path = work / workloads.REPORT_FILE, work / workloads.SKETCH_FILE
    t0 = time.perf_counter()
    rounds = 0
    while True:
        for op in setup.ops:
            runner.run(op, report_path, sketch_path)
        rounds += 1
        elapsed = time.perf_counter() - t0
        # whole rounds, as many as bring the run nearest to --seconds
        if elapsed + 0.5 * elapsed / rounds >= args.seconds:
            break
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(runner.attempted.values())
    failed = sum(runner.failed.values())
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"ops={attempted} wall={wall:.3f}s setups={[round(s, 3) for s in setup_times]}")
    for kind, label, dt, ok in runner.log:
        print(f"# op {kind:14s} {dt:10.5f}s {'ok' if ok else 'FAILED'} {label}")
    for line in runner.failures:
        print(f"# FAILED {line}")

    def accounting(kind):
        return f"[{kind}: attempted {runner.attempted[kind]}, failed {runner.failed[kind]}]"

    all_ops = f"[all ops: attempted {attempted}, failed {failed}]"
    metrics = {}
    if not args.trace:
        lines = {}
        metrics["setup_s"] = (setup_s, "s")
        lines["setup_s"] = (f"median of {IMPORT_REPEATS} imports {import_s:.3f}s + median of "
                            f"{len(setup_times)} set-ups {all_ops}")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        lines["peak_rss_mb"] = all_ops
        for name, kind in TIMINGS.items():
            by_label = runner.times[kind]
            metrics[name] = (statistics.fmean(statistics.median(t) for t in by_label.values()), "s/op")
            samples = [dt for t in by_label.values() for dt in t]
            tail = percentile_tail(samples)
            extra = f", p{tail[0]} {tail[1]:.4f}" if tail else ""
            lines[name] = (f"n={len(samples)} over {len(by_label)} ops, median {statistics.median(samples):.4f}"
                           f"{extra} {accounting(kind)}")
        for name, kind in THROUGHPUTS.items():
            by_label = runner.times[kind]
            trials = sum(runner.trials[label] for label in by_label)
            secs = sum(statistics.median(t) for t in by_label.values())
            metrics[name] = (trials / secs, "trials/s")
            lines[name] = (f"{trials} trials in {secs:.3f}s, medians of {len(by_label)} ops "
                           f"over {sum(map(len, by_label.values()))} runs {accounting(kind)}")
        for name, (value, unit) in metrics.items():
            print(f"{name:22s} {value:14.6g} {unit:10s} {lines[name]}")
    else:
        metrics = tracer.metrics()
        for name, (value, unit) in metrics.items():
            print(f"{name:44s} {value:14.6g} {unit:12s} {all_ops}")
        for (kind, name), value in sorted(tracer.by_kind().items()):
            print(f"# per {kind}: {name} {value:g}")
        traces = base / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}.npz"  # the latest traced run of each workload
        tracer.write(path)
        print(f"# spans written to {path.relative_to(ROOT)} ({tracer.dropped} beyond the cap kept only in aggregates)")

    result = {
        "correct": runner.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
