"""Compare the reports of two checkouts on the benchmark's seed-1 inputs.

    python3 scripts/report_parity.py --parent PARENT_CHECKOUT --change .

The inputs are the ones ``perfbench/workloads.py`` writes at seed 1 for
both workloads: wide-verify's 200 x 4000 planted low-rank CSV and
power-law PCPM (k=5, eps=0.4) and exhaustive-small's two clustered
12 x 40 inputs (k=3, eps=0.5).  In each checkout ``pcp certify``,
``pcp verify`` and ``pcp solve --task lowrank`` run at seed 1 for each of
the five benchmark methods on every input, and so do the workloads' own
``verify --exhaustive-probes`` and ``solve --task kmeans`` commands (an
exhaustive solve on exhaustive-small, a Lloyd solve of the svd sketch on
wide-verify's PCPM input).  Beside them, ``pcp gen`` writes the matrix of
each of ``GEN_SPECS`` at seed 1, and ``pcp sketch --gen`` writes its sketch
by each of the six methods at k=3, eps=0.5.  Each checkout runs in its
own interpreter with ``src/`` first on the path and one BLAS thread.

The files ``gen`` and ``sketch`` write must be byte-identical.  Exit codes,
certificate blocks, probe tags, verdicts and the other report fields must
be equal, and ``worst_probe`` may differ only between probes whose
|signed errors| tie within 1e-14.  Signed errors are compared probe by
probe (matched by tag) and must agree within 1e-13; the largest change in
a cost, relative to |A|_F^2, is reported.  ``timing_ms`` is ignored.  The
script prints a summary and exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 1
SIGNED_TOL = 1e-13
TIE_TOL = 1e-14
# (workload function, k, eps)
INPUTS = ((workloads.wide_verify, 5, 0.4), (workloads.exhaustive_small, 3, 0.5))
# matrices written by ``pcp gen``, the square lowrank one of full rank
GEN_SPECS = ("lowrank:n=60,d=500,rank=3,noise=0.02", "powerlaw:n=40,d=200,alpha=1",
             "clustered:n=30,d=50,k_true=3,noise=0.5", "lowrank:n=80,d=80,rank=80")
# fields compared with a tolerance: relative to |A|_F^2, or as signed errors
COSTS = {"cost_a", "cost_sketch", "lhs", "rhs", "cost_on_a", "cost_on_sketch"}

RUNNER = """
import json, sys
sys.path.insert(0, sys.argv[1])
from pcpsketch import cli
jobs = json.load(open(sys.argv[2]))
print(json.dumps([cli.main(job["argv"]) for job in jobs]))
"""


def write_jobs(work: Path) -> tuple[list, dict]:
    """The inputs written by the workloads, and one job per command line:
    ``{"label", "argv", "input", "flag", "report"}``, where ``flag`` names
    the option that takes the output file, ``report``, relative to a
    checkout's output directory."""
    jobs, frob = [], {}
    for make, k, eps in INPUTS:
        where = work / make.__name__
        where.mkdir()
        setup = make(SEED, where, {}, {})
        # the workload's own commands, once each
        own = {op.label + (" exhaustive" if "--exhaustive-probes" in op.argv else ""): op for op in setup.ops
               if op.argv and ("--exhaustive-probes" in op.argv or "kmeans" in op.argv)}
        for path in sorted(where.iterdir()):
            frob[str(path)] = float(np.sum(read_matrix(path) ** 2))
            for method in workloads.METHODS5:
                for cmd in ("certify", "verify", "solve"):
                    argv = [cmd, "--input", str(path), "--method", method, "--k", str(k), "--eps", str(eps),
                            "--seed", str(SEED)] + (["--task", "lowrank"] if cmd == "solve" else [])
                    jobs.append({"label": f"{cmd} {method} {path.name}", "argv": argv, "input": str(path)})
        for label, op in own.items():
            argv = list(op.argv)
            argv[argv.index("--report-out") : argv.index("--report-out") + 2] = []
            jobs.append({"label": label, "argv": argv, "input": argv[argv.index("--input") + 1]})
    for spec in GEN_SPECS:
        jobs.append({"label": f"gen {spec}", "argv": ["gen", "--spec", spec, "--seed", str(SEED)], "flag": "--out"})
        for method in workloads.METHODS6:
            argv = ["sketch", "--gen", spec, "--method", method, "--k", "3", "--eps", "0.5", "--seed", str(SEED)]
            jobs.append({"label": f"sketch {method} {spec}", "argv": argv, "flag": "--out"})
    for i, job in enumerate(jobs):
        job.setdefault("flag", "--report-out")
        job["report"] = f"{i:03d}." + ("pcpm" if job["flag"] == "--out" else "json")
    return jobs, frob


def read_matrix(path: Path) -> np.ndarray:
    if path.suffix == ".pcpm":
        return checks.read_pcpm(path)
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def run_checkout(tree: Path, jobs: list, out: Path) -> list:
    out.mkdir()
    runs = [{**job, "argv": job["argv"] + [job["flag"], str(out / job["report"])]} for job in jobs]
    (out / "jobs.json").write_text(json.dumps(runs))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", RUNNER, str(tree / "src"), str(out / "jobs.json")],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Parity:
    def __init__(self):
        self.failures = []
        self.signed = (0.0, "")
        self.cost = (0.0, "")
        self.worst_equal = self.tag_diffs = 0
        self.worst_ties = []

    def fail(self, label: str, what: str) -> None:
        self.failures.append(f"{label}: {what}")

    def record(self, slot: str, value: float, where: str) -> None:
        if value > getattr(self, slot)[0]:
            setattr(self, slot, (value, where))

    def compare(self, label: str, old, new, scale: float, path: str = "") -> None:
        """Every field of two report trees equal, costs and signed errors
        within tolerance, the probe table matched by tag."""
        if isinstance(old, dict) and isinstance(new, dict):
            if old.keys() != new.keys():
                self.fail(label, f"{path or 'report'} keys differ")
            for key in old.keys() & new.keys():
                if key == "timing_ms":
                    continue
                if key == "pcp" and old[key] and new[key]:
                    self.compare_pcp(label, old[key], new[key], scale)
                else:
                    self.compare(label, old[key], new[key], scale, f"{path}.{key}")
        elif path.rsplit(".", 1)[-1] in COSTS and None not in (old, new):
            self.record("cost", abs(new - old) / scale, f"{label} {path}")
        elif old != new:
            self.fail(label, f"{path} {old!r} -> {new!r}")

    def compare_pcp(self, label: str, old: dict, new: dict, scale: float) -> None:
        rows_old = {row["probe"]: row for row in old["per_probe"]}
        rows_new = {row["probe"]: row for row in new["per_probe"]}
        if list(rows_old) != list(rows_new):
            self.tag_diffs += 1
            self.fail(label, f"probe tags differ: dropped {sorted(rows_old.keys() - rows_new.keys())}, "
                             f"added {sorted(rows_new.keys() - rows_old.keys())}")
        for tag in rows_old.keys() & rows_new.keys():
            a, b = rows_old[tag], rows_new[tag]
            if a["zero_cost"] != b["zero_cost"]:
                self.fail(label, f"{tag} zero_cost {a['zero_cost']} -> {b['zero_cost']}")
            self.record("signed", abs(float(b["signed_rel_err"]) - float(a["signed_rel_err"])), f"{label} {tag}")
            for key in ("cost_a", "cost_sketch"):
                self.record("cost", abs(b[key] - a[key]) / scale, f"{label} {tag} {key}")
        self.record("signed", abs(float(new["max_abs_rel_err"]) - float(old["max_abs_rel_err"])), f"{label} max")
        for key in ("n_probes", "eps_target", "pass"):
            if old[key] != new[key]:
                self.fail(label, f"pcp.{key} {old[key]!r} -> {new[key]!r}")
        w_old, w_new = old["worst_probe"], new["worst_probe"]
        if w_old == w_new:
            self.worst_equal += 1
        elif w_old in rows_new and abs(abs(float(rows_new[w_old]["signed_rel_err"]))
                                       - abs(float(rows_new[w_new]["signed_rel_err"]))) <= TIE_TOL:
            self.worst_ties.append(f"{label}: {w_old} -> {w_new}")
        else:
            self.fail(label, f"worst_probe {w_old} -> {w_new}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="checkout to compare against")
    ap.add_argument("--change", default=str(ROOT), help="checkout under test (default: this one)")
    args = ap.parse_args(argv)
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    with tempfile.TemporaryDirectory(prefix="report-parity-") as tmp:
        work = Path(tmp)
        (work / "inputs").mkdir()
        jobs, frob = write_jobs(work / "inputs")
        rcs = {side: run_checkout(tree, jobs, work / side) for side, tree in trees.items()}
        parity = Parity()
        files = 0
        for i, job in enumerate(jobs):
            label = job["label"]
            if rcs["parent"][i] != rcs["change"][i]:
                parity.fail(label, f"exit code {rcs['parent'][i]} -> {rcs['change'][i]}")
            old, new = ((work / side / job["report"]).read_bytes() for side in ("parent", "change"))
            if job["flag"] == "--out":
                files += 1
                if old != new:
                    parity.fail(label, "written files differ")
            else:
                parity.compare(label, json.loads(old), json.loads(new), frob[job["input"]])
    verifies = sum(job["argv"][0] == "verify" for job in jobs)
    kmeans = sum("kmeans" in job["argv"] for job in jobs)
    print(f"report parity, {len(jobs)} commands per checkout: parent {trees['parent']}, change {trees['change']}")
    print(f"  {files} gen and sketch files compared byte for byte; {kmeans} k-means solves compared")
    print(f"  worst_probe: {parity.worst_equal} of {verifies} verifies equal, {len(parity.worst_ties)} ties "
          f"within {TIE_TOL:g}; probe tag lists differ in {parity.tag_diffs}")
    for line in parity.worst_ties:
        print(f"    tie {line}")
    print(f"  largest |change| in a signed error: {parity.signed[0]:.3g} ({parity.signed[1] or '-'})")
    print(f"  largest |change| in a cost / |A|_F^2: {parity.cost[0]:.3g} ({parity.cost[1] or '-'})")
    if parity.signed[0] > SIGNED_TOL:
        parity.fail("signed errors", f"changed by more than {SIGNED_TOL:g}")
    for line in parity.failures:
        print(f"  MISMATCH {line}")
    print("  parity holds: exit codes, certificate blocks, tags and verdicts equal" if not parity.failures
          else f"  parity fails: {len(parity.failures)} mismatches")
    return 1 if parity.failures else 0


if __name__ == "__main__":
    sys.exit(main())
