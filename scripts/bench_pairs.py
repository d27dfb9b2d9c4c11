"""Alternating parent/change runs of the benchmark, summarized as a BENCH file.

    python3 scripts/bench_pairs.py run --parent PARENT_CHECKOUT --change . \\
        --workload wide-verify --seeds 101 102 103 --runs runs.jsonl
    python3 scripts/bench_pairs.py summarize --runs runs.jsonl \\
        --claim wide-verify:verify_s --control wide-verify:harness_trials_per_s \\
        --out BENCH_<change>.json
    python3 scripts/bench_pairs.py trajectory

``run`` runs ``python3 perfbench/run.py --workload W --seed S --seconds 52
--trace 0`` in each checkout, one pair per seed, alternating from pair to
pair which side runs first.  It appends one JSON line per run to
``--runs``: ``{"tree": "parent" | "change", "workload", "seed", "result"}``,
where ``result`` is the run's last stdout line.

``summarize`` reads those lines.  For each workload and each end-to-end
metric of the change's ``BENCHMARK.json`` it writes each side's values,
median and quartiles, the change of the median relative to the parent's,
the pairs the change won, lost and tied, the parent's spread (distance
between quartiles over the median) and a status: ``unresolved`` when that
spread exceeds the metric's bound and not every change run beats every
parent run, else ``within_bound`` or ``beyond_bound`` by whether the
change's median is worse than the parent's by at most the bound.  It
prints one line per metric.  A ``--claim`` of ``workload:metric`` is also
tested by the gain rule: the change wins at least nine tenths of the pairs
and the medians differ by more than the parent's distance between
quartiles.  A ``--control`` of ``workload:metric`` names a metric the
change should not move, such as one whose code path it does not touch; its
wins, losses, median change and parent spread go under ``controls`` and are
printed on each claim's line, so a claim can be read against what host load
alone did to the same runs.  The machine recorded is the one ``summarize``
runs on, so run it where the runs were made.

``trajectory`` reads every ``BENCH_*.json`` at the root of the checkout, in
the order of the commits that added them (``git log`` of each file; a file
not yet committed comes last).  For each workload and end-to-end metric it
prints one line per file: the change side's median, the file's status for
the metric and, where the file claimed the metric, the claim and whether
it was met.  The medians read as direction only: each file's pairs ran on
a different stretch of a shared host, so their sizes do not compare.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SECONDS = 52
ROOT = Path(__file__).resolve().parent.parent


def run_pairs(args) -> None:
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    with open(args.runs, "a") as out:
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                       "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=trees[side], capture_output=True, text=True, check=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                line = {"tree": side, "workload": args.workload, "seed": seed, "result": result}
                out.write(json.dumps(line) + "\n")
                out.flush()


def quartiles(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize_metric(pairs: list, name: str, spec: dict) -> dict:
    """``pairs`` holds (parent result, change result) of one workload."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    parent = [p["metrics"][name]["value"] for p, _ in pairs]
    change = [c["metrics"][name]["value"] for _, c in pairs]
    # gain > 0 when the change is better
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    ps, cs = quartiles(parent), quartiles(change)
    worse_by = sign * (cs["median"] - ps["median"]) / ps["median"] if ps["median"] else 0.0
    spread = (ps["q3"] - ps["q1"]) / ps["median"] if ps["median"] else None
    # a parent spread past the bound cannot resolve a move within the bound,
    # unless every change run beats every parent run
    all_better = min(-sign * c for c in change) > max(-sign * p for p in parent)
    if spread is not None and spread > spec["bound"] and not all_better:
        status = "unresolved"
    else:
        status = "within_bound" if worse_by <= spec["bound"] else "beyond_bound"
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": {**ps, "values": parent},
        "change": {**cs, "values": change},
        "median_change_rel": (cs["median"] - ps["median"]) / ps["median"] if ps["median"] else None,
        "parent_spread_rel": spread,
        "pairs": len(pairs),
        "change_wins": sum(g > 0 for g in gains),
        "change_losses": sum(g < 0 for g in gains),
        "ties": sum(g == 0 for g in gains),
        "status": status,
    }


def machine() -> dict:
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "blas_threads": 1,  # perfbench/run.py sets OPENBLAS_NUM_THREADS=1
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    return info


def summarize(args) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs: dict = {}
    for line in Path(args.runs).read_text().splitlines():
        if line.strip():
            row = json.loads(line)
            runs.setdefault(row["workload"], {}).setdefault(row["seed"], {})[row["tree"]] = row["result"]
    workloads = {}
    for workload, by_seed in sorted(runs.items()):
        seeds = sorted(s for s, sides in by_seed.items() if {"parent", "change"} <= set(sides))
        pairs = [(by_seed[s]["parent"], by_seed[s]["change"]) for s in seeds]
        workloads[workload] = {
            "seeds": seeds,
            "correct": all(p["correct"] and c["correct"] for p, c in pairs),
            "failed_ops": {"parent": sum(p["failed"] for p, _ in pairs),
                           "change": sum(c["failed"] for _, c in pairs)},
            "attempted_ops": {"parent": sum(p["attempted"] for p, _ in pairs),
                              "change": sum(c["attempted"] for _, c in pairs)},
            "metrics": {m["name"]: summarize_metric(pairs, m["name"], m) for m in bench["end_to_end"]},
        }
    claims = []
    for claim in args.claim:
        workload, name = claim.split(":")
        m = workloads[workload]["metrics"][name]
        gap = abs(m["change"]["median"] - m["parent"]["median"])
        claims.append({
            "workload": workload,
            "metric": name,
            "median_change_rel": m["median_change_rel"],
            "wins": f"{m['change_wins']}/{m['pairs']}",
            "met": m["change_wins"] >= 0.9 * m["pairs"] and gap > m["parent"]["q3"] - m["parent"]["q1"],
        })
    controls = []
    for control in args.control:
        workload, name = control.split(":")
        m = workloads[workload]["metrics"][name]
        controls.append({
            "workload": workload,
            "metric": name,
            "median_change_rel": m["median_change_rel"],
            "wins": f"{m['change_wins']}/{m['pairs']}",
            "losses": f"{m['change_losses']}/{m['pairs']}",
            "parent_spread_rel": m["parent_spread_rel"],
        })
    out = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "pairing": "one parent and one change run per seed, alternating which runs first",
        "machine": machine(),
        "claims": claims,
        "controls": controls,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    for workload, summary in workloads.items():
        for name, m in summary["metrics"].items():
            p, c = m["parent"], m["change"]
            print(f"{workload} {name} ({m['unit']}): parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}], "
                  f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}], "
                  f"{m['median_change_rel']:+.1%}, won {m['change_wins']}/{m['pairs']}, "
                  f"spread {m['parent_spread_rel']:.3f}, {m['status']}")
    beside = "".join(f"; control {c['workload']}:{c['metric']} {c['median_change_rel']:+.1%}, won {c['wins']}, "
                     f"lost {c['losses']}, spread {c['parent_spread_rel']:.3f}" for c in controls)
    for c in claims:
        print(f"claim {c['workload']}:{c['metric']} {c['median_change_rel']:+.1%}, won {c['wins']}, "
              f"{'met' if c['met'] else 'not met'}{beside}")
    if controls and not claims:
        print(beside[2:])


def bench_files() -> list:
    """(commit, path) of every BENCH file, oldest commit first; commit is
    None for a file not yet committed."""
    log = subprocess.run(["git", "log", "--format=%H"], cwd=ROOT, capture_output=True, text=True, check=True)
    age = {commit: i for i, commit in enumerate(reversed(log.stdout.split()))}
    files = []
    for path in ROOT.glob("BENCH_*.json"):
        added = subprocess.run(["git", "log", "--diff-filter=A", "--format=%H", "--", path.name],
                               cwd=ROOT, capture_output=True, text=True, check=True).stdout.split()
        commit = added[-1] if added else None
        files.append((age.get(commit, len(age)), path.name, commit, path))
    return [(commit, path) for _, _, commit, path in sorted(files)]


def trajectory(args) -> None:
    lines: dict = {}
    for commit, path in bench_files():
        bench = json.loads(path.read_text())
        claims = {(c["workload"], c["metric"]): c for c in bench.get("claims", [])}
        name = f"{commit[:7] if commit else 'uncommitted'} {path.stem.removeprefix('BENCH_')}"
        for workload, summary in bench["workloads"].items():
            for metric, m in summary["metrics"].items():
                # files written before ``status`` existed record ``within_bound``
                status = m.get("status") or ("within_bound" if m["within_bound"] else "beyond_bound")
                line = f"  {name}: {m['change']['median']:.4g}, {status}"
                claim = claims.get((workload, metric))
                if claim:
                    line += (f", claimed {claim['median_change_rel']:+.1%} (won {claim['wins']}), "
                             f"{'met' if claim['met'] else 'not met'}")
                lines.setdefault((workload, metric, m["unit"], m["better"]), []).append(line)
    print("change-side medians of each BENCH file in commit order; direction only, since each file's pairs "
          "ran on a different stretch of a shared host")
    for (workload, metric, unit, better), rows in lines.items():
        print(f"{workload} {metric} ({unit}, {better} is better):")
        print("\n".join(rows))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run alternating parent/change pairs")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--runs", required=True, help="JSON-lines file to append to")
    p.set_defaults(func=run_pairs)
    p = sub.add_parser("summarize", help="write the BENCH file from the runs")
    p.add_argument("--runs", required=True)
    p.add_argument("--claim", action="append", default=[], help="workload:metric claimed to improve")
    p.add_argument("--control", action="append", default=[], help="workload:metric the change should not move")
    p.add_argument("--out", required=True)
    p.set_defaults(func=summarize)
    p = sub.add_parser("trajectory", help="print each metric across the BENCH files in commit order")
    p.set_defaults(func=trajectory)
    args = ap.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
