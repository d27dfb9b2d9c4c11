"""The benchmark's tracer still installs on the package and sees ``certify``
and the transfer check.

``perfbench/tracing.py`` wraps every public function of the package, and
patches ``Sketch.operator_matrix``, ``Projection.__post_init__`` and the
numpy.linalg factorizations by name, so a renamed or removed name breaks
``install``.  It counts the transfer candidates of
``audit.approx_transfer_check`` from its sixth positional argument, so the
check must be called with its arguments by position.  The checks run in a
subprocess because ``install`` patches numpy.linalg for the whole process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracing
from pcpsketch import cli

tracer = tracing.Tracer()
tracer.install()
out = {}
for cmd in ("certify", "verify"):
    before = tracer.stats["guarantees.certify"][0]
    with tracer.op(cmd):
        rc = cli.main([cmd, "--gen", "lowrank:n=12,d=40,rank=2,noise=0.1,seed=3", "--method", "gaussian",
                       "--k", "2", "--eps", "0.5", "--seed", "1", "--report-out", sys.argv[3]])
    out[cmd] = {"rc": rc, "certify_calls": tracer.stats["guarantees.certify"][0] - before}
print(json.dumps(out))
"""


TRACED_SOLVES = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracing
from pcpsketch import cli

tracer = tracing.Tracer()
tracer.install()
out = {}
for task in ("lowrank", "kmeans"):
    calls = tracer.stats["audit.approx_transfer_check"][0]
    candidates = tracer.counters["audit.transfer_candidates"]
    with tracer.op("solve"):
        rc = cli.main(["solve", "--gen", "clustered:n=8,d=30,k_true=2,separation=8,noise=0.1", "--method", "gaussian",
                       "--k", "2", "--eps", "0.5", "--seed", "1", "--task", task, "--report-out", sys.argv[3]])
    out[task] = {"rc": rc, "check_calls": tracer.stats["audit.approx_transfer_check"][0] - calls,
                 "candidates": tracer.counters["audit.transfer_candidates"] - candidates}
print(json.dumps(out))
"""


def traced(script: str, tmp_path) -> tuple:
    """The script's last stdout line as JSON, with its stderr."""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench"), str(ROOT / "src"), str(tmp_path / "report.json")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def test_traced_certify_and_verify_record_certify(tmp_path):
    ops, stderr = traced(TRACED_RUN, tmp_path)
    for cmd in ("certify", "verify"):
        assert ops[cmd]["rc"] in (0, 2), (cmd, stderr)
        assert ops[cmd]["certify_calls"] >= 1, cmd


def test_traced_solves_count_transfer_candidates(tmp_path):
    ops, _ = traced(TRACED_SOLVES, tmp_path)
    # A's own best projection beside the sketch's; S(8,1) + S(8,2) = 1 + 127 partitions
    for task, candidates in (("lowrank", 2), ("kmeans", 128)):
        assert ops[task]["rc"] in (0, 2), task
        assert ops[task]["check_calls"] == 1, task
        assert ops[task]["candidates"] == candidates, task
