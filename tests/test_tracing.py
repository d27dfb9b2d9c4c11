"""The benchmark's tracer still installs on the package and sees ``certify``.

``perfbench/tracing.py`` wraps every public function of the package, and
patches ``Sketch.operator_matrix``, ``Projection.__post_init__`` and the
numpy.linalg factorizations by name, so a renamed or removed name breaks
``install``.  The check runs in a subprocess because ``install`` patches
numpy.linalg for the whole process.
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


def test_traced_certify_and_verify_record_certify(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "perfbench"), str(ROOT / "src"), str(tmp_path / "report.json")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    ops = json.loads(proc.stdout.splitlines()[-1])
    for cmd in ("certify", "verify"):
        assert ops[cmd]["rc"] in (0, 2), (cmd, proc.stderr)
        assert ops[cmd]["certify_calls"] >= 1, cmd
