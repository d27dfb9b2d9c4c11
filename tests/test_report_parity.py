import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from report_parity import Parity  # noqa: E402


def pcp_block(rows, worst):
    per_probe = [{"probe": tag, "cost_a": 1.0, "cost_sketch": 1.0 + err, "signed_rel_err": err, "zero_cost": False}
                 for tag, err in rows]
    return {"max_abs_rel_err": max(abs(err) for _, err in rows), "worst_probe": worst, "n_probes": len(rows),
            "eps_target": 0.5, "pass": True, "per_probe": per_probe}


class TestComparePcp:
    def test_dropped_max_row_is_reported_apart(self):
        # the change drops the probe that held the max: matched probes agree,
        # so the signed-error figure stays 0 and the max moves on its own line
        parity = Parity(tol=1e-9)
        old = pcp_block([("top-a-1", 0.1), ("exact-over", 0.4)], "exact-over")
        new = pcp_block([("top-a-1", 0.1)], "top-a-1")
        parity.compare_pcp("verify x", old, new, 1.0)
        assert parity.signed == (0.0, "")
        assert parity.probe_max == (pytest.approx(0.3), "verify x max")
        assert parity.tag_diffs == 1

    def test_max_of_the_same_probe_counts_as_a_signed_error(self):
        parity = Parity(tol=1e-9)
        old = pcp_block([("top-a-1", 0.1), ("exact-over", 0.4)], "exact-over")
        new = pcp_block([("top-a-1", 0.1), ("exact-over", 0.4 + 1e-6)], "exact-over")
        parity.compare_pcp("verify x", old, new, 1.0)
        assert parity.signed[0] == pytest.approx(1e-6) == parity.probe_max[0]
        assert parity.failures == []
