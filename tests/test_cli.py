import argparse
import json
import math

import numpy as np
import pytest

from pcpsketch import audit, solvers
from pcpsketch.cli import _dumps, _emit, _json_safe, _pcp_block, _Rows, build_parser, main
from pcpsketch.generators import gen_synthetic, parse_generator_spec
from pcpsketch.guarantees import certify, jl_moment_estimate
from pcpsketch.matio import load_matrix, save_matrix
from pcpsketch.sketch import METHODS, SketchParams, make_sketch

import oracles

REPORT_KEYS = {
    "method",
    "params",
    "m",
    "c_const",
    "certificate_t1",
    "certificate_t2",
    "pcp",
    "transfer",
    "timing_ms",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, err
    return code, json.loads(out)


class TestGen:
    def test_writes_loadable_matrix(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        code, payload = run_json(
            capsys, "gen", "--spec", "powerlaw:n=6,d=10,alpha=1", "--seed", "4", "--out", str(out)
        )
        assert code == 0
        assert payload["n"] == 6 and payload["d"] == 10
        a = load_matrix(out)
        expected = gen_synthetic(parse_generator_spec("powerlaw:n=6,d=10,alpha=1", seed=4))
        assert np.array_equal(a, expected)

    def test_bad_spec_exits_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--spec", "nope:n=2,d=2", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "error:" in err


class TestSketchCmd:
    def test_width_formula_and_output(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        save_matrix(a_path, np.random.default_rng(0).standard_normal((6, 12)))
        out = tmp_path / "at.pcpm"
        code, payload = run_json(
            capsys,
            "sketch", "--input", str(a_path), "--method", "svd",
            "--k", "2", "--eps", "0.5", "--out", str(out),
        )
        assert code == 0
        assert payload["m"] == 4  # ceil(k / eps)
        assert load_matrix(out).shape == (6, 4)

    def test_matches_library(self, tmp_path, capsys):
        a = np.random.default_rng(1).standard_normal((5, 20))
        a_path = tmp_path / "a.pcpm"
        save_matrix(a_path, a)
        out = tmp_path / "at.pcpm"
        code, _, _ = run(
            capsys,
            "sketch", "--input", str(a_path), "--method", "gaussian",
            "--k", "2", "--eps", "0.5", "--m", "8", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        lib = make_sketch(a, "gaussian", SketchParams(k=2, eps=0.5, seed=3, m_override=8))
        assert np.array_equal(load_matrix(out), lib.a_tilde)


class TestCertifyCmd:
    def test_passing_certificate(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        a = np.random.default_rng(2).standard_normal((6, 14))
        save_matrix(a_path, a)
        code, payload = run_json(
            capsys,
            "certify", "--input", str(a_path), "--method", "nonoblivious",
            "--k", "2", "--eps", "0.5", "--seed", "4",
        )
        assert code == 0
        assert set(payload) >= REPORT_KEYS
        assert payload["certificate_t1"]["theorem"] == "T1"
        assert payload["certificate_t2"]["theorem"] == "T2"
        lib = make_sketch(a, "nonoblivious", SketchParams(k=2, eps=0.5, seed=4))
        s = lib.operator_matrix()
        t1, t2 = certify(a, s, 2, 0.5)
        assert payload["certificate_t1"]["measured"] == pytest.approx(t1.measured)
        assert payload["certificate_t2"]["holds"] == t2.holds
        assert payload["params"]["seed"] == 4

    def test_failing_route_exits_2(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        save_matrix(a_path, np.random.default_rng(3).standard_normal((6, 30)))
        code, payload = run_json(
            capsys,
            "certify", "--input", str(a_path), "--method", "gaussian",
            "--k", "2", "--eps", "0.3", "--m", "2", "--route", "both",
        )
        assert code == 2
        assert not payload["certificate_t1"]["holds"]

    def test_route_selection(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        save_matrix(a_path, np.random.default_rng(4).standard_normal((5, 12)))
        base = [
            "certify", "--input", str(a_path), "--method", "orthogonal",
            "--k", "2", "--eps", "0.4",
        ]
        for route in ("matrix", "spectral", "either", "both"):
            code, _, _ = run(capsys, *base, "--route", route)
            assert code == 0


class TestVerifyCmd:
    def test_lossless_passes(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        save_matrix(a_path, np.random.default_rng(5).standard_normal((6, 11)))
        code, payload = run_json(
            capsys,
            "verify", "--input", str(a_path), "--method", "orthogonal",
            "--k", "2", "--eps", "0.4", "--n-random", "6",
        )
        assert code == 0
        assert payload["pcp"]["pass"] is True
        assert payload["pcp"]["max_abs_rel_err"] <= 1e-8
        assert payload["pcp"]["n_probes"] == len(payload["pcp"]["per_probe"])
        assert payload["timing_ms"] > 0

    def test_generated_input(self, capsys):
        code, payload = run_json(
            capsys,
            "verify", "--gen", "powerlaw:n=10,d=30,alpha=1", "--method", "svd",
            "--k", "3", "--eps", "0.5", "--n-random", "4",
        )
        assert code == 0
        assert payload["pcp"]["pass"] is True

    def test_no_random_probes(self, capsys):
        # --n-random 0 draws no Haar probe; the other probes are those of a
        # run with Haar probes, which come last
        argv = ["verify", "--gen", "lowrank:n=12,d=40,rank=2,noise=0.1,seed=3", "--method", "gaussian",
                "--k", "2", "--eps", "0.5", "--m", "20", "--seed", "4"]
        code, payload = run_json(capsys, *argv, "--n-random", "0")
        assert code in (0, 2)
        rows = payload["pcp"]["per_probe"]
        assert payload["pcp"]["n_probes"] == len(rows) > 0
        assert not [row for row in rows if row["probe"].startswith("haar-")]
        _, with_haar = run_json(capsys, *argv, "--n-random", "3")
        assert with_haar["pcp"]["per_probe"][: len(rows)] == rows
        assert [row["probe"] for row in with_haar["pcp"]["per_probe"][len(rows):]] == ["haar-0", "haar-1", "haar-2"]

    def test_failing_sketch_exits_2(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        save_matrix(a_path, np.random.default_rng(6).standard_normal((8, 30)))
        code, payload = run_json(
            capsys,
            "verify", "--input", str(a_path), "--method", "gaussian",
            "--k", "2", "--eps", "0.3", "--m", "2", "--n-random", "4",
        )
        assert code == 2
        assert payload["pcp"]["pass"] is False

    def test_csv_format(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        save_matrix(a_path, np.random.default_rng(7).standard_normal((5, 9)))
        code, out, _ = run(
            capsys,
            "verify", "--input", str(a_path), "--method", "orthogonal",
            "--k", "2", "--eps", "0.4", "--n-random", "2", "--format", "csv",
        )
        assert code == 0
        header, row = out.strip().split("\n")
        cols = header.split(",")
        assert "pcp.max_abs_rel_err" in cols
        assert "certificate_t1.measured.se_err" in cols
        assert len(cols) == len(row.split(","))

    def test_report_out_file(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        save_matrix(a_path, np.random.default_rng(8).standard_normal((5, 9)))
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify", "--input", str(a_path), "--method", "orthogonal",
            "--k", "2", "--eps", "0.4", "--n-random", "2",
            "--report-out", str(report),
        )
        assert code == 0
        assert out == ""
        assert set(json.loads(report.read_text())) >= REPORT_KEYS


class TestSolveCmd:
    def test_lowrank_transfer(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        save_matrix(a_path, np.random.default_rng(9).standard_normal((7, 12)))
        code, payload = run_json(
            capsys,
            "solve", "--input", str(a_path), "--method", "svd",
            "--k", "2", "--eps", "0.5", "--task", "lowrank",
        )
        assert code == 0
        t = payload["transfer"]
        assert t["task"] == "lowrank" and t["holds"] is True
        assert t["lhs"] <= t["rhs"]
        assert payload["solution"]["certified_ratio"] == pytest.approx(3.0)

    def test_kmeans_exhaustive(self, capsys):
        code, payload = run_json(
            capsys,
            "solve", "--gen", "clustered:n=8,d=6,k_true=2,separation=8,noise=0.1",
            "--method", "gaussian", "--k", "2", "--eps", "0.5", "--m", "24",
            "--seed", "5", "--task", "kmeans",
        )
        assert code == 0
        assert payload["transfer"]["holds"] is True
        assert len(payload["solution"]["assignment"]) == 8

    def test_kmeans_exhaustive_transfer_from_its_own_tables(self, tmp_path, capsys):
        # the solver's partition table is reused; the transfer check must be
        # the one computed from both matrices' tables built afresh
        a = np.random.default_rng(16).standard_normal((7, 9))
        a_path = tmp_path / "a.pcpm"
        save_matrix(a_path, a)
        args = ["--input", str(a_path), "--method", "gaussian", "--k", "3", "--eps", "0.5", "--m", "5", "--seed", "2"]
        code, payload = run_json(capsys, "solve", *args, "--task", "kmeans")
        sk = make_sketch(a, "gaussian", SketchParams(k=3, eps=0.5, seed=2, m_override=5))
        labels = solvers.partitions(7, 3)
        check = audit.approx_transfer_check(
            a, sk.a_tilde, sk.c_const, 0.5,
            solvers.partition_costs(a, labels), solvers.partition_costs(sk.a_tilde, labels),
        )
        t = payload["transfer"]
        assert (t["lhs"], t["rhs"], t["holds"]) == (check.lhs, check.rhs, check.bound_holds)
        assert code == (0 if check.bound_holds else 2)

    def test_lloyd_makes_no_assertion(self, capsys):
        code, payload = run_json(
            capsys,
            "solve", "--gen", "clustered:n=20,d=6,k_true=2,separation=8",
            "--method", "svd", "--k", "2", "--eps", "0.5",
            "--task", "kmeans", "--solver", "lloyd",
        )
        assert code == 0
        assert payload["transfer"]["gamma"] is None
        assert payload["transfer"]["holds"] is None


class TestBenchCmd:
    def test_aggregates_trials(self, capsys):
        code, payload = run_json(
            capsys,
            "bench", "--gen", "powerlaw:n=10,d=24,alpha=1", "--method", "orthogonal",
            "--k", "2", "--eps", "0.4", "--trials", "3", "--n-random", "3", "--seed", "2",
        )
        assert code == 0
        assert payload["trials"] == 3
        assert payload["pass_rate"] == 1.0
        assert len(payload["per_trial"]) == 3
        seeds = [t["seed"] for t in payload["per_trial"]]
        assert len(set(seeds)) == 3

    def test_min_pass_rate_gate(self, capsys):
        code, payload = run_json(
            capsys,
            "bench", "--gen", "powerlaw:n=10,d=24,alpha=0.3", "--method", "gaussian",
            "--k", "2", "--eps", "0.3", "--m", "2", "--trials", "2",
            "--n-random", "3", "--min-pass-rate", "0.5",
        )
        assert code == 2
        assert payload["pass_rate"] < 0.5


class TestJlMomentCmd:
    def test_matches_library(self, capsys):
        code, payload = run_json(
            capsys,
            "jl-moment", "--d", "8", "--m", "50", "--ell", "2",
            "--trials", "500", "--seed", "3",
        )
        assert code == 0
        lib = jl_moment_estimate("gaussian", 8, 50, 2, 500, 3)
        assert payload["estimate"] == lib.estimate
        assert payload["stderr"] == lib.stderr

    def test_unsupported_family_exits_1(self, capsys):
        code, _, err = run(
            capsys, "jl-moment", "--family", "sparse", "--d", "8", "--m", "10", "--trials", "200"
        )
        assert code == 1
        assert "error:" in err


class TestSeedHandling:
    def test_env_seed_used(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PCP_SEED", "7")
        a_path = tmp_path / "a.csv"
        save_matrix(a_path, np.random.default_rng(10).standard_normal((5, 9)))
        code, payload = run_json(
            capsys,
            "certify", "--input", str(a_path), "--method", "gaussian",
            "--k", "2", "--eps", "0.5", "--m", "6",
        )
        assert payload["params"]["seed"] == 7

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PCP_SEED", "7")
        a_path = tmp_path / "a.csv"
        save_matrix(a_path, np.random.default_rng(11).standard_normal((5, 9)))
        code, payload = run_json(
            capsys,
            "certify", "--input", str(a_path), "--method", "gaussian",
            "--k", "2", "--eps", "0.5", "--m", "6", "--seed", "1",
        )
        assert payload["params"]["seed"] == 1

    def test_bad_env_seed_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("PCP_SEED", "xyz")
        code, _, err = run(
            capsys, "verify", "--gen", "powerlaw:n=4,d=6,alpha=1",
            "--method", "svd", "--k", "1", "--eps", "0.5",
        )
        assert code == 1


class TestHelpText:
    COMMANDS = ("gen", "sketch", "certify", "verify", "solve", "bench", "jl-moment")

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    def test_help_is_the_stock_formatters_text(self, capsys, monkeypatch, columns):
        monkeypatch.setenv("COLUMNS", columns)
        root = build_parser()
        subparsers = next(a for a in root._actions if isinstance(a, argparse._SubParsersAction))
        for argv, parser in [(["--help"], root)] + [([c, "--help"], subparsers.choices[c]) for c in self.COMMANDS]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            printed = capsys.readouterr().out
            parser.formatter_class = argparse.HelpFormatter
            assert printed == parser.format_help(), argv
        assert sorted(subparsers.choices) == sorted(self.COMMANDS)


class TestErrorPaths:
    def test_missing_input_file(self, capsys):
        code, _, err = run(
            capsys, "certify", "--input", "/does/not/exist.csv",
            "--method", "svd", "--k", "1", "--eps", "0.5",
        )
        assert code == 1
        assert "error:" in err

    def test_unknown_method_rejected_by_parser(self, capsys):
        code, _, err = run(
            capsys, "certify", "--gen", "powerlaw:n=4,d=6,alpha=1",
            "--method", "fft", "--k", "1", "--eps", "0.5",
        )
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "certify", "--gen", "powerlaw:n=4,d=6,alpha=1")
        assert code == 1

    def test_exclusive_source_flags(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        save_matrix(a_path, np.eye(3))
        code, _, _ = run(
            capsys,
            "certify", "--input", str(a_path), "--gen", "powerlaw:n=4,d=6,alpha=1",
            "--method", "svd", "--k", "1", "--eps", "0.5",
        )
        assert code == 1


class TestJsonSafety:
    def test_nonfinite_floats_become_strings(self):
        blob = _json_safe({"a": math.inf, "b": -math.inf, "c": math.nan, "d": 1.5})
        assert blob == {"a": "inf", "b": "-inf", "c": "nan", "d": 1.5}

    def test_numpy_scalars_unwrapped(self):
        blob = _json_safe({"x": np.float64(2.5), "y": np.int64(3), "z": np.bool_(True)})
        assert blob == {"x": 2.5, "y": 3, "z": True}
        assert json.dumps(blob, allow_nan=False)

    def test_report_with_infinite_threshold_serializes(self, capsys):
        # rank-deficient input sends the spectral tail threshold to infinity
        code, payload = run_json(
            capsys,
            "certify", "--gen", "lowrank:n=6,d=9,rank=2,noise=0", "--method", "orthogonal",
            "--k", "2", "--eps", "0.4",
        )
        assert code == 0
        assert payload["certificate_t2"]["thresholds"]["frob_tail_p"] == "inf"


class TestZeroMatrix:
    @pytest.mark.parametrize("method", METHODS)
    def test_defined_exit_codes(self, tmp_path, capsys, method):
        a_path = tmp_path / "zero.csv"
        save_matrix(a_path, np.zeros((6, 20)))
        base = ["--input", str(a_path), "--method", method, "--k", "2", "--eps", "0.5"]
        for cmd in (
            ["certify"],
            ["verify", "--n-random", "3"],
            ["solve", "--task", "lowrank"],
            ["solve", "--task", "kmeans"],
        ):
            code, out, err = run(capsys, *cmd, *base)
            assert code in (0, 2), (cmd, err)
            assert json.loads(out)


class TestOneFactorization:
    """The input is factored once per command; the orthogonal control is
    left out, since its sketch is as wide as the input and is factored too.
    A wide matrix is factored through its transpose, so a factorization is
    counted by its shape either way round, and every one LAPACK sees is tall
    or square."""

    @pytest.fixture
    def svd_shapes(self, monkeypatch):
        shapes = []
        real = np.linalg.svd

        def counting(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return shapes

    @pytest.mark.parametrize("method", ["gaussian", "leverage", "ridge", "svd", "nonoblivious"])
    def test_one_svd_of_the_input(self, tmp_path, capsys, svd_shapes, method):
        n, d, m = 10, 60, 12
        a_path = tmp_path / "a.pcpm"
        save_matrix(a_path, np.random.default_rng(12).standard_normal((n, d)))
        base = ["--input", str(a_path), "--method", method, "--k", "2", "--eps", "0.5", "--m", str(m)]
        # nonoblivious also factors Pi A, m x d
        want = sorted([(d, n)] + ([(d, m)] if method == "nonoblivious" else []))
        for cmd in (["certify"], ["verify", "--n-random", "3"], ["solve", "--task", "lowrank"]):
            svd_shapes.clear()
            code, _, err = run(capsys, *cmd, *base)
            assert code in (0, 2), err
            assert all(rows >= cols for rows, cols in svd_shapes), (cmd, svd_shapes)
            factored = sorted(tuple(sorted(s, reverse=True)) for s in svd_shapes if d in s)
            assert factored == want, (cmd, svd_shapes)

    def test_gaussian_sketch_runs_no_svd(self, tmp_path, capsys, svd_shapes):
        a_path = tmp_path / "a.pcpm"
        save_matrix(a_path, np.random.default_rng(13).standard_normal((10, 60)))
        code, _, _ = run(
            capsys, "sketch", "--input", str(a_path), "--method", "gaussian",
            "--k", "2", "--eps", "0.5", "--out", str(tmp_path / "at.pcpm"),
        )
        assert code == 0
        assert svd_shapes == []


class TestReportWriting:
    def test_matches_the_generic_encoder(self, tmp_path):
        # duplicate rows: some partition probes cost 0 on A but not on the
        # perturbed sketch, so their errors are +inf ("inf" in the report)
        a = np.tile(np.random.default_rng(14).standard_normal((3, 5)), (2, 1))
        at = a[:, :3] + 0.01 * np.random.default_rng(15).standard_normal((6, 3))
        probes = audit.generate_probes(a, at, 3, 2, seed=5, exhaustive=True)
        rep = audit.pcp_report(a, at, 0.5, probes, 0.3)
        rows = oracles.probe_rows(rep)
        assert any(math.isinf(r["signed_rel_err"]) for r in rows)
        assert any(r["zero_cost"] for r in rows) and not all(r["zero_cost"] for r in rows)
        block = _pcp_block(rep)
        head = {"method": "svd", "params": {"k": 3, "const_c": None}, "c_const": math.inf}
        tail = {"transfer": None, "timing_ms": 1.5}
        old = oracles.json_report_text({**head, "pcp": {**block, "per_probe": rows}, **tail})
        new = _dumps(_json_safe({**head, "pcp": block, **tail}))
        assert json.loads(new) == json.loads(old)
        lines = new.splitlines()
        assert lines[0] == "{" and lines[-1] == "}"
        # one row per line, each as json.dumps writes the row's dict
        row_lines = [line.strip().rstrip(",") for line in lines if '"probe": ' in line]
        assert row_lines == [json.dumps(row) for row in oracles.json_safe(rows)]
        out = tmp_path / "r.csv"
        _emit({**head, "pcp": block, **tail}, argparse.Namespace(format="csv", report_out=str(out)))
        assert out.read_text() == oracles.csv_report_text({**head, "pcp": {**block, "per_probe": rows}, **tail}) + "\n"

    def test_float_cells_match_the_encoder(self):
        values = np.array([1.5, -0.0, 1e-300, 2.0**60, 0.1 + 0.2, math.inf, -math.inf, math.nan])
        rows = _Rows(x=values, flag=values > 1.0)
        want = [{"x": x, "flag": bool(x > 1.0)} for x in values.tolist()]
        assert rows.json_lines() == [json.dumps(row) for row in oracles.json_safe(want)]

    def test_empty_rows(self):
        text = _dumps({"pcp": {"per_probe": _Rows(probe=np.array([], dtype=str)), "n_probes": 0}})
        assert json.loads(text) == {"pcp": {"per_probe": [], "n_probes": 0}}

    def test_csv_matches_the_flattened_oracle(self, tmp_path, capsys):
        # the same seeded verify written as JSON and as CSV; the CSV must be
        # the JSON payload flattened cell by cell, all but the run time
        a_path = tmp_path / "a.csv"
        save_matrix(a_path, np.tile(np.random.default_rng(17).standard_normal((3, 9)), (2, 1)))
        base = [
            "verify", "--input", str(a_path), "--method", "gaussian", "--k", "3", "--eps", "0.5",
            "--m", "4", "--n-random", "2", "--exhaustive-probes",
        ]
        texts = {}
        for fmt in ("json", "csv"):
            out = tmp_path / f"r.{fmt}"
            code, _, err = run(capsys, *base, "--format", fmt, "--report-out", str(out))
            assert code in (0, 2), err
            texts[fmt] = out.read_text()
        payload = json.loads(texts["json"])
        assert any(r["zero_cost"] for r in payload["pcp"]["per_probe"])

        def cells(text):
            keys, values = text.splitlines()
            return [kv for kv in zip(keys.split(","), values.split(","), strict=True) if kv[0] != "timing_ms"]

        assert texts["csv"].endswith("\n") and texts["csv"].count("\n") == 2
        assert cells(texts["csv"]) == cells(oracles.csv_report_text(payload))

    def test_exhaustive_verify_report(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        save_matrix(a_path, np.random.default_rng(16).standard_normal((6, 9)))
        report = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "verify", "--input", str(a_path), "--method", "svd", "--k", "2",
            "--eps", "0.5", "--n-random", "2", "--exhaustive-probes", "--report-out", str(report),
        )
        payload = json.loads(report.read_text())
        assert code == (0 if payload["pcp"]["pass"] else 2)
        rows = payload["pcp"]["per_probe"]
        assert payload["pcp"]["n_probes"] == len(rows) > 31  # 31 partitions of 6 rows into <= 2 blocks
        assert set(rows[0]) == {"probe", "cost_a", "cost_sketch", "signed_rel_err", "zero_cost"}
