import argparse
import csv
import json
import math
from collections import Counter

import numpy as np
import pytest

from pcpsketch import audit, cli, solvers
from pcpsketch.cli import _emit, _json_pieces, _json_safe, _pcp_block, _Rows, build_parser, main
from pcpsketch.generators import gen_synthetic, parse_generator_spec
from pcpsketch.guarantees import certify, jl_moment_estimate
from pcpsketch.matio import load_matrix, save_matrix
from pcpsketch.rng import Stream, rng_for
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
            "--k", "2", "--eps", "0.4",
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
            "--k", "3", "--eps", "0.5",
        )
        assert code == 0
        assert payload["pcp"]["pass"] is True

    def test_probe_tags(self, capsys):
        # the rank-0 probe, the top-j subspaces of A and the two exact
        # probes; the removed --n-random is a usage error
        argv = ["verify", "--gen", "lowrank:n=12,d=40,rank=2,noise=0.1,seed=3", "--method", "gaussian",
                "--k", "2", "--eps", "0.5", "--m", "20", "--seed", "4"]
        code, payload = run_json(capsys, *argv)
        assert code in (0, 2)
        tags = [row["probe"] for row in payload["pcp"]["per_probe"]]
        assert tags == ["zero-rank", "top-a-1", "top-a-2", "exact-over", "exact-under"]
        assert payload["pcp"]["n_probes"] == len(tags)
        code, out, err = run(capsys, *argv, "--n-random", "3")
        assert (code, out) == (1, "") and "--n-random" in err

    def test_sketch_beyond_eps_exits_2(self, capsys):
        # a sketch whose exact distortion, 0.44, exceeds eps = 0.4, while
        # the top subspaces and 50 Haar probes of the former audit stayed
        # under 0.30 and let it exit 0: an exact probe finds it
        spec, k, eps, m, seed = "powerlaw:n=8,d=24,alpha=0.5", 2, 0.4, 12, 2
        code, payload = run_json(
            capsys, "verify", "--gen", spec, "--method", "gaussian",
            "--k", str(k), "--eps", str(eps), "--m", str(m), "--seed", str(seed),
        )
        a = gen_synthetic(parse_generator_spec(spec, seed=seed))
        sk = make_sketch(a, "gaussian", SketchParams(k=k, eps=eps, seed=seed, m_override=m))
        exact = oracles.dinkelbach_distortion(a, sk.a_tilde, sk.c_const, k)
        assert exact > eps + 0.04
        assert code == 2 and payload["pcp"]["pass"] is False
        assert payload["pcp"]["worst_probe"] in ("exact-over", "exact-under")
        assert eps < payload["pcp"]["max_abs_rel_err"] <= exact + 1e-12

    def test_failing_sketch_exits_2(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        save_matrix(a_path, np.random.default_rng(6).standard_normal((8, 30)))
        code, payload = run_json(
            capsys,
            "verify", "--input", str(a_path), "--method", "gaussian",
            "--k", "2", "--eps", "0.3", "--m", "2",
        )
        assert code == 2
        assert payload["pcp"]["pass"] is False

    def test_csv_format(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        save_matrix(a_path, np.random.default_rng(7).standard_normal((5, 9)))
        code, out, _ = run(
            capsys,
            "verify", "--input", str(a_path), "--method", "orthogonal",
            "--k", "2", "--eps", "0.4", "--format", "csv",
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
            "--k", "2", "--eps", "0.4",
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
            "--k", "2", "--eps", "0.4", "--trials", "3", "--seed", "2",
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
            "--min-pass-rate", "0.5",
        )
        assert code == 2
        assert payload["pass_rate"] < 0.5

    @pytest.mark.parametrize("rate", ["5", "1.0001", "-0.1", "nan", "inf"])
    def test_min_pass_rate_outside_0_1_rejected(self, capsys, rate):
        code, out, err = run(
            capsys,
            "bench", "--gen", "powerlaw:n=10,d=24,alpha=1", "--method", "orthogonal",
            "--k", "2", "--eps", "0.4", "--trials", "1", "--min-pass-rate", rate,
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: --min-pass-rate must be in [0, 1]"), err


class TestJlMomentCmd:
    def test_matches_library(self, capsys):
        code, payload = run_json(
            capsys,
            "jl-moment", "--d", "8", "--m", "50", "--ell", "2",
            "--trials", "500", "--seed", "3",
        )
        assert code == 0
        lib = jl_moment_estimate(8, 50, 2, 500, 3)
        assert payload["estimate"] == lib.estimate
        assert payload["stderr"] == lib.stderr
        assert payload["family"] == "gaussian"

    def test_family_option_is_gone(self, capsys):
        code, _, err = run(
            capsys, "jl-moment", "--family", "gaussian", "--d", "8", "--m", "10", "--trials", "200"
        )
        assert code == 1
        assert "--family" in err


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


class TestOneCommandParser:
    """``main`` builds only the parser of the command ``argv[0]`` names; what
    it prints and returns must be what the whole tree gives."""

    GEN = "powerlaw:n=4,d=6,alpha=1"

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["certify", "--gen", GEN],
            ["certify", "--gen", GEN, "--method", "svd", "--k", "x", "--eps", "0.5"],
            ["certify", "--gen", GEN, "--method", "fft", "--k", "1", "--eps", "0.5"],
            ["certify", "--gen", GEN, "--method", "svd", "--k", "1", "--eps", "0.5", "extra"],
        ],
    )
    def test_usage_errors_match_the_full_tree(self, capsys, monkeypatch, argv):
        one = run(capsys, *argv)
        full_tree = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda *_: full_tree())
        assert one == run(capsys, *argv)
        assert one[0] == 1 and one[1] == "" and one[2].startswith("error: ")

    def count_parsers(self, monkeypatch) -> list:
        progs = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                progs.append(kwargs["prog"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counting)
        return progs

    def test_a_command_builds_two_parsers(self, tmp_path, capsys, monkeypatch):
        progs = self.count_parsers(monkeypatch)
        argv = ["sketch", "--gen", self.GEN, "--method", "svd", "--k", "1", "--eps", "0.5"]
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "at.pcpm"))
        assert code == 0
        assert progs == ["pcp", "pcp sketch"]

    def test_root_help_builds_all_eight(self, capsys, monkeypatch):
        progs = self.count_parsers(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert progs == ["pcp"] + [f"pcp {c}" for c in TestHelpText.COMMANDS]
        assert "{gen,sketch,certify,verify,solve,bench,jl-moment}" in capsys.readouterr().out


class TestErrorPaths:
    def test_missing_input_file(self, capsys):
        code, _, err = run(
            capsys, "certify", "--input", "/does/not/exist.csv",
            "--method", "svd", "--k", "1", "--eps", "0.5",
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        ("command", "flag", "value", "named"),
        [
            ("verify", "--const-c", "nan", "const_c must be finite"),
            ("certify", "--const-c", "inf", "const_c must be finite"),
            ("verify", "--eps", "1e-200", "eps must be in (0, 1)"),
            ("bench", "--trials", "0", "--trials must be an integer >= 1"),
        ],
    )
    def test_bad_numbers_are_errors_not_tracebacks(self, capsys, command, flag, value, named):
        argv = [command, "--gen", "powerlaw:n=8,d=24,alpha=0.5", "--method", "gaussian", "--k", "2"]
        if flag != "--eps":
            argv += ["--eps", "0.4"]
        code, out, err = run(capsys, *argv, flag, value)
        assert (code, out) == (1, "") and err.startswith("error: ") and named in err

    def test_unknown_method_rejected_by_parser(self, capsys):
        code, _, err = run(
            capsys, "certify", "--gen", "powerlaw:n=4,d=6,alpha=1",
            "--method", "fft", "--k", "1", "--eps", "0.5",
        )
        assert code == 1

    def test_unknown_root_option_is_named(self, capsys):
        assert run(capsys, "--bogus") == (1, "", "error: unrecognized arguments: --bogus\n")
        assert run(capsys) == (1, "", "error: the following arguments are required: command\n")

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
            ["verify"],
            ["solve", "--task", "lowrank"],
            ["solve", "--task", "kmeans"],
        ):
            code, out, err = run(capsys, *cmd, *base)
            assert code in (0, 2), (cmd, err)
            assert json.loads(out)


class TestOneFactorization:
    """The input is factored once per command; the orthogonal control is
    left out, since its sketch is as wide as the input and is factored too.
    A factorization is an eigh of the input's smaller Gram, followed by an
    SVD when the Gram is too close to singular (an exactly low-rank input),
    so both drivers are counted, each call named by the matrix it factors,
    on one input of each kind.  Every SVD LAPACK sees is tall or square."""

    @pytest.fixture
    def log(self, monkeypatch):
        return oracles.factorization_log(monkeypatch)

    @staticmethod
    def inputs(seed: int, n: int, d: int) -> dict:
        rng = np.random.default_rng(seed)
        return {"gram": rng.standard_normal((n, d)), "lapack": rng.standard_normal((n, 4)) @ rng.standard_normal((4, d))}

    @pytest.mark.parametrize("method", ["gaussian", "leverage", "ridge", "svd", "nonoblivious"])
    def test_one_svd_of_the_input(self, tmp_path, capsys, log, method):
        n, d, m = 10, 60, 12
        for branch, a in self.inputs(12, n, d).items():
            a_path = tmp_path / f"{branch}.pcpm"
            save_matrix(a_path, a)
            r = np.linalg.matrix_rank(a)
            params = SketchParams(k=2, eps=0.5, seed=1, m_override=m)
            pi_a = rng_for(1, Stream.NON_OBLIVIOUS).standard_normal((m, n)) @ a
            named = {"A": a, "PiA": pi_a, "sketch": make_sketch(a, method, params).a_tilde}
            base = ["--input", str(a_path), "--method", method, "--k", "2", "--eps", "0.5", "--m", str(m), "--seed", "1"]
            # the rank-4 svd sketch is U_4 Sigma_4, whose Gram is the r x r Sigma^2 its SVD is read off
            sketch_eigh = ("sketch", "gram") if (method, branch) == ("svd", "lapack") else ("eigh", (r, r))
            for cmd, others in (
                (["certify"], {}),
                (["verify"], {("eigh", (r, r)): 2}),
                (["solve", "--task", "lowrank"], {sketch_eigh: 1}),
            ):
                log.clear()
                code, _, err = run(capsys, *cmd, *base)
                assert code in (0, 2), err
                assert all(x.shape[0] >= x.shape[1] for driver, x in log if driver == "svd"), (cmd, branch)
                want = {("A", "gram"): 1, ("A", "svd"): int(branch == "lapack"), **others}
                if method == "nonoblivious":
                    # Pi A, m x d, has rank <= n < m, too few for its m x m
                    # Gram, so it goes straight to the SVD
                    want[("PiA", "svd")] = 1
                counts = oracles.factorization_counts(log, named)
                assert +counts == +Counter(want), (cmd, branch, counts)

    @pytest.mark.parametrize("method", ["gaussian", "svd", "nonoblivious", "leverage", "ridge"])
    def test_right_factor_of_the_input_formed_only_where_read(self, tmp_path, capsys, monkeypatch, method):
        # a wide, well-conditioned A keeps U and sigma from its Gram: the
        # samplers read all of V (d x r, r = n) once, the svd sketch its first
        # m columns, and nothing else forms a right factor of A; the
        # nonoblivious sketch reads the V of Pi A, m x d with m <= n
        log = oracles.right_factor_log(monkeypatch)
        n, d, m = 10, 60, 6
        a = np.random.default_rng(18).standard_normal((n, d))
        a_path = tmp_path / "a.pcpm"
        save_matrix(a_path, a)
        pi_a = rng_for(1, Stream.NON_OBLIVIOUS).standard_normal((m, n)) @ a
        want = {
            "svd": {("A", m): 1},
            "nonoblivious": {("PiA", m): 1},
            "leverage": {("A", n): 1},
            "ridge": {("A", n): 1},
        }.get(method, {})
        base = ["--input", str(a_path), "--method", method, "--k", "2", "--eps", "0.5", "--m", str(m), "--seed", "1"]
        for cmd in (
            ["certify"],
            ["verify"],
            ["solve", "--task", "lowrank"],
            ["solve", "--task", "kmeans", "--solver", "lloyd"],
        ):
            log.clear()
            code, _, err = run(capsys, *cmd, *base)
            assert code in (0, 2), err
            counts = oracles.right_factor_counts(log, {"A": a, "PiA": pi_a})
            assert +counts == Counter(want), (cmd, counts)

    def test_gaussian_sketch_runs_no_svd(self, tmp_path, capsys, log):
        a_path = tmp_path / "a.pcpm"
        save_matrix(a_path, np.random.default_rng(13).standard_normal((10, 60)))
        code, _, _ = run(
            capsys, "sketch", "--input", str(a_path), "--method", "gaussian",
            "--k", "2", "--eps", "0.5", "--out", str(tmp_path / "at.pcpm"),
        )
        assert code == 0
        assert log == []


class TestReportWriting:
    def test_matches_the_generic_encoder(self, tmp_path):
        # duplicate rows: some partition probes cost 0 on A but not on the
        # sketch with its constant, so their errors are +inf ("inf" in the report)
        a = np.tile(np.random.default_rng(14).standard_normal((3, 5)), (2, 1))
        s = np.eye(5)[:, :3] + 0.01 * np.random.default_rng(15).standard_normal((5, 3))
        at = a @ s
        probes = audit.generate_probes(a, s, 3, 0.3)
        rep = audit.pcp_report(a, at, 0.5, probes, 0.3)
        rep = audit._with_partitions(rep, a, at, 0.5, solvers._partition_masks(6, 3))
        rows = oracles.probe_rows(rep)
        assert any(math.isinf(r["signed_rel_err"]) for r in rows)
        assert any(r["zero_cost"] for r in rows) and not all(r["zero_cost"] for r in rows)
        block = _pcp_block(rep)
        head = {"method": "svd", "params": {"k": 3, "const_c": None}, "c_const": math.inf}
        tail = {"transfer": None, "timing_ms": 1.5}
        old = oracles.json_report_text({**head, "pcp": {**block, "per_probe": rows}, **tail})
        new = "".join(_json_pieces(_json_safe({**head, "pcp": block, **tail})))
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
        text = "".join(_json_pieces({"pcp": {"per_probe": _Rows(probe=np.array([], dtype=str)), "n_probes": 0}}))
        assert json.loads(text) == {"pcp": {"per_probe": [], "n_probes": 0}}

    @pytest.mark.parametrize("per_piece", [1, 2, 3, 5, 6])
    def test_rows_written_in_pieces(self, monkeypatch, tmp_path, capsys, per_piece):
        # five rows cut into pieces of any size, the last piece short or full,
        # give the text of one piece, in a file and on stdout alike
        values = np.array([0.5, math.inf, -2.0, 1e-300, math.nan])
        report = {"a": 1, "pcp": {"per_probe": _Rows(probe=np.array(list("vwxyz")), x=values), "n": 5}, "b": [2]}
        whole = "".join(_json_pieces(report))
        assert json.loads(whole)["pcp"]["per_probe"][1] == {"probe": "w", "x": "inf"}
        monkeypatch.setattr(cli, "_ROWS_PER_PIECE", per_piece)
        assert "".join(_json_pieces(report)) == whole
        out = tmp_path / "r.json"
        _emit(report, argparse.Namespace(format="json", report_out=str(out)))
        _emit(report, argparse.Namespace(format="json", report_out=None))
        assert out.read_text() == capsys.readouterr().out == whole + "\n"

    def test_csv_matches_the_flattened_oracle(self, tmp_path, capsys):
        # the same seeded verify written as JSON and as CSV; the CSV must be
        # the JSON payload flattened cell by cell, all but the run time
        a_path = tmp_path / "a.csv"
        save_matrix(a_path, np.tile(np.random.default_rng(17).standard_normal((3, 9)), (2, 1)))
        base = [
            "verify", "--input", str(a_path), "--method", "gaussian", "--k", "3", "--eps", "0.5",
            "--m", "4", "--exhaustive-probes",
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

    def test_csv_cells_with_commas_are_quoted(self, tmp_path, capsys):
        # a generator spec holds commas; each cell must stay one cell
        spec = "lowrank:n=10,d=30,rank=2,noise=0.05"
        out = tmp_path / "r.csv"
        code, _, err = run(
            capsys, "bench", "--gen", spec, "--method", "gaussian", "--k", "2", "--eps", "0.5",
            "--trials", "2", "--format", "csv", "--report-out", str(out),
        )
        assert code == 0, err
        with open(out, newline="") as fh:
            keys, values = csv.reader(fh)
        assert len(keys) == len(values)
        cells = dict(zip(keys, values))
        assert (cells["gen"], cells["trials"], cells["per_trial.1.trial"]) == (spec, "2", "1")
        report = {"gen": spec, "note": 'a "b"', "rows": [{"x": None, "y": True}], "z": 1.5}
        _emit(report, argparse.Namespace(format="csv", report_out=str(out)))
        assert out.read_text() == oracles.csv_report_text(report) + "\n"

    def test_exhaustive_verify_report(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        save_matrix(a_path, np.random.default_rng(16).standard_normal((6, 9)))
        report = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "verify", "--input", str(a_path), "--method", "svd", "--k", "2",
            "--eps", "0.5", "--exhaustive-probes", "--report-out", str(report),
        )
        payload = json.loads(report.read_text())
        assert code == (0 if payload["pcp"]["pass"] else 2)
        rows = payload["pcp"]["per_probe"]
        assert payload["pcp"]["n_probes"] == len(rows) > 31  # 31 partitions of 6 rows into <= 2 blocks
        assert set(rows[0]) == {"probe", "cost_a", "cost_sketch", "signed_rel_err", "zero_cost"}
