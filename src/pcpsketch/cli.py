"""Command-line front end.

Subcommands: gen, sketch, certify, verify, solve, bench, jl-moment.
Matrices move through CSV or binary PCPM files; reports are JSON (default)
or flattened CSV with dotted keys.  Exit codes: 0 when the requested
assertion passes (or nothing was asserted), 2 when it fails, 1 on errors.
The default seed is 0, overridable by the PCP_SEED environment variable
and per-command --seed; every report echoes the seeds it used.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import shutil
import sys
import time
from itertools import repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import audit
from .errors import ConfigError, Error
from .generators import gen_synthetic, parse_generator_spec
from .guarantees import certify, jl_moment_estimate
from .linalg import factor
from .matio import load_matrix, save_matrix
from .rng import Stream, derive_seed
from .sketch import METHODS, SketchParams, make_sketch

__all__ = ["main", "entry"]

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; here 2 means assertion failure,
    # so turn usage problems into ConfigError -> exit 1.
    def error(self, message):
        raise ConfigError(message)


def _default_seed() -> int:
    env = os.environ.get("PCP_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"PCP_SEED must be an integer, got {env!r}") from None


def _add_source(p: _Parser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="matrix file (CSV or PCPM)")
    src.add_argument("--gen", help="generator spec, e.g. powerlaw:n=40,d=200,alpha=1")


def _add_sketch_args(p: _Parser) -> None:
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--const-c", type=float, default=None, dest="const_c")
    p.add_argument("--m", type=int, default=None, help="explicit sketch width override")
    p.add_argument("--seed", type=int, default=None)


def _add_output_args(p: _Parser) -> None:
    p.add_argument("--report-out", default=None, help="report file (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _resolve_seed(args) -> int:
    return args.seed if args.seed is not None else _default_seed()


def _load_source(args, seed: int):
    """The input matrix as a ``Factored`` instance, factored on first use."""
    if args.input is not None:
        return factor(load_matrix(args.input))
    spec = parse_generator_spec(args.gen, seed=seed)
    return factor(gen_synthetic(spec))


def _params(args, seed: int) -> SketchParams:
    return SketchParams(
        k=args.k,
        eps=args.eps,
        delta=args.delta,
        const_c=args.const_c,
        seed=seed,
        m_override=args.m,
    )


class _Rows:
    """Report rows held as columns, one array of str, float or bool cells
    per key.  JSON writes them one row per line and CSV one dotted key per
    cell; each renders every cell's text once, from the columns."""

    def __init__(self, **columns):
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def cells(self, quote) -> list:
        """Each column's cell texts: floats by ``float.__repr__`` (the
        spelling of the JSON encoder), booleans as true/false and strings
        through ``quote``, which also spells the non-finite floats JSON has
        no number for."""
        out = []
        for column in self.columns.values():
            if column.dtype == bool:
                out.append(np.where(column, "true", "false").tolist())
            elif column.dtype.kind == "f":
                text = list(map(float.__repr__, column.tolist()))
                for i in np.flatnonzero(~np.isfinite(column)).tolist():
                    text[i] = quote(text[i])
                out.append(text)
            else:
                out.append(list(map(quote, column.tolist())))
        return out

    def json_lines(self) -> list:
        """One JSON object per row, as ``json.dumps`` writes a flat dict."""
        parts = []
        for i, (key, cells) in enumerate(zip(self.columns, self.cells(encode_basestring_ascii))):
            parts += [repeat(("{" if i == 0 else ", ") + encode_basestring_ascii(key) + ": "), cells]
        return list(map("".join, zip(*parts, repeat("}"))))


def _json_safe(obj):
    if isinstance(obj, _Rows):
        return obj
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


_ROWS_STUB = re.compile(r'^( *)(.*)"\\u0000(\d+)"', re.MULTILINE)


def _dumps(report: dict) -> str:
    """Indent-2 JSON of a JSON-safe report, except that each ``_Rows`` block
    holds one row per line."""
    blocks: list = []

    def stub(obj):
        if isinstance(obj, _Rows):
            blocks.append(obj)
            return f"\x00{len(blocks) - 1}"
        if isinstance(obj, dict):
            return {k: stub(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [stub(v) for v in obj]
        return obj

    def expand(match) -> str:
        pad, head, rows = match.group(1), match.group(2), blocks[int(match.group(3))]
        if not rows:
            return f"{pad}{head}[]"
        body = f",\n{pad}  ".join(rows.json_lines())
        return f"{pad}{head}[\n{pad}  {body}\n{pad}]"

    text = json.dumps(stub(report), indent=2, allow_nan=False)
    return _ROWS_STUB.sub(expand, text) if blocks else text


def _flatten(obj, prefix: str, out: dict) -> None:
    if isinstance(obj, _Rows):
        for i, row in enumerate(zip(*obj.cells(str))):
            for key, cell in zip(obj.columns, row):
                out[f"{prefix}.{i}.{key}"] = cell
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(value, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _flatten(value, f"{prefix}.{i}", out)
    else:
        out[prefix] = obj


def _emit(report: dict, args) -> None:
    report = _json_safe(report)
    if args.format == "json":
        text = _dumps(report)
    else:
        flat: dict = {}
        _flatten(report, "", flat)

        def cell(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            return str(v)

        text = ",".join(flat.keys()) + "\n" + ",".join(cell(v) for v in flat.values())
    if args.report_out:
        with open(args.report_out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _certificate_block(cert) -> dict:
    return {
        "theorem": cert.theorem,
        "measured": dict(cert.measured),
        "thresholds": dict(cert.thresholds),
        "holds": cert.holds,
    }


def _pcp_block(report) -> dict:
    return {
        "max_abs_rel_err": report.max_abs_rel_err,
        "worst_probe": str(report.tags[report.worst_index]),
        "n_probes": len(report.tags),
        "eps_target": report.eps_target,
        "pass": report.passed,
        "per_probe": _Rows(
            probe=report.tags,
            cost_a=report.cost_a,
            cost_sketch=report.cost_sketch,
            signed_rel_err=report.signed_rel_err,
            zero_cost=report.zero_cost,
        ),
    }


def _base_report(sk, args, seed: int) -> dict:
    return {
        "method": sk.method,
        "params": {
            "k": args.k,
            "eps": args.eps,
            "delta": args.delta,
            "const_c": args.const_c,
            "seed": seed,
            "m_override": args.m,
        },
        "m": sk.m,
        "c_const": sk.c_const,
        "certificate_t1": None,
        "certificate_t2": None,
        "pcp": None,
        "transfer": None,
        "timing_ms": None,
    }


def _cmd_gen(args) -> int:
    seed = _resolve_seed(args)
    spec = parse_generator_spec(args.spec, seed=seed)
    a = gen_synthetic(spec)
    save_matrix(args.out, a)
    print(json.dumps({"command": "gen", "kind": spec.kind, "n": a.shape[0], "d": a.shape[1], "seed": spec.seed, "path": args.out}))
    return EXIT_PASS


def _cmd_sketch(args) -> int:
    seed = _resolve_seed(args)
    a = _load_source(args, seed)
    sk = make_sketch(a, args.method, _params(args, seed))
    save_matrix(args.out, sk.a_tilde)
    print(
        json.dumps(
            _json_safe(
                {
                    "command": "sketch",
                    "method": sk.method,
                    "m": sk.m,
                    "c_const": sk.c_const,
                    "seed": seed,
                    "path": args.out,
                }
            )
        )
    )
    return EXIT_PASS


def _cmd_certify(args) -> int:
    seed = _resolve_seed(args)
    a = _load_source(args, seed)
    start = time.perf_counter()
    sk = make_sketch(a, args.method, _params(args, seed))
    t1, t2 = certify(a, sk.operator, args.k, args.eps)
    report = _base_report(sk, args, seed)
    report["certificate_t1"] = _certificate_block(t1)
    report["certificate_t2"] = _certificate_block(t2)
    report["timing_ms"] = 1e3 * (time.perf_counter() - start)
    _emit(report, args)
    ok = {
        "matrix": t1.holds,
        "spectral": t2.holds,
        "either": t1.holds or t2.holds,
        "both": t1.holds and t2.holds,
    }[args.route]
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    a = _load_source(args, seed)
    start = time.perf_counter()
    v = audit.verify_sketch(
        a, args.method, _params(args, seed), args.n_random, seed, exhaustive=args.exhaustive_probes
    )
    report = _base_report(v.sketch, args, seed)
    report["certificate_t1"] = _certificate_block(v.certificate_t1)
    report["certificate_t2"] = _certificate_block(v.certificate_t2)
    report["pcp"] = _pcp_block(v.report)
    report["timing_ms"] = 1e3 * (time.perf_counter() - start)
    _emit(report, args)
    return EXIT_PASS if v.report.passed else EXIT_FAIL


def _cmd_solve(args) -> int:
    seed = _resolve_seed(args)
    a = _load_source(args, seed)
    start = time.perf_counter()
    sk = make_sketch(a, args.method, _params(args, seed))
    result = audit.sketch_and_solve(a, sk, args.task, solver=args.solver, iters=args.iters, seed=seed)
    check = result.transfer
    report = _base_report(sk, args, seed)
    # gamma is 1 for the exact solvers, the ones with a transfer check
    report["transfer"] = {"task": args.task, "gamma": None, "lhs": result.cost_on_a, "rhs": None, "holds": None}
    if check is not None:
        report["transfer"].update(gamma=1.0, lhs=check.lhs, rhs=check.rhs, holds=check.bound_holds)
    report["solution"] = {
        "cost_on_a": result.cost_on_a,
        "cost_on_sketch": result.cost_on_sketch,
        "certified_ratio": result.certified_ratio,
    }
    if args.task == "kmeans":
        report["solution"]["assignment"] = [int(x) for x in result.solution.assignment]
    report["timing_ms"] = 1e3 * (time.perf_counter() - start)
    _emit(report, args)
    return EXIT_FAIL if check is not None and not check.bound_holds else EXIT_PASS


def _cmd_bench(args) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    seed = _resolve_seed(args)
    start = time.perf_counter()
    base = _params(args, seed)

    def one_trial(i: int) -> dict:
        trial_seed = derive_seed(seed, Stream.BENCH_TRIAL, i)
        spec = parse_generator_spec(args.gen, seed=trial_seed)
        a = gen_synthetic(spec)
        t0 = time.perf_counter()
        params = dataclasses.replace(base, seed=trial_seed)
        v = audit.verify_sketch(a, args.method, params, args.n_random, trial_seed)
        return {
            "trial": i,
            "seed": trial_seed,
            "m": v.sketch.m,
            "max_abs_rel_err": v.report.max_abs_rel_err,
            "pass": v.report.passed,
            "t1_holds": v.certificate_t1.holds,
            "t2_holds": v.certificate_t2.holds,
            "timing_ms": 1e3 * (time.perf_counter() - t0),
        }

    rows = [one_trial(i) for i in range(args.trials)]
    pass_count = sum(r["pass"] for r in rows)
    errs = [r["max_abs_rel_err"] for r in rows]
    report = {
        "command": "bench",
        "method": args.method,
        "gen": args.gen,
        "trials": args.trials,
        "seed": seed,
        "pass_count": pass_count,
        "pass_rate": pass_count / args.trials,
        "max_abs_rel_err_max": max(errs),
        "max_abs_rel_err_mean": sum(errs) / len(errs),
        "per_trial": rows,
        "timing_ms": 1e3 * (time.perf_counter() - start),
    }
    _emit(report, args)
    return EXIT_PASS if report["pass_rate"] >= args.min_pass_rate else EXIT_FAIL


def _cmd_jl_moment(args) -> int:
    seed = _resolve_seed(args)
    est = jl_moment_estimate(args.family, args.d, args.m, args.ell, args.trials, seed)
    print(
        json.dumps(
            {
                "command": "jl-moment",
                "family": args.family,
                "d": args.d,
                "m": args.m,
                "ell": est.ell,
                "trials": est.trials,
                "seed": seed,
                "estimate": est.estimate,
                "stderr": est.stderr,
            }
        )
    )
    return EXIT_PASS


def build_parser() -> _Parser:
    # argparse makes a formatter for every argument it adds, and each one
    # made without a width asks the terminal for its size: ask once, for
    # the width the stock formatter would pick
    fmt = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(prog="pcp", description=__doc__, formatter_class=fmt)
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=functools.partial(_Parser, formatter_class=fmt)
    )

    p = sub.add_parser("gen", help="write a synthetic matrix")
    p.add_argument("--spec", required=True, help="e.g. lowrank:n=60,d=500,rank=3,noise=0.02")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sketch", help="sketch a matrix to a file")
    _add_source(p)
    _add_sketch_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sketch)

    p = sub.add_parser("certify", help="run both sufficient-condition certificates")
    _add_source(p)
    _add_sketch_args(p)
    p.add_argument("--route", choices=("matrix", "spectral", "either", "both"), default="either")
    _add_output_args(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="audit cost preservation over a probe set")
    _add_source(p)
    _add_sketch_args(p)
    p.add_argument("--n-random", type=int, default=50)
    p.add_argument("--exhaustive-probes", action="store_true")
    _add_output_args(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="solve a task on the sketch, check the transfer bound")
    _add_source(p)
    _add_sketch_args(p)
    p.add_argument("--task", choices=("lowrank", "kmeans"), required=True)
    p.add_argument("--solver", choices=("exhaustive", "lloyd"), default="exhaustive")
    p.add_argument("--iters", type=int, default=50)
    _add_output_args(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="repeat verify over seeded trials")
    p.add_argument("--gen", required=True)
    _add_sketch_args(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--n-random", type=int, default=20)
    p.add_argument("--min-pass-rate", type=float, default=1.0)
    _add_output_args(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("jl-moment", help="Monte-Carlo moment of a sketch family")
    p.add_argument("--family", default="gaussian")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_jl_moment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())
