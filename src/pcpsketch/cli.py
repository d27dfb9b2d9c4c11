"""Command-line front end.

Subcommands: gen, sketch, certify, verify, solve, bench, jl-moment.
Matrices move through CSV or binary PCPM files; reports are JSON (default)
or flattened CSV with dotted keys.  Exit codes: 0 when the requested
assertion passes (or nothing was asserted), 2 when it fails, 1 on errors.
The default seed is 0, overridable by the PCP_SEED environment variable
and per-command --seed; every report echoes the seeds it used.

A call whose first argument names a command builds that command's parser
alone; any other argv (none, a root option, a mistyped command) builds all
seven.  Help, usage errors and exit codes are the same either way.  This
paragraph is left out of ``pcp --help``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import re
import shutil
import sys
import time
from itertools import chain, repeat
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


def _add_sketch_args(p: _Parser, source: bool = True) -> None:
    if source:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--input", help="matrix file (CSV or PCPM)")
        src.add_argument("--gen", help="generator spec, e.g. powerlaw:n=40,d=200,alpha=1")
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

    def __getitem__(self, rows: slice) -> "_Rows":
        return _Rows(**{key: column[rows] for key, column in self.columns.items()})

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
_ROWS_PER_PIECE = 4096  # rows of a _Rows block rendered at a time


def _json_pieces(report: dict):
    """Indent-2 JSON of a JSON-safe report, as an iterator of text pieces,
    except that each ``_Rows`` block holds one row per line.  The report is
    encoded (and checked) at once, each block's rows ``_ROWS_PER_PIECE`` at
    a time as the pieces are read, so no text of a whole block is built."""
    blocks: list = []

    def stub(obj):
        if not isinstance(obj, _Rows):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        blocks.append(obj)
        return f"\x00{len(blocks) - 1}"

    def pieces(text):
        end = 0
        for match in _ROWS_STUB.finditer(text):
            pad, head, rows = match.group(1), match.group(2), blocks[int(match.group(3))]
            yield text[end : match.start()] + f"{pad}{head}["
            for start in range(0, len(rows), _ROWS_PER_PIECE):
                lines = rows[start : start + _ROWS_PER_PIECE].json_lines()
                yield ("\n" if start == 0 else ",\n") + f"{pad}  " + f",\n{pad}  ".join(lines)
            yield f"\n{pad}]" if len(rows) else "]"
            end = match.end()
        yield text[end:]

    return pieces(json.dumps(report, indent=2, allow_nan=False, default=stub))


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
        pieces = chain(_json_pieces(report), ["\n"])
    else:
        flat: dict = {}
        _flatten(report, "", flat)

        def cell(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            return str(v)

        # RFC 4180 quoting: a cell can hold commas (a --gen spec does)
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows([flat, map(cell, flat.values())])
        pieces = [text.getvalue()]
    with open(args.report_out, "w") if args.report_out else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(pieces)


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


def _base_report(sk) -> dict:
    return {
        "method": sk.method,
        "params": dataclasses.asdict(sk.params),
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
    summary = {"command": "sketch", "method": sk.method, "m": sk.m, "c_const": sk.c_const, "seed": seed, "path": args.out}
    print(json.dumps(_json_safe(summary)))
    return EXIT_PASS


def _cmd_certify(args) -> int:
    seed = _resolve_seed(args)
    a = _load_source(args, seed)
    start = time.perf_counter()
    sk = make_sketch(a, args.method, _params(args, seed))
    t1, t2 = certify(a, sk.operator, args.k, args.eps)
    report = _base_report(sk)
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
    v = audit.verify_sketch(a, args.method, _params(args, seed), exhaustive=args.exhaustive_probes)
    report = _base_report(v.sketch)
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
    report = _base_report(sk)
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
    if not 0.0 <= args.min_pass_rate <= 1.0:
        raise ConfigError(f"--min-pass-rate must be in [0, 1], got {args.min_pass_rate}")
    seed = _resolve_seed(args)
    start = time.perf_counter()
    base = _params(args, seed)

    def one_trial(i: int) -> dict:
        trial_seed = derive_seed(seed, Stream.BENCH_TRIAL, i)
        spec = parse_generator_spec(args.gen, seed=trial_seed)
        a = gen_synthetic(spec)
        t0 = time.perf_counter()
        params = dataclasses.replace(base, seed=trial_seed)
        v = audit.verify_sketch(a, args.method, params)
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
    summary = {"command": "jl-moment", "family": args.family, "d": args.d, "m": args.m, "ell": est.ell,
               "trials": est.trials, "seed": seed, "estimate": est.estimate, "stderr": est.stderr}
    print(json.dumps(summary))
    return EXIT_PASS


def _args_gen(p: _Parser) -> None:
    p.add_argument("--spec", required=True, help="e.g. lowrank:n=60,d=500,rank=3,noise=0.02")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)


def _args_sketch(p: _Parser) -> None:
    _add_sketch_args(p)
    p.add_argument("--out", required=True)


def _args_certify(p: _Parser) -> None:
    _add_sketch_args(p)
    p.add_argument("--route", choices=("matrix", "spectral", "either", "both"), default="either")
    _add_output_args(p)


def _args_verify(p: _Parser) -> None:
    _add_sketch_args(p)
    p.add_argument("--exhaustive-probes", action="store_true")
    _add_output_args(p)


def _args_solve(p: _Parser) -> None:
    _add_sketch_args(p)
    p.add_argument("--task", choices=("lowrank", "kmeans"), required=True)
    p.add_argument("--solver", choices=("exhaustive", "lloyd"), default="exhaustive")
    p.add_argument("--iters", type=int, default=50)
    _add_output_args(p)


def _args_bench(p: _Parser) -> None:
    p.add_argument("--gen", required=True)
    _add_sketch_args(p, source=False)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--min-pass-rate", type=float, default=1.0)
    _add_output_args(p)


def _args_jl_moment(p: _Parser) -> None:
    p.add_argument("--family", default="gaussian")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)


# name -> (help line, adds the arguments, handler), in the order help lists them
_COMMANDS = {
    "gen": ("write a synthetic matrix", _args_gen, _cmd_gen),
    "sketch": ("sketch a matrix to a file", _args_sketch, _cmd_sketch),
    "certify": ("run both sufficient-condition certificates", _args_certify, _cmd_certify),
    "verify": ("audit cost preservation over a probe set", _args_verify, _cmd_verify),
    "solve": ("solve a task on the sketch, check the transfer bound", _args_solve, _cmd_solve),
    "bench": ("repeat verify over seeded trials", _args_bench, _cmd_bench),
    "jl-moment": ("Monte-Carlo moment of a sketch family", _args_jl_moment, _cmd_jl_moment),
}


def build_parser(commands=_COMMANDS) -> _Parser:
    """The parser of ``pcp`` with the subcommands named in ``commands``
    (every one by default), registered in the order help lists them."""
    # argparse makes a formatter for every argument it adds, and each one
    # made without a width asks the terminal for its size: ask once, for
    # the width the stock formatter would pick
    fmt = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(prog="pcp", description=__doc__.rsplit("\n\n", 1)[0], formatter_class=fmt)
    # not required, so that an unknown root option is named before the
    # missing command; main reports that one
    sub = parser.add_subparsers(dest="command", parser_class=functools.partial(_Parser, formatter_class=fmt))
    for name, (help_line, add_args, handler) in _COMMANDS.items():
        if name in commands:
            p = sub.add_parser(name, help=help_line)
            add_args(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    # only the named command's parser, or every command's (see the docstring)
    parser = build_parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("the following arguments are required: command")
        return args.func(args)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())
