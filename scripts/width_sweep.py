"""Sweep sketch widths for one instance and watch the audit turn over.

For each width the script prints both certificate verdicts, the worst
probe error (a lower bound on the exact distortion), and the audit's
verdict, which is exact: whether every rank-<=k cost stays within eps.
Useful for eyeballing how much width a method actually needs compared
to what the formulas prescribe.
"""

import argparse
import warnings

from pcpsketch import (
    GeneratorSpec,
    SketchParams,
    WidthNotReducingWarning,
    factor,
    gen_synthetic,
    verify_sketch,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--method", default="gaussian")
    ap.add_argument("--n", type=int, default=40)
    ap.add_argument("--d", type=int, default=200)
    ap.add_argument("--rank", type=int, default=3)
    ap.add_argument("--noise", type=float, default=0.05)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--eps", type=float, default=0.4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--widths", type=int, nargs="+", default=None)
    args = ap.parse_args()

    # factored once, for every width
    a = factor(gen_synthetic(
        GeneratorSpec("lowrank", n=args.n, d=args.d, rank=args.rank, noise=args.noise, seed=args.seed)
    ))
    widths = args.widths or [4, 8, 16, 32, 64, 128, 256]
    widths = [w for w in widths if w <= args.d] or [args.d]

    print(f"method={args.method} n={args.n} d={args.d} k={args.k} eps={args.eps}")
    print(f"{'m':>6} {'T1':>5} {'T2':>5} {'max_probe_err':>14} {'audit':>6}")
    for m in widths:
        params = SketchParams(k=args.k, eps=args.eps, seed=args.seed, m_override=m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WidthNotReducingWarning)
            v = verify_sketch(a, args.method, params)
        rep = v.report
        print(
            f"{v.sketch.m:>6} {str(v.certificate_t1.holds):>5} {str(v.certificate_t2.holds):>5} "
            f"{rep.max_abs_rel_err:>14.3e} {'pass' if rep.passed else 'FAIL':>6}"
        )


if __name__ == "__main__":
    main()
