"""Solve k-means on a sketch, compare against the exhaustive optimum and
print the transfer check of each sketch."""

import argparse
import warnings

from pcpsketch import (
    GeneratorSpec,
    SketchParams,
    WidthNotReducingWarning,
    exhaustive_kmeans,
    gen_synthetic,
    make_sketch,
    sketch_and_solve,
)

warnings.simplefilter("ignore", WidthNotReducingWarning)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--d", type=int, default=8)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--separation", type=float, default=6.0)
    ap.add_argument("--noise", type=float, default=0.6)
    ap.add_argument("--eps", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    a = gen_synthetic(
        GeneratorSpec(
            "clustered",
            n=args.n,
            d=args.d,
            k_true=args.k,
            separation=args.separation,
            noise=args.noise,
            seed=args.seed,
        )
    )
    opt = exhaustive_kmeans(a, args.k).cost
    print(f"instance: n={args.n} d={args.d} k={args.k}  exhaustive optimum = {opt:.6f}")

    for method in ("svd", "gaussian", "nonoblivious"):
        sk = make_sketch(a, method, SketchParams(k=args.k, eps=args.eps, seed=args.seed))
        res = sketch_and_solve(a, sk, "kmeans", solver="exhaustive")
        ratio = res.cost_on_a / opt if opt > 0 else float("inf")
        check = res.transfer
        print(
            f"{method:>12}: m={sk.m:>3}  cost_on_sketch={res.cost_on_sketch:.6f}  "
            f"cost_on_a={res.cost_on_a:.6f}  ratio={ratio:.4f}  "
            f"certified<= {res.certified_ratio:.2f}  "
            f"holds={check.bound_holds} lhs={check.lhs:.6f} rhs={check.rhs:.6f}"
        )


if __name__ == "__main__":
    main()
