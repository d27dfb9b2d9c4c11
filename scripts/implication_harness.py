"""Randomized check that a holding certificate always means a passing audit.

The audit is exact: it fails exactly when some rank-<=k projection's cost
moves by more than eps.  Its two exact probes (``generate_probes``) are
read off the same r x r Gram of the operator that both certificates read.
So a trial whose certificate holds while the audit fails is a certificate
endorsing a sketch that breaks the guarantee.  Exits 2 if any trial does,
0 otherwise.

    python scripts/implication_harness.py --trials 2000
"""

import argparse
import sys

from pcpsketch import implication_harness


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    summary = implication_harness(args.trials, seed=args.seed)
    print(f"trials:            {summary.trials}")
    print(f"matrix cert held:  {summary.t1_holds}")
    print(f"spectral cert held:{summary.t2_holds}")
    print(f"worst probe error: {summary.max_err_over_trials:.3e}")
    print(f"violations:        {len(summary.violations)}")
    for v in summary.violations:
        print(f"  {v}")
    return 2 if summary.violations else 0


if __name__ == "__main__":
    sys.exit(main())
