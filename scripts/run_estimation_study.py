#!/usr/bin/env python3
"""Empirical L1 error of the plug-in transaction-distribution estimator.

Sweeps training-sample sizes on a uniform sparse support and prints the mean
empirical L1 error next to the worst-case lower bound at each size, as JSON
lines.  The bound constrains the worst case over all distributions on that
support size, so the columns are comparative, not an assertion about this
particular distribution.
"""

import argparse

import numpy as np

from bmdlimits.simulate import run_estimation_study
from bmdlimits.space import AttributeSpec, TransactionSpace
from bmdlimits.transactions import TransactionDistribution


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--support-size", type=int, default=1000)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20260824)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument(
        "--train-sizes",
        default="100,1000,10000,100000",
        help="comma-separated training-sample sizes",
    )
    args = ap.parse_args()

    space = TransactionSpace((AttributeSpec("profile", args.support_size),))
    dist = TransactionDistribution.sparse(
        space,
        np.arange(args.support_size).reshape(-1, 1),
        np.full(args.support_size, 1.0 / args.support_size),
    )
    for n in (int(x) for x in args.train_sizes.split(",")):
        report = run_estimation_study(
            space, dist, n, args.trials, args.seed, workers=args.workers
        )
        print(report.to_json())


if __name__ == "__main__":
    main()
