#!/usr/bin/env python3
"""Walk the curated decision suite and print one row per branch exercise.

Each curated pair pins one of the sixteen decision branches (1.1 to 2.8).
The tour decides every pair, checks the verdict against the expectation
the curated manifest records, and optionally cross-checks against the
brute-force oracle. Exits nonzero if anything disagrees.
"""

import argparse
import sys

from fixfnm import BallSpec, common_fixed_points, curated_cases, decide


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--crosscheck",
        type=int,
        default=0,
        metavar="RADIUS",
        help="also verify each verdict against the brute-force oracle "
        "at this |x| + |y| radius (0 disables, default 0)",
    )
    args = parser.parse_args(argv)

    failures = 0
    header = f"{'label':>6}  {'case':<32} {'verdict':<10} {'trace':<12} witness"
    print(header)
    print("-" * len(header))
    cases = curated_cases()
    for case in cases:
        verdict = decide(case.phi, case.psi, case.oracle())
        ok = verdict.trivial == case.expected_trivial and verdict.trace[0] == case.label
        if args.crosscheck:
            hits = common_fixed_points(case.phi, case.psi, BallSpec(args.crosscheck))
            if verdict.trivial:
                ok = ok and not hits
            else:
                ok = ok and case.phi.fixes(verdict.witness) and case.psi.fixes(verdict.witness)
        shown = "trivial" if verdict.trivial else "nontrivial"
        witness = str(verdict.witness) if verdict.witness is not None else "-"
        trace = ">".join(verdict.trace)
        marker = "" if ok else "   <-- MISMATCH"
        print(f"{case.label:>6}  {case.name:<32} {shown:<10} {trace:<12} {witness}{marker}")
        if not ok:
            failures += 1
    print("-" * len(header))
    labels = {c.label for c in cases}
    print(f"{len(cases)} cases over {len(labels)} branch labels, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
