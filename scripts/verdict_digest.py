#!/usr/bin/env python3
"""Digests of what the decision engine prints, to show a refactor changes none of it.

    python3 scripts/verdict_digest.py

Prints one line per stream, `<stream> <count> <sha256>`, the sha256 taken
over the stream's lines joined by newlines:

  - `curated`: `Verdict.describe()` of each curated case;
  - `decide-mix`: `Verdict.describe()` of each instance of the benchmark's
    `decide-mix` workload for seeds 1 and 2, that is
    `curated_instances() + random_instances(seed, 100, "decide")` from
    `bench/workloads.py`, seed 1 first;
  - `fix-trivial`: `yes` or `no` for phi, then psi, of each of those
    instances: whether the endomorphism's own fixed subgroup is trivial,
    answered with the instance's declarations.

A last line counts the `FixOracle.fix` and `SubgroupGraph.intersect` calls
made while deciding the seed-1 instances once. Two trees that print the
same lines give the same verdicts, witnesses and trace labels, and ask the
oracle as often.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import fixfnm as F  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)
COUNTED = ((F.FixOracle, "fix"), (F.SubgroupGraph, "intersect"))


def digest(name: str, lines: list[str]) -> None:
    sha = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{name} {len(lines)} {sha}")


def fix_is_trivial(e, oracle) -> str:
    n, m = e.first_alphabet.rank, e.second_alphabet.rank
    return "yes" if F.decide(F.identity_endo(n, m), e, oracle).trivial else "no"


def count_calls(instances) -> dict[str, int]:
    originals = {(cls, attr): getattr(cls, attr) for cls, attr in COUNTED}
    counts = {f"{cls.__name__}.{attr}": 0 for cls, attr in originals}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for (cls, attr), fn in originals.items():
        setattr(cls, attr, counted(f"{cls.__name__}.{attr}", fn))
    try:
        for inst in instances:
            F.decide(inst.phi, inst.psi, inst.oracle())
    finally:
        for (cls, attr), fn in originals.items():
            setattr(cls, attr, fn)
    return counts


def main() -> int:
    digest("curated", [F.decide(c.phi, c.psi, c.oracle()).describe() for c in F.curated_cases()])
    mixes = {
        seed: workloads.curated_instances() + workloads.random_instances(seed, 100, "decide")
        for seed in SEEDS
    }
    mix = [inst for seed in SEEDS for inst in mixes[seed]]
    digest("decide-mix", [F.decide(i.phi, i.psi, i.oracle()).describe() for i in mix])
    digest("fix-trivial", [fix_is_trivial(e, i.oracle()) for i in mix for e in (i.phi, i.psi)])
    counts = count_calls(mixes[SEEDS[0]])
    print("calls (seed 1) " + " ".join(f"{k}={v}" for k, v in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
