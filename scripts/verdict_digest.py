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

The lines are compared with the values pinned in PINNED below: each line
that differs is named on stderr, and the exit code is 1 if any line
differs or the script prints more or fewer lines than PINNED holds. A
change that moves a line on purpose re-pins it here.
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
PINNED = (
    "curated 36 9f3af8f17ba0ca467cb4845add6803c5c7730438b5f06c63cb415dcf3cf0ba76",
    "decide-mix 3272 a08376f7d5ce7c9f613a013ebf9e8c28599a1db6cb44c95baed6c0e3277e3d9a",
    "fix-trivial 6544 0828689c020a837bf9da716a069ebaa90f2952511009247cd54ab98aa8c3cd10",
    "calls (seed 1) FixOracle.fix=2131 SubgroupGraph.intersect=1180",
)


def digest(name: str, lines: list[str]) -> str:
    sha = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return f"{name} {len(lines)} {sha}"


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


def lines():
    """The four lines, each yielded as soon as it is known."""
    yield digest("curated", [F.decide(c.phi, c.psi, c.oracle()).describe() for c in F.curated_cases()])
    mixes = {
        seed: workloads.curated_instances() + workloads.random_instances(seed, 100, "decide")
        for seed in SEEDS
    }
    mix = [inst for seed in SEEDS for inst in mixes[seed]]
    yield digest("decide-mix", [F.decide(i.phi, i.psi, i.oracle()).describe() for i in mix])
    yield digest("fix-trivial", [fix_is_trivial(e, i.oracle()) for i in mix for e in (i.phi, i.psi)])
    counts = count_calls(mixes[SEEDS[0]])
    yield "calls (seed 1) " + " ".join(f"{k}={v}" for k, v in counts.items())


def main() -> int:
    got = []
    for line in lines():
        print(line)
        got.append(line)
    differ = 0
    for i, (line, pinned) in enumerate(zip(got, PINNED), 1):
        if line != pinned:
            print(f"line {i} differs from the pinned line: {pinned}", file=sys.stderr)
            differ += 1
    if len(got) != len(PINNED):
        print(f"printed {len(got)} lines, {len(PINNED)} are pinned", file=sys.stderr)
        differ += 1
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
