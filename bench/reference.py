#!/usr/bin/env python3
"""Reference figures: scaling curves and the import-time breakdown.

    python3 bench/reference.py

These are not workloads; they show how cost grows with size, so a change
to folding or to the ball oracle can be read against a curve:
  - from_generators and express_in_generators on (a1 a2)^n, (a1 a2)^(n+1)
    at 402, 802 and 1602 wedge edges (best of 3);
  - common_fixed_points on the curated 1.8 pair at radii 4, 5 and 6
    (best of 3);
  - `python -X importtime -c "import fixfnm"`: self and cumulative time
    of each module it loads (median of 5 processes).
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import fixfnm as F  # noqa: E402


def best_of(fn, repeat: int = 3) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def fold_curve() -> None:
    a = F.Alphabet(2, "a")
    a1, a2 = a.generators()
    print("edges  fold_ms  express_ms")
    for n in (100, 200, 400):
        gens = [(a1 * a2) ** n, (a1 * a2) ** (n + 1)]
        edges = sum(len(g) for g in gens)
        fold = best_of(lambda: F.from_generators(gens))
        express = best_of(lambda: F.express_in_generators(gens, a1 * a2))
        print(f"{edges:>5}  {fold * 1e3:>7.1f}  {express * 1e3:>10.1f}")


def ball_curve() -> None:
    case = next(c for c in F.curated_cases() if c.label == "1.8" and not c.expected_trivial)
    print("radius  elements  hits  ms")
    for radius in (4, 5, 6):
        elements = sum(1 for _ in F.enumerate_product_ball(case.phi.first_alphabet, case.phi.second_alphabet, radius))
        hits = len(F.common_fixed_points(case.phi, case.psi, F.BallSpec(radius)))
        ms = best_of(lambda: F.common_fixed_points(case.phi, case.psi, F.BallSpec(radius))) * 1e3
        print(f"{radius:>6}  {elements:>8}  {hits:>4}  {ms:.1f}")


def import_breakdown() -> None:
    """Self and cumulative import time of every module `import fixfnm` loads."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs: dict[str, list[tuple[int, int]]] = {}
    for _ in range(5):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fixfnm"],
                             env=env, capture_output=True, text=True, check=True).stderr
        rows = [re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line) for line in err.splitlines()]
        rows = [m for m in rows if m]
        top = max(i for i, m in enumerate(rows) if m.group(4) == "fixfnm")
        depth = len(rows[top].group(3))
        i = top
        while i >= 0 and (i == top or len(rows[i].group(3)) > depth):
            runs.setdefault(rows[i].group(4), []).append((int(rows[i].group(1)), int(rows[i].group(2))))
            i -= 1
    print("module  self_ms  cumulative_ms (median of 5 processes)")
    table = [(name, statistics.median(v[0] for v in values) / 1e3, statistics.median(v[1] for v in values) / 1e3)
             for name, values in runs.items() if len(values) == 5]
    for name, own, cumulative in sorted(table, key=lambda row: -row[1]):
        if own >= 0.5:
            print(f"{name}  {own:.1f}  {cumulative:.1f}")


if __name__ == "__main__":
    fold_curve()
    print()
    ball_curve()
    print()
    import_breakdown()
