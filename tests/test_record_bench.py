"""Checks of scripts/record_bench.py, the script that writes BENCH_<n>.json.

The script is loaded by path; importing it runs nothing.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

import fixfnm

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "record_bench.py"
spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
record_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_bench)


def test_spread_takes_inclusive_quartiles():
    assert record_bench.spread(list(range(1, 11))) == {"median": 5.5, "q1": 3.25, "q3": 7.75}


def test_compare_counts_a_tie_for_neither_side():
    row = record_bench.compare([1, 2, 3], [2, 2, 4], "lower")
    assert (row["change_wins"], row["parent_wins"]) == (2, 0)
    assert (row["parent_median"], row["change_median"], row["parent_iqr"]) == (2, 2, 1)


def test_in_turn_reverses_the_trees_in_odd_rounds():
    trees = {"parent": Path("p"), "change": Path("c")}
    assert [side for side, _ in record_bench.in_turn(trees, 0)] == ["parent", "change"]
    assert [side for side, _ in record_bench.in_turn(trees, 1)] == ["change", "parent"]
    assert [side for side, _ in record_bench.in_turn(trees, 4)] == ["parent", "change"]


def test_importtime_keeps_only_fixfnm_rows():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |   _io\n"
        "import time:       900 |       2100 | fixfnm.words\n"
        "import time:       300 |       2400 | fixfnm\n"
        "import time:       500 |        500 |   fixfnmish\n"
        "Traceback lines and verdicts are not rows\n"
    )
    assert record_bench.fixfnm_importtime(stderr) == {"fixfnm.words": 2.1, "fixfnm": 2.4}


def test_median_per_size_keeps_each_size_exact_and_first():
    tables = [[{"N": 2, "ms": 1.0}, {"N": 1, "ms": 4.0}], [{"N": 1, "ms": 2.0}, {"N": 2, "ms": 3.0}]]
    medians = record_bench.median_per_size(tables, "N")
    assert medians == [{"N": 1, "ms": 3.0}, {"N": 2, "ms": 2.0}]
    assert [list(row) for row in medians] == [["N", "ms"], ["N", "ms"]]


@pytest.mark.parametrize("block", sorted(record_bench.TIMED))
def test_timed_block_prints_one_time_per_row(block):
    timed = record_bench.TIMED[block]
    namespace = {"F": fixfnm}
    exec(timed["setup"], namespace)
    proc = record_bench.run(record_bench.ROOT, "-c", record_bench.TIMING.format(**timed))
    times = json.loads(proc.stdout)
    assert sorted(times) == sorted(namespace["rows"])
    assert all(math.isfinite(t) and t > 0 for t in times.values())
