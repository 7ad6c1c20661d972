"""The benchmark's checks reject tampered answers, and its trace repeats.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import fixfnm as F  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


def curated(label: str, trivial: bool) -> W.Instance:
    return next(i for i in W.curated_instances() if i.label == label and i.expected_trivial == trivial)


def verdict_args(inst: W.Instance, verdict):
    witness = None if verdict.witness is None else W.pair_letters(verdict.witness)
    return checks.blocks_of(inst.phi), checks.blocks_of(inst.psi), verdict.trivial, witness, verdict.trace


def test_untampered_verdicts_pass():
    for inst in W.curated_instances():
        verdict = F.decide(inst.phi, inst.psi, inst.oracle())
        assert W.check_decision(inst, verdict) == [], inst


def test_tampered_witness_is_rejected():
    inst = curated("1.8", trivial=False)
    phi, psi, trivial, (x, y), trace = verdict_args(inst, F.decide(inst.phi, inst.psi, inst.oracle()))
    assert checks.check_verdict(phi, psi, trivial, (x, y), trace) == []
    for bad in ((x + (2,), y), (x, checks.reduce(y + y + (1,))), ((), ())):
        assert checks.check_verdict(phi, psi, trivial, bad, trace)


def test_flipped_verdict_is_rejected():
    inst = curated("1.7", trivial=False)
    phi, psi, trivial, witness, trace = verdict_args(inst, F.decide(inst.phi, inst.psi, inst.oracle()))
    # against the curated answer
    assert checks.check_verdict(phi, psi, True, None, trace, expected_trivial=False)
    # without one: the benchmark's own ball finds the common fixed point
    assert checks.check_verdict(phi, psi, True, None, trace, ball_radius=3)
    # a nontrivial claim needs a witness
    trivial_case = curated("1.7", trivial=True)
    blocks = checks.blocks_of(trivial_case.phi), checks.blocks_of(trivial_case.psi)
    assert checks.check_verdict(*blocks, False, None, ["1.7"])


def test_wrong_label_is_rejected():
    inst = curated("2.5", trivial=False)
    args = verdict_args(inst, F.decide(inst.phi, inst.psi, inst.oracle()))
    assert checks.check_verdict(*args, expected_label="2.5") == []
    assert checks.check_verdict(*args[:4], ("2.4",), expected_label="2.5")


def test_wrong_expression_is_rejected():
    import random

    inst = W.fold_instance(random.Random(3), 6)
    gens = [F.Word(W.A, g) for g in inst.first]
    expr = F.express_in_generators(gens, F.Word(W.A, inst.member_first))
    assert checks.check_expression(inst.first, inst.member_first, expr, member=True) == []
    assert checks.check_expression(inst.first, inst.member_first, expr + [1], member=True)
    assert checks.check_expression(inst.first, inst.member_first, [-x for x in expr], member=True)
    assert checks.check_expression(inst.first, inst.member_first, [3], member=True)
    assert checks.check_expression(inst.first, inst.member_first, None, member=True)
    # a planted non-member of odd length must not be expressed
    assert checks.odd_parity(inst.outsider)
    assert F.express_in_generators(gens, F.Word(W.A, inst.outsider)) is None
    assert checks.check_expression(inst.first, inst.outsider, [1], member=False)


def test_ball_hits_are_checked():
    inst = curated("1.8", trivial=False)
    phi, psi = checks.blocks_of(inst.phi), checks.blocks_of(inst.psi)
    hits = [W.pair_letters(g) for g in F.common_fixed_points(inst.phi, inst.psi, F.BallSpec(3))]
    assert hits and hits == checks.common_fixed(phi, psi, 3)
    assert checks.check_ball_hits(phi, psi, hits, False, 3) == []
    assert checks.check_ball_hits(phi, psi, hits, True, 3)
    assert checks.check_ball_hits(phi, psi, hits + [((2,), ())], False, 3)
    assert checks.check_ball_hits(phi, psi, hits + [((), ())], False, 3)


def test_cli_answers_are_checked():
    inst = curated("1.8", trivial=False)
    blocks = checks.blocks_of(inst.phi), checks.blocks_of(inst.psi)
    good = {"verdict": "nontrivial", "witness": "(a1, b1)", "trace": ["1.8"]}
    assert checks.check_cli(1, json.dumps(good), False, "1.8", *blocks) == []
    assert checks.check_cli(0, json.dumps(good), False, "1.8", *blocks)
    flipped = dict(good, verdict="trivial", witness=None)
    assert checks.check_cli(0, json.dumps(flipped), False, "1.8", *blocks)
    assert checks.check_cli(1, json.dumps(dict(good, witness="(a1^2, b1)")), False, "1.8", *blocks)
    # components swapped, or written in the other alphabet
    for witness in ("(b1, a1)", "(b1, b1)", "(a1, a1)"):
        assert checks.check_cli(1, json.dumps(dict(good, witness=witness)), False, "1.8", *blocks)
    assert checks.check_cli(1, json.dumps(dict(good, trace=["2.7"])), False, "1.8", *blocks)
    assert checks.check_cli(1, "Traceback (most recent call last):", False, "1.8", *blocks)


def test_traced_counts_repeat_and_wrappers_come_off():
    work = W.DecideMix(seed=7, per_label=2)
    original = F.decide

    def traced_counts():
        tracer = spans.Tracer()
        restore = tracer.install()
        try:
            assert F.decide is not original
            for op in work.ops:
                op()
        finally:
            restore()
        return {n: (s.calls, dict(s.extra)) for n, s in tracer.stats.items()}

    first = traced_counts()
    assert first == traced_counts()
    assert first["decision.decide"][0] == len(work.ops)
    assert F.decide is original
    assert not hasattr(F.FreeHom.apply, "__wrapped__")


def test_cli_known_answers_are_checked():
    import dataclasses

    work = W.CliIntersect(seed=1, generated=2)
    try:
        assert work.final_check() == []
        # diag x swap meets nontrivially; calling it trivial must be caught
        work.cases[0] = dataclasses.replace(work.cases[0], trivial=True)
        assert work.final_check()
    finally:
        work.close()


def test_unreached_spans_read_zero():
    probes = {"cli.interpreter_ms": 1.0, "cli.import_ms": 2.0}
    own, probe = spans.Tracer(), spans.Tracer()
    metrics, unreached = spans.layer_metrics(own, probe, probes, ("oracle",))
    assert len(metrics) == len(spans.METRICS) + len(spans.PROBE_METRICS)
    assert unreached == [name for name, *_ in spans.METRICS]
    assert all(metrics[name]["value"] == 0 for name in unreached)
    # a probe layer reads the probe round only, the others the own spans only
    probe.stats["oracle.common_fixed_points"].calls = 1
    probe.stats["decision.decide"].calls = 3
    metrics, unreached = spans.layer_metrics(own, probe, probes, ("oracle",))
    assert "oracle.common_fixed_points.self_ms" not in unreached
    assert metrics["decision.decide.calls"]["value"] == 0
