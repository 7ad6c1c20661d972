"""The decision procedure: curated behavior, guards, verdict plumbing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fixfnm
from fixfnm import (
    Alphabet,
    BallSpec,
    CertificateError,
    DeclaredEndo,
    FixOracle,
    FreeHom,
    MissingOracle,
    ProductElement,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    TypeV,
    TypeVI,
    TypeVII,
    UnsupportedShape,
    Verdict,
    Word,
    common_fixed_points,
    curated_cases,
    decide,
    identity_endo,
    identity_hom,
    inner_hom,
    permutation_hom,
    render_endo_text,
)
from conftest import (
    A,
    ALL_TAGS,
    B,
    RELAB_AB,
    RELAB_BA,
    random_shape_payload,
    rng_for,
    supported_component,
    swap_blocks,
    wa,
    wb,
)

ALL_LABELS = tuple(
    f"{family}.{branch}" for family in (1, 2) for branch in range(1, 9)
)


def plain_diag():
    return TypeVI(inner_hom(wa("a1")), inner_hom(wb("b1"))).as_endo()


def test_curated_cases_cover_every_label():
    cases = curated_cases()
    assert len(cases) >= 16
    assert {c.label for c in cases} == set(ALL_LABELS)
    # both answers appear within each family
    assert any(c.expected_trivial for c in cases)
    assert any(not c.expected_trivial for c in cases)


@pytest.mark.parametrize("case", curated_cases(), ids=lambda c: f"{c.label} {c.name}")
def test_curated_case(case):
    verdict = decide(case.phi, case.psi, case.oracle())
    assert verdict.trivial == case.expected_trivial
    assert verdict.trace[0] == case.label
    if verdict.trivial:
        assert verdict.witness is None
    else:
        assert not verdict.witness.is_identity()
        assert case.phi.fixes(verdict.witness)
        assert case.psi.fixes(verdict.witness)


# Verdict.describe() of each curated case, in curated_cases() order: a changed
# witness or trace label shows here, not only in scripts/verdict_digest.py
CURATED_LINES = [
    "NONTRIVIAL (a1, b1) [1.1]",
    "TRIVIAL [1.1]",
    "NONTRIVIAL (a1, b1) [1.2]",
    "TRIVIAL [1.2]",
    "NONTRIVIAL (a1^-1, b1) [1.3]",
    "NONTRIVIAL (1, b1) [1.3]",
    "TRIVIAL [1.3]",
    "NONTRIVIAL (a1, 1) [1.4]",
    "TRIVIAL [1.4]",
    "NONTRIVIAL (a1, b1) [1.5]",
    "TRIVIAL [1.5]",
    "NONTRIVIAL (1, b2) [1.5]",
    "NONTRIVIAL (1, b1) [1.6]",
    "TRIVIAL [1.6]",
    "NONTRIVIAL (a1, 1) [1.7]",
    "NONTRIVIAL (1, b1) [1.7]",
    "TRIVIAL [1.7]",
    "NONTRIVIAL (a1, 1) [1.7]",
    "NONTRIVIAL (a1, b1) [1.8]",
    "TRIVIAL [1.8]",
    "NONTRIVIAL (a1, b1^-1) [2.1]",
    "TRIVIAL [2.1]",
    "NONTRIVIAL (a1, b1) [2.2]",
    "TRIVIAL [2.2]",
    "NONTRIVIAL (a1, b1) [2.3]",
    "TRIVIAL [2.3]",
    "NONTRIVIAL (a1, b1) [2.4]",
    "TRIVIAL [2.4]",
    "NONTRIVIAL (a1, b1) [2.5]",
    "TRIVIAL [2.5]",
    "TRIVIAL [2.6]",
    "TRIVIAL [2.6]",
    "NONTRIVIAL (a1, b1) [2.7/1.8]",
    "TRIVIAL [2.7/1.8]",
    "NONTRIVIAL (a1, b1) [2.8]",
    "TRIVIAL [2.8]",
]


def test_curated_verdict_lines_are_pinned():
    cases = curated_cases()
    assert [decide(c.phi, c.psi, c.oracle()).describe() for c in cases] == CURATED_LINES


def test_delegated_trace_for_swap_meets_diagonal():
    swap_first = next(c for c in curated_cases() if c.label == "2.7")
    verdict = decide(swap_first.phi, swap_first.psi, swap_first.oracle())
    assert verdict.trace == ("2.7", "1.8")


def test_unsupported_first_shape():
    power_pair = TypeI(wa("a1"), wb("b1"), (2, 0), (1, 0), (1, 0), (2, 0)).as_endo()
    with pytest.raises(UnsupportedShape):
        decide(power_pair, plain_diag())
    graph_shape = TypeIV(RELAB_BA, identity_hom(B)).as_endo()
    with pytest.raises(UnsupportedShape):
        decide(graph_shape, plain_diag())


def test_mismatched_products_rejected():
    with pytest.raises(ValueError):
        decide(identity_endo(2, 2), identity_endo(2, 3))


def test_identity_pair_is_nontrivial():
    verdict = decide(identity_endo(2, 2), identity_endo(2, 2))
    assert not verdict.trivial
    assert verdict.trace == ("1.7",)
    assert verdict.witness is not None


B3 = Alphabet(3, "b")
RANK_DROPS = {
    # theta kills b2 of K = F_b; the curated case
    "curated": (B, (wa("a1"), Word(A)), identity_hom(B)),
    # K = Fix(conjugation by b2) = <b2>, and theta kills all of it
    "whole-kernel": (B, (wa("a1"), Word(A)), inner_hom(wb("b2"))),
    # the shortest element of K = F_b that theta kills has length 10
    "long-kernel": (
        B3,
        (wa("a1"), wa("a2"), wa("a1^3 a2^3 a1^2 a2")),
        identity_hom(B3),
    ),
}


@pytest.mark.parametrize("name", RANK_DROPS)
def test_rank_drop_yields_kernel_witness(name):
    b, images, keep = RANK_DROPS[name]
    theta = FreeHom(b, A, images)
    phi = TypeVI(permutation_hom(A, (2, 1)), identity_hom(b)).as_endo()
    psi = TypeIV(theta, keep).as_endo()

    verdict = decide(phi, psi)
    assert verdict.trace == ("1.5",)
    x, y = verdict.witness.first, verdict.witness.second
    assert x.is_identity() and not y.is_identity()
    assert theta.apply(y).is_identity()
    assert phi.fixes(verdict.witness) and psi.fixes(verdict.witness)


def test_missing_oracle_propagates_and_declarations_cure_it():
    stretch = FreeHom(A, A, (wa("a1 a2"), wa("a2")))
    phi = TypeVI(stretch, identity_hom(B)).as_endo()
    with pytest.raises(MissingOracle):
        decide(phi, plain_diag())

    oracle = FixOracle(
        [DeclaredEndo(stretch, (wa("a2"), wa("a1 a2 a1^-1")), audit_radius=4)]
    )
    verdict = decide(phi, plain_diag(), oracle)
    assert not verdict.trivial
    assert verdict.witness == ProductElement(Word(A), wb("b1"))


def test_witness_constructor_rejects_bad_witnesses():
    phi = plain_diag()
    with pytest.raises(CertificateError):
        Verdict.with_witness(phi, phi, ProductElement(Word(A), Word(B)), ("1.7",))
    with pytest.raises(CertificateError):
        # (a2, 1) is moved by conjugation with a1
        Verdict.with_witness(phi, phi, ProductElement(wa("a2"), Word(B)), ("1.7",))
    with pytest.raises(CertificateError, match="not fixed by the second endomorphism"):
        # (a2, 1) is fixed by the identity but not by phi
        Verdict.with_witness(
            identity_endo(2, 2), phi, ProductElement(wa("a2"), Word(B)), ("1.7",)
        )


def test_witness_check_survives_optimized_mode():
    # under -O the curated verdicts and two seeded random pairs per label
    # (given on stdin as endo files) read as in a normal run, and a witness
    # that is not fixed is still refused
    script = """
import json, sys
from fixfnm import Alphabet, CertificateError, ProductElement, Verdict, Word
from fixfnm import TypeVI, curated_cases, decide, inner_hom, parse_endo_text, parse_word
assert False, "asserts must be off"
for case in curated_cases():
    print(decide(case.phi, case.psi, case.oracle()).describe())
for phi, psi in json.load(sys.stdin):
    print(decide(parse_endo_text(phi), parse_endo_text(psi)).describe())
A, B = Alphabet(2, "a"), Alphabet(2, "b")
phi = TypeVI(inner_hom(parse_word("a1", A)), inner_hom(parse_word("b1", B))).as_endo()
try:
    Verdict.with_witness(phi, phi, ProductElement(parse_word("a2", A), Word(B)), ("1.7",))
except CertificateError:
    sys.exit(0)
sys.exit(1)
"""
    rng = rng_for("optimized-mode")
    pairs = [
        tuple(shape.as_endo() for shape in _labelled_pair(rng, label))
        for label in ALL_LABELS
        for _ in range(2)
    ]
    src = str(Path(fixfnm.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        input=json.dumps([[render_endo_text(e) for e in pair] for pair in pairs]),
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    expected = [decide(c.phi, c.psi, c.oracle()).describe() for c in curated_cases()]
    assert len(expected) == 36
    random_verdicts = [decide(phi, psi) for phi, psi in pairs]
    assert [v.trace[0] for v in random_verdicts] == [l for l in ALL_LABELS for _ in range(2)]
    expected += [v.describe() for v in random_verdicts]
    assert done.stdout.splitlines() == expected


def test_verdict_describe():
    trivial = Verdict(None, ("1.1",))
    assert trivial.trivial
    assert trivial.describe() == "TRIVIAL [1.1]"
    assert not Verdict(ProductElement(Word(A), wb("b2")), ("1.5",)).trivial
    rank_drop = TypeIV(FreeHom(B, A, (wa("a1"), Word(A))), identity_hom(B)).as_endo()
    swap_diag = TypeVI(permutation_hom(A, (2, 1)), identity_hom(B)).as_endo()
    assert decide(swap_diag, rank_drop).describe() == "NONTRIVIAL (1, b2) [1.5]"
    lively = decide(identity_endo(2, 2), identity_endo(2, 2))
    assert lively.describe().startswith("NONTRIVIAL (")


# --- laziness: a meet asks the oracle only for what it intersects -------------

# transvections: no recognized family covers them, so a bare oracle misses
TRANSVECT_A = FreeHom(A, A, (wa("a1 a2"), wa("a2")))
TRANSVECT_B = FreeHom(B, B, (wb("b1 b2"), wb("b2")))
SKEW_II = FreeHom(B, A, (wa("a1"), wa("a1^2")))

# pairs whose meet needs no fixed subgroup of a component, each with an
# undeclared transvection as a component
NO_COMPONENT_NEEDED = {
    "1.1": (
        TypeVI(TRANSVECT_A, TRANSVECT_B),
        TypeI(wa("a1"), wb("b1"), (2, 0), (1, 0), (2, 0), (3, 0)),
    ),
    "1.2": (TypeVI(TRANSVECT_A, TRANSVECT_B), TypeII(SKEW_II, wb("b1"), (1, 0), (0, 2))),
    # the diagonal fixes the power base a1
    "1.4": (TypeVI(identity_hom(A), TRANSVECT_B), TypeIII(wa("a1"), (1, 0), (1, -1), TRANSVECT_B)),
    "1.6": (TypeVI(TRANSVECT_A, TRANSVECT_B), TypeV(wb("b1"), (1, 1), (1, 0), 2)),
    # the first factors already meet nontrivially
    "1.7": (TypeVI(identity_hom(A), TRANSVECT_B), TypeVI(identity_hom(A), TRANSVECT_B)),
    "2.3": (TypeVII(RELAB_BA, RELAB_AB), TypeIII(wa("a1"), (2, 0), (1, 0), TRANSVECT_B)),
    "2.4": (TypeVII(RELAB_BA, RELAB_AB), TypeIII(wa("a1"), (1, 0), (1, -1), TRANSVECT_B)),
}


@pytest.mark.parametrize("label", sorted(NO_COMPONENT_NEEDED))
def test_meets_that_need_no_component_subgroup_need_no_oracle(label):
    with pytest.raises(MissingOracle):
        FixOracle().fix(TRANSVECT_B)
    phi, psi = (shape.as_endo() for shape in NO_COMPONENT_NEEDED[label])
    verdict = decide(phi, psi, FixOracle())
    assert verdict.trace[0] == label
    if not verdict.trivial:
        assert phi.fixes(verdict.witness) and psi.fixes(verdict.witness)


def test_swap_meet_pins_an_exponent_the_round_trip_moves():
    # label 2.1: psi's bases (a1 a2, b1 b2) solve v^q = to_second(u)^p, so
    # the exponent equation alone admits (p, p); but to_first(to_second(u))
    # = a2 a1 != u, which pins p to 0. The lattice meet of branches 2.1, 2.2
    # and 2.6 must apply that pin, or it returns (a1 a2, b1 b2), unfixed
    phi = TypeVII(FreeHom(B, A, (wa("a2"), wa("a1"))), RELAB_AB).as_endo()
    psi = TypeI(wa("a1 a2"), wb("b1 b2"), (1, 2), (-2, 0), (1, 0), (2, -2)).as_endo()
    verdict = decide(phi, psi, FixOracle())
    assert verdict.describe() == "TRIVIAL [2.1]"
    assert not common_fixed_points(phi, psi, BallSpec(4))


# --- differential check against the ball oracle, all sixteen labels ---------


def _labelled_pair(rng, label):
    """A pair (phi, psi) of shapes aimed at one branch label."""
    family, index = label.split(".")
    tag = ALL_TAGS[int(index) - 1]
    if family == "1":
        phi = TypeVI(supported_component(rng, A), supported_component(rng, B))
        return phi, random_shape_payload(rng, tag)
    # 2.5 and 2.8 meet composites of psi's blocks with phi's, which are
    # recognized only when all the blocks share one flavour
    flavour = rng.choice(("inner", "permutation"))
    phi = TypeVII(*swap_blocks(rng, flavour))
    if tag == "IV":
        psi = TypeIV(swap_blocks(rng, flavour)[0], supported_component(rng, B))
    elif tag == "VII":
        psi = TypeVII(*swap_blocks(rng, flavour))
    else:
        psi = random_shape_payload(rng, tag)
    return phi, psi


def test_random_pairs_over_all_labels_agree_with_the_ball():
    rng = rng_for("decision-differential")
    spec = BallSpec(4)
    for label in ALL_LABELS:
        for _ in range(5):
            phi, psi = (shape.as_endo() for shape in _labelled_pair(rng, label))
            verdict = decide(phi, psi)
            assert verdict.trace[0] == label
            if verdict.trivial:
                hits = common_fixed_points(phi, psi, spec)
                assert not hits, (label, render_endo_text(phi), render_endo_text(psi), str(hits[0]))
            else:
                w = verdict.witness
                assert not w.is_identity() and phi.fixes(w) and psi.fixes(w)
