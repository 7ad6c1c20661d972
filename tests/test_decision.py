"""The decision procedure: curated behavior, guards, verdict plumbing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fixfnm
from fixfnm import (
    Alphabet,
    CertificateError,
    DeclaredEndo,
    FixOracle,
    FreeHom,
    MissingOracle,
    ProductElement,
    TypeI,
    TypeIV,
    TypeVI,
    UnsupportedShape,
    Verdict,
    Word,
    curated_cases,
    decide,
    identity_endo,
    identity_hom,
    inner_hom,
    parse_word,
    permutation_hom,
)
from conftest import RELAB_BA

A = Alphabet(2, "a")
B = Alphabet(2, "b")

ALL_LABELS = tuple(
    f"{family}.{branch}" for family in (1, 2) for branch in range(1, 9)
)


def wa(text):
    return parse_word(text, A)


def wb(text):
    return parse_word(text, B)


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


def test_witness_check_survives_optimized_mode():
    script = """
import sys
from fixfnm import Alphabet, CertificateError, ProductElement, Verdict, Word
from fixfnm import TypeVI, inner_hom, parse_word
assert False, "asserts must be off"
A, B = Alphabet(2, "a"), Alphabet(2, "b")
phi = TypeVI(inner_hom(parse_word("a1", A)), inner_hom(parse_word("b1", B))).as_endo()
try:
    Verdict.with_witness(phi, phi, ProductElement(parse_word("a2", A), Word(B)), ("1.7",))
except CertificateError:
    sys.exit(0)
sys.exit(1)
"""
    src = str(Path(fixfnm.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_verdict_describe():
    assert Verdict.intersection_trivial(("1.1",)).describe() == "TRIVIAL [1.1]"
    rank_drop = TypeIV(FreeHom(B, A, (wa("a1"), Word(A))), identity_hom(B)).as_endo()
    swap_diag = TypeVI(permutation_hom(A, (2, 1)), identity_hom(B)).as_endo()
    assert decide(swap_diag, rank_drop).describe() == "NONTRIVIAL (1, b2) [1.5]"
    lively = decide(identity_endo(2, 2), identity_endo(2, 2))
    assert lively.describe().startswith("NONTRIVIAL (")
