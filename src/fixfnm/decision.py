"""Deciding whether two fixed subgroups of a product meet nontrivially.

The first endomorphism phi must preserve or swap the two coordinates
outright (shape VI or VII); the second, psi, may be any of the seven
shapes.  ``decide`` takes psi's fixed-subgroup descriptor from
``fix_product`` and meets it with Fix(phi): ``meet_diagonal`` for a
diagonal phi, ``meet_swap`` for a swapping one.  The verdict trace labels
the sixteen pairings "1.1".."2.8": family 1 is a diagonal phi, family 2 a
swapping one, and the second digit follows psi's shape in the order I, II,
III.1, III.2, IV, V, VI, VII.  Pairing 2.7 runs the 1.8 meet with the
roles reversed and is traced as ("2.7", "1.8").

Membership of a single word in a fixed subgroup is a word equality and
needs no oracle; a meet asks the oracle only when it has to intersect or
map whole fixed subgroups (1.3-1.5, 1.7, 1.8, 2.5, 2.7, 2.8).
Every nontrivial verdict carries a witness, checked when it is built.
"""

from __future__ import annotations

from typing import Optional

from ._value import FrozenValue, set_field
from .fixpoints import FixOracle, fix_product
from .product import ProductElement, ProductEndo, TypeVI, TypeVII, classify
from .words import CertificateError

# second digit of the trace label, by the shape of psi
_BRANCH = {
    tag: str(i)
    for i, tag in enumerate(("I", "II", "III.1", "III.2", "IV", "V", "VI", "VII"), start=1)
}


class UnsupportedShape(ValueError):
    """First endomorphism is neither diagonal (VI) nor swapping (VII)."""


class Verdict(FrozenValue):
    """Outcome of a decision run.

    ``witness`` is None for trivial verdicts; a nontrivial verdict always
    carries a common fixed point, built only through ``with_witness``.
    """

    __slots__ = ("trivial", "witness", "trace")

    def __init__(self, trivial: bool, witness: Optional[ProductElement], trace: tuple[str, ...]):
        set_field(self, "trivial", trivial)
        set_field(self, "witness", witness)
        set_field(self, "trace", trace)

    @classmethod
    def intersection_trivial(cls, trace: tuple[str, ...]) -> "Verdict":
        return cls(True, None, tuple(trace))

    @classmethod
    def with_witness(
        cls,
        phi: ProductEndo,
        psi: ProductEndo,
        witness: ProductElement,
        trace: tuple[str, ...],
    ) -> "Verdict":
        if witness.is_identity():
            raise CertificateError("witness must be nontrivial")
        if not phi.fixes(witness):
            raise CertificateError(f"witness {witness} is not fixed by the first endomorphism")
        if not psi.fixes(witness):
            raise CertificateError(f"witness {witness} is not fixed by the second endomorphism")
        return cls(False, witness, tuple(trace))

    def describe(self) -> str:
        tag = "/".join(self.trace)
        if self.trivial:
            return f"TRIVIAL [{tag}]"
        return f"NONTRIVIAL {self.witness} [{tag}]"


def decide(
    phi: ProductEndo,
    psi: ProductEndo,
    oracle: Optional[FixOracle] = None,
) -> Verdict:
    """Is Fix(phi) meet Fix(psi) bigger than the identity?

    ``phi`` must classify as shape VI or VII.  ``psi`` may be anything the
    classifier accepts.  The oracle supplies fixed subgroups of the free
    component endomorphisms whenever a meet needs them as subgroups; it
    raises MissingOracle for endomorphisms it cannot handle.
    """
    if oracle is None:
        oracle = FixOracle()
    if (
        phi.first_alphabet != psi.first_alphabet
        or phi.second_alphabet != psi.second_alphabet
    ):
        raise ValueError("the two endomorphisms act on different products")
    first_shape = classify(phi)
    if not isinstance(first_shape, (TypeVI, TypeVII)):
        raise UnsupportedShape(
            f"first endomorphism has shape {first_shape.label}; only the diagonal "
            "shape VI and the swapping shape VII are supported in first position"
        )
    shape = classify(psi)
    fix = fix_product(psi, shape)
    if isinstance(first_shape, TypeVI):
        label = "1." + _BRANCH[shape.label]
        found = fix.meet_diagonal(first_shape, oracle)
    else:
        label = "2." + _BRANCH[shape.label]
        found = fix.meet_swap(first_shape, oracle)
    trace = ("2.7", "1.8") if label == "2.7" else (label,)
    if found is None:
        return Verdict.intersection_trivial(trace)
    return Verdict.with_witness(phi, psi, found, trace)
