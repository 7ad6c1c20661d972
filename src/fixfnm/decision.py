"""Deciding whether two fixed subgroups of a product meet nontrivially.

The first endomorphism must preserve or swap the two coordinates outright
(shape VI or VII); the second may be any of the seven shapes.  Each of the
sixteen pairings gets its own branch, labelled "1.1".."2.8" in the verdict
trace: family 1 is a diagonal first argument, family 2 a swapping one, and
the second digit follows the shape order I, II, III.1, III.2, IV, V, VI, VII.

Membership of a single word in a fixed subgroup is a word equality and
needs no oracle; a branch asks the oracle only when it has to intersect or
map whole fixed subgroups (1.3-1.5, 1.7, 1.8, 2.5, 2.7, 2.8).

Branches 1.5, 1.8/2.7, 2.5 and 2.8 share one step, ``_meet_through``.
Every nontrivial verdict carries a witness, checked when it is built.
"""

from __future__ import annotations

from typing import Optional

from ._value import FrozenValue, set_field
from .fixpoints import FixOracle, PairedPowers
from .homs import FreeHom
from .lattices import IntLattice2
from .product import (
    ProductElement,
    ProductEndo,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    TypeV,
    TypeVI,
    TypeVII,
    classify,
)
from .stallings import (
    CertificateError,
    SubgroupGraph,
    congruence_subgroup,
    evaluate_expression,
    express_in_generators,
    image,
    restricted_kernel_trivial,
)
from .words import Word, solve_power_equation, weighted_sum


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


def _is_fixed(h: FreeHom, w: Word) -> bool:
    return h.apply(w) == w


def _pull_back(domain: SubgroupGraph, h: FreeHom, target: Word) -> Word:
    """Some member of ``domain`` mapping onto ``target`` under ``h``.

    ``target`` must lie in the image of the restriction; it is then
    expressed over the images of the domain basis and the expression is
    replayed over the basis itself.
    """
    gens = domain.basis()
    expression = express_in_generators([h.apply(g) for g in gens], target)
    if expression is None:
        raise CertificateError(f"{target} is not in the image of the restriction")
    out = evaluate_expression(gens, expression, domain.alphabet)
    if h.apply(out) != target:
        raise CertificateError(f"pulled-back {out} does not map onto {target}")
    return out


def _meet_through(
    k: SubgroupGraph, h: FreeHom, fixed: SubgroupGraph
) -> Optional[tuple[Word, Word]]:
    """Some x != 1 in ``k`` with h(x) in ``fixed``, as (x, h(x)), or None.

    A nontrivial meet of h(k) with ``fixed`` is pulled back.  Otherwise
    only the kernel of h on k is left.  If h keeps the rank of k it is
    injective there (free groups are Hopfian).  If the rank drops, the
    lifts of a basis of h(k) span less than k, so some basis word g of k
    differs from the lift of h(g), and g times that lift's inverse is
    killed by h (Stallings 1983; Kapovich-Myasnikov 2002).
    """
    img = image(k, h)
    j = img.intersect(fixed)
    if not j.is_trivial():
        target = j.basis()[0]
        return _pull_back(k, h, target), target
    if img.rank == k.rank:
        return None
    lifts = [_pull_back(k, h, w) for w in img.basis()]
    for g in k.basis():
        expression = express_in_generators(img.basis(), h.apply(g))
        y = g * evaluate_expression(lifts, expression, k.alphabet).inverse()
        if not y.is_identity():
            return y, h.apply(y)
    raise CertificateError("fewer lifts than rank(k) cannot generate k")


def decide(
    phi: ProductEndo,
    psi: ProductEndo,
    oracle: Optional[FixOracle] = None,
) -> Verdict:
    """Is Fix(phi) meet Fix(psi) bigger than the identity?

    ``phi`` must classify as shape VI or VII.  ``psi`` may be anything the
    classifier accepts.  The oracle supplies fixed subgroups of the free
    component endomorphisms whenever a branch needs them as subgroups; it
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
    if isinstance(first_shape, TypeVI):
        return _decide_with_diagonal(phi, psi, first_shape, oracle)
    if isinstance(first_shape, TypeVII):
        return _decide_with_swap(phi, psi, first_shape, oracle)
    raise UnsupportedShape(
        f"first endomorphism has shape {first_shape.label}; only the diagonal "
        "shape VI and the swapping shape VII are supported in first position"
    )


def _decide_with_diagonal(
    phi: ProductEndo,
    psi: ProductEndo,
    vi: TypeVI,
    oracle: FixOracle,
) -> Verdict:
    a = phi.first_alphabet
    b = phi.second_alphabet
    shape = classify(psi)

    if isinstance(shape, TypeI):
        trace = ("1.1",)
        u, v = shape.first_base, shape.second_base
        lattice = shape.fixed_exponents()
        # a nontrivial power is fixed iff its base is (roots are unique), so
        # an unfixed base pins the matching exponent to zero
        if not (u.is_identity() or _is_fixed(vi.first, u)):
            lattice = lattice.intersect(IntLattice2.line((0, 1)))
        if not (v.is_identity() or _is_fixed(vi.second, v)):
            lattice = lattice.intersect(IntLattice2.line((1, 0)))
        witness = PairedPowers(u, v, lattice).nontrivial_witness()
        if witness is None:
            return Verdict.intersection_trivial(trace)
        return Verdict.with_witness(phi, psi, witness, trace)

    if isinstance(shape, TypeII):
        trace = ("1.2",)
        v = shape.second_base
        if shape.gain() != 1:
            # the second coordinate of psi's fixed points is then trivial
            return Verdict.intersection_trivial(trace)
        # gain == 1 rules out v == 1, whose gain would be 0
        if not _is_fixed(vi.second, v):
            return Verdict.intersection_trivial(trace)
        mapped = shape.first_from_second.apply(v)
        if mapped.is_identity() or _is_fixed(vi.first, mapped):
            return Verdict.with_witness(phi, psi, ProductElement(mapped, v), trace)
        return Verdict.intersection_trivial(trace)

    if isinstance(shape, TypeIII):
        u = shape.first_base
        weights = shape.first_b_weights
        if shape.self_weight() != 1:
            trace = ("1.3",)
            d = 1 - shape.self_weight()
            window = congruence_subgroup(b, weights, abs(d))
            narrowed = oracle.fix(shape.second_from_second).intersect(window)
            k = narrowed.intersect(oracle.fix(vi.second))
            if k.is_trivial():
                return Verdict.intersection_trivial(trace)
            if u.is_identity() or _is_fixed(vi.first, u):
                y = k.basis()[0]
                exponent = weighted_sum(y, weights) // d
                return Verdict.with_witness(
                    phi, psi, ProductElement(u**exponent, y), trace
                )
            y = restricted_kernel_trivial(k, weights)
            if y is None:
                return Verdict.intersection_trivial(trace)
            return Verdict.with_witness(phi, psi, ProductElement(Word(a), y), trace)
        trace = ("1.4",)
        if not u.is_identity() and _is_fixed(vi.first, u):
            return Verdict.with_witness(phi, psi, ProductElement(u, Word(b)), trace)
        k = oracle.fix(shape.second_from_second).intersect(oracle.fix(vi.second))
        y = restricted_kernel_trivial(k, weights)
        if y is None:
            return Verdict.intersection_trivial(trace)
        return Verdict.with_witness(phi, psi, ProductElement(Word(a), y), trace)

    if isinstance(shape, TypeIV):
        trace = ("1.5",)
        theta = shape.first_from_second
        k = oracle.fix(shape.second_from_second).intersect(oracle.fix(vi.second))
        found = _meet_through(k, theta, oracle.fix(vi.first))
        if found is None:
            return Verdict.intersection_trivial(trace)
        y, target = found
        return Verdict.with_witness(phi, psi, ProductElement(target, y), trace)

    if isinstance(shape, TypeV):
        trace = ("1.6",)
        v = shape.second_base
        if weighted_sum(v, shape.second_b_weights) != 1:
            return Verdict.intersection_trivial(trace)
        if _is_fixed(vi.second, v):
            return Verdict.with_witness(phi, psi, ProductElement(Word(a), v), trace)
        return Verdict.intersection_trivial(trace)

    if isinstance(shape, TypeVI):
        trace = ("1.7",)
        first_meet = oracle.fix(vi.first).intersect(oracle.fix(shape.first))
        if not first_meet.is_trivial():
            witness = ProductElement(first_meet.basis()[0], Word(b))
            return Verdict.with_witness(phi, psi, witness, trace)
        second_meet = oracle.fix(vi.second).intersect(oracle.fix(shape.second))
        if not second_meet.is_trivial():
            witness = ProductElement(Word(a), second_meet.basis()[0])
            return Verdict.with_witness(phi, psi, witness, trace)
        return Verdict.intersection_trivial(trace)

    assert isinstance(shape, TypeVII)
    return _diagonal_meets_swap(phi, psi, vi, shape, oracle, ("1.8",))


def _diagonal_meets_swap(
    phi: ProductEndo,
    psi: ProductEndo,
    vi: TypeVI,
    vii: TypeVII,
    oracle: FixOracle,
    trace: tuple[str, ...],
) -> Verdict:
    """Common engine for 1.8 and (with the roles reversed) 2.7.

    Members of the swapping shape's fixed subgroup are the pairs
    (x, to_second(x)) with x fixed by the round trip through both blocks.
    Pushing the admissible x forward must land inside the diagonal shape's
    second fixed subgroup; the push-forward being injective there, the
    intersection is trivial exactly when that image meet is.
    """
    to_first = vii.first_from_second
    to_second = vii.second_from_first
    round_trip = to_second.then(to_first)
    k = oracle.fix(round_trip).intersect(oracle.fix(vi.first))
    found = _meet_through(k, to_second, oracle.fix(vi.second))
    if found is None:
        # any member has second coordinate in the meet; killing it kills the
        # first coordinate too since x = to_first(to_second(x))
        return Verdict.intersection_trivial(trace)
    x, target = found
    return Verdict.with_witness(phi, psi, ProductElement(x, target), trace)


def _decide_with_swap(
    phi: ProductEndo,
    psi: ProductEndo,
    vii: TypeVII,
    oracle: FixOracle,
) -> Verdict:
    to_first = vii.first_from_second
    to_second = vii.second_from_first
    round_trip = to_second.then(to_first)
    shape = classify(psi)

    if isinstance(shape, TypeI):
        trace = ("2.1",)
        u, v = shape.first_base, shape.second_base
        lattice = shape.fixed_exponents()
        # a member (u^p, v^q) of Fix(phi) forces v^q = to_second(u)^p; the
        # remaining equation u^p = to_first(v^q) then holds automatically
        # whenever the round trip fixes u, and otherwise pins p to zero
        lattice = lattice.intersect(
            solve_power_equation(v, to_second.apply(u)).swapped()
        )
        if not (u.is_identity() or _is_fixed(round_trip, u)):
            lattice = lattice.intersect(IntLattice2.line((0, 1)))
        witness = PairedPowers(u, v, lattice).nontrivial_witness()
        if witness is None:
            return Verdict.intersection_trivial(trace)
        return Verdict.with_witness(phi, psi, witness, trace)

    if isinstance(shape, TypeII):
        trace = ("2.2",)
        v = shape.second_base
        if shape.gain() != 1:
            return Verdict.intersection_trivial(trace)
        # unique roots collapse the power family onto its seed: the pair
        # (mapped, v) is in the intersection iff any nontrivial power is
        mapped = shape.first_from_second.apply(v)
        if mapped != to_first.apply(v):
            return Verdict.intersection_trivial(trace)
        if to_second.apply(mapped) != v:
            return Verdict.intersection_trivial(trace)
        return Verdict.with_witness(phi, psi, ProductElement(mapped, v), trace)

    if isinstance(shape, TypeIII):
        u = shape.first_base
        weights = shape.first_b_weights
        mapped = to_second.apply(u)
        theta = shape.second_from_second
        if shape.self_weight() != 1:
            trace = ("2.3",)
            if not _is_fixed(round_trip, u):
                return Verdict.intersection_trivial(trace)
            if not _is_fixed(theta, mapped):
                return Verdict.intersection_trivial(trace)
            if weighted_sum(mapped, weights) != 1 - shape.self_weight():
                return Verdict.intersection_trivial(trace)
            return Verdict.with_witness(phi, psi, ProductElement(u, mapped), trace)
        trace = ("2.4",)
        if not _is_fixed(round_trip, u):
            return Verdict.intersection_trivial(trace)
        if weighted_sum(mapped, weights) != 0:
            return Verdict.intersection_trivial(trace)
        if not _is_fixed(theta, mapped):
            return Verdict.intersection_trivial(trace)
        return Verdict.with_witness(phi, psi, ProductElement(u, mapped), trace)

    if isinstance(shape, TypeIV):
        trace = ("2.5",)
        theta = shape.first_from_second
        k = oracle.fix(theta.then(to_second)).intersect(
            oracle.fix(shape.second_from_second)
        )
        found = _meet_through(k, theta, oracle.fix(round_trip))
        if found is None:
            # a member's first coordinate lies in the meet and its second is
            # the to_second-image of the first, so both die with the meet
            return Verdict.intersection_trivial(trace)
        y, target = found
        return Verdict.with_witness(phi, psi, ProductElement(target, y), trace)

    if isinstance(shape, TypeV):
        # members (1, v^b) of Fix(psi) would need v^b = to_second(1) = 1 to
        # be fixed by the swap, leaving only the identity
        return Verdict.intersection_trivial(("2.6",))

    if isinstance(shape, TypeVI):
        return _diagonal_meets_swap(phi, psi, shape, vii, oracle, ("2.7", "1.8"))

    assert isinstance(shape, TypeVII)
    trace = ("2.8",)
    theta = shape.first_from_second
    sigma = shape.second_from_first
    k = oracle.fix(sigma.then(theta)).intersect(oracle.fix(sigma.then(to_first)))
    found = _meet_through(k, sigma, oracle.fix(to_first.then(to_second)))
    if found is None:
        return Verdict.intersection_trivial(trace)
    x, target = found
    return Verdict.with_witness(phi, psi, ProductElement(x, target), trace)
