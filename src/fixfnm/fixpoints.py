"""Fixed subgroups: free-factor oracles and product fix descriptors.

Fixed subgroups of free-group endomorphisms are not computable by any known
uniform procedure, so we keep an oracle: a table of endomorphisms with known
fixed subgroups. A few families are recognized automatically (identity,
trivial, conjugations, basis permutations); anything else must be declared,
and declarations are checked for soundness and optionally audited on a ball.

For endomorphisms of the product the fixed subgroup is described
structurally, one descriptor class per shape of answer. Every descriptor
decides membership, decides triviality exactly, and produces a nontrivial
witness when there is one.
"""

from __future__ import annotations

from typing import Union

from ._value import FrozenValue, set_field
from .homs import FreeHom
from .lattices import IntLattice2
from .product import (
    EndoType,
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
    SubgroupGraph,
    congruence_subgroup,
    from_generators,
    restricted_kernel_trivial,
    trivial_subgroup,
    whole_group,
)
from .words import (
    Alphabet,
    Word,
    enumerate_ball,
    exponent_of_power,
    render_word,
    root,
    weighted_sum,
)

# --- fixed subgroups of free-group endomorphisms ---------------------------


class DeclaredEndo(FrozenValue):
    """An endomorphism with its fixed subgroup supplied by the caller.

    Each basis word must be fixed (checked exactly; that makes the whole
    declared subgroup consist of fixed points). Completeness cannot be
    checked exactly; pass audit_radius to verify that no fixed point of
    length <= audit_radius falls outside the declared subgroup.
    """

    __slots__ = ("endo", "fix_basis", "audit_radius")

    def __init__(self, endo: FreeHom, fix_basis: tuple[Word, ...], audit_radius: int | None = None):
        if endo.source != endo.target:
            raise ValueError("fixed subgroups are only defined for endomorphisms")
        for w in fix_basis:
            if endo.apply(w) != w:
                raise ValueError(f"declared basis word {render_word(w)} is not fixed")
        set_field(self, "endo", endo)
        set_field(self, "fix_basis", fix_basis)
        set_field(self, "audit_radius", audit_radius)
        if audit_radius is not None:
            graph = self.fix_graph()
            for w in enumerate_ball(endo.source, audit_radius):
                if endo.apply(w) == w and not graph.contains(w):
                    raise ValueError(
                        f"fixed point {render_word(w)} is missing from the "
                        f"declared subgroup"
                    )

    def fix_graph(self) -> SubgroupGraph:
        return from_generators(self.fix_basis, self.endo.source)


class MissingOracle(LookupError):
    """The oracle has no fixed subgroup on file for this endomorphism."""

    def __init__(self, hom: FreeHom):
        self.hom = hom
        super().__init__(
            f"no known fixed subgroup for {hom}; declare it (DeclaredEndo or "
            f"--declare) if you know a basis"
        )


def _detect_inner(h: FreeHom) -> Word | None:
    """The conjugator z with h = (x -> z x z^-1), if h is such a map."""
    from .words import cyclic_reduce

    alph = h.source
    if alph.rank < 2:
        return None
    first = alph.generators()[0]
    core, conj = cyclic_reduce(h.apply(first))
    if core != first:
        return None
    # h(a1) = c a1 c^-1 pins z down to c * a1^t; read t off h(a2).
    second = alph.generators()[1]
    probe = conj.inverse() * h.apply(second) * conj
    run = 0
    if probe.letters and abs(probe.letters[0]) == 1:
        lead = probe.letters[0]
        for x in probe.letters:
            if x != lead:
                break
            run += 1 if lead == 1 else -1
    z = conj * (first ** run)
    for g in alph.generators():
        if h.apply(g) != g.conjugated_by(z):
            return None
    return z


class FixOracle:
    """Table of free-group endomorphisms with known fixed subgroups.

    Query with fix(h). Identity, trivial, basis-permutation and inner
    endomorphisms are recognized without declaration.
    """

    def __init__(self, declared: tuple[DeclaredEndo, ...] | list[DeclaredEndo] = ()):
        self._known: dict[FreeHom, SubgroupGraph] = {}
        for d in declared:
            self.declare(d)

    def declare(self, declared: DeclaredEndo) -> None:
        self._known[declared.endo] = declared.fix_graph()

    def fix(self, h: FreeHom) -> SubgroupGraph:
        if h.source != h.target:
            raise ValueError("fixed subgroups are only defined for endomorphisms")
        hit = self._known.get(h)
        if hit is not None:
            return hit
        found = self._recognize(h)
        if found is None:
            raise MissingOracle(h)
        self._known[h] = found
        return found

    @staticmethod
    def _recognize(h: FreeHom) -> SubgroupGraph | None:
        if h.is_identity():
            return whole_group(h.source)
        if h.is_trivial():
            return trivial_subgroup(h.source)
        perm = h.as_permutation()
        if perm is not None:
            # one vertex, with a loop at each fixed generator
            row = tuple(0 if p == i else -1 for i, p in enumerate(perm, start=1))
            return SubgroupGraph(h.source, (row,))
        z = _detect_inner(h)
        if z is not None:
            if z.is_identity():
                return whole_group(h.source)
            return from_generators([root(z).base])
        return None


# --- fixed subgroups of product endomorphisms -------------------------------


class TrivialFix(FrozenValue):
    __slots__ = ("first_alphabet", "second_alphabet")

    def __init__(self, first_alphabet: Alphabet, second_alphabet: Alphabet):
        set_field(self, "first_alphabet", first_alphabet)
        set_field(self, "second_alphabet", second_alphabet)

    def contains(self, g: ProductElement) -> bool:
        return g.is_identity()

    def is_trivial(self) -> bool:
        return True

    def nontrivial_witness(self) -> ProductElement | None:
        return None

    def describe(self) -> str:
        return "trivial"


class FactorSubgroup(FrozenValue):
    """A subgroup of one factor, embedded with identity in the other."""

    __slots__ = ("graph", "side", "other_alphabet")

    def __init__(self, graph: SubgroupGraph, side: str, other_alphabet: Alphabet):
        set_field(self, "graph", graph)
        set_field(self, "side", side)  # "first" | "second"
        set_field(self, "other_alphabet", other_alphabet)

    def contains(self, g: ProductElement) -> bool:
        if self.side == "first":
            return g.second.is_identity() and self.graph.contains(g.first)
        return g.first.is_identity() and self.graph.contains(g.second)

    def is_trivial(self) -> bool:
        return self.graph.is_trivial()

    def nontrivial_witness(self) -> ProductElement | None:
        if self.is_trivial():
            return None
        w = self.graph.basis()[0]
        if self.side == "first":
            return ProductElement(w, Word(self.other_alphabet))
        return ProductElement(Word(self.other_alphabet), w)

    def describe(self) -> str:
        if self.side == "first":
            return f"{self.graph} x 1"
        return f"1 x {self.graph}"


class FactorProduct(FrozenValue):
    """A product of one subgroup per factor."""

    __slots__ = ("first", "second")

    def __init__(self, first: SubgroupGraph, second: SubgroupGraph):
        set_field(self, "first", first)
        set_field(self, "second", second)

    def contains(self, g: ProductElement) -> bool:
        return self.first.contains(g.first) and self.second.contains(g.second)

    def is_trivial(self) -> bool:
        return self.first.is_trivial() and self.second.is_trivial()

    def nontrivial_witness(self) -> ProductElement | None:
        if not self.first.is_trivial():
            return ProductElement(self.first.basis()[0], Word(self.second.alphabet))
        if not self.second.is_trivial():
            return ProductElement(Word(self.first.alphabet), self.second.basis()[0])
        return None

    def describe(self) -> str:
        return f"{self.first} x {self.second}"


class PairedPowers(FrozenValue):
    """{(u^p, v^q) : (p, q) in a sublattice of Z^2} for fixed words u, v."""

    __slots__ = ("first_base", "second_base", "exponents")

    def __init__(self, first_base: Word, second_base: Word, exponents: IntLattice2):
        set_field(self, "first_base", first_base)
        set_field(self, "second_base", second_base)
        set_field(self, "exponents", exponents)

    def contains(self, g: ProductElement) -> bool:
        if self.first_base.is_identity():
            if not g.first.is_identity():
                return False
            p = None
        else:
            p = exponent_of_power(g.first, self.first_base)
            if p is None:
                return False
        if self.second_base.is_identity():
            if not g.second.is_identity():
                return False
            q = None
        else:
            q = exponent_of_power(g.second, self.second_base)
            if q is None:
                return False
        if p is not None and q is not None:
            return self.exponents.contains((p, q))
        if p is not None:
            step = self.exponents.project(0)
            return p == 0 if step == 0 else p % step == 0
        if q is not None:
            step = self.exponents.project(1)
            return q == 0 if step == 0 else q % step == 0
        return True

    def is_trivial(self) -> bool:
        first_live = not self.first_base.is_identity()
        second_live = not self.second_base.is_identity()
        if first_live and second_live:
            return self.exponents.is_trivial()
        if first_live:
            return self.exponents.project(0) == 0
        if second_live:
            return self.exponents.project(1) == 0
        return True

    def nontrivial_witness(self) -> ProductElement | None:
        for p, q in self.exponents.basis:
            g = ProductElement(self.first_base ** p, self.second_base ** q)
            if not g.is_identity():
                return g
        return None

    def describe(self) -> str:
        u, v = render_word(self.first_base), render_word(self.second_base)
        return f"powers (({u})^p, ({v})^q) with (p, q) in {self.exponents}"


class HomGraph(FrozenValue):
    """The graph of a hom restricted to a subgroup of one factor.

    side == "first_from_second": elements (h(y), y) for y in the domain.
    side == "second_from_first": elements (x, h(x)) for x in the domain.
    """

    __slots__ = ("domain", "hom", "side")

    def __init__(self, domain: SubgroupGraph, hom: FreeHom, side: str):
        set_field(self, "domain", domain)
        set_field(self, "hom", hom)
        set_field(self, "side", side)

    def contains(self, g: ProductElement) -> bool:
        if self.side == "first_from_second":
            return self.domain.contains(g.second) and self.hom.apply(g.second) == g.first
        return self.domain.contains(g.first) and self.hom.apply(g.first) == g.second

    def is_trivial(self) -> bool:
        return self.domain.is_trivial()

    def nontrivial_witness(self) -> ProductElement | None:
        if self.is_trivial():
            return None
        w = self.domain.basis()[0]
        if self.side == "first_from_second":
            return ProductElement(self.hom.apply(w), w)
        return ProductElement(w, self.hom.apply(w))

    def describe(self) -> str:
        if self.side == "first_from_second":
            return f"pairs (h(y), y) for y in {self.domain}, h = {self.hom}"
        return f"pairs (x, h(x)) for x in {self.domain}, h = {self.hom}"


class PowerCylinder(FrozenValue):
    """{(u^k, y) : k in Z, y in H with zero weighted sum}.

    Nontrivial whenever u is (then (u, 1) is a member: the identity has
    weight zero).
    """

    __slots__ = ("first_base", "second_weights", "second_fix")

    def __init__(
        self, first_base: Word, second_weights: tuple[int, ...], second_fix: SubgroupGraph
    ):
        set_field(self, "first_base", first_base)
        set_field(self, "second_weights", second_weights)
        set_field(self, "second_fix", second_fix)

    def contains(self, g: ProductElement) -> bool:
        if exponent_of_power(g.first, self.first_base) is None:
            return False
        return (
            self.second_fix.contains(g.second)
            and weighted_sum(g.second, self.second_weights) == 0
        )

    def is_trivial(self) -> bool:
        if not self.first_base.is_identity():
            return False
        return restricted_kernel_trivial(self.second_fix, self.second_weights) is None

    def nontrivial_witness(self) -> ProductElement | None:
        if not self.first_base.is_identity():
            return ProductElement(self.first_base, Word(self.second_fix.alphabet))
        w = restricted_kernel_trivial(self.second_fix, self.second_weights)
        if w is None:
            return None
        return ProductElement(Word(self.first_base.alphabet), w)

    def describe(self) -> str:
        u = render_word(self.first_base)
        return (
            f"pairs (({u})^k, y), k any integer, y in {self.second_fix} "
            f"with zero weight {list(self.second_weights)}"
        )


class ExponentGraph(FrozenValue):
    """{(u^(w(y)/d), y) : y in H}, where w(y) is a weighted sum and d | w(y).

    The divisibility is baked into H (it is cut out by a congruence
    subgroup), but membership rechecks it.
    """

    __slots__ = ("first_base", "second_weights", "divisor", "domain")

    def __init__(
        self, first_base: Word, second_weights: tuple[int, ...], divisor: int, domain: SubgroupGraph
    ):
        if divisor == 0:
            raise ValueError("divisor must be nonzero")
        set_field(self, "first_base", first_base)
        set_field(self, "second_weights", second_weights)
        set_field(self, "divisor", divisor)
        set_field(self, "domain", domain)

    def contains(self, g: ProductElement) -> bool:
        if not self.domain.contains(g.second):
            return False
        total = weighted_sum(g.second, self.second_weights)
        if total % self.divisor:
            return False
        return g.first == self.first_base ** (total // self.divisor)

    def is_trivial(self) -> bool:
        return self.domain.is_trivial()

    def nontrivial_witness(self) -> ProductElement | None:
        if self.is_trivial():
            return None
        y = self.domain.basis()[0]
        total = weighted_sum(y, self.second_weights)
        return ProductElement(self.first_base ** (total // self.divisor), y)

    def describe(self) -> str:
        u = render_word(self.first_base)
        return (
            f"pairs (({u})^(w(y)/{self.divisor}), y) for y in {self.domain}, "
            f"w = weight {list(self.second_weights)}"
        )


FixDescriptor = Union[
    TrivialFix,
    FactorSubgroup,
    FactorProduct,
    PairedPowers,
    HomGraph,
    PowerCylinder,
    ExponentGraph,
]


def fix_product(
    e: ProductEndo,
    oracle: FixOracle | None = None,
    shape: EndoType | None = None,
) -> FixDescriptor:
    """Structural description of the fixed subgroup of a product endo.

    Shapes VI, VII, III and IV consult the oracle for fixed subgroups of
    free-group endomorphisms and raise MissingOracle when it has no answer.
    """
    if oracle is None:
        oracle = FixOracle()
    if shape is None:
        shape = classify(e)
    a, b = e.first_alphabet, e.second_alphabet
    if isinstance(shape, TypeI):
        return PairedPowers(shape.first_base, shape.second_base, shape.fixed_exponents())
    if isinstance(shape, TypeII):
        if shape.gain() != 1:
            return TrivialFix(a, b)
        return HomGraph(
            from_generators([shape.second_base], b),
            shape.first_from_second,
            "first_from_second",
        )
    if isinstance(shape, TypeIII):
        theta_fix = oracle.fix(shape.second_from_second)
        drag = 1 - shape.self_weight()
        if drag == 0:
            return PowerCylinder(shape.first_base, shape.first_b_weights, theta_fix)
        window = congruence_subgroup(b, shape.first_b_weights, abs(drag))
        return ExponentGraph(
            shape.first_base,
            shape.first_b_weights,
            drag,
            theta_fix.intersect(window),
        )
    if isinstance(shape, TypeIV):
        return HomGraph(
            oracle.fix(shape.second_from_second),
            shape.first_from_second,
            "first_from_second",
        )
    if isinstance(shape, TypeV):
        if weighted_sum(shape.second_base, shape.second_b_weights) != 1:
            return TrivialFix(a, b)
        return PairedPowers(Word(a), shape.second_base, IntLattice2.line((0, 1)))
    if isinstance(shape, TypeVI):
        return FactorProduct(oracle.fix(shape.first), oracle.fix(shape.second))
    if isinstance(shape, TypeVII):
        loop = shape.second_from_first.then(shape.first_from_second)
        return HomGraph(oracle.fix(loop), shape.second_from_first, "second_from_first")
    raise TypeError(f"unknown shape {shape!r}")
