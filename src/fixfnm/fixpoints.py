"""Fixed subgroups: free-factor oracles and product fix descriptors.

The free-factor oracle answers from two sources, in this order: the
declarations it was given, then the recognized families, which are the
trivial map, basis permutations (the identity among them) and
conjugations. A declaration names a basis of the map's fixed subgroup; it
is checked for soundness and, with an audit radius, against every fixed
word of a ball. Any other map raises MissingOracle: the general algorithm
for automorphisms (Bogopolski and Maslakova, IJAC 26, 2016) is not
implemented.

For endomorphisms of the product the fixed subgroup is described
structurally, one descriptor class per shape of answer: FactorProduct
(shape VI), PairedPowers (shapes I, II and V; a zero lattice of exponents
is the trivial answer), HomGraph (shapes IV and VII) and PowerGraph
(shape III). A descriptor holds
the words, weights and free-group homs of its formula, not subgroup graphs:
it asks the oracle for the fixed subgroups of those homs only when a
description or a meet needs them. Every descriptor decides membership by
word equality, with no oracle, and meets itself exactly with the fixed
subgroup of a diagonal (shape VI) or swapping (shape VII) endomorphism,
returning a nontrivial common element or None; the decision engine is
those two meets.
"""

from __future__ import annotations

from typing import Union

from ._value import FrozenValue, set_field
from .homs import FreeHom, _content_lines, parse_hom_text
from .lattices import IntLattice2, solve_power_equation
from .oracle import BallSpec, fixed_words
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
    check_element,
    classify,
)
from .stallings import (
    Preimage,
    SubgroupGraph,
    congruence_subgroup,
    from_generators,
    letter_subgroup,
    restricted_kernel_trivial,
    trivial_subgroup,
)
from .words import (
    CertificateError,
    LetterTally,
    Word,
    _conjugator_length,
    _inverse,
    exponent_of_power,
    free_reduce,
    parse_word,
    render_word,
    root,
    weighted_sum,
)

# --- fixed subgroups of free-group endomorphisms ---------------------------

# the ball radius on which the CLI and the curated cases audit each declaration
AUDIT_RADIUS = 4


def _is_fixed(h: FreeHom, w: Word) -> bool:
    return h.image_letters(w.letters) == w.letters


class DeclaredEndo(FrozenValue):
    """An endomorphism with its fixed subgroup supplied by the caller.

    Each basis word must be fixed (checked exactly; that makes the whole
    declared subgroup consist of fixed points). Completeness cannot be
    checked exactly; pass audit_radius (0..8, the ball oracle's MAX_RADIUS) to
    verify that no fixed point of length <= audit_radius falls outside the
    declared subgroup.
    """

    __slots__ = ("endo", "fix_basis", "audit_radius", "_graph")  # the graph, once built

    def __init__(self, endo: FreeHom, fix_basis: tuple[Word, ...], audit_radius: int | None = None):
        if endo.source != endo.target:
            raise ValueError("fixed subgroups are only defined for endomorphisms")
        for w in fix_basis:
            if w.alphabet != endo.source:
                raise ValueError(f"declared basis word {w} is not a word over {endo.source}")
            if not _is_fixed(endo, w):
                raise ValueError(f"declared basis word {render_word(w)} is not fixed")
        set_field(self, "endo", endo)
        set_field(self, "fix_basis", fix_basis)
        set_field(self, "audit_radius", audit_radius)
        set_field(self, "_graph", None)
        if audit_radius is not None:
            fixed = fixed_words(endo, BallSpec(audit_radius))
            graph = self.fix_graph()
            for w in fixed:
                if not graph.contains(w):
                    raise ValueError(
                        f"fixed point {render_word(w)} is missing from the "
                        f"declared subgroup"
                    )

    def fix_graph(self) -> SubgroupGraph:
        """The folded declared subgroup, built once and shared by every oracle."""
        if self._graph is None:
            set_field(self, "_graph", from_generators(self.fix_basis, self.endo.source))
        return self._graph


def parse_declaration(hom_text: str, basis_text: str) -> DeclaredEndo:
    """The declaration read from the texts of a hom file and of a basis file
    (one word a line, MAX_FILE_LETTERS letters at most), audited at AUDIT_RADIUS."""
    h = parse_hom_text(hom_text)
    tally = LetterTally()
    basis = tuple(
        parse_word(line, h.source, line=lineno, tally=tally)
        for lineno, line in _content_lines(basis_text)
    )
    return DeclaredEndo(h, basis, audit_radius=AUDIT_RADIUS)


class MissingOracle(LookupError):
    """The oracle has no fixed subgroup on file for this endomorphism."""

    def __init__(self, hom: FreeHom):
        self.hom = hom
        super().__init__(
            f"no known fixed subgroup for {hom}; declare it (DeclaredEndo or "
            f"--declare) if you know a basis"
        )


def _detect_inner(h: FreeHom) -> Word | None:
    """The conjugator z with h = (x -> z x z^-1), if h is such a map.

    Works on letter tuples and builds only the returned word. h(a1) must be
    c a1 c^-1, which pins z down to c a1^t; t is read off h(a2) and every
    image is then compared with z a_i z^-1.
    """
    alph = h.source
    if alph.rank < 2:
        return None
    first = h.images[0].letters
    c = _conjugator_length(first)
    if first[c : len(first) - c] != (1,):
        return None
    conj = first[:c]  # reduced first: its last letter is not a1 or a1^-1
    probe = free_reduce(_inverse(conj) + h.images[1].letters + conj)
    lead = probe[0] if probe and abs(probe[0]) == 1 else 0
    run = 0
    while run < len(probe) and probe[run] == lead:
        run += 1
    z = conj + (lead,) * run
    for i, img in enumerate(h.images, start=1):
        # z a_i z^-1 reduced: the trailing powers of a_i in z commute with it
        k = len(z)
        while k and abs(z[k - 1]) == i:
            k -= 1
        stem = z[:k]
        if img.letters != stem + (i,) + _inverse(stem):
            return None
    return Word._unchecked(alph, z)


class FixOracle:
    """The fixed subgroups of free-group endomorphisms, from two sources.

    fix(h) is the declared subgroup if h was declared, else the one
    recognized for the trivial map, a basis permutation (the identity is
    the one that moves nothing) or a conjugation, else MissingOracle.
    Nothing is memoised: a query hashes h once.
    """

    def __init__(self, declared: tuple[DeclaredEndo, ...] | list[DeclaredEndo] = ()):
        self._declared = {d.endo: d.fix_graph() for d in declared}

    def fix(self, h: FreeHom) -> SubgroupGraph:
        if h.source != h.target:
            raise ValueError("fixed subgroups are only defined for endomorphisms")
        found = self._declared.get(h)
        if found is None:
            found = self._recognize(h)
            if found is None:
                raise MissingOracle(h)
        return found

    @staticmethod
    def _recognize(h: FreeHom) -> SubgroupGraph | None:
        if h.is_trivial():
            return trivial_subgroup(h.source)
        perm = h.as_permutation()
        if perm is not None:
            return letter_subgroup(h.source, {i for i, p in enumerate(perm, start=1) if p == i})
        z = _detect_inner(h)  # never 1 here: the identity is a permutation
        return None if z is None else from_generators([root(z).base])


# --- fixed subgroups of product endomorphisms -------------------------------
#
# Each descriptor meets itself with Fix(phi) for a diagonal phi (shape VI,
# meet_diagonal, branches 1.x) or a swapping phi (shape VII, meet_swap,
# branches 2.x), where phi's blocks are called to_first: F_m -> F_n and
# to_second: F_n -> F_m.


def _power_witness(u: Word, v: Word, exponents: IntLattice2) -> ProductElement | None:
    """The first basis pair (p, q) of the lattice with (u^p, v^q) != 1."""
    for p, q in exponents.basis:
        g = ProductElement(u ** p, v ** q)
        if not g.is_identity():
            return g
    return None


class FactorProduct(FrozenValue):
    """Fix(first) x Fix(second), for endomorphisms first and second of the factors."""

    __slots__ = ("first", "second")

    def __init__(self, first: FreeHom, second: FreeHom):
        set_field(self, "first", first)
        set_field(self, "second", second)

    def contains(self, g: ProductElement) -> bool:
        check_element(g, self.first.source, self.second.source)
        return _is_fixed(self.first, g.first) and _is_fixed(self.second, g.second)

    def meet_diagonal(self, vi: TypeVI, oracle: FixOracle) -> ProductElement | None:
        """Branch 1.7: the product of the two factorwise meets.

        The second factor is asked for only when the first meet is trivial.
        """
        first_meet = oracle.fix(vi.first).intersect(oracle.fix(self.first))
        if not first_meet.is_trivial():
            return ProductElement(next(first_meet.basis_words()), Word(vi.second.source))
        second_meet = oracle.fix(vi.second).intersect(oracle.fix(self.second))
        if not second_meet.is_trivial():
            return ProductElement(Word(vi.first.source), next(second_meet.basis_words()))
        return None

    def meet_swap(self, vii: TypeVII, oracle: FixOracle) -> ProductElement | None:
        """Branch 2.7: branch 1.8 with the roles of the two maps reversed."""
        return _swap_graph(vii).meet_diagonal(TypeVI(self.first, self.second), oracle)

    def describe(self, oracle: FixOracle) -> str:
        return f"{oracle.fix(self.first)} x {oracle.fix(self.second)}"


class PairedPowers(FrozenValue):
    """{(u^p, v^q) : (p, q) in a sublattice of Z^2} for fixed words u, v."""

    __slots__ = ("first_base", "second_base", "exponents")

    def __init__(self, first_base: Word, second_base: Word, exponents: IntLattice2):
        set_field(self, "first_base", first_base)
        set_field(self, "second_base", second_base)
        set_field(self, "exponents", exponents)

    def contains(self, g: ProductElement) -> bool:
        check_element(g, self.first_base.alphabet, self.second_base.alphabet)
        # a trivial base leaves its exponent free: widen the lattice along it
        lattice, point = self.exponents, []
        bases = ((g.first, self.first_base, (1, 0)), (g.second, self.second_base, (0, 1)))
        for x, base, axis in bases:
            if base.is_identity():
                if not x.is_identity():
                    return False
                lattice = IntLattice2.from_rows(lattice.basis + (axis,))
                point.append(0)
            else:
                exponent = exponent_of_power(x, base)
                if exponent is None:
                    return False
                point.append(exponent)
        return lattice.contains(point)

    def meet_diagonal(self, vi: TypeVI, oracle: FixOracle) -> ProductElement | None:
        """Branches 1.1, 1.2 and 1.6: a sublattice of the exponents.

        A nontrivial power is fixed iff its base is (roots are unique), so
        an unfixed base pins the matching exponent to zero.
        """
        u, v = self.first_base, self.second_base
        lattice = self.exponents
        if not (u.is_identity() or _is_fixed(vi.first, u)):
            lattice = lattice.intersect(IntLattice2.line((0, 1)))
        if not (v.is_identity() or _is_fixed(vi.second, v)):
            lattice = lattice.intersect(IntLattice2.line((1, 0)))
        return _power_witness(u, v, lattice)

    def meet_swap(self, vii: TypeVII, oracle: FixOracle) -> ProductElement | None:
        """Branches 2.1, 2.2 and 2.6: a sublattice of the exponents.

        A member (u^p, v^q) of Fix(phi) forces v^q = to_second(u)^p; the
        remaining equation u^p = to_first(v^q) then holds automatically
        whenever the round trip fixes u, and otherwise pins p to zero.
        """
        to_first, to_second = vii.first_from_second, vii.second_from_first
        u, v = self.first_base, self.second_base
        lattice = self.exponents.intersect(
            solve_power_equation(v, to_second.apply(u)).swapped()
        )
        if not (u.is_identity() or _is_fixed(to_second.then(to_first), u)):
            lattice = lattice.intersect(IntLattice2.line((0, 1)))
        return _power_witness(u, v, lattice)

    def describe(self, oracle: FixOracle) -> str:
        if self.exponents.is_trivial():
            return "trivial"
        u, v = render_word(self.first_base), render_word(self.second_base)
        return f"powers (({u})^p, ({v})^q) with (p, q) in {self.exponents}"


class HomGraph(FrozenValue):
    """The graph of a hom on the fixed subgroup of one factor's endomorphism.

    A hom from the b-factor gives elements (h(y), y) for y in Fix(domain_endo);
    one from the a-factor gives elements (x, h(x)) for x in Fix(domain_endo).
    """

    __slots__ = ("domain_endo", "hom")

    def __init__(self, domain_endo: FreeHom, hom: FreeHom):
        set_field(self, "domain_endo", domain_endo)
        set_field(self, "hom", hom)

    def _from_second(self) -> bool:
        return self.hom.source.letter == "b"

    def _pair(self, x: Word, hx: Word) -> ProductElement:
        return ProductElement(hx, x) if self._from_second() else ProductElement(x, hx)

    def contains(self, g: ProductElement) -> bool:
        if self._from_second():
            check_element(g, self.hom.target, self.hom.source)
            x, hx = g.second, g.first
        else:
            check_element(g, self.hom.source, self.hom.target)
            x, hx = g.first, g.second
        return _is_fixed(self.domain_endo, x) and self.hom.apply(x) == hx

    def _meet_through(self, k: SubgroupGraph, fixed: SubgroupGraph) -> ProductElement | None:
        """The member (x, h(x)) for some x != 1 in ``k`` with h(x) in ``fixed``, or None.

        A trivial k meets nothing. Otherwise beta = ``k.basis_hom()`` and one
        named fold, ``Preimage(beta.then(h))``, give the image h(k) and the
        lift from h(k) back into k, read through beta and checked against k.
        A nontrivial meet of h(k) with ``fixed`` is lifted. Otherwise only
        the kernel of h on k is left. If h keeps the rank of k it is
        injective there (free groups are Hopfian). If the rank drops, the
        lift, a homomorphism that h undoes, is not onto k, so some basis
        word g of k differs from the lift of h(g), and g times that lift's
        inverse is killed by h (Stallings 1983; Kapovich-Myasnikov 2002).
        """
        if k.is_trivial():
            return None
        h, beta = self.hom, k.basis_hom()
        pre = Preimage(beta.then(h))

        def lift(target: Word) -> Word:
            # every target below lies in h(k), so a missing lift is a fault
            x = pre.lift(target)
            if x is not None:
                x = beta.apply(x)
                if k.contains(x):
                    return x
            raise CertificateError(f"no lift of {render_word(target)} into K through {h}")

        img = pre.image()
        j = img.intersect(fixed)
        if not j.is_trivial():
            target = next(j.basis_words())
            return self._pair(lift(target), target)
        if img.rank == k.rank:
            return None
        for g, hg in zip(beta.images, pre.h.images):
            back = lift(hg)
            if back != g:
                y = g * back.inverse()
                return self._pair(y, h.apply(y))
        raise CertificateError(f"{h} drops the rank of K but kills nothing in it")

    def meet_diagonal(self, vi: TypeVI, oracle: FixOracle) -> ProductElement | None:
        """Branches 1.5 (shape IV) and 1.8 (shape VII).

        A member's domain coordinate lies in K = Fix(domain_endo) meet the
        diagonal's fixed subgroup on the same factor, and its image must be
        fixed on the other factor: a ``_meet_through`` K.
        """
        if self._from_second():
            near, far = vi.second, vi.first
        else:
            near, far = vi.first, vi.second
        k = oracle.fix(self.domain_endo).intersect(oracle.fix(near))
        return self._meet_through(k, oracle.fix(far))

    def meet_swap(self, vii: TypeVII, oracle: FixOracle) -> ProductElement | None:
        """Branches 2.5 (shape IV) and 2.8 (shape VII).

        Write a member as its domain coordinate x and h(x), and let back
        be the swap's block from h's target factor to x's factor and forth
        the other block. The swap fixes the member iff back(h(x)) = x and
        forth(x) = h(x); given the first, the second says that the round
        trip back then forth fixes h(x). So x lies in K = Fix(domain_endo)
        meet Fix(h then back), and h(x) in the round trip's fixed
        subgroup. A member dies with its image, since x = back(h(x)).
        """
        if self._from_second():
            back, forth = vii.second_from_first, vii.first_from_second
        else:
            back, forth = vii.first_from_second, vii.second_from_first
        k = oracle.fix(self.domain_endo).intersect(oracle.fix(self.hom.then(back)))
        return self._meet_through(k, oracle.fix(back.then(forth)))

    def describe(self, oracle: FixOracle) -> str:
        domain = oracle.fix(self.domain_endo)
        if self._from_second():
            return f"pairs (h(y), y) for y in {domain}, h = {self.hom}"
        return f"pairs (x, h(x)) for x in {domain}, h = {self.hom}"


def _swap_graph(vii: TypeVII) -> HomGraph:
    """Fix of a swapping map: (x, to_second(x)) with x fixed by the round trip."""
    loop = vii.second_from_first.then(vii.first_from_second)
    return HomGraph(loop, vii.second_from_first)


class PowerGraph(FrozenValue):
    """{(u^k, y) : k in Z, y in Fix(theta), w(y) = drag * k}, w a weighted sum.

    The fixed subgroup of a shape III map, drag being 1 - its self weight.
    For drag != 0, y forces k; for drag == 0, k is free and w(y) = 0.
    """

    __slots__ = ("first_base", "second_weights", "drag", "theta")

    def __init__(
        self, first_base: Word, second_weights: tuple[int, ...], drag: int, theta: FreeHom
    ):
        set_field(self, "first_base", first_base)
        set_field(self, "second_weights", second_weights)
        set_field(self, "drag", drag)
        set_field(self, "theta", theta)

    def contains(self, g: ProductElement) -> bool:
        check_element(g, self.first_base.alphabet, self.theta.source)
        total = weighted_sum(g.second, self.second_weights)
        u, drag = self.first_base, self.drag
        if drag == 0:
            first_ok = total == 0 and exponent_of_power(g.first, u) is not None
        else:
            first_ok = total % drag == 0 and g.first == u ** (total // drag)
        return first_ok and _is_fixed(self.theta, g.second)

    def meet_diagonal(self, vi: TypeVI, oracle: FixOracle) -> ProductElement | None:
        """Branches 1.3 (drag != 0) and 1.4 (drag == 0).

        (u, 1) is a member if drag == 0 and the diagonal fixes u != 1.
        Otherwise y lies in K = Fix(theta), cut down to drag | w(y) if
        drag != 0, meet the diagonal's second fixed subgroup. If drag != 0
        and the diagonal fixes u (or u = 1), any y != 1 in K gives a member;
        else the first coordinate must vanish, which leaves the zero-weight
        part of K.
        """
        u = self.first_base
        if self.drag == 0 and not u.is_identity() and _is_fixed(vi.first, u):
            return ProductElement(u, Word(vi.second.source))
        k = oracle.fix(self.theta)
        if self.drag != 0:
            k = k.intersect(congruence_subgroup(self.theta.source, self.second_weights, self.drag))
        k = k.intersect(oracle.fix(vi.second))
        if k.is_trivial():
            return None
        if self.drag != 0 and (u.is_identity() or _is_fixed(vi.first, u)):
            y = next(k.basis_words())
            return ProductElement(u ** (weighted_sum(y, self.second_weights) // self.drag), y)
        y = restricted_kernel_trivial(k, self.second_weights)
        return None if y is None else ProductElement(Word(u.alphabet), y)

    def meet_swap(self, vii: TypeVII, oracle: FixOracle) -> ProductElement | None:
        """Branches 2.3 (drag != 0) and 2.4 (drag == 0).

        The swap fixes a member (u^k, y) iff y = to_second(u)^k and u^k is
        fixed by the round trip. For u^k != 1, unique roots turn that into:
        the round trip fixes u, theta fixes to_second(u), and
        w(to_second(u)) = drag; then k = 1 is a witness.
        """
        to_first, to_second = vii.first_from_second, vii.second_from_first
        u, weights, theta = self.first_base, self.second_weights, self.theta
        mapped = to_second.apply(u)
        if u.is_identity() or not _is_fixed(to_second.then(to_first), u):
            return None
        if weighted_sum(mapped, weights) != self.drag or not _is_fixed(theta, mapped):
            return None
        return ProductElement(u, mapped)

    def describe(self, oracle: FixOracle) -> str:
        u, weights = render_word(self.first_base), list(self.second_weights)
        if self.drag == 0:
            return (
                f"pairs (({u})^k, y), k any integer, y in {oracle.fix(self.theta)} "
                f"with zero weight {weights}"
            )
        return (
            f"pairs (({u})^(w(y)/{self.drag}), y) for y in {oracle.fix(self.theta)} "
            f"with {self.drag} | w(y), w = weight {weights}"
        )


FixDescriptor = Union[FactorProduct, PairedPowers, HomGraph, PowerGraph]


def fix_product(e: ProductEndo, shape: EndoType | None = None) -> FixDescriptor:
    """Structural description of the fixed subgroup of a product endo.

    Needs no oracle: the descriptor names the free-group endomorphisms whose
    fixed subgroups it is made of, and asks for them when it is used.
    """
    if shape is None:
        shape = classify(e)
    a, b = e.first_alphabet, e.second_alphabet
    if isinstance(shape, TypeI):
        return PairedPowers(shape.first_base, shape.second_base, shape.fixed_exponents())
    if isinstance(shape, TypeII):
        if shape.gain() != 1:
            return PairedPowers(Word(a), Word(b), IntLattice2.zero())
        # (h(v)^k, v^k) = (r^(ek), v^k) for h(v) = r^e with r primitive
        r = root(shape.first_from_second.apply(shape.second_base))
        return PairedPowers(r.base, shape.second_base, IntLattice2.line((r.exponent, 1)))
    if isinstance(shape, TypeIII):
        drag = 1 - shape.self_weight()
        return PowerGraph(shape.first_base, shape.first_b_weights, drag, shape.second_from_second)
    if isinstance(shape, TypeIV):
        return HomGraph(shape.second_from_second, shape.first_from_second)
    if isinstance(shape, TypeV):
        if weighted_sum(shape.second_base, shape.second_b_weights) != 1:
            return PairedPowers(Word(a), Word(b), IntLattice2.zero())
        return PairedPowers(Word(a), shape.second_base, IntLattice2.line((0, 1)))
    if isinstance(shape, TypeVI):
        return FactorProduct(shape.first, shape.second)
    if isinstance(shape, TypeVII):
        return _swap_graph(shape)
    raise TypeError(f"unknown shape {shape!r}")
