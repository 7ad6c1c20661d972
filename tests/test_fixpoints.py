"""Fixed-subgroup machinery: the free-factor oracle and the descriptors."""

import itertools

import pytest

from fixfnm import (
    Alphabet,
    DeclaredEndo,
    FactorProduct,
    FixOracle,
    FreeHom,
    HomGraph,
    IntLattice2,
    MissingOracle,
    PairedPowers,
    PowerGraph,
    ProductElement,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    TypeV,
    TypeVI,
    TypeVII,
    Word,
    curated_cases,
    cyclic_reduce,
    decide,
    enumerate_product_ball,
    fix_product,
    from_generators,
    identity_endo,
    identity_hom,
    inner_hom,
    parse_word,
    permutation_hom,
    root,
    trivial_hom,
    trivial_subgroup,
    whole_group,
)
from fixfnm import fixpoints
from conftest import (
    A,
    ALL_TAGS,
    B,
    RELAB_AB,
    RELAB_BA,
    pe,
    random_shape_endo,
    random_word,
    rng_for,
    wa,
    wb,
)

A3 = Alphabet(3, "a")


# --- recognized and declared free-group endomorphisms ------------------------


def test_identity_endo_support():
    # the identity is recognized as the permutation that moves nothing
    oracle = FixOracle()
    for rank in range(1, 6):
        alph = Alphabet(rank, "a")
        assert oracle.fix(identity_hom(alph)) == whole_group(alph)


def test_inner_endo_support():
    oracle = FixOracle()
    assert oracle.fix(inner_hom(wa("a1 a2"))) == from_generators([wa("a1 a2")])
    # the centralizer of a proper power is generated by the primitive root
    assert oracle.fix(inner_hom(wa("a1 a2") ** 3)) == from_generators([wa("a1 a2")])
    assert oracle.fix(inner_hom(Word(A))) == whole_group(A)


def test_basis_permutation_support():
    oracle = FixOracle()
    assert oracle.fix(permutation_hom(A, (2, 1))).is_trivial()
    cycle = permutation_hom(A3, (2, 1, 3))
    assert oracle.fix(cycle) == from_generators([parse_word("a3", A3)], A3)
    # conjugation by a1 fixes a1 but moves a2: an inner map, not a permutation
    assert inner_hom(wa("a1")).as_permutation() is None
    assert oracle.fix(inner_hom(wa("a1"))) == from_generators([wa("a1")])


def test_recognized_permutation_is_one_row():
    # a1 stays, a2 and a3 swap: one vertex, a loop at a1 in both halves of its row
    found = FixOracle().fix(permutation_hom(A3, (1, 3, 2)))
    assert found == from_generators([parse_word("a1", A3)])
    assert found.rows == ((0, -1, -1, 0, -1, -1),)


def _reference_conjugator(h):
    """The z with h == inner_hom(z), or None, found by trying every candidate.

    z a1 z^-1 == h(a1) leaves only z = c a1^t, for c the conjugator of
    h(a1) = c a1 c^-1; t != 0 makes z a2 z^-1 reduced and longer than 2|t|.
    """
    first = h.source.generators()[0]
    core, conj = cyclic_reduce(h.images[0])
    if core != first:
        return None
    bound = len(h.images[1])
    for t in range(-bound, bound + 1):
        z = conj * first**t
        if inner_hom(z) == h:
            return z
    return None


def _inner_and_near_misses():
    """Seeded (hom, z or None) pairs: conjugations by z of length 0-6 and,
    for each, three near misses, whose answer comes from the reference."""
    rng = rng_for("detect-inner")
    for alphabet in (A, A3):
        gens = alphabet.generators()
        for length in range(7):
            for _ in range(12):
                z = random_word(rng, alphabet, length)
                images = list(inner_hom(z).images)
                yield inner_hom(z), z
                i = rng.randrange(alphabet.rank)
                off = images.copy()  # one image off by a letter at one end
                step = random_word(rng, alphabet, 1)
                off[i] = off[i] * step if rng.random() < 0.5 else step * off[i]
                other = images.copy()  # a2 conjugated by another z than a1
                other[1] = gens[1].conjugated_by(z * random_word(rng, alphabet, rng.randint(1, 3)))
                inverted = images.copy()  # one generator sent to the conjugate of its inverse
                inverted[i] = inverted[i].inverse()
                for near in (off, other, inverted):
                    h = FreeHom(alphabet, alphabet, tuple(near))
                    yield h, _reference_conjugator(h)


def test_detect_inner_matches_the_reference():
    counts = {"inner": 0, "not inner": 0}
    for h, z in _inner_and_near_misses():
        assert fixpoints._detect_inner(h) == z, h
        if z is None:
            counts["not inner"] += 1
            continue
        counts["inner"] += 1
        assert h == inner_hom(z)
        if not z.is_identity():
            assert FixOracle().fix(h) == from_generators([root(z).base])
    assert counts["inner"] >= 168 and counts["not inner"] >= 400, counts


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_recognized_permutations_match_folding(rank):
    alph = Alphabet(rank, "a")
    gens = alph.generators()
    for perm in itertools.permutations(range(1, rank + 1)):
        fixed = [g for i, g in enumerate(gens, start=1) if perm[i - 1] == i]
        found = FixOracle().fix(permutation_hom(alph, perm))
        assert found == from_generators(fixed, alph)


def test_declared_endo_support():
    retract = FreeHom(A, A, (wa("a1"), Word(A)))
    d = DeclaredEndo(retract, (wa("a1"),), audit_radius=4)
    assert d.fix_graph() == from_generators([wa("a1")])

    with pytest.raises(ValueError):
        DeclaredEndo(retract, (wa("a2"),))  # a2 is not fixed
    with pytest.raises(ValueError):
        # declared subgroup misses the fixed point a2
        DeclaredEndo(identity_hom(A), (wa("a1"),), audit_radius=2)
    with pytest.raises(ValueError):
        DeclaredEndo(RELAB_AB, ())  # not an endomorphism
    with pytest.raises(ValueError, match="is not a word over"):
        DeclaredEndo(identity_hom(A), (Word(A3, (3,)),))


def test_audit_radius_beyond_the_ball_cap_is_refused(monkeypatch):
    # refused before any word is applied, not after walking a radius-9 ball
    def no_map(self, letters):
        raise AssertionError("the audit walked the ball")

    retract = FreeHom(A, A, (wa("a1"), Word(A)))
    basis = (wa("a1"),)
    monkeypatch.setattr(FreeHom, "image_letters", no_map)
    with pytest.raises(ValueError, match="radius must lie in"):
        DeclaredEndo(retract, (), audit_radius=9)
    with pytest.raises(ValueError, match="radius must lie in"):
        DeclaredEndo(retract, (), audit_radius=-1)
    monkeypatch.undo()
    assert DeclaredEndo(retract, basis, audit_radius=8).audit_radius == 8


# --- the oracle ---------------------------------------------------------------


def test_oracle_recognized_families():
    oracle = FixOracle()
    assert oracle.fix(identity_hom(A)) == whole_group(A)
    assert oracle.fix(trivial_hom(A, A)) == trivial_subgroup(A)
    assert oracle.fix(permutation_hom(A, (2, 1))) == trivial_subgroup(A)
    assert oracle.fix(inner_hom(wa("a1 a2"))) == from_generators([wa("a1 a2")])
    assert oracle.fix(inner_hom(wa("a1 a2") ** 2)) == from_generators([wa("a1 a2")])
    # conjugation by a power of a generator: detection must still pin z down
    assert oracle.fix(inner_hom(wa("a1^3"))) == from_generators([wa("a1")])


def test_oracle_misses_and_declarations():
    stretch = FreeHom(A, A, (wa("a1 a2"), wa("a2")))
    oracle = FixOracle()
    with pytest.raises(MissingOracle) as exc:
        oracle.fix(stretch)
    assert exc.value.hom == stretch

    # the fixed subgroup also holds the conjugate a1 a2 a1^-1
    basis = (wa("a2"), wa("a1 a2 a1^-1"))
    declared = DeclaredEndo(stretch, basis, audit_radius=4)
    oracle = FixOracle([declared])
    assert oracle.fix(stretch) == from_generators(list(basis))

    with pytest.raises(ValueError):
        FixOracle().fix(RELAB_AB)  # not an endomorphism

    # on rank 1 no map is inner but the identity, so the inversion is a miss
    rank1 = Alphabet(1, "a")
    with pytest.raises(MissingOracle):
        FixOracle().fix(FreeHom(rank1, rank1, (parse_word("a1^-1", rank1),)))

    # a declared conjugation, which is recognized too, is answered with the
    # declared graph itself, on every query
    conj = inner_hom(wa("a1 a2"))
    declared = DeclaredEndo(conj, (wa("a1 a2"),), audit_radius=4)
    oracle = FixOracle([declared])
    for _ in range(2):
        assert oracle.fix(conj) is declared.fix_graph()
    assert FixOracle().fix(conj) is not declared.fix_graph()


def test_declared_basis_is_folded_once(monkeypatch):
    # the audit folds the declared basis; every oracle that joins reuses it
    case = next(c for c in curated_cases() if c.declarations)
    (declared,) = case.declarations

    def refold(*args, **kwargs):
        raise AssertionError("a declared basis was folded again")

    monkeypatch.setattr(fixpoints, "from_generators", refold)
    oracles = [case.oracle() for _ in range(2)]
    for oracle in oracles:
        assert oracle.fix(declared.endo) is declared.fix_graph()
    monkeypatch.undo()  # the case's other maps are recognized, which folds their roots
    for oracle in oracles:
        assert decide(case.phi, case.psi, oracle).trivial == case.expected_trivial


# --- descriptors, one by one ---------------------------------------------------
#
# A descriptor's own witness is its meet with Fix(identity), the whole group.

IDENTITY = TypeVI(identity_hom(A), identity_hom(B))


TRIVIAL = PairedPowers(Word(A), Word(B), IntLattice2.zero())


def _assert_trivial(fd):
    """fd is the trivial answer: only the identity, and both meets are None."""
    oracle = FixOracle()
    assert fd == TRIVIAL
    assert fd.contains(pe("1", "1"))
    for g in (pe("a1", "1"), pe("1", "b1"), pe("a1", "b2^-1")):
        assert not fd.contains(g)
    assert fd.meet_diagonal(IDENTITY, oracle) is None
    assert fd.meet_swap(TypeVII(RELAB_BA, RELAB_AB), oracle) is None
    assert fd.describe(oracle) == "trivial"


def test_trivial_fix_descriptor():
    # the trivial answer is PairedPowers with no exponents but (0, 0)
    _assert_trivial(TRIVIAL)


def test_factor_product_descriptor():
    fd = FactorProduct(inner_hom(wa("a1")), inner_hom(wb("b2")))
    oracle = FixOracle()
    assert fd.contains(pe("a1^3", "b2^-1"))
    assert not fd.contains(pe("a2", "b2"))
    assert fd.describe(oracle) == "<a1> x <b2>"
    w = fd.meet_diagonal(IDENTITY, oracle)
    assert fd.contains(w) and not w.is_identity()
    dead = FactorProduct(trivial_hom(A, A), trivial_hom(B, B))
    assert dead.meet_diagonal(IDENTITY, oracle) is None


def test_paired_powers_descriptor():
    fd = PairedPowers(wa("a1"), wb("b1"), IntLattice2.line((2, 3)))
    oracle = FixOracle()
    assert fd.contains(pe("a1^2", "b1^3"))
    assert fd.contains(pe("a1^-4", "b1^-6"))
    assert not fd.contains(pe("a1^2", "b1^2"))
    assert not fd.contains(pe("a1 a2", "b1"))
    w = fd.meet_diagonal(IDENTITY, oracle)
    assert fd.contains(w) and not w.is_identity()

    # dead first coordinate: the lattice only constrains the live one
    live = PairedPowers(Word(A), wb("b1"), IntLattice2.full())
    assert live.contains(pe("1", "b1^7"))
    assert not live.contains(pe("a1", "b1"))
    dead = PairedPowers(Word(A), wb("b1"), IntLattice2.zero())
    assert dead.meet_diagonal(IDENTITY, oracle) is None


def test_hom_graph_descriptor():
    # Fix(conjugation by b1) = <b1>
    fd = HomGraph(inner_hom(wb("b1")), RELAB_BA)
    oracle = FixOracle()
    assert fd.contains(pe("a1", "b1"))
    assert fd.contains(pe("a1^-2", "b1^-2"))
    assert not fd.contains(pe("a2", "b1"))
    assert not fd.contains(pe("a1", "b2"))
    w = fd.meet_diagonal(IDENTITY, oracle)
    assert fd.contains(w) and not w.is_identity()

    other = HomGraph(identity_hom(A), RELAB_AB)
    assert other.contains(pe("a1 a2", "b1 b2"))
    assert not other.contains(pe("a1", "b2"))


def test_power_graph_descriptor_with_zero_drag():
    # Fix(conjugation by b1 b2) = <b1 b2>
    theta = inner_hom(wb("b1 b2"))
    fd = PowerGraph(wa("a1"), (1, -1), 0, theta)
    oracle = FixOracle()
    assert fd.contains(pe("a1^5", "b1 b2"))
    assert fd.contains(pe("1", "1"))
    assert not fd.contains(pe("a2", "b1 b2"))
    assert fd.meet_diagonal(IDENTITY, oracle) == pe("a1", "1")  # (a1, 1) is always in
    assert fd.describe(oracle) == (
        f"pairs ((a1)^k, y), k any integer, y in {oracle.fix(theta)} with zero weight [1, -1]"
    )

    # collapsed first base: triviality is the restricted-kernel question
    flat = PowerGraph(Word(A), (1, 1), 0, theta)
    # weight of b1 b2 is 2, never zero on <b1 b2> \ 1
    assert flat.meet_diagonal(IDENTITY, oracle) is None
    zero = PowerGraph(Word(A), (1, -1), 0, theta)
    w = zero.meet_diagonal(IDENTITY, oracle)
    assert w is not None and zero.contains(w) and not w.is_identity()


def test_power_graph_descriptor_with_nonzero_drag():
    # Fix(identity) = F_b, cut down to even b1-weight
    fd = PowerGraph(wa("a1"), (1, 0), 2, identity_hom(B))
    oracle = FixOracle()
    assert fd.contains(pe("a1", "b1^2"))
    assert fd.contains(pe("1", "b2"))
    assert not fd.contains(pe("a1", "b1"))  # b1 outside the congruence domain
    assert not fd.contains(pe("a1^2", "b1^2"))  # wrong exponent
    assert fd.describe(oracle).endswith("for y in <b1, b2> with 2 | w(y), w = weight [1, 0]")
    w = fd.meet_diagonal(IDENTITY, oracle)
    assert fd.contains(w) and not w.is_identity()


def test_descriptors_refuse_elements_of_another_product():
    # each descriptor lives in F_2 x F_2; elements of F_3 x F_2 and F_2 x F_3 are refused
    descriptors = [
        FactorProduct(identity_hom(A), identity_hom(B)),
        PairedPowers(wa("a1"), wb("b1"), IntLattice2.full()),
        HomGraph(identity_hom(B), RELAB_BA),
        HomGraph(identity_hom(A), RELAB_AB),
        PowerGraph(wa("a1"), (1, 0), 2, identity_hom(B)),
    ]
    B3 = Alphabet(3, "b")
    strangers = [
        ProductElement(parse_word("a3", A3), Word(B)),
        ProductElement(parse_word("a1", A3), Word(B)),
        ProductElement(wa("a1"), parse_word("b1", B3)),
    ]
    endo = identity_endo(2, 2)
    for g in strangers:
        for fd in descriptors:
            with pytest.raises(ValueError, match="does not belong"):
                fd.contains(g)
        for use in (endo.apply, endo.fixes):
            with pytest.raises(ValueError, match="does not belong"):
                use(g)
    for fd in descriptors:
        assert fd.contains(pe("1", "1"))


# --- fix_product across the shapes ---------------------------------------------


def test_fix_product_type_i():
    payload = TypeI(wa("a1"), wb("b1"), (2, 0), (1, 0), (2, 0), (3, 0))
    fd = fix_product(payload.as_endo())
    assert isinstance(fd, PairedPowers)
    # kernel of ((1, 1), (2, 2)) is spanned by (1, -1)
    assert fd.exponents == IntLattice2.line((1, -1))
    assert fd.contains(pe("a1", "b1^-1"))
    assert not fd.contains(pe("a1", "b1"))


def test_fix_product_type_ii():
    theta = FreeHom(B, A, (wa("a1"), wa("a1^2")))
    # gain 1: the pairs (theta(v)^k, v^k), powers of the root of theta(v)
    graph_case = fix_product(TypeII(theta, wb("b1"), (1, 0), (0, 2)).as_endo())
    assert graph_case == PairedPowers(wa("a1"), wb("b1"), IntLattice2.line((1, 1)))
    assert graph_case.contains(pe("a1", "b1"))
    # theta(b2) = a1^2: the root exponent scales the first coordinate
    square = fix_product(TypeII(theta, wb("b2"), (1, 0), (0, -1)).as_endo())
    assert square == PairedPowers(wa("a1"), wb("b2"), IntLattice2.line((2, 1)))
    assert square.contains(pe("a1^-2", "b2^-1"))
    assert not square.contains(pe("a1", "b2"))
    # gain 2: only the identity is fixed
    _assert_trivial(fix_product(TypeII(theta, wb("b1"), (2, 0), (0, 2)).as_endo()))


def test_fix_product_type_iii():
    # self weight 1: a cylinder over the kernel of the cross weights
    cyl = fix_product(TypeIII(wa("a1"), (1, 0), (1, -1), inner_hom(wb("b1"))).as_endo())
    assert cyl == PowerGraph(wa("a1"), (1, -1), 0, inner_hom(wb("b1")))
    assert cyl.contains(pe("a1^4", "1"))
    # self weight 2: exponents are forced by the second coordinate
    graph = fix_product(TypeIII(wa("a1"), (2, 0), (1, 0), identity_hom(B)).as_endo())
    assert graph == PowerGraph(wa("a1"), (1, 0), -1, identity_hom(B))
    assert graph.contains(pe("a1^-1", "b1"))


def test_fix_product_type_iv():
    theta = FreeHom(B, A, (wa("a1"), wa("a2")))
    fd = fix_product(TypeIV(theta, inner_hom(wb("b1 b2"))).as_endo())
    assert fd == HomGraph(inner_hom(wb("b1 b2")), theta)
    assert fd.contains(pe("a1 a2", "b1 b2"))
    assert not fd.contains(pe("a1", "b1"))


def test_fix_product_type_v():
    live = fix_product(TypeV(wb("b1"), (1, 1), (1, 0), 2).as_endo())
    assert isinstance(live, PairedPowers)
    assert live.contains(pe("1", "b1^9"))
    assert not live.contains(pe("a1", "b1"))
    # weight 2 on the base: only the identity is fixed
    _assert_trivial(fix_product(TypeV(wb("b1"), (1, 1), (2, 0), 2).as_endo()))


def test_fix_product_type_vi():
    first, second = inner_hom(wa("a1")), permutation_hom(B, (2, 1))
    fd = fix_product(TypeVI(first, second).as_endo())
    assert fd == FactorProduct(first, second)
    assert fd.contains(pe("a1^2", "1"))
    assert not fd.contains(pe("a1", "b1"))


def test_fix_product_type_vii():
    fd = fix_product(TypeVII(RELAB_BA, RELAB_AB).as_endo())
    assert isinstance(fd, HomGraph)
    assert fd.hom == RELAB_AB  # pairs (x, h(x)) with h from the first factor
    assert fd.domain_endo == RELAB_AB.then(RELAB_BA)
    assert fd.contains(pe("a1 a2^-1", "b1 b2^-1"))
    assert not fd.contains(pe("a1", "b2"))


def test_fix_product_consults_the_oracle():
    stretch = FreeHom(B, B, (wb("b1 b2"), wb("b2")))
    e = TypeIV(RELAB_BA, stretch).as_endo()
    fd = fix_product(e)  # names stretch; asks for Fix(stretch) only when used
    assert fd == HomGraph(stretch, RELAB_BA)
    with pytest.raises(MissingOracle):
        fd.describe(FixOracle())
    with pytest.raises(MissingOracle):
        fd.meet_diagonal(IDENTITY, FixOracle())
    basis = (wb("b2"), wb("b1 b2 b1^-1"))
    oracle = FixOracle([DeclaredEndo(stretch, basis, audit_radius=4)])
    assert fd.contains(pe("a2", "b2"))
    assert fd.contains(pe("a1 a2 a1^-1", "b1 b2 b1^-1"))
    assert fd.describe(oracle) == f"pairs (h(y), y) for y in {oracle.fix(stretch)}, h = {RELAB_BA}"


def test_fix_product_agrees_with_direct_checking():
    rng = rng_for("fixpoints-sweep")
    ball = list(enumerate_product_ball(A, B, 3))
    for tag in ALL_TAGS:
        for _ in range(3):
            e = random_shape_endo(rng, tag)
            fd = fix_product(e)
            oracle = FixOracle()
            fixed = [g for g in ball if e.fixes(g)]
            for g in ball:
                assert fd.contains(g) == e.fixes(g), (tag, str(g))
            w = fd.meet_diagonal(IDENTITY, oracle)
            if w is None:
                assert all(g.is_identity() for g in fixed)
            else:
                assert not w.is_identity() and e.fixes(w)
