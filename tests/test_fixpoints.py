"""Fixed-subgroup machinery: the free-factor oracle and the descriptors."""

import pytest

from fixfnm import (
    Alphabet,
    DeclaredEndo,
    ExponentGraph,
    FactorProduct,
    FactorSubgroup,
    FixOracle,
    FreeHom,
    HomGraph,
    IntLattice2,
    MissingOracle,
    PairedPowers,
    PowerCylinder,
    ProductElement,
    TrivialFix,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    TypeV,
    TypeVI,
    TypeVII,
    Word,
    congruence_subgroup,
    enumerate_product_ball,
    fix_product,
    from_generators,
    identity_hom,
    inner_hom,
    parse_word,
    permutation_hom,
    trivial_hom,
    trivial_subgroup,
    whole_group,
)
from conftest import ALL_TAGS, RELAB_AB, RELAB_BA, random_shape_endo, rng_for

A = Alphabet(2, "a")
B = Alphabet(2, "b")
A3 = Alphabet(3, "a")


def wa(text):
    return parse_word(text, A)


def wb(text):
    return parse_word(text, B)


def pe(first, second):
    return ProductElement(wa(first), wb(second))


# --- recognized and declared free-group endomorphisms ------------------------


def test_identity_endo_support():
    oracle = FixOracle()
    assert oracle.fix(identity_hom(A)) == whole_group(A)
    assert oracle.fix(identity_hom(A3)) == whole_group(A3)


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


# --- descriptors, one by one ---------------------------------------------------


def test_trivial_fix_descriptor():
    fd = TrivialFix(A, B)
    assert fd.is_trivial()
    assert fd.contains(pe("1", "1"))
    assert not fd.contains(pe("a1", "1"))
    assert fd.nontrivial_witness() is None


def test_factor_subgroup_descriptor():
    fd = FactorSubgroup(from_generators([wa("a1^2")]), "first", B)
    assert fd.contains(pe("a1^2", "1"))
    assert not fd.contains(pe("a1^2", "b1"))
    assert not fd.contains(pe("a1", "1"))
    w = fd.nontrivial_witness()
    assert w is not None and fd.contains(w) and not w.is_identity()

    snd = FactorSubgroup(from_generators([wb("b2")]), "second", A)
    assert snd.contains(pe("1", "b2^5"))
    assert not snd.contains(pe("a1", "b2"))


def test_factor_product_descriptor():
    fd = FactorProduct(from_generators([wa("a1")]), from_generators([wb("b2")]))
    assert fd.contains(pe("a1^3", "b2^-1"))
    assert not fd.contains(pe("a2", "b2"))
    assert not fd.is_trivial()
    w = fd.nontrivial_witness()
    assert fd.contains(w) and not w.is_identity()
    assert FactorProduct(trivial_subgroup(A), trivial_subgroup(B)).is_trivial()


def test_paired_powers_descriptor():
    fd = PairedPowers(wa("a1"), wb("b1"), IntLattice2.line((2, 3)))
    assert fd.contains(pe("a1^2", "b1^3"))
    assert fd.contains(pe("a1^-4", "b1^-6"))
    assert not fd.contains(pe("a1^2", "b1^2"))
    assert not fd.contains(pe("a1 a2", "b1"))
    assert not fd.is_trivial()
    w = fd.nontrivial_witness()
    assert fd.contains(w) and not w.is_identity()

    # dead first coordinate: the lattice only constrains the live one
    live = PairedPowers(Word(A), wb("b1"), IntLattice2.full())
    assert live.contains(pe("1", "b1^7"))
    assert not live.contains(pe("a1", "b1"))
    dead = PairedPowers(Word(A), wb("b1"), IntLattice2.zero())
    assert dead.is_trivial()
    assert dead.nontrivial_witness() is None


def test_hom_graph_descriptor():
    fd = HomGraph(from_generators([wb("b1")]), RELAB_BA, "first_from_second")
    assert fd.contains(pe("a1", "b1"))
    assert fd.contains(pe("a1^-2", "b1^-2"))
    assert not fd.contains(pe("a2", "b1"))
    assert not fd.contains(pe("a1", "b2"))
    w = fd.nontrivial_witness()
    assert fd.contains(w) and not w.is_identity()

    other = HomGraph(whole_group(A), RELAB_AB, "second_from_first")
    assert other.contains(pe("a1 a2", "b1 b2"))
    assert not other.contains(pe("a1", "b2"))


def test_power_cylinder_descriptor():
    fd = PowerCylinder(wa("a1"), (1, -1), from_generators([wb("b1 b2")]))
    assert fd.contains(pe("a1^5", "b1 b2"))
    assert fd.contains(pe("1", "1"))
    assert not fd.contains(pe("a2", "b1 b2"))
    assert not fd.is_trivial()  # (a1, 1) is always in

    # collapsed first base: triviality is the restricted-kernel question
    flat = PowerCylinder(Word(A), (1, 1), from_generators([wb("b1 b2")]))
    assert flat.is_trivial()  # weight of b1 b2 is 2, never zero on <b1 b2> \ 1
    assert flat.nontrivial_witness() is None
    zero = PowerCylinder(Word(A), (1, -1), from_generators([wb("b1 b2")]))
    assert not zero.is_trivial()
    w = zero.nontrivial_witness()
    assert w is not None and zero.contains(w) and not w.is_identity()


def test_exponent_graph_descriptor():
    domain = congruence_subgroup(B, (1, 0), 2)
    fd = ExponentGraph(wa("a1"), (1, 0), 2, domain)
    assert fd.contains(pe("a1", "b1^2"))
    assert fd.contains(pe("1", "b2"))
    assert not fd.contains(pe("a1", "b1"))  # b1 outside the congruence domain
    assert not fd.contains(pe("a1^2", "b1^2"))  # wrong exponent
    w = fd.nontrivial_witness()
    assert fd.contains(w) and not w.is_identity()
    with pytest.raises(ValueError):
        ExponentGraph(wa("a1"), (1, 0), 0, domain)


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
    graph_case = fix_product(TypeII(theta, wb("b1"), (1, 0), (0, 2)).as_endo())
    assert isinstance(graph_case, HomGraph)
    assert graph_case.contains(pe("a1", "b1"))
    trivial_case = fix_product(TypeII(theta, wb("b1"), (2, 0), (0, 2)).as_endo())
    assert isinstance(trivial_case, TrivialFix)


def test_fix_product_type_iii():
    # self weight 1: a cylinder over the kernel of the cross weights
    cyl = fix_product(TypeIII(wa("a1"), (1, 0), (1, -1), inner_hom(wb("b1"))).as_endo())
    assert isinstance(cyl, PowerCylinder)
    assert cyl.contains(pe("a1^4", "1"))
    # self weight 2: exponents are forced by the second coordinate
    graph = fix_product(TypeIII(wa("a1"), (2, 0), (1, 0), identity_hom(B)).as_endo())
    assert isinstance(graph, ExponentGraph)
    assert graph.divisor == -1
    assert graph.contains(pe("a1^-1", "b1"))


def test_fix_product_type_iv():
    theta = FreeHom(B, A, (wa("a1"), wa("a2")))
    fd = fix_product(TypeIV(theta, inner_hom(wb("b1 b2"))).as_endo())
    assert isinstance(fd, HomGraph)
    assert fd.contains(pe("a1 a2", "b1 b2"))
    assert not fd.contains(pe("a1", "b1"))


def test_fix_product_type_v():
    live = fix_product(TypeV(wb("b1"), (1, 1), (1, 0), 2).as_endo())
    assert isinstance(live, PairedPowers)
    assert live.contains(pe("1", "b1^9"))
    assert not live.contains(pe("a1", "b1"))
    flat = fix_product(TypeV(wb("b1"), (1, 1), (2, 0), 2).as_endo())
    assert isinstance(flat, TrivialFix)


def test_fix_product_type_vi():
    fd = fix_product(TypeVI(inner_hom(wa("a1")), permutation_hom(B, (2, 1))).as_endo())
    assert isinstance(fd, FactorProduct)
    assert fd.contains(pe("a1^2", "1"))
    assert not fd.contains(pe("a1", "b1"))


def test_fix_product_type_vii():
    fd = fix_product(TypeVII(RELAB_BA, RELAB_AB).as_endo())
    assert isinstance(fd, HomGraph)
    assert fd.side == "second_from_first"
    assert fd.contains(pe("a1 a2^-1", "b1 b2^-1"))
    assert not fd.contains(pe("a1", "b2"))


def test_fix_product_consults_the_oracle():
    stretch = FreeHom(B, B, (wb("b1 b2"), wb("b2")))
    e = TypeIV(RELAB_BA, stretch).as_endo()
    with pytest.raises(MissingOracle):
        fix_product(e)
    basis = (wb("b2"), wb("b1 b2 b1^-1"))
    oracle = FixOracle([DeclaredEndo(stretch, basis, audit_radius=4)])
    fd = fix_product(e, oracle)
    assert fd.contains(pe("a2", "b2"))
    assert fd.contains(pe("a1 a2 a1^-1", "b1 b2 b1^-1"))


def test_fix_product_agrees_with_direct_checking():
    rng = rng_for("fixpoints-sweep")
    ball = list(enumerate_product_ball(A, B, 3))
    for tag in ALL_TAGS:
        for _ in range(3):
            e = random_shape_endo(rng, tag)
            fd = fix_product(e)
            fixed = [g for g in ball if e.fixes(g)]
            for g in ball:
                assert fd.contains(g) == e.fixes(g), (tag, str(g))
            if fd.is_trivial():
                assert all(g.is_identity() for g in fixed)
            else:
                w = fd.nontrivial_witness()
                assert w is not None and not w.is_identity()
                assert e.fixes(w)
