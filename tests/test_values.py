"""Value semantics of the immutable record classes.

Every record class compares and hashes by its fields, refuses assignment
and deletion, takes its fields as positional or keyword arguments in slot
order, and survives copying and pickling.
"""

import copy
import pickle

import pytest

from fixfnm._value import FrozenValue, set_field
from fixfnm import (
    Alphabet,
    BallSpec,
    CuratedCase,
    DeclaredEndo,
    EqualizerReduction,
    FactorProduct,
    FreeHom,
    HomGraph,
    IntLattice2,
    MihailovaInstance,
    PairedPowers,
    PowerGraph,
    Presentation,
    ProductElement,
    ProductEndo,
    Root,
    SubgroupGraph,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    TypeV,
    TypeVI,
    TypeVII,
    Verdict,
    Word,
    embed_equalizer,
    from_generators,
    identity_endo,
    identity_hom,
    inner_hom,
    mihailova_instance,
    parse_presentation_text,
    parse_word,
    reduce_pair_to_equalizer,
)
from conftest import A, B, RELAB_AB, RELAB_BA

X = Alphabet(2, "x")
A1, A2 = Word(A, (1,)), Word(A, (2,))
B1 = Word(B, (1,))


def _graph_a():
    return from_generators([A1])


# one factory per record class; each call makes a fresh, equal object
FACTORIES = {
    Alphabet: lambda: Alphabet(2, "a"),
    Word: lambda: Word(A, (1, 2, -1)),
    Root: lambda: Root(Word(A, (1,)), 3),
    IntLattice2: lambda: IntLattice2(((1, 0), (0, 2))),
    FreeHom: lambda: FreeHom(A, A, (A2, A1)),
    SubgroupGraph: _graph_a,
    ProductElement: lambda: ProductElement(A1, B1),
    ProductEndo: lambda: identity_endo(2, 2),
    TypeI: lambda: TypeI(A1, B1, (2, 0), (-1, 0), (1, 0), (0, 0)),
    TypeII: lambda: TypeII(RELAB_BA, B1, (1, 0), (0, 1)),
    TypeIII: lambda: TypeIII(A1, (2, 0), (1, 0), inner_hom(B1)),
    TypeIV: lambda: TypeIV(RELAB_BA, inner_hom(B1)),
    TypeV: lambda: TypeV(B1, (1, 0), (1, 0), 2),
    TypeVI: lambda: TypeVI(identity_hom(A), identity_hom(B)),
    TypeVII: lambda: TypeVII(RELAB_BA, RELAB_AB),
    DeclaredEndo: lambda: DeclaredEndo(identity_hom(A), (A1, A2)),
    FactorProduct: lambda: FactorProduct(inner_hom(A1), inner_hom(B1)),
    PairedPowers: lambda: PairedPowers(A1, B1, IntLattice2.full()),
    HomGraph: lambda: HomGraph(inner_hom(B1), RELAB_BA),
    PowerGraph: lambda: PowerGraph(A1, (1, 0), 2, inner_hom(B1)),
    Verdict: lambda: Verdict(ProductElement(A1, B1), ("1.8",)),
    BallSpec: lambda: BallSpec(4),
    Presentation: lambda: parse_presentation_text("x1 x2 | x1^2"),
    MihailovaInstance: lambda: mihailova_instance(
        parse_presentation_text("x1 x2 | x1^2"), parse_word("x1", X)
    ),
    EqualizerReduction: lambda: reduce_pair_to_equalizer(
        *embed_equalizer(RELAB_BA, FreeHom(B, A, (A2, A1)))
    ),
    CuratedCase: lambda: CuratedCase(
        "1.7", "a name", identity_endo(2, 2), identity_endo(2, 2), False
    ),
}
RECORDS = sorted(FACTORIES, key=lambda cls: cls.__name__)

# Shapes checked under the names of the records they replaced: PowerGraph at
# drag 0 (a power cylinder) and drag != 0 (an exponent graph), and PairedPowers
# with a zero lattice (the trivial answer)
REPLACED = {
    "PowerCylinder": (PowerGraph, lambda: PowerGraph(A1, (1, 0), 0, inner_hom(B1))),
    "ExponentGraph": (PowerGraph, FACTORIES[PowerGraph]),
    "TrivialFix": (PairedPowers, lambda: PairedPowers(Word(A), Word(B), IntLattice2.zero())),
}
CASES = sorted(
    [(cls.__name__, cls, FACTORIES[cls]) for cls in RECORDS if cls is not PowerGraph]
    + [(name, cls, make) for name, (cls, make) in REPLACED.items()]
)
CASES = [pytest.param(cls, make, id=name) for name, cls, make in CASES]


def _fields(cls):
    return [name for name in cls.__slots__ if not name.startswith("_")]


def test_every_record_class_is_covered():
    assert len(RECORDS) == 26


@pytest.mark.parametrize("cls, make", CASES)
def test_equal_fields_give_equal_objects(cls, make):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != tuple(getattr(a, name) for name in _fields(cls))
    assert repr(a).startswith(f"{cls.__name__}({_fields(cls)[0]}=")


@pytest.mark.parametrize("cls, make", CASES)
def test_fields_cannot_be_assigned_or_deleted(cls, make):
    a = make()
    before = [getattr(a, name) for name in _fields(cls)]
    for name in _fields(cls):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert [getattr(a, name) for name in _fields(cls)] == before


@pytest.mark.parametrize("cls, make", CASES)
def test_fields_are_the_constructor_arguments(cls, make):
    a = make()
    values = {name: getattr(a, name) for name in _fields(cls)}
    assert cls(*values.values()) == a
    assert cls(**values) == a
    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_keyword_defaults():
    assert Alphabet(2) == Alphabet(rank=2, letter="a")
    assert Word(A) == Word(alphabet=A, letters=())
    assert BallSpec(4) == BallSpec(radius=4)
    h = identity_hom(A)
    assert DeclaredEndo(h, (A1, A2)).audit_radius is None
    assert DeclaredEndo(h, (A1, A2), audit_radius=4).audit_radius == 4
    e = identity_endo(2, 2)
    assert CuratedCase("1.7", "n", e, e, expected_trivial=False).declarations == ()


def test_different_fields_or_classes_differ():
    assert Word(A, (1,)) != Word(A, (2,))
    assert Word(A, (1,)) != Word(Alphabet(3, "a"), (1,))
    assert Alphabet(2, "a") != Alphabet(2, "b")
    swap_a = FreeHom(A, A, (A2, A1))
    assert TypeVI(identity_hom(A), identity_hom(B)) != TypeVI(swap_a, identity_hom(B))
    # same field values, different classes
    assert FactorProduct(identity_hom(A), identity_hom(B)) != TypeVI(identity_hom(A), identity_hom(B))


def test_constructor_checks_still_run():
    with pytest.raises(ValueError):
        Alphabet(0)
    with pytest.raises(ValueError):
        Alphabet(2, "c")
    with pytest.raises(ValueError):
        Word(A, (3,))
    with pytest.raises(ValueError):
        Word(A, (1, -1))
    with pytest.raises(ValueError):
        FreeHom(A, A, (A1,))
    with pytest.raises(ValueError):
        ProductElement(B1, A1)
    with pytest.raises(ValueError):
        BallSpec(9)
    with pytest.raises(ValueError):
        DeclaredEndo(FreeHom(A, A, (A2, A1)), (A1,))
    with pytest.raises(ValueError):
        Presentation(A, ())


class _Counted(FrozenValue):
    """A record with one field and one derived, private slot."""

    __slots__ = ("letters", "_count")

    def __init__(self, letters):
        set_field(self, "letters", letters)
        set_field(self, "_count", len(letters))


def test_private_slots_stay_out_of_value_semantics():
    a, b = _Counted("ab"), _Counted("ab")
    set_field(b, "_count", 99)  # derived state that differs, fields that agree
    assert _Counted._fields == ("letters",)
    assert a == b and hash(a) == hash(b)
    assert repr(b) == "_Counted(letters='ab')"
    back = pickle.loads(pickle.dumps(b))
    assert back == b and back._count == 2  # rebuilt by the constructor
    assert copy.copy(b)._count == 2
    with pytest.raises(AttributeError):
        b._count = 3
    assert not hasattr(b, "__dict__")
    # the library's own private slots: a kept power family, a lazily built graph
    e = TypeI(A1, B1, (1, 0), (2, 0), (0, 1), (0, 3)).as_endo()
    assert e._first_family == (A1, (1, 0), (2, 0))
    assert ProductEndo._fields == (
        "first_from_first", "first_from_second", "second_from_first", "second_from_second"
    )
    assert "_family" not in repr(e) and e == TypeI(A1, B1, (1, 0), (2, 0), (0, 1), (0, 3)).as_endo()
    assert pickle.loads(pickle.dumps(e))._second_family == e._second_family == (B1, (0, 1), (0, 3))
    declared = DeclaredEndo(identity_hom(A), (A1, A2))
    assert declared._graph is None
    graph = declared.fix_graph()
    assert declared.fix_graph() is graph
    assert declared == DeclaredEndo(identity_hom(A), (A1, A2))
    assert not hasattr(declared, "__dict__") and not hasattr(e, "__dict__")
