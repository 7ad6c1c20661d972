"""Fixed subgroups of endomorphisms of F_n x F_m.

Free-group words, subgroup graphs, the seven-shape classification of
product endomorphisms, structural fixed-subgroup descriptors, and a
decision procedure for whether two fixed subgroups intersect beyond the
identity (first endomorphism of shape VI or VII).
"""

from .decision import UnsupportedShape, Verdict, decide
from .fixpoints import (
    DeclaredEndo,
    ExponentGraph,
    FactorProduct,
    FactorSubgroup,
    FixDescriptor,
    FixOracle,
    HomGraph,
    MissingOracle,
    PairedPowers,
    PowerCylinder,
    TrivialFix,
    fix_product,
)
from .homs import (
    FreeHom,
    identity_hom,
    inner_hom,
    parse_hom_text,
    permutation_hom,
    render_hom_text,
    trivial_hom,
)
from .lattices import IntLattice2, hnf_rows, kernel_basis
from .oracle import (
    BallSpec,
    bounded_equalizer,
    common_fixed_points,
    enumerate_product_ball,
    fixed_points,
    fixed_words,
)
from .product import (
    CommutationViolation,
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
    UnclassifiableEndo,
    classify,
    identity_endo,
    parse_endo_text,
    product_identity,
    render_endo_text,
)
from .stallings import (
    CertificateError,
    SubgroupGraph,
    congruence_subgroup,
    express_in_generators,
    from_generators,
    image,
    restricted_kernel_trivial,
    trivial_subgroup,
    whole_group,
)
from .suite import (
    CuratedCase,
    EqualizerReduction,
    MihailovaInstance,
    Presentation,
    curated_cases,
    embed_equalizer,
    mihailova_generators,
    mihailova_instance,
    parse_presentation_text,
    reduce_pair_to_equalizer,
)
from .words import (
    Alphabet,
    ParseError,
    Root,
    Word,
    ball_size,
    commute,
    cyclic_reduce,
    enumerate_ball,
    exponent_of_power,
    generator,
    identity,
    parse_word,
    render_word,
    root,
    sign_normalized,
    solve_power_equation,
    weighted_sum,
    word,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
