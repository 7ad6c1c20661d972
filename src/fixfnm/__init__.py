"""Fixed subgroups of endomorphisms of F_n x F_m.

Free-group words, subgroup graphs, the seven-shape classification of
product endomorphisms, structural fixed-subgroup descriptors, and a
decision procedure for whether two fixed subgroups intersect beyond the
identity (first endomorphism of shape VI or VII).

``import fixfnm`` loads no submodule. Each public name lives in the home
module that ``_EXPORTS`` below gives it; its first use loads that module
and the modules it imports, and stores the name here, so later lookups
are plain attribute reads. ``from fixfnm import Word, from_generators``
thus loads the words, homs and Stallings layers only, and the worked
instances of ``fixfnm.suite`` load only when one of them is used.
"""

import sys

# home module -> the public names it defines; each module name is public too
_EXPORTS = {
    "decision": ("UnsupportedShape", "Verdict", "decide"),
    "fixpoints": (
        "DeclaredEndo",
        "FactorProduct",
        "FixDescriptor",
        "FixOracle",
        "HomGraph",
        "MissingOracle",
        "PairedPowers",
        "PowerGraph",
        "fix_product",
    ),
    "homs": (
        "FreeHom",
        "identity_hom",
        "inner_hom",
        "parse_hom_text",
        "permutation_hom",
        "render_hom_text",
        "trivial_hom",
    ),
    "lattices": ("IntLattice2", "hnf_rows", "kernel_basis", "solve_power_equation"),
    "oracle": (
        "BallSpec",
        "bounded_equalizer",
        "common_fixed_points",
        "enumerate_product_ball",
        "fixed_words",
    ),
    "product": (
        "CommutationViolation",
        "EndoType",
        "ProductElement",
        "ProductEndo",
        "TypeI",
        "TypeII",
        "TypeIII",
        "TypeIV",
        "TypeV",
        "TypeVI",
        "TypeVII",
        "UnclassifiableEndo",
        "classify",
        "identity_endo",
        "parse_endo_text",
        "render_endo_text",
    ),
    "stallings": (
        "SubgroupGraph",
        "congruence_subgroup",
        "express_in_generators",
        "from_generators",
        "restricted_kernel_trivial",
        "trivial_subgroup",
        "whole_group",
    ),
    "suite": (
        "CuratedCase",
        "EqualizerReduction",
        "MihailovaInstance",
        "Presentation",
        "curated_cases",
        "embed_equalizer",
        "mihailova_generators",
        "mihailova_instance",
        "parse_presentation_text",
        "reduce_pair_to_equalizer",
    ),
    "words": (
        "Alphabet",
        "CertificateError",
        "ParseError",
        "Root",
        "Word",
        "ball_size",
        "cyclic_reduce",
        "enumerate_ball",
        "exponent_of_power",
        "generator",
        "parse_word",
        "render_word",
        "root",
        "sign_normalized",
        "weighted_sum",
        "word",
    ),
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in (home, *names)}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not `from . import ...`, which would look the name up on this package
    # first and land back here; and not importlib.import_module, whose
    # imports `-X importtime` does not report
    qualified = f"{__name__}.{home}"
    __import__(qualified)
    module = sys.modules[qualified]
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
