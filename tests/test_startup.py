"""What `import fixfnm`, the Stallings imports and `fixfnm intersect` load,
and the names the package exports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fixfnm

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "scripts" / "data"

# fixfnm.__all__ before the worked instances of fixfnm.suite became lazy, less
# FactorSubgroup, which fix_product never returned, with PowerGraph in place
# of the two shape III descriptors it merges, and less TrivialFix (now
# PairedPowers with a zero lattice), commute and image (an image is
# Preimage(...).image()), and less identity (Word(alphabet)), product_identity
# (a ProductElement of two empty words) and fixed_points (common_fixed_points
# with the same endomorphism twice)
PUBLIC_NAMES = {
    "Alphabet", "BallSpec", "CertificateError", "CommutationViolation", "CuratedCase",
    "DeclaredEndo", "EndoType", "EqualizerReduction", "FactorProduct",
    "FixDescriptor", "FixOracle", "FreeHom", "HomGraph", "IntLattice2",
    "MihailovaInstance", "MissingOracle", "PairedPowers", "ParseError", "PowerGraph",
    "Presentation", "ProductElement", "ProductEndo", "Root", "SubgroupGraph",
    "TypeI", "TypeII", "TypeIII", "TypeIV", "TypeV", "TypeVI", "TypeVII",
    "UnclassifiableEndo", "UnsupportedShape", "Verdict", "Word", "ball_size",
    "bounded_equalizer", "classify", "common_fixed_points",
    "congruence_subgroup", "curated_cases", "cyclic_reduce", "decide", "decision",
    "embed_equalizer", "enumerate_ball", "enumerate_product_ball", "exponent_of_power",
    "express_in_generators", "fix_product", "fixed_words", "fixpoints",
    "from_generators", "generator", "hnf_rows", "homs", "identity_endo",
    "identity_hom", "inner_hom", "kernel_basis", "lattices",
    "mihailova_generators", "mihailova_instance", "oracle", "parse_endo_text",
    "parse_hom_text", "parse_presentation_text", "parse_word", "permutation_hom",
    "product", "reduce_pair_to_equalizer", "render_endo_text",
    "render_hom_text", "render_word", "restricted_kernel_trivial", "root",
    "sign_normalized", "solve_power_equation", "stallings", "suite", "trivial_hom",
    "trivial_subgroup", "weighted_sum", "whole_group", "word", "words",
}


def test_intersect_loads_no_unneeded_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "fixfnm", "intersect",
         str(DATA / "diag.endo"), str(DATA / "swap.endo"), "--json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr  # a nontrivial verdict
    assert json.loads(proc.stdout)["verdict"] == "nontrivial"
    # rows read `import time: self | cumulative | name`, indented by depth
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    assert {"fixfnm", "fixfnm.cli", "fixfnm.decision"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "fixfnm.suite"}


def test_public_names_are_unchanged():
    assert set(fixfnm.__all__) == PUBLIC_NAMES
    assert len(fixfnm.__all__) == len(PUBLIC_NAMES)
    # in a fresh process, before anything has loaded fixfnm.suite
    check = (
        "import sys, fixfnm; "
        "assert set(fixfnm.__all__) <= set(dir(fixfnm)), 'dir misses names'; "
        "assert 'fixfnm.suite' not in sys.modules, 'suite loaded'"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_lazy_names_resolve():
    namespace: dict = {}
    exec("from fixfnm import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)
    assert namespace["suite"] is sys.modules["fixfnm.suite"]
    assert fixfnm.curated_cases is fixfnm.suite.curated_cases
    assert len(fixfnm.curated_cases()) == 36
    from fixfnm import MihailovaInstance, Presentation

    assert MihailovaInstance.__module__ == Presentation.__module__ == "fixfnm.suite"


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that finds fixfnm under src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


LOADED = "*sorted(m for m in sys.modules if m.startswith('fixfnm.'))"


def test_import_loads_no_submodule():
    proc = run_fresh(f"import sys, fixfnm; print({LOADED})")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_stallings_names_load_only_the_layers_below():
    proc = run_fresh(
        "import sys; "
        "from fixfnm import Word, FreeHom, from_generators, express_in_generators; "
        f"print({LOADED})"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["fixfnm._value", "fixfnm.homs", "fixfnm.stallings", "fixfnm.words"]


def test_product_loads_no_subgroup_graphs():
    proc = run_fresh(f"import sys, fixfnm.product; print({LOADED})")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "fixfnm._value", "fixfnm.homs", "fixfnm.lattices", "fixfnm.product", "fixfnm.words"
    ]


def test_names_resolve_to_their_home_objects_and_stay():
    check = (
        "import sys, types, fixfnm\n"
        "for name in fixfnm.__all__:\n"
        "    value = getattr(fixfnm, name)\n"
        "    assert vars(fixfnm)[name] is value, name\n"
        "    home = sys.modules['fixfnm.' + fixfnm._HOMES[name]]\n"
        "    assert value is (home if home.__name__ == 'fixfnm.' + name else vars(home)[name]), name\n"
        "    if isinstance(value, (type, types.FunctionType)):\n"
        "        assert value.__module__ == home.__name__, name\n"
    )
    proc = run_fresh(check)
    assert proc.returncode == 0, proc.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(fixfnm, "no_such_name")
