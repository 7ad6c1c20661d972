"""End-to-end CLI behavior through in-process main() calls."""

import json
from pathlib import Path

import pytest

from fixfnm import (
    Alphabet,
    FreeHom,
    TypeI,
    TypeIV,
    TypeVI,
    TypeVII,
    Word,
    identity_hom,
    inner_hom,
    parse_word,
    permutation_hom,
    render_endo_text,
    render_hom_text,
)
from fixfnm.cli import main
from conftest import RELAB_AB, RELAB_BA

A = Alphabet(2, "a")
B = Alphabet(2, "b")
DATA = Path(__file__).resolve().parent.parent / "scripts" / "data"


def wa(text):
    return parse_word(text, A)


def wb(text):
    return parse_word(text, B)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def diag(tmp_path):
    e = TypeVI(inner_hom(wa("a1")), inner_hom(wb("b1"))).as_endo()
    return _write(tmp_path, "diag.endo", render_endo_text(e))


@pytest.fixture
def swap(tmp_path):
    e = TypeVII(RELAB_BA, RELAB_AB).as_endo()
    return _write(tmp_path, "swap.endo", render_endo_text(e))


@pytest.fixture
def powerpair(tmp_path):
    e = TypeI(wa("a2"), wb("b1"), (2, 0), (-1, 0), (1, 0), (0, 0)).as_endo()
    return _write(tmp_path, "powerpair.endo", render_endo_text(e))


def test_classify(diag, capsys):
    assert main(["classify", diag]) == 0
    assert capsys.readouterr().out.strip() == "VI"


def test_classify_parse_error(tmp_path, capsys):
    bad = _write(tmp_path, "bad.endo", "endo 2 2\na1 -> oops\n")
    assert main(["classify", bad]) == 2
    assert "error:" in capsys.readouterr().err


def test_classify_missing_file(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "nope.endo")]) == 2
    assert "error:" in capsys.readouterr().err


def test_fix_output(diag, capsys):
    assert main(["fix", diag]) == 0
    out = capsys.readouterr().out
    assert "shape: VI" in out
    assert "trivial: no" in out


def test_fix_needs_oracle_for_unknown_components(tmp_path, capsys):
    stretch = FreeHom(B, B, (wb("b1 b2"), wb("b2")))
    e = TypeIV(RELAB_BA, stretch).as_endo()
    endo_file = _write(tmp_path, "stretch.endo", render_endo_text(e))
    assert main(["fix", endo_file]) == 3
    assert "declare" in capsys.readouterr().err

    hom_file = _write(tmp_path, "stretch.hom", render_hom_text(stretch))
    basis_file = _write(tmp_path, "stretch.basis", "# fixed basis\nb2\nb1 b2 b1^-1\n")
    assert main(["fix", endo_file, "--declare", hom_file, basis_file]) == 0
    assert "shape: IV" in capsys.readouterr().out


def test_declarations_are_audited(tmp_path, capsys):
    # a1 -> a1 a2 also fixes a1 a2 a1^-1, which <a2> misses
    endo = str(DATA / "transvect.endo")
    hom = str(DATA / "retract.hom")
    short = _write(tmp_path, "short.basis", "a2\n")
    assert main(["fix", endo, "--declare", hom, short]) == 2
    assert "a1 a2 a1^-1" in capsys.readouterr().err


def test_intersect_nontrivial(diag, swap, capsys):
    assert main(["intersect", diag, swap]) == 1
    out = capsys.readouterr().out
    assert out.startswith("NONTRIVIAL (")
    assert "trace: 1.8" in out


def test_intersect_trivial(diag, powerpair, capsys):
    assert main(["intersect", diag, powerpair]) == 0
    out = capsys.readouterr().out
    assert out.startswith("TRIVIAL")
    assert "trace: 1.1" in out


def test_intersect_json(diag, swap, capsys):
    assert main(["intersect", "--json", diag, swap]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "nontrivial"
    assert set(payload) == {"verdict", "witness", "trace", "timings"}
    assert payload["witness"].startswith("(")
    assert payload["trace"] == ["1.8"]
    assert payload["timings"]["decide_seconds"] >= 0


def test_intersect_rank_drop_json(tmp_path, capsys):
    phi = TypeVI(permutation_hom(A, (2, 1)), identity_hom(B)).as_endo()
    psi = TypeIV(FreeHom(B, A, (wa("a1"), Word(A))), identity_hom(B)).as_endo()
    phi_file = _write(tmp_path, "phi.endo", render_endo_text(phi))
    psi_file = _write(tmp_path, "psi.endo", render_endo_text(psi))

    assert main(["intersect", "--json", phi_file, psi_file]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "nontrivial"
    assert payload["witness"] == "(1, b2)"
    assert payload["trace"] == ["1.5"]


def test_intersect_unsupported_first_shape(powerpair, diag, capsys):
    assert main(["intersect", powerpair, diag]) == 3
    assert "error:" in capsys.readouterr().err


def test_oracle(diag, swap, capsys):
    assert main(["oracle", "--radius", "2", diag, swap]) == 1
    out = capsys.readouterr().out
    assert "(a1, b1)" in out
    assert out.strip().endswith("common fixed points with |x| + |y| <= 2")

    assert main(["oracle", "--radius", "0", diag, swap]) == 0
    assert "0 common fixed points" in capsys.readouterr().out


def test_oracle_radius_cap(diag, swap, capsys):
    assert main(["oracle", "--radius", "9", diag, swap]) == 2
    assert "radius" in capsys.readouterr().err


def test_eq(tmp_path, capsys):
    ident = _write(tmp_path, "id.hom", render_hom_text(identity_hom(A)))
    conj = _write(tmp_path, "conj.hom", render_hom_text(inner_hom(wa("a1"))))
    swapped = _write(tmp_path, "swap.hom", render_hom_text(permutation_hom(A, (2, 1))))

    assert main(["eq", "--radius", "3", ident, conj]) == 1
    out = capsys.readouterr().out
    assert "a1" in out
    assert "6 equalizer words" in out

    assert main(["eq", "--radius", "3", ident, swapped]) == 0
    assert "0 equalizer words" in capsys.readouterr().out


def test_mihailova(tmp_path, capsys):
    pres = _write(tmp_path, "torsion.pres", "x1 x2 | x1^2\n")
    assert main(["mihailova", pres, "x1"]) == 0
    out = capsys.readouterr().out
    assert "witness: (1, b1^2)" in out

    free = _write(tmp_path, "free.pres", "x1 x2 |\n")
    assert main(["mihailova", free, "x1", "--budget", "3"]) == 0
    assert "no witness within budget 3" in capsys.readouterr().out


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
