"""End-to-end CLI behavior through in-process main() calls."""

import json
import time
from pathlib import Path

import pytest

from fixfnm import (
    Alphabet,
    CertificateError,
    FreeHom,
    TypeI,
    TypeIV,
    TypeVI,
    TypeVII,
    Word,
    identity_hom,
    inner_hom,
    permutation_hom,
    render_endo_text,
    render_hom_text,
)
from fixfnm.words import MAX_FILE_LETTERS
from fixfnm.cli import main
from conftest import A, B, RELAB_AB, RELAB_BA, wa, wb

DATA = Path(__file__).resolve().parent.parent / "scripts" / "data"


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
    # shape I with a zero exponent lattice: the identity alone is fixed
    assert main(["fix", str(DATA / "powerpair.endo")]) == 0
    assert capsys.readouterr().out.splitlines() == ["shape: I", "trivial", "trivial: yes"]


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


def test_declaration_errors_name_line_and_column(tmp_path, capsys):
    # columns count from the start of the raw line, in both declaration files
    endo = str(DATA / "diag.endo")
    big = _write(tmp_path, "big.hom", "hom 2 2 a a\na1 -> a2 a1^999999\na2 -> a2\n")
    basis = _write(tmp_path, "a1.basis", "a1\n")
    assert main(["fix", endo, "--declare", big, basis]) == 2
    assert "more than 100000 letters (line 2, column 10)" in capsys.readouterr().err
    hom = str(DATA / "retract.hom")
    bad = _write(tmp_path, "bad.basis", "# basis\n   a1 zz\n")
    assert main(["fix", endo, "--declare", hom, bad]) == 2
    assert "bad token 'zz' (line 2, column 7)" in capsys.readouterr().err


def test_declared_basis_files_are_capped_in_total_letters(tmp_path, capsys):
    endo = str(DATA / "diag.endo")
    hom = str(DATA / "retract.hom")
    half = MAX_FILE_LETTERS // 2
    basis = _write(tmp_path, "long.basis", f"a1^{half}\n\na1^{half}\na1\n")
    assert main(["fix", endo, "--declare", hom, basis]) == 2
    assert f"file expands to more than {MAX_FILE_LETTERS} letters (line 4, column 1)" in (
        capsys.readouterr().err
    )


def test_presentation_files_are_capped_in_total_letters(tmp_path, capsys):
    # each relator is under the word cap; the third takes the file past its cap
    pres = _write(tmp_path, "long.pres", "x1 x2 |\nx1^100000,\nx1^100000,\n  x1^100000\n")
    assert main(["mihailova", pres, "x1", "--budget", "1"]) == 2
    assert f"file expands to more than {MAX_FILE_LETTERS} letters (line 4, column 3)" in (
        capsys.readouterr().err
    )


def test_brute_force_balls_are_capped_in_size(tmp_path, diag, swap, capsys):
    # the --declare audit of an identity of rank 20 would walk 2.4M words
    rank = 20
    gens = [f"a{i}" for i in range(1, rank + 1)]
    lines = [f"hom {rank} {rank} a a"] + [f"{g} -> {g}" for g in gens]
    hom = _write(tmp_path, "id20.hom", "\n".join(lines) + "\n")
    basis = _write(tmp_path, "id20.basis", "\n".join(gens) + "\n")
    started = time.perf_counter()
    assert main(["fix", str(DATA / "diag.endo"), "--declare", hom, basis]) == 2
    assert time.perf_counter() - started < 1.0
    assert "ball of radius 4 holds 2435201 elements, more than 1000000" in capsys.readouterr().err
    # rank 3 at radius 8: 5,917,969 pairs; rank 2 at radius 8 (139,969 pairs) still runs
    e3 = TypeVI(identity_hom(Alphabet(3, "a")), identity_hom(Alphabet(3, "b"))).as_endo()
    rank3 = _write(tmp_path, "id3.endo", render_endo_text(e3))
    assert main(["oracle", "--radius", "8", rank3, rank3]) == 2
    assert "product ball of radius 8" in capsys.readouterr().err
    assert main(["oracle", "--radius", "8", diag, swap]) == 1
    assert "common fixed points with |x| + |y| <= 8" in capsys.readouterr().out


def test_presentation_errors_name_line_and_column(tmp_path, capsys):
    pres = _write(tmp_path, "bad.pres", "x1 x2 |\n  x1^2, x2 q\n")
    assert main(["mihailova", pres, "x1"]) == 2
    assert "bad token 'q' (line 2, column 12)" in capsys.readouterr().err


def test_huge_header_ranks_fail_fast(tmp_path, capsys):
    # the missing-image error names a few generators and counts the rest
    endo = _write(tmp_path, "big.endo", "endo 1000000000 2\na1 -> ( a1 , 1 )\n")
    hom = _write(tmp_path, "big.hom", "hom 1000000000 2 a a\na1 -> a1\n")
    cases = [
        (["classify", endo], "a2, a3, a4, a5, a6 and 999999996 more"),  # b1, b2 as well
        (["eq", hom, hom], "a2, a3, a4, a5, a6 and 999999994 more"),
    ]
    for args, named in cases:
        started = time.perf_counter()
        assert main(args) == 2
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert len(err.encode()) < 1024
        assert f"missing image for {named}" in err


def _rank_file(tmp_path, name, rank, first_images):
    """`endo rank rank` with the given first-coordinate images, else the diagonal's."""
    lines = [f"endo {rank} {rank}"]
    for letter in "ab":
        for i in range(1, rank + 1):
            first, second = first_images.get(f"{letter}{i}", ("1", "1"))
            lines.append(f"{letter}{i} -> ( {first} , {second} )")
    return _write(tmp_path, name, "\n".join(lines) + "\n")


def test_high_rank_files_take_linear_work(tmp_path, capsys):
    # validation roots each image once instead of multiplying all n * m pairs
    n = 3000
    trivial = _rank_file(tmp_path, "trivial.endo", n, {})
    identity = {f"a{i}": (f"a{i}", "1") for i in range(1, n + 1)}
    identity.update({f"b{j}": ("1", f"b{j}") for j in range(1, n + 1)})
    diagonal = _rank_file(tmp_path, "diagonal.endo", n, identity)
    clash = _rank_file(tmp_path, "clash.endo", n, {f"a{n}": ("a1", "1"), f"b{n}": ("a2", "1")})
    cases = [
        (trivial, (0, 0, 0), "VI", "trivial: yes", "TRIVIAL"),
        (diagonal, (0, 0, 1), "VI", "trivial: no", "NONTRIVIAL (a1, 1)"),
    ]
    for path, codes, label, fixed, verdict in cases:
        for args, code, expected in zip(
            (["classify", path], ["fix", path], ["intersect", path, path]),
            codes,
            (label, fixed, verdict),
        ):
            started = time.perf_counter()
            assert main(args) == code
            assert time.perf_counter() - started < 10.0, args[0]
            assert expected in capsys.readouterr().out
    for args in (["classify", clash], ["fix", clash], ["intersect", trivial, clash]):
        started = time.perf_counter()
        assert main(args) == 2
        assert time.perf_counter() - started < 10.0, args[0]
        err = capsys.readouterr().err
        assert f"images of a{n} and b{n} have non-commuting first components" in err


def test_shape_iii_drag_file_takes_bounded_work(tmp_path, capsys):
    # K, the identity's Fix cut down to N - 1 | w(y), has index N - 1 and a
    # basis of about N words of total length of order N^2; branch 1.3 spells
    # only the first word, and `fix` prints the formula, not that basis
    n = 20000
    drag = _write(
        tmp_path,
        "drag.endo",
        f"endo 2 2\na1 -> ( a1^{n} , 1 )\na2 -> ( 1 , 1 )\nb1 -> ( a1 , b1 )\nb2 -> ( 1 , b2 )\n",
    )
    diagonal = TypeVI(identity_hom(A), identity_hom(B)).as_endo()
    identity = _write(tmp_path, "identity.endo", render_endo_text(diagonal))
    started = time.perf_counter()
    assert main(["intersect", identity, drag]) == 1
    assert time.perf_counter() - started < 10.0
    out = capsys.readouterr().out
    assert out.startswith("NONTRIVIAL (1, b2)") and "trace: 1.3" in out
    started = time.perf_counter()
    assert main(["fix", drag]) == 0
    assert time.perf_counter() - started < 10.0
    assert f"with {1 - n} | w(y)" in capsys.readouterr().out


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


def test_intersect_internal_fault_exits_4(diag, swap, capsys, monkeypatch):
    def failing_decide(*args):
        raise CertificateError("witness (a1^-1, b1) is not fixed by the second endomorphism")

    monkeypatch.setattr("fixfnm.cli.decide", failing_decide)
    assert main(["intersect", diag, swap]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: witness (a1^-1, b1)")
    assert "Traceback" not in captured.err


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


def test_mihailova_search_cap(capsys):
    # budget 8 over three generators spans 585,936 products; the cap stops at 50,000
    started = time.perf_counter()
    assert main(["mihailova", str(DATA / "torsion.pres"), "x2", "--budget", "8"]) == 0
    assert time.perf_counter() - started < 15.0
    out = capsys.readouterr().out
    assert "no witness among the first 50000 products" in out
    assert "search cap stopped short of budget 8" in out


def test_huge_exponent_exits_2(capsys):
    assert main(["mihailova", str(DATA / "free.pres"), "x2 x1^99999999999"]) == 2
    captured = capsys.readouterr()
    assert "more than 100000 letters (column 4)" in captured.err


@pytest.mark.parametrize("budget", ["99", "-1"])
def test_mihailova_budget_cap(tmp_path, capsys, budget):
    free = _write(tmp_path, "free.pres", "x1 x2 |\n")
    assert main(["mihailova", free, "x1", "--budget", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"got {budget}" in captured.err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
