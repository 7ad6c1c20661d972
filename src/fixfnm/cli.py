"""Command-line front end.

Exit codes: 0 for a trivial intersection (or a plain report), 1 when a
nontrivial intersection or a brute-force hit was found, 2 for usage and
parse errors, 3 when the instance is out of scope (unsupported first shape,
unclassifiable endomorphism, or an oracle gap), 4 when an answer failed its
own exact check (a fault in fixfnm, reported as "internal error").
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from .decision import UnsupportedShape, decide
from .fixpoints import AUDIT_RADIUS, DeclaredEndo, FixOracle, MissingOracle, fix_product
from .homs import _content_lines, parse_hom_text
from .oracle import BallSpec, bounded_equalizer, common_fixed_points
from .product import UnclassifiableEndo, classify, identity_endo, parse_endo_text
from .words import CertificateError, LetterTally, ParseError, parse_word, render_word


def _add_declare(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--declare",
        nargs=2,
        action="append",
        default=[],
        metavar=("HOM_FILE", "BASIS_FILE"),
        help="declare the fixed subgroup of a component endomorphism: a hom "
        "file and a file with one basis word per line (repeatable); every "
        f"fixed word of length <= {AUDIT_RADIUS} must lie in the declared subgroup",
    )


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fixfnm",
        description="fixed subgroups of endomorphisms of a product of two "
        "free groups: classify, describe, and decide intersections",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="report the shape (I..VII) of an endomorphism")
    c.add_argument("endo", type=Path, help="endo file")
    c.set_defaults(handler=_cmd_classify)

    f = sub.add_parser("fix", help="describe the fixed subgroup of an endomorphism")
    f.add_argument("endo", type=Path, help="endo file")
    _add_declare(f)
    f.set_defaults(handler=_cmd_fix)

    i = sub.add_parser(
        "intersect",
        help="decide whether the fixed subgroups of two endomorphisms meet "
        "nontrivially (the first must have shape VI or VII)",
    )
    i.add_argument("phi", type=Path, help="endo file, shape VI or VII")
    i.add_argument("psi", type=Path, help="endo file, any shape")
    _add_declare(i)
    i.add_argument("--json", action="store_true", help="machine-readable output")
    i.set_defaults(handler=_cmd_intersect)

    o = sub.add_parser(
        "oracle", help="brute-force common fixed points over a bounded ball"
    )
    o.add_argument("phi", type=Path, help="endo file")
    o.add_argument("psi", type=Path, help="endo file")
    o.add_argument("--radius", type=int, default=4, help="|x| + |y| bound, 0..8 (default 4)")
    o.set_defaults(handler=_cmd_oracle)

    e = sub.add_parser(
        "eq", help="brute-force the equalizer of two free-group maps over a ball"
    )
    e.add_argument("f", type=Path, help="hom file")
    e.add_argument("g", type=Path, help="hom file")
    e.add_argument("--radius", type=int, default=4, help="word length bound, 0..8 (default 4)")
    e.set_defaults(handler=_cmd_eq)

    m = sub.add_parser(
        "mihailova",
        help="embed a presented word problem as a fixed-subgroup instance",
    )
    m.add_argument("presentation", type=Path, help="presentation file: x1 x2 | r1, r2")
    m.add_argument("word", help="query word over the presentation generators")
    m.add_argument(
        "--budget",
        type=int,
        default=6,
        help="bounded-search budget in subgroup generators, 0..8 (default 6)",
    )
    m.set_defaults(handler=_cmd_mihailova)
    return p


def _load_declarations(pairs: list[list[str]]) -> tuple[DeclaredEndo, ...]:
    out = []
    for hom_file, basis_file in pairs:
        h = parse_hom_text(Path(hom_file).read_text())
        tally = LetterTally()  # a basis file, like the others, holds at most MAX_FILE_LETTERS
        basis = [
            parse_word(line, h.source, line=lineno, tally=tally)
            for lineno, line in _content_lines(Path(basis_file).read_text())
        ]
        out.append(DeclaredEndo(h, tuple(basis), audit_radius=AUDIT_RADIUS))
    return tuple(out)


def _cmd_classify(args: argparse.Namespace) -> int:
    shape = classify(parse_endo_text(args.endo.read_text()))
    print(shape.label)
    return 0


def _cmd_fix(args: argparse.Namespace) -> int:
    endo = parse_endo_text(args.endo.read_text())
    oracle = FixOracle(_load_declarations(args.declare))
    shape = classify(endo)
    description = fix_product(endo, shape).describe(oracle)
    print(f"shape: {shape.label}")
    print(description)
    # Fix(endo) is trivial iff it meets Fix(identity) = everything trivially
    n, m = endo.first_alphabet.rank, endo.second_alphabet.rank
    verdict = decide(identity_endo(n, m), endo, oracle)
    print("trivial:", "yes" if verdict.trivial else "no")
    return 0


def _cmd_intersect(args: argparse.Namespace) -> int:
    phi = parse_endo_text(args.phi.read_text())
    psi = parse_endo_text(args.psi.read_text())
    oracle = FixOracle(_load_declarations(args.declare))
    started = time.perf_counter()
    verdict = decide(phi, psi, oracle)
    elapsed = time.perf_counter() - started
    if args.json:
        payload = {
            "verdict": "trivial" if verdict.trivial else "nontrivial",
            "witness": None if verdict.witness is None else str(verdict.witness),
            "trace": list(verdict.trace),
            "timings": {"decide_seconds": elapsed},
        }
        print(json.dumps(payload))
    else:
        print("TRIVIAL" if verdict.trivial else f"NONTRIVIAL {verdict.witness}")
        print("trace: " + " -> ".join(verdict.trace))
    return 0 if verdict.trivial else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    phi = parse_endo_text(args.phi.read_text())
    psi = parse_endo_text(args.psi.read_text())
    hits = common_fixed_points(phi, psi, BallSpec(args.radius))
    for g in hits:
        print(g)
    print(f"{len(hits)} common fixed points with |x| + |y| <= {args.radius}")
    return 1 if hits else 0


def _cmd_eq(args: argparse.Namespace) -> int:
    f = parse_hom_text(args.f.read_text())
    g = parse_hom_text(args.g.read_text())
    hits = bounded_equalizer(f, g, BallSpec(args.radius))
    for w in hits:
        print(render_word(w))
    print(f"{len(hits)} equalizer words of length <= {args.radius}")
    return 1 if hits else 0


def _cmd_mihailova(args: argparse.Namespace) -> int:
    # imported here: no other command needs suite, and they start faster without it
    from .suite import SEARCH_CAP, mihailova_instance, parse_presentation_text

    budget = BallSpec(args.budget).radius
    pres = parse_presentation_text(args.presentation.read_text())
    query = parse_word(args.word, pres.alphabet)
    instance = mihailova_instance(pres, query)
    print(f"presentation: {pres}")
    print(
        f"query: {render_word(query)} = core^{instance.power} with core "
        f"{render_word(instance.core)}"
    )
    print(f"fixed subgroup: {fix_product(instance.endo).describe(FixOracle())}")
    print("subgroup generators:")
    for g in instance.subgroup_generators:
        print(f"  {g}")
    witness = instance.search_witness(budget)
    if witness is not None:
        print(f"witness: {witness} (a power of the query dies in the presented group)")
    elif instance.search_is_capped(budget):
        print(
            f"no witness among the first {SEARCH_CAP} products; the search cap "
            f"stopped short of budget {budget} (proves nothing)"
        )
    else:
        print(f"no witness within budget {budget} (proves nothing)")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (UnsupportedShape, MissingOracle, UnclassifiableEndo) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
