"""Workload inputs, built from a seed, and the operation each workload times.

Each workload holds operations of one cost class. Inputs are drawn so that
the make-up of a round (labels, sizes, flavours) is the same for every
seed and only the particular words change; a run repeats whole rounds.

A workload exposes `ops` (one round of zero-argument callables), `check`
(the independent checks of one output), `outcome` (the part of an output
that must repeat exactly from round to round), `final_check`,
`peak_rss_mb`, `traced_ops` and the sizes of its traced rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import fixfnm as F

import checks
from checks import Letters

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "scripts" / "data"
WORK = ROOT / "bench" / "work"

A = F.Alphabet(2, "a")
B = F.Alphabet(2, "b")
RELAB_AB = F.FreeHom(A, B, B.generators())
RELAB_BA = F.FreeHom(B, A, A.generators())

# sign-normalized primitive words: classify keeps such power bases verbatim
PRIMITIVES = ((1,), (2,), (1, 2), (1, -2), (1, 1, 2))
LABELS = tuple(f"{f}.{k}" for f in (1, 2) for k in range(1, 9))
TAGS = ("I", "II", "III.1", "III.2", "IV", "V", "VI", "VII")

CHECK_BALL_RADIUS = 3  # the benchmark's own ball for trivial verdicts
FOLD_POWER = 24  # fold instances share stretches c^24, |c| = 4


def random_letters(rng: random.Random, rank: int, length: int) -> Letters:
    out: list[int] = []
    while len(out) < length:
        x = rng.randint(1, rank) * rng.choice((1, -1))
        if not out or out[-1] != -x:
            out.append(x)
    return tuple(out)


def weight(w: Letters, weights) -> int:
    return sum(weights[abs(x) - 1] * (1 if x > 0 else -1) for x in w)


def pair_letters(g) -> tuple[Letters, Letters]:
    return g.first.letters, g.second.letters


# --- decision instances -------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """One decision problem and the label its generator aimed at."""

    phi: Any
    psi: Any
    label: str
    declarations: tuple = ()
    expected_trivial: bool | None = None  # hand-written, curated cases only

    def oracle(self):
        return F.FixOracle(self.declarations)


class _Shapes:
    """Random shape payloads whose free components the oracle can resolve."""

    def __init__(self, rng: random.Random, plain_phi: bool = False):
        self.rng = rng
        self.declared: dict[Any, Any] = {}
        # phi conjugates by single letters only, so its images, and with
        # them the cost of applying it, are the same for every draw
        self.plain_phi = plain_phi

    def nonzero(self) -> tuple[int, int]:
        while True:
            w = (self.rng.randint(-2, 2), self.rng.randint(-2, 2))
            if any(w):
                return w

    def hom(self, source, target, injective: bool = False):
        """Nontrivial images of length 1..3. `injective` asks for images
        that do not commute; they then generate a free group of rank 2."""
        while True:
            images = [random_letters(self.rng, 2, self.rng.randint(1, 3)) for _ in range(2)]
            commute = checks.reduce(images[0] + images[1]) == checks.reduce(images[1] + images[0])
            if not (injective and commute):
                return F.FreeHom(source, target, tuple(F.Word(target, w) for w in images))

    def component(self, alph, declared_ok: bool = True):
        kinds = ("identity", "inner", "permutation") + (("declared",) if declared_ok else ())
        kind = self.rng.choice(kinds)
        if kind == "identity":
            return F.identity_hom(alph)
        if kind == "inner":
            return F.inner_hom(F.Word(alph, random_letters(self.rng, 2, self.rng.randint(1, 2))))
        if kind == "permutation":
            return F.permutation_hom(alph, tuple(self.rng.sample((1, 2), 2)))
        return self.transvection(alph)

    def transvection(self, alph):
        """x_i -> x_i x_j^k, declared with its fixed subgroup <x_j, x_i x_j x_i^-1>."""
        i = self.rng.choice((1, 2))
        j = 3 - i
        k = self.rng.choice((1, -1, 2, -2))
        images = [F.Word(alph, (1,)), F.Word(alph, (2,))]
        images[i - 1] = F.Word(alph, (i,) + (j if k > 0 else -j,) * abs(k))
        h = F.FreeHom(alph, alph, tuple(images))
        if h not in self.declared:
            basis = (F.Word(alph, (j,)), F.Word(alph, (i, j, -i)))
            self.declared[h] = F.DeclaredEndo(h, basis, audit_radius=4)
        return h

    def swap(self, flavour: str):
        """Blocks of a shape VII map whose round trips the oracle recognizes."""
        if flavour == "inner":
            length = 1 if self.plain_phi else self.rng.randint(0, 2)
            za = F.Word(A, random_letters(self.rng, 2, length))
            zb = F.Word(B, random_letters(self.rng, 2, length))
            return RELAB_BA.then(F.inner_hom(za)), RELAB_AB.then(F.inner_hom(zb))
        pa = tuple(self.rng.sample((1, 2), 2))
        pb = tuple(self.rng.sample((1, 2), 2))
        return RELAB_BA.then(F.permutation_hom(A, pa)), RELAB_AB.then(F.permutation_hom(B, pb))

    def shape(self, tag: str):
        rng = self.rng
        u = F.Word(A, rng.choice(PRIMITIVES))
        v = F.Word(B, rng.choice(PRIMITIVES))
        if tag == "I":
            return F.TypeI(u, v, self.nonzero(), self.nonzero(), self.nonzero(), self.nonzero())
        if tag == "II":
            return F.TypeII(self.hom(B, A), v, self.nonzero(), self.nonzero())
        if tag in ("III.1", "III.2"):
            while True:
                p = (rng.randint(-3, 3), rng.randint(-3, 3))
                if any(p) and (weight(u.letters, p) == 1) == (tag == "III.2"):
                    break
            return F.TypeIII(u, p, self.nonzero(), self.component(B))
        if tag == "IV":
            # an injective theta keeps branch 1.5 off its bounded kernel search
            return F.TypeIV(self.hom(B, A, injective=True), self.component(B))
        if tag == "V":
            return F.TypeV(v, self.nonzero(), self.nonzero(), 2)
        if tag == "VI":
            return F.TypeVI(self.component(A), self.component(B))
        return F.TypeVII(*self.swap(rng.choice(("inner", "permutation"))))

    def flavour(self) -> str:
        return "inner" if self.plain_phi else self.rng.choice(("inner", "permutation"))

    def pair(self, label: str):
        family, index = label.split(".")
        if label == "2.5":
            # theta.then(to_second) must be recognized, so theta relabels and
            # twists in the same flavour as the swap; random shapes reach 2.5
            # about twice in 3000 draws
            flavour = self.flavour()
            phi = F.TypeVII(*self.swap(flavour))
            theta, _ = self.swap(flavour)
            psi = F.TypeIV(theta, self.component(B, declared_ok=False))
            return phi.as_endo(), psi.as_endo()
        if family == "2":
            phi = F.TypeVII(*self.swap(self.flavour()))
        elif self.plain_phi:
            phi = F.TypeVI(*(F.inner_hom(F.Word(x, random_letters(self.rng, 2, 1))) for x in (A, B)))
        else:
            phi = F.TypeVI(self.component(A), self.component(B))
        return phi.as_endo(), self.shape(TAGS[int(index) - 1]).as_endo()

    def declarations_for(self, *endos) -> tuple:
        homs = [h for e in endos for h in (e.first_from_first, e.second_from_second)]
        return tuple(self.declared[h] for h in dict.fromkeys(homs) if h in self.declared)


def random_instances(seed: int, per_label: int, stream: str, plain_phi: bool = False) -> list[Instance]:
    """`per_label` distinct instances aimed at each of the 16 labels.

    Instances on which `decide` raises MissingOracle are out of scope and
    are dropped here.
    """
    rng = random.Random(f"fixfnm-bench:{stream}:{seed}")
    shapes = _Shapes(rng, plain_phi)
    out: list[Instance] = []
    seen: set = set()
    for label in LABELS:
        made = 0
        for _ in range(400 * max(per_label, 1)):
            if made == per_label:
                break
            phi, psi = shapes.pair(label)
            if (phi, psi) in seen:
                continue
            seen.add((phi, psi))
            inst = Instance(phi, psi, label, shapes.declarations_for(phi, psi))
            try:
                F.decide(phi, psi, inst.oracle())
            except F.MissingOracle:
                continue
            out.append(inst)
            made += 1
        if made < per_label:
            raise RuntimeError(f"built only {made} instances for label {label}")
    return out


def curated_instances() -> list[Instance]:
    return [
        Instance(c.phi, c.psi, c.label, tuple(c.declarations), c.expected_trivial)
        for c in F.curated_cases()
    ]


def check_decision(inst: Instance, verdict) -> list[str]:
    witness = None if verdict.witness is None else pair_letters(verdict.witness)
    problems = checks.check_verdict(
        checks.blocks_of(inst.phi),
        checks.blocks_of(inst.psi),
        verdict.trivial,
        witness,
        verdict.trace,
        expected_label=inst.label,
        expected_trivial=inst.expected_trivial,
        ball_radius=CHECK_BALL_RADIUS,
    )
    return [f"{inst.label} {p}" for p in problems]


# --- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    tail_pct = 90.0
    trace_rounds = 1  # rounds of a traced run
    probe_size: dict[str, int] = {}  # inputs of the probe round in other workloads' traced runs
    probe_ops: int | None = None  # how many of its traced ops the probe round runs; None: all
    # per-layer metrics (names or dotted prefixes) of layers this workload
    # does not exercise, read from the probe round instead of its own spans
    probe_layers: tuple[str, ...] = ()
    ops: list[Callable[[], Any]]

    def traced_ops(self) -> list[Callable[[], Any]]:
        return self.ops

    def warm_up(self) -> None:
        self.ops[0]()

    def check(self, i: int, out: Any) -> list[str]:
        raise NotImplementedError

    def outcome(self, out: Any) -> Any:
        return out

    def final_check(self) -> list[str]:
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass


class DecideMix(Workload):
    """`decide` on the curated cases plus `per_label` random pairs per label."""

    name = "decide-mix"
    tail_pct = 99.0
    trace_rounds = 2
    probe_size = {"per_label": 0}  # the curated cases
    probe_layers = ("fixpoints.declared", "product.parse", "oracle", "cli.main_ms")

    def __init__(self, seed: int, per_label: int = 100):
        self.instances = curated_instances() + random_instances(seed, per_label, "decide")
        self.ops = [self._op(inst) for inst in self.instances]
        self.labels_seen: set[str] = set()

    @staticmethod
    def _op(inst: Instance):
        return lambda: F.decide(inst.phi, inst.psi, inst.oracle())

    def warm_up(self) -> None:
        for op in self.ops[:50]:
            op()

    def check(self, i, verdict):
        if verdict.trace:
            self.labels_seen.add(verdict.trace[0])
        return check_decision(self.instances[i], verdict)

    def final_check(self):
        missing = sorted(set(LABELS) - self.labels_seen)
        return [f"labels never reached: {missing}"] if missing else []


@dataclass(frozen=True)
class FoldInstance:
    first: tuple[Letters, ...]  # generators of H
    second: tuple[Letters, ...]  # generators of K
    member_first: Letters  # planted in H
    member_second: Letters  # planted in K
    outsider: Letters  # odd length, so outside H


def fold_instance(rng: random.Random, power: int) -> FoldInstance:
    """H = <c^n s, c^(n+1) t> and K = <c^n s, c^(n+2) u> for a random
    cyclically reduced c of length 4 and two-letter tails.

    The tails are drawn so that folding merges exactly the shared stretch
    c^n and nothing else: every instance folds 4n edge pairs per subgroup
    and keeps rank 2, whatever the seed. H and K share the generator c^n s,
    so their intersection is nontrivial. Every generator has even length,
    so words of odd length lie outside both.
    """
    while True:
        c = random_letters(rng, 2, 4)
        if c[0] != -c[-1] and c[:2] != c[2:]:  # cyclically reduced, not a square
            break

    def tail(avoid_last: set[int]) -> Letters:
        # leaves the branch point on a new letter and reaches the base on
        # a letter no other loop uses there
        while True:
            t = random_letters(rng, 2, 2)
            if t[0] not in (c[0], -c[-1]) and -t[-1] != c[0] and t[-1] not in avoid_last:
                return t

    shared = c * power + tail(set())

    def after(extra: int) -> Letters:
        return c * (power + extra) + tail({shared[-1]})

    def planted(gens) -> Letters:
        # g^-1 h would cancel the shared c^n; these sign patterns never do,
        # so every planted word is the full product, 298 to 310 letters
        signs = rng.choice(((1, 1, 1), (1, 1, -1), (1, -1, -1), (-1, -1, -1)))
        first = rng.choice((1, 2))
        return checks.replay(gens, [s * i for s, i in zip(signs, (first, 3 - first, first))])

    first = (shared, after(1))
    second = (shared, after(2))
    member = planted(first)
    outsider = checks.reduce(member + (rng.choice((1, -1, 2, -2)),))
    return FoldInstance(first, second, member, planted(second), outsider)


class SubgroupFold(Workload):
    """Fold two subgroups, intersect them, and express planted words."""

    name = "subgroup-fold"
    tail_pct = 97.0
    trace_rounds = 2
    probe_size = {"count": 1}
    probe_layers = ("decision", "fixpoints", "product", "homs", "words.root", "words.enumerate_ball",
                    "lattices", "oracle", "cli.main_ms")

    def __init__(self, seed: int, count: int = 8):
        rng = random.Random(f"fixfnm-bench:fold:{seed}")
        self.instances = [fold_instance(rng, FOLD_POWER) for _ in range(count)]
        self.ops = [self._op(inst) for inst in self.instances]

    @staticmethod
    def _op(inst: FoldInstance):
        h = [F.Word(A, g) for g in inst.first]
        k = [F.Word(A, g) for g in inst.second]
        member_h = F.Word(A, inst.member_first)
        member_k = F.Word(A, inst.member_second)
        outsider = F.Word(A, inst.outsider)

        def op():
            gh = F.from_generators(h, A)
            gk = F.from_generators(k, A)
            meet = gh.intersect(gk)
            return (
                gh,
                gk,
                meet,
                meet.basis(),
                F.express_in_generators(h, member_h),
                F.express_in_generators(k, member_k),
                F.express_in_generators(h, outsider),
            )

        return op

    def check(self, i, out):
        inst = self.instances[i]
        gh, gk, meet, basis, e_h, e_k, e_out = out
        problems = []
        # two non-commuting words freely generate a subgroup of rank 2
        for name, graph in (("H", gh), ("K", gk)):
            if graph.rank != 2:
                problems.append(f"{name} folded to rank {graph.rank}, want 2")
        if meet.rank != len(basis):
            problems.append(f"intersection of rank {meet.rank} has {len(basis)} basis words")
        if not basis:
            problems.append("H and K share a generator, yet their intersection is trivial")
        problems += checks.check_expression(inst.first, inst.member_first, e_h, member=True)
        problems += checks.check_expression(inst.second, inst.member_second, e_k, member=True)
        problems += checks.check_expression(inst.first, inst.outsider, e_out, member=False)
        if not checks.odd_parity(inst.outsider):
            problems.append("outsider has even length")
        # every basis word of the intersection lies in both subgroups
        for b in basis:
            for gens in (inst.first, inst.second):
                e = F.express_in_generators([F.Word(A, g) for g in gens], b)
                problems += checks.check_expression(gens, b.letters, e, member=True)
        return [f"instance {i}: {p}" for p in problems]


class CrosscheckBall(Workload):
    """`decide` plus `common_fixed_points` at one radius, one pair per label."""

    name = "crosscheck-ball"
    tail_pct = 96.0
    radius = 5
    probe_ops = 1
    probe_layers = ("fixpoints.declared", "product.parse", "cli.main_ms")

    def __init__(self, seed: int):
        self.instances = random_instances(seed, 1, "ball", plain_phi=True)
        self.ops = [self._op(inst, self.radius) for inst in self.instances]

    @staticmethod
    def _op(inst: Instance, radius: int):
        def op():
            verdict = F.decide(inst.phi, inst.psi, inst.oracle())
            return verdict, F.common_fixed_points(inst.phi, inst.psi, F.BallSpec(radius))

        return op

    def check(self, i, out):
        inst = self.instances[i]
        verdict, hits = out
        phi, psi = checks.blocks_of(inst.phi), checks.blocks_of(inst.psi)
        got = [pair_letters(g) for g in hits]
        problems = check_decision(inst, verdict)
        problems += checks.check_ball_hits(phi, psi, got, verdict.trivial, self.radius)
        want = checks.common_fixed(phi, psi, self.radius)
        if sorted(got) != sorted(want):
            problems.append(f"ball found {len(got)} common fixed points, the benchmark finds {len(want)}")
        return [f"pair {i}: {p}" for p in problems]


@dataclass(frozen=True)
class CliCase:
    argv: tuple[str, ...]
    phi: Any
    psi: Any
    label: str
    trivial: bool


# (phi file, psi file, declare the transvection?, label, trivial), worked by hand
SAMPLE_CASES = (
    ("diag", "swap", False, "1.8", False),
    ("diag", "powerpair", False, "1.1", True),
    ("swap", "diag", False, "2.7", False),
    ("swap", "powerpair", False, "2.1", True),
    ("transvect", "swap", True, "1.8", False),
    ("transvect", "diag", True, "1.7", False),
)


class CliIntersect(Workload):
    """Sequential `python -m fixfnm intersect ... --json` processes."""

    name = "cli-intersect"
    tail_pct = 93.0
    probe_size = {"generated": 0}  # the sample pairs
    # which labels the generated pairs reach depends on the seed
    probe_layers = ("decision.label", "words.enumerate_ball", "oracle")

    def __init__(self, seed: int, generated: int = 8):
        WORK.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=WORK))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.child_rss_kb: list[int] = []
        self.cases: list[CliCase] = []
        self.answers: list[tuple[Instance, Any]] = []  # checked after the timed phase
        for phi_name, psi_name, declare, label, trivial in SAMPLE_CASES:
            phi_path, psi_path = DATA / f"{phi_name}.endo", DATA / f"{psi_name}.endo"
            argv = ["intersect", str(phi_path), str(psi_path), "--json"]
            if declare:
                argv += ["--declare", str(DATA / "retract.hom"), str(DATA / "retract.basis")]
            phi = F.parse_endo_text(phi_path.read_text())
            psi = F.parse_endo_text(psi_path.read_text())
            self.cases.append(CliCase(tuple(argv), phi, psi, label, trivial))
        pool = random_instances(seed, 1, "cli")
        random.Random(f"fixfnm-bench:cli-pick:{seed}").shuffle(pool)
        for n, inst in enumerate(pool[:generated]):
            verdict = F.decide(inst.phi, inst.psi, inst.oracle())
            self.answers.append((inst, verdict))
            argv = ["intersect", self._write(f"{n}-phi.endo", F.render_endo_text(inst.phi)),
                    self._write(f"{n}-psi.endo", F.render_endo_text(inst.psi)), "--json"]
            for d, decl in enumerate(inst.declarations):
                basis = "".join(F.render_word(w) + "\n" for w in decl.fix_basis)
                argv += ["--declare", self._write(f"{n}-{d}.hom", F.render_hom_text(decl.endo)),
                         self._write(f"{n}-{d}.basis", basis)]
            self.cases.append(CliCase(tuple(argv), inst.phi, inst.psi, inst.label, verdict.trivial))
        self.ops = [self._op(case) for case in self.cases]

    def _write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text)
        return str(path)

    def _op(self, case: CliCase):
        def op():
            proc = subprocess.Popen(
                [sys.executable, "-m", "fixfnm", *case.argv],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            with proc:
                out, err = proc.stdout.read(), proc.stderr.read()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_kb.append(usage.ru_maxrss)
            return proc.returncode, out, err

        return op

    def traced_ops(self) -> list[Callable[[], Any]]:
        """The same commands through `fixfnm.cli.main`, in this process:
        a spawned process cannot be traced."""
        import fixfnm.cli

        def op(case: CliCase):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = fixfnm.cli.main(list(case.argv))
            return code, out.getvalue(), err.getvalue()

        return [lambda case=case: op(case) for case in self.cases]

    def warm_up(self) -> None:
        self.ops[0]()
        self.child_rss_kb.clear()

    def outcome(self, out):
        code, stdout, _ = out
        try:
            payload = json.loads(stdout)
        except ValueError:
            return code, stdout
        payload.pop("timings", None)
        return code, payload

    def check(self, i, out):
        case = self.cases[i]
        code, stdout, stderr = out
        problems = checks.check_cli(
            code, stdout, case.trivial, case.label, checks.blocks_of(case.phi), checks.blocks_of(case.psi)
        )
        if problems and stderr:
            problems.append(f"stderr: {stderr.strip()[-200:]}")
        return [f"{' '.join(Path(a).name for a in case.argv[1:3])}: {p}" for p in problems]

    def final_check(self):
        """The known answers themselves: the hand-worked trivial sample
        pairs on the benchmark's own ball, the generated ones as decisions."""
        problems = []
        for case in self.cases[: len(SAMPLE_CASES)]:
            if case.trivial:
                problems += checks.check_verdict(
                    checks.blocks_of(case.phi), checks.blocks_of(case.psi), True, None, [case.label],
                    ball_radius=CHECK_BALL_RADIUS,
                )
        for inst, verdict in self.answers:
            problems += check_decision(inst, verdict)
        return problems

    def peak_rss_mb(self) -> float:
        return max(self.child_rss_kb) / 1024

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


WORKLOADS = {w.name: w for w in (DecideMix, SubgroupFold, CrosscheckBall, CliIntersect)}
