"""Folded subgroup graphs for finitely generated subgroups of free groups.

The canonical form is a deterministic edge-labeled based graph: vertex 0 is
the basepoint, `transitions[v][l-1]` is the endpoint of the l-labeled edge
leaving v (or -1). Graphs are folded, trimmed of dangling trees, and
renumbered breadth-first, so two subgroups are equal iff their graphs
compare equal.

Construction goes through a mutable multigraph that wedges one loop per
generator and folds. Folding can record its history, which lets us lift a
path in the folded graph back to the original wedge and thereby express a
member word as an explicit product of the generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .homs import FreeHom
from .words import Alphabet, Word, render_word, weighted_sum, word

_FWD, _BACK = 1, -1


class CertificateError(RuntimeError):
    """An answer failed its own exact check: a fault in this library.

    Raised by plain checks rather than asserts, so it also fires under
    ``python -O``.
    """


@dataclass
class _FoldStep:
    """Snapshot taken just before one elementary fold."""

    edges: dict[int, tuple[int, int, int]]
    kept: int
    gone: int
    survivor: int
    loser: int


class _Builder:
    """Mutable edge-labeled multigraph over a fixed alphabet; base vertex 0."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.base = 0
        self._next_vertex = 1
        self._next_edge = 0
        self.edges: dict[int, tuple[int, int, int]] = {}

    def new_vertex(self) -> int:
        v = self._next_vertex
        self._next_vertex += 1
        return v

    def add_edge(self, tail: int, label: int, head: int) -> int:
        eid = self._next_edge
        self._next_edge += 1
        self.edges[eid] = (tail, label, head)
        return eid

    def add_loop(self, w: Word) -> list[tuple[int, int]]:
        """Attach a base loop spelling w; returns its steps as (edge, dir)."""
        steps: list[tuple[int, int]] = []
        cur = self.base
        last = len(w.letters) - 1
        for i, x in enumerate(w.letters):
            nxt = self.base if i == last else self.new_vertex()
            if x > 0:
                steps.append((self.add_edge(cur, x, nxt), _FWD))
            else:
                steps.append((self.add_edge(nxt, -x, cur), _BACK))
            cur = nxt
        return steps

    def _find_clash(self) -> tuple[int, int, int, int] | None:
        """Two equal-label edges sharing a tail or a head, if any.

        Returns (kept, gone, survivor, loser): deleting `gone` and merging
        `loser` into `survivor` performs one elementary fold.
        """
        by_tail: dict[tuple[int, int], int] = {}
        by_head: dict[tuple[int, int], int] = {}
        for eid in sorted(self.edges):
            t, l, h = self.edges[eid]
            prior = by_tail.get((t, l))
            if prior is not None:
                return prior, eid, self.edges[prior][2], h
            by_tail[(t, l)] = eid
            prior = by_head.get((h, l))
            if prior is not None:
                return prior, eid, self.edges[prior][0], t
            by_head[(h, l)] = eid
        return None

    def fold(self, keep_history: bool = False) -> list[_FoldStep]:
        history: list[_FoldStep] = []
        while True:
            clash = self._find_clash()
            if clash is None:
                return history
            kept, gone, survivor, loser = clash
            if loser == self.base:
                survivor, loser = loser, survivor
            if keep_history:
                history.append(_FoldStep(dict(self.edges), kept, gone, survivor, loser))
            del self.edges[gone]
            if survivor != loser:
                for eid, (t, l, h) in list(self.edges.items()):
                    nt = survivor if t == loser else t
                    nh = survivor if h == loser else h
                    if (nt, nh) != (t, h):
                        self.edges[eid] = (nt, l, nh)

    def trim(self) -> None:
        """Drop non-base vertices of total degree <= 1, repeatedly."""
        while True:
            deg: dict[int, int] = {}
            for t, _, h in self.edges.values():
                deg[t] = deg.get(t, 0) + 1
                deg[h] = deg.get(h, 0) + 1
            victims = {v for v, d in deg.items() if d <= 1 and v != self.base}
            if not victims:
                return
            self.edges = {
                e: tlh
                for e, tlh in self.edges.items()
                if tlh[0] not in victims and tlh[2] not in victims
            }

    def canonical(self) -> "SubgroupGraph":
        self.fold()
        self.trim()
        out: dict[tuple[int, int], int] = {}
        inc: dict[tuple[int, int], int] = {}
        for t, l, h in self.edges.values():
            out[(t, l)] = h
            inc[(h, l)] = t
        rank = self.alphabet.rank
        seq = [self.base]
        number = {self.base: 0}
        i = 0
        while i < len(seq):
            v = seq[i]
            i += 1
            for l in range(1, rank + 1):
                h = out.get((v, l))
                if h is not None and h not in number:
                    number[h] = len(seq)
                    seq.append(h)
            for l in range(1, rank + 1):
                t = inc.get((v, l))
                if t is not None and t not in number:
                    number[t] = len(seq)
                    seq.append(t)
        table = tuple(
            tuple(
                number[out[(v, l)]] if (v, l) in out else -1
                for l in range(1, rank + 1)
            )
            for v in seq
        )
        return SubgroupGraph(self.alphabet, table)


@dataclass(frozen=True)
class SubgroupGraph:
    """Canonical folded based graph; equality means equality of subgroups."""

    alphabet: Alphabet
    transitions: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.transitions)

    @property
    def edge_count(self) -> int:
        return sum(1 for row in self.transitions for h in row if h != -1)

    @property
    def rank(self) -> int:
        # Euler characteristic of a connected graph.
        return self.edge_count - self.vertex_count + 1

    @cached_property
    def _pred(self) -> dict[tuple[int, int], int]:
        m: dict[tuple[int, int], int] = {}
        for u, row in enumerate(self.transitions):
            for j, h in enumerate(row):
                if h != -1:
                    m[(h, j + 1)] = u
        return m

    def is_trivial(self) -> bool:
        return self.vertex_count == 1 and self.edge_count == 0

    def is_whole_group(self) -> bool:
        return self.vertex_count == 1 and self.edge_count == self.alphabet.rank

    def index(self) -> int | None:
        """Group-theoretic index, or None when it is infinite.

        Finite index is equivalent to the transition table being total.
        """
        total = all(h != -1 for row in self.transitions for h in row)
        return self.vertex_count if total else None

    def contains(self, w: Word) -> bool:
        if w.alphabet != self.alphabet:
            raise ValueError(f"{w} is not a word over {self.alphabet}")
        v = 0
        for x in w.letters:
            v = self.transitions[v][x - 1] if x > 0 else self._pred.get((v, -x), -1)
            if v == -1:
                return False
        return v == 0

    def basis(self) -> tuple[Word, ...]:
        return self._basis

    @cached_property
    def _basis(self) -> tuple[Word, ...]:
        rank = self.alphabet.rank
        parent: dict[int, tuple[int, int]] = {}
        tree: set[tuple[int, int]] = set()
        seen = {0}
        seq = [0]
        i = 0
        while i < len(seq):
            v = seq[i]
            i += 1
            for l in range(1, rank + 1):
                h = self.transitions[v][l - 1]
                if h != -1 and h not in seen:
                    seen.add(h)
                    parent[h] = (v, l)
                    tree.add((v, l))
                    seq.append(h)
            for l in range(1, rank + 1):
                t = self._pred.get((v, l), -1)
                if t != -1 and t not in seen:
                    seen.add(t)
                    parent[t] = (v, -l)
                    tree.add((t, l))
                    seq.append(t)
        path: dict[int, tuple[int, ...]] = {0: ()}

        def word_to(v: int) -> tuple[int, ...]:
            if v not in path:
                pv, step = parent[v]
                path[v] = word_to(pv) + (step,)
            return path[v]

        gens: list[Word] = []
        for u in range(self.vertex_count):
            for l in range(1, rank + 1):
                v = self.transitions[u][l - 1]
                if v == -1 or (u, l) in tree:
                    continue
                letters = word_to(u) + (l,) + tuple(-x for x in reversed(word_to(v)))
                gens.append(word(self.alphabet, letters))
        return tuple(gens)

    def intersect(self, other: "SubgroupGraph") -> "SubgroupGraph":
        """Pullback construction: the component of the pair of basepoints."""
        if self.alphabet != other.alphabet:
            raise ValueError("cannot intersect subgroups of different groups")
        rank = self.alphabet.rank
        b = _Builder(self.alphabet)
        ids: dict[tuple[int, int], int] = {(0, 0): b.base}
        seq: list[tuple[int, int]] = [(0, 0)]
        i = 0
        while i < len(seq):
            s1, s2 = seq[i]
            i += 1
            for l in range(1, rank + 1):
                h1 = self.transitions[s1][l - 1]
                h2 = other.transitions[s2][l - 1]
                if h1 != -1 and h2 != -1:
                    key = (h1, h2)
                    if key not in ids:
                        ids[key] = b.new_vertex()
                        seq.append(key)
                    b.add_edge(ids[(s1, s2)], l, ids[key])
                t1 = self._pred.get((s1, l), -1)
                t2 = other._pred.get((s2, l), -1)
                if t1 != -1 and t2 != -1 and (t1, t2) not in ids:
                    # Forward edges out of this state get added when it is
                    # dequeued, so only discovery happens here.
                    ids[(t1, t2)] = b.new_vertex()
                    seq.append((t1, t2))
        return b.canonical()

    def __str__(self) -> str:
        if self.is_trivial():
            return "<1>"
        return "<" + ", ".join(render_word(g) for g in self.basis()) + ">"


def from_generators(gens: Sequence[Word], alphabet: Alphabet | None = None) -> SubgroupGraph:
    if alphabet is None:
        if not gens:
            raise ValueError("alphabet is required when no generators are given")
        alphabet = gens[0].alphabet
    b = _Builder(alphabet)
    for g in gens:
        if g.alphabet != alphabet:
            raise ValueError(f"{g} is not a word over {alphabet}")
        b.add_loop(g)
    return b.canonical()


def trivial_subgroup(alphabet: Alphabet) -> SubgroupGraph:
    return from_generators((), alphabet)


def whole_group(alphabet: Alphabet) -> SubgroupGraph:
    return from_generators(alphabet.generators())


def image(graph: SubgroupGraph, h: FreeHom) -> SubgroupGraph:
    """Graph of h(H) for H given by its graph over the source group."""
    if graph.alphabet != h.source:
        raise ValueError(f"graph is over {graph.alphabet}, hom expects {h.source}")
    return from_generators([h.apply(g) for g in graph.basis()], h.target)


def congruence_subgroup(alphabet: Alphabet, weights: Sequence[int], modulus: int) -> SubgroupGraph:
    """Words whose weighted letter sum vanishes modulo `modulus`.

    Finite index: the graph is the coset graph of the weight map into the
    subgroup of Z/modulus that the weights generate, hence complete.
    """
    if len(weights) != alphabet.rank:
        raise ValueError(f"expected {alphabet.rank} weights, got {len(weights)}")
    m = abs(modulus)
    if m == 0:
        raise ValueError("modulus must be nonzero")
    seq = [0]
    seen = {0}
    i = 0
    while i < len(seq):
        r = seq[i]
        i += 1
        for wj in weights:
            s = (r + wj) % m
            if s not in seen:
                seen.add(s)
                seq.append(s)
    b = _Builder(alphabet)
    ids = {0: b.base}
    for r in seq[1:]:
        ids[r] = b.new_vertex()
    for r in seq:
        for j, wj in enumerate(weights, start=1):
            b.add_edge(ids[r], j, ids[(r + wj) % m])
    return b.canonical()


def restricted_kernel_trivial(
    graph: SubgroupGraph, weights: Sequence[int]
) -> tuple[bool, Word | None]:
    """Is {g in H : weighted_sum(g, weights) == 0} trivial, for H = graph?

    Returns (True, None) or (False, witness). A subgroup of rank >= 2
    always meets the kernel nontrivially; rank 1 does iff its generator
    has weight zero.
    """
    basis = graph.basis()
    if not basis:
        return True, None
    sums = [weighted_sum(g, weights) for g in basis]
    if len(basis) == 1:
        return (True, None) if sums[0] != 0 else (False, basis[0])
    g1, g2 = basis[0], basis[1]
    c1, c2 = sums[0], sums[1]
    if c1 == 0:
        return False, g1
    if c2 == 0:
        return False, g2
    # Nontrivial since g1, g2 are distinct free basis elements of H.
    return False, (g1 ** c2) * (g2 ** (-c1))


def express_in_generators(gens: Sequence[Word], target: Word) -> list[int] | None:
    """Write target as an explicit product of the given generators.

    Returns signed 1-based indices [i1, ...] so that the product of
    gens[|ik|-1]**sign(ik) equals target, or None when target is not in
    the subgroup the generators span.

    Method: trace target through the folded wedge of generator loops, then
    lift the path back through each fold in reverse. Where a fold glued two
    vertices the lifted path picks up a freely trivial two-edge detour, so
    after cancelling backtracks the result is a reduced base loop of the
    wedge, which decomposes uniquely into whole petal traversals.
    """
    alphabet = target.alphabet
    b = _Builder(alphabet)
    petal_steps: dict[int, list[tuple[int, int]]] = {}
    for t, g in enumerate(gens):
        if g.alphabet != alphabet:
            raise ValueError(f"{g} is not a word over {alphabet}")
        if not g.is_identity():
            petal_steps[t] = b.add_loop(g)
    history = b.fold(keep_history=True)
    out: dict[tuple[int, int], tuple[int, int]] = {}
    inc: dict[tuple[int, int], tuple[int, int]] = {}
    for eid, (t, l, h) in b.edges.items():
        out[(t, l)] = (eid, h)
        inc[(h, l)] = (eid, t)
    cur = b.base
    path: list[tuple[int, int]] = []
    for x in target.letters:
        hop = out.get((cur, x)) if x > 0 else inc.get((cur, -x))
        if hop is None:
            return None
        eid, cur = hop
        path.append((eid, _FWD if x > 0 else _BACK))
    if cur != b.base:
        return None
    for step in reversed(history):
        path = _lift(step, path, b.base)
    path = _cancel_backtracks(path)
    starts: dict[tuple[int, int], tuple[int, int]] = {}
    for t, steps in petal_steps.items():
        starts[steps[0]] = (t, 1)
        last_eid, last_dir = steps[-1]
        starts[(last_eid, -last_dir)] = (t, -1)
    expr: list[int] = []
    pos = 0
    while pos < len(path):
        hit = starts.get(path[pos])
        assert hit is not None, "reduced wedge loop must enter a petal at the base"
        t, sign = hit
        steps = petal_steps[t]
        n = len(steps)
        if sign == 1:
            assert path[pos : pos + n] == steps
        else:
            assert path[pos : pos + n] == [(e, -d) for e, d in reversed(steps)]
        expr.append(sign * (t + 1))
        pos += n
    if evaluate_expression(gens, expr, alphabet) != target:
        raise CertificateError(f"expression {expr} does not replay to {render_word(target)}")
    return expr


def evaluate_expression(
    gens: Sequence[Word], expression: Sequence[int], alphabet: Alphabet
) -> Word:
    """Replay an expression from express_in_generators over ``gens``."""
    if not expression:
        return Word(alphabet)  # the empty product, also over no generators
    helper = Alphabet(len(gens), "x")
    return FreeHom(helper, alphabet, tuple(gens)).apply(word(helper, expression))


def _lift(step: _FoldStep, path: list[tuple[int, int]], base: int) -> list[tuple[int, int]]:
    """Rewrite a path valid after `step` into one valid before it.

    Both paths run from base to base. Mismatched junctions can only involve
    the fold's survivor and loser; a two-edge detour through the clashing
    edge pair repairs them without changing the element spelled.
    """
    edges = step.edges
    cur = base
    out: list[tuple[int, int]] = []
    for eid, d in path:
        t, _, h = edges[eid]
        need = t if d == _FWD else h
        if need != cur:
            out.extend(_detour(step, cur, need))
        out.append((eid, d))
        cur = h if d == _FWD else t
    if cur != base:
        out.extend(_detour(step, cur, base))
    return out


def _detour(step: _FoldStep, src: int, dst: int) -> list[tuple[int, int]]:
    t1, _, h1 = step.edges[step.kept]
    t2, _, h2 = step.edges[step.gone]
    if t1 == t2:
        routes = {
            h1: [(step.kept, _BACK), (step.gone, _FWD)],
            h2: [(step.gone, _BACK), (step.kept, _FWD)],
        }
    else:
        routes = {
            t1: [(step.kept, _FWD), (step.gone, _BACK)],
            t2: [(step.gone, _FWD), (step.kept, _BACK)],
        }
    assert src in routes and dst in routes and src != dst
    return routes[src]


def _cancel_backtracks(path: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for eid, d in path:
        if out and out[-1] == (eid, -d):
            out.pop()
        else:
            out.append((eid, d))
    return out
