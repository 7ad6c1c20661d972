"""Folded subgroup graphs for finitely generated subgroups of free groups.

The canonical form is a deterministic edge-labeled based graph: vertex 0 is
the basepoint, `transitions[v][l-1]` is the endpoint of the l-labeled edge
leaving v (or -1). Graphs are folded, trimmed of dangling trees, and
renumbered breadth-first, so two subgroups are equal iff their graphs
compare equal.

Construction goes through a mutable multigraph that wedges one loop per
generator and folds. Every edge carries a name, a freely reduced word over
the generators x1, x2, ...: on any base loop the product of the names,
read over the generators, spells the loop's label. Folding keeps this
true (Kapovich-Myasnikov, J. Algebra 248, 2002), so reading a member word
through the folded graph writes it as a product of the generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .homs import FreeHom
from .words import Alphabet, Word, free_reduce, render_word, weighted_sum, word


class CertificateError(RuntimeError):
    """An answer failed its own exact check: a fault in this library.

    Raised by plain checks rather than asserts, so it also fires under
    ``python -O``.
    """


class _Builder:
    """Mutable edge-labeled multigraph over a fixed alphabet; base vertex 0.

    ``names`` holds the nonempty edge names; an edge missing from it has
    the empty name.
    """

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.base = 0
        self._next_vertex = 1
        self._next_edge = 0
        self._loops = 0
        self.edges: dict[int, tuple[int, int, int]] = {}
        self.names: dict[int, tuple[int, ...]] = {}

    def new_vertex(self) -> int:
        v = self._next_vertex
        self._next_vertex += 1
        return v

    def add_edge(self, tail: int, label: int, head: int) -> int:
        eid = self._next_edge
        self._next_edge += 1
        self.edges[eid] = (tail, label, head)
        return eid

    def add_loop(self, w: Word) -> None:
        """Attach a base loop spelling w, the next generator x_i.

        Its closing edge is named x_i, or x_i^-1 when it is read backwards;
        an empty w adds nothing but still takes its index.
        """
        self._loops += 1
        cur = self.base
        last = len(w.letters) - 1
        for i, x in enumerate(w.letters):
            nxt = self.base if i == last else self.new_vertex()
            if x > 0:
                eid = self.add_edge(cur, x, nxt)
            else:
                eid = self.add_edge(nxt, -x, cur)
            cur = nxt
        if w.letters:
            self.names[eid] = (self._loops if w.letters[-1] > 0 else -self._loops,)

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

    def fold(self) -> None:
        """Fold until no two equal-label edges share a tail or a head.

        Merging ``loser`` into ``survivor`` keeps the names' invariant:
        with ``shift`` the name of the walk from survivor to loser through
        the clashing pair (its label is trivial), edges leaving the loser
        get ``shift`` prefixed and edges entering it get ``shift^-1``
        appended. The base never loses, so base loops keep their names.
        """
        names = self.names
        while True:
            clash = self._find_clash()
            if clash is None:
                return
            kept, gone, survivor, loser = clash
            shared_tail = self.edges[kept][0] == self.edges[gone][0]
            del self.edges[gone]
            nk, ng = names.get(kept, ()), names.pop(gone, ())
            if survivor == loser:
                # parallel twins: a path through the dropped one now reads
                # the other's name, which spells the same label
                continue
            # the walk from kept's free end to gone's through the shared end
            shift = free_reduce(_inverse(nk) + ng if shared_tail else nk + _inverse(ng))
            if loser == self.base:
                survivor, loser = loser, survivor
                shift = _inverse(shift)
            back = _inverse(shift)
            for eid, (t, l, h) in list(self.edges.items()):
                if t != loser and h != loser:
                    continue
                self.edges[eid] = (
                    survivor if t == loser else t,
                    l,
                    survivor if h == loser else h,
                )
                if shift:
                    renamed = free_reduce(
                        (shift if t == loser else ())
                        + names.get(eid, ())
                        + (back if h == loser else ())
                    )
                    if renamed:
                        names[eid] = renamed
                    else:
                        names.pop(eid, None)

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


def restricted_kernel_trivial(graph: SubgroupGraph, weights: Sequence[int]) -> Word | None:
    """Some g != 1 in H = graph with weighted_sum(g, weights) == 0, or None.

    None means that kernel is trivial. A subgroup of rank >= 2 always
    meets the kernel nontrivially; rank 1 does iff its generator has
    weight zero.
    """
    pair = graph.basis()[:2]
    sums = [weighted_sum(g, weights) for g in pair]
    for g, c in zip(pair, sums):
        if c == 0:
            return g
    if len(pair) < 2:
        return None
    # Nontrivial since g1, g2 are distinct free basis elements of H.
    return (pair[0] ** sums[1]) * (pair[1] ** (-sums[0]))


def express_in_generators(gens: Sequence[Word], target: Word) -> list[int] | None:
    """Write target as an explicit product of the given generators.

    Returns signed 1-based indices [i1, ...] so that the product of
    gens[|ik|-1]**sign(ik) equals target, or None when target is not in
    the subgroup the generators span. The expression is freely reduced.

    Method: fold the wedge of generator loops, carrying edge names, then
    read target through the folded graph; the reduced product of the names
    met on the way is the expression.
    """
    alphabet = target.alphabet
    b = _Builder(alphabet)
    for g in gens:
        if g.alphabet != alphabet:
            raise ValueError(f"{g} is not a word over {alphabet}")
        b.add_loop(g)
    b.fold()
    out: dict[tuple[int, int], tuple[int, int]] = {}
    inc: dict[tuple[int, int], tuple[int, int]] = {}
    for eid, (t, l, h) in b.edges.items():
        out[(t, l)] = (eid, h)
        inc[(h, l)] = (eid, t)
    cur = b.base
    letters: list[int] = []
    for x in target.letters:
        hop = out.get((cur, x)) if x > 0 else inc.get((cur, -x))
        if hop is None:
            return None
        eid, cur = hop
        name = b.names.get(eid, ())
        letters.extend(name if x > 0 else _inverse(name))
    if cur != b.base:
        return None
    expr = list(free_reduce(letters))
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


def _inverse(name: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(name))
