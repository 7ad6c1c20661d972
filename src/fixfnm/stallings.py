"""Folded subgroup graphs for finitely generated subgroups of free groups.

The canonical form is a deterministic edge-labeled based graph: vertex 0 is
the basepoint, `transitions[v][l-1]` is the endpoint of the l-labeled edge
leaving v (or -1). Graphs are folded, trimmed of dangling trees, and
renumbered breadth-first, so two subgroups are equal iff their graphs
compare equal.

Construction goes through a mutable multigraph that attaches one base loop
per generator and folds. A loop is first read through the graph from both
ends: the prefix that the graph already reads from the base and the suffix
it reads into the base cost no edges, and only the middle between them is
added, so the fold settles clashes at the two ends of each middle rather
than undoing whole copies of letters the graph already has. Every edge
carries a name, a freely reduced word over the generators x1, x2, ...: on
any base loop the product of the names, read over the generators, spells
the loop's label. Attaching a loop and folding keep this true
(Kapovich-Myasnikov, J. Algebra 248, 2002), so reading a member word
through the folded graph writes it as a product of the generators. Only
express_in_generators names edges; the other constructions fold unnamed
edges and never rewrite a name.

Folding follows Touikan (IJAC 16(6), 2006) and never rescans the graph. A
slot map sends (v, l) to the l-edge leaving v and (v, -l) to the l-edge
entering v; an edge whose slot is already held goes on a work list of
clashes with the holder. Each clash deletes one edge and merges two
vertices, the one with fewer edges into the other (the base never
merges away), and only the moved edges are seated again, which finds the
next clashes. A fold therefore costs the edges moved, not a scan per
clash. Trimming peels vertices of degree <= 1 off a queue, and the
canonical form reads the slot map directly.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from ._value import FrozenValue, set_field
from .homs import FreeHom
from .words import Alphabet, Word, free_reduce, render_word, weighted_sum, word


class CertificateError(RuntimeError):
    """An answer failed its own exact check: a fault in this library.

    Raised by plain checks rather than asserts, so it also fires under
    ``python -O``.
    """


class _Builder:
    """Mutable edge-labeled multigraph over a fixed alphabet; base vertex 0.

    ``slots`` maps (v, l) to the l-edge leaving v and (v, -l) to the l-edge
    entering v. An edge that finds one of its slots taken waits in
    ``clashes`` beside the edge holding it. ``incident`` holds the edges
    at each live vertex. ``names`` holds the nonempty edge names; an edge
    missing from it has the empty name.
    """

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.base = 0
        self._next_vertex = 1
        self._next_edge = 0
        self.edges: dict[int, tuple[int, int, int]] = {}
        self.names: dict[int, tuple[int, ...]] = {}
        self.slots: dict[tuple[int, int], int] = {}
        self.incident: dict[int, set[int]] = {self.base: set()}
        self.clashes: list[tuple[int, int]] = []

    def new_vertex(self) -> int:
        v = self._next_vertex
        self._next_vertex += 1
        self.incident[v] = set()
        return v

    def add_edge(self, tail: int, label: int, head: int) -> int:
        eid = self._next_edge
        self._next_edge += 1
        self.edges[eid] = (tail, label, head)
        self.incident[tail].add(eid)
        self.incident[head].add(eid)
        self._seat(eid, tail, label, head)
        return eid

    def add_loop(self, w: Word, name: tuple[int, ...] = ()) -> None:
        """Attach a base loop spelling w whose edge names multiply to ``name``.

        The graph already reads some prefix of w from the base (``head``,
        the product of the names met) and some suffix of w into the base
        (``tail``). Neither read passes through the base: a read that went
        on would wrap c^(k+1) round the loop of c^k and fold the graph onto
        itself with long names. Only the middle between the reads gets new
        edges, and it keeps at least one letter; its last edge carries the
        name head^-1 name tail^-1, so the loop's names still multiply to
        ``name``. Clashes can arise only at the two ends of the middle. An
        empty w adds nothing.
        """
        letters = w.letters
        if not letters:
            return
        i, start, head = self._read(letters, len(letters) - 1, name, 1)
        k, end, tail_inverse = self._read(letters, len(letters) - 1 - i, name, -1)
        cur, last = start, len(letters) - k - 1
        for j in range(i, last + 1):
            x = letters[j]
            nxt = end if j == last else self.new_vertex()
            if x > 0:
                eid = self.add_edge(cur, x, nxt)
            else:
                eid = self.add_edge(nxt, -x, cur)
            cur = nxt
        if name:
            label = free_reduce(_inverse(head) + name + tail_inverse)
            if label:
                self.names[eid] = label if x > 0 else _inverse(label)

    def _read(
        self, letters: tuple[int, ...], limit: int, named: tuple[int, ...], sign: int
    ) -> tuple[int, int, tuple[int, ...]]:
        """Follow at most ``limit`` letters of w (sign 1) or of w^-1 (sign -1)
        from the base, stopping before the base.

        Returns how many letters were read, the vertex reached and, when
        ``named`` is nonempty, the product of the names met (else ()).
        """
        slots, edges, names, base = self.slots, self.edges, self.names, self.base
        cur, read, product = base, 0, ()
        while read < limit:
            x = letters[read] if sign > 0 else -letters[-1 - read]
            eid = slots.get((cur, x))
            if eid is None:
                break
            t, _, h = edges[eid]
            nxt = h if x > 0 else t
            if nxt == base:
                break
            if named and eid in names:
                product += names[eid] if x > 0 else _inverse(names[eid])
            cur = nxt
            read += 1
        return read, cur, product

    def _seat(self, eid: int, tail: int, label: int, head: int) -> None:
        """Put an edge in both its slots; a slot held by another edge queues a clash."""
        slots = self.slots
        holder = slots.setdefault((tail, label), eid)
        if holder != eid:
            self.clashes.append((holder, eid))
        holder = slots.setdefault((head, -label), eid)
        if holder != eid:
            self.clashes.append((holder, eid))

    def _unseat(self, eid: int, tail: int, label: int, head: int) -> None:
        """Free the slots that the edge holds."""
        slots = self.slots
        if slots.get((tail, label)) == eid:
            del slots[(tail, label)]
        if slots.get((head, -label)) == eid:
            del slots[(head, -label)]

    def _drop(self, eid: int) -> None:
        t, l, h = self.edges.pop(eid)
        self.names.pop(eid, None)
        self._unseat(eid, t, l, h)
        self.incident[t].discard(eid)
        self.incident[h].discard(eid)

    def fold(self) -> None:
        """Fold until no two equal-label edges share a tail or a head.

        Each clash pops off the work list: the younger edge is dropped and
        its far end (``loser``) merges into the older edge's far end
        (``survivor``). Merging keeps the names' invariant: with ``shift``
        the name of the walk from survivor to loser through the clashing
        pair (its label is trivial), edges leaving the loser get ``shift``
        prefixed and edges entering it get ``shift^-1`` appended. The
        vertex with fewer edges loses, except that the base never loses,
        so base loops keep their names; when the roles swap, so does
        ``shift`` for its inverse. Only the loser's edges are relabeled,
        renamed and seated again, and seating them finds the new clashes.

        Cost: every clash deletes an edge, so there are fewer clashes than
        edges, and a merge touches only the edges at its smaller end;
        nothing rescans the graph. Since ``add_loop`` adds no edge that the
        graph already reads, clashes start only at the ends of each loop's
        new middle. Name rewriting comes on top and grows with the names,
        which stay empty unless the caller names edges.
        """
        edges, names, incident, clashes = self.edges, self.names, self.incident, self.clashes
        while clashes:
            a, b = clashes.pop()
            if b not in edges:
                continue
            if a not in edges:
                # the holder folded away since; b takes its slot or clashes anew
                self._seat(b, *edges[b])
                continue
            kept, gone = min(a, b), max(a, b)
            kt, _, kh = edges[kept]
            gt, _, gh = edges[gone]
            shared_tail = kt == gt
            survivor, loser = (kh, gh) if shared_tail else (kt, gt)
            nk, ng = names.get(kept, ()), names.get(gone, ())
            self._drop(gone)
            # parallel twins (survivor == loser) need nothing more: a path through
            # the dropped one now reads the other's name, which spells the same label
            if survivor != loser:
                # the walk from kept's free end to gone's through the shared end
                shift = free_reduce(_inverse(nk) + ng if shared_tail else nk + _inverse(ng))
                if loser == self.base or (
                    survivor != self.base and len(incident[loser]) > len(incident[survivor])
                ):
                    survivor, loser = loser, survivor
                    shift = _inverse(shift)
                self._merge(loser, survivor, shift)
            self._seat(kept, *edges[kept])

    def _merge(self, loser: int, survivor: int, shift: tuple[int, ...]) -> None:
        """Move the loser's edges onto the survivor, renaming them by ``shift``."""
        edges, names = self.edges, self.names
        back = _inverse(shift)
        into = self.incident[survivor]
        for eid in self.incident.pop(loser):
            t, l, h = edges[eid]
            self._unseat(eid, t, l, h)
            leaves, enters = t == loser, h == loser
            t, h = survivor if leaves else t, survivor if enters else h
            edges[eid] = (t, l, h)
            into.add(eid)
            if shift:
                renamed = free_reduce(
                    (shift if leaves else ()) + names.get(eid, ()) + (back if enters else ())
                )
                if renamed:
                    names[eid] = renamed
                else:
                    names.pop(eid, None)
            self._seat(eid, t, l, h)

    def trim(self) -> None:
        """Drop non-base vertices of total degree <= 1, repeatedly.

        A queue holds the vertices that may have fallen to degree <= 1;
        dropping one's edge queues its neighbour.
        """
        edges, incident = self.edges, self.incident
        queue = [v for v, at in incident.items() if v != self.base and len(at) <= 1]
        while queue:
            v = queue.pop()
            at = incident.get(v)
            if at is None:
                continue
            if at:
                (eid,) = at
                t, _, h = edges[eid]
                if t == h:
                    continue  # a loop counts twice
                self._drop(eid)
                other = h if t == v else t
                if other != self.base and len(incident[other]) <= 1:
                    queue.append(other)
            del incident[v]

    def canonical(self) -> "SubgroupGraph":
        self.fold()
        self.trim()
        slots, edges = self.slots, self.edges
        rank = self.alphabet.rank
        letters = [*range(1, rank + 1), *range(-1, -rank - 1, -1)]
        seq = [self.base]
        number = {self.base: 0}
        i = 0
        while i < len(seq):
            v = seq[i]
            i += 1
            for x in letters:  # out-edges by label, then in-edges by label
                eid = slots.get((v, x))
                if eid is not None:
                    u = edges[eid][2 if x > 0 else 0]
                    if u not in number:
                        number[u] = len(seq)
                        seq.append(u)
        table = tuple(
            tuple(
                number[edges[slots[(v, l)]][2]] if (v, l) in slots else -1
                for l in range(1, rank + 1)
            )
            for v in seq
        )
        return SubgroupGraph(self.alphabet, table)


class SubgroupGraph(FrozenValue):
    """Canonical folded based graph; equality means equality of subgroups."""

    __slots__ = ("alphabet", "transitions", "__dict__")  # __dict__ holds the cached properties

    def __init__(self, alphabet: Alphabet, transitions: tuple[tuple[int, ...], ...]):
        set_field(self, "alphabet", alphabet)
        set_field(self, "transitions", transitions)

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
    return SubgroupGraph(alphabet, ((-1,) * alphabet.rank,))


def whole_group(alphabet: Alphabet) -> SubgroupGraph:
    return SubgroupGraph(alphabet, ((0,) * alphabet.rank,))


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

    Method: attach the loop of each generator g_i with the name x_i, so
    that only the part the graph does not already read gets new edges, one
    of them named; fold, carrying the names, then read target through the
    folded graph. The reduced product of the names met on the way is the
    expression.
    """
    alphabet = target.alphabet
    b = _Builder(alphabet)
    for i, g in enumerate(gens, start=1):
        if g.alphabet != alphabet:
            raise ValueError(f"{g} is not a word over {alphabet}")
        b.add_loop(g, (i,))
    b.fold()
    cur = b.base
    letters: list[int] = []
    for x in target.letters:
        eid = b.slots.get((cur, x))
        if eid is None:
            return None
        t, _, h = b.edges[eid]
        cur = h if x > 0 else t
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
