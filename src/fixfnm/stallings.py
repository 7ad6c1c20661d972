"""Folded subgroup graphs for finitely generated subgroups of free groups.

The canonical form is a deterministic edge-labeled based graph stored as
one row table: vertex 0 is the basepoint, and ``rows[v]`` holds 2·r
entries, r the rank, out-edges by label and then in-edges by label.
``rows[v][l-1]`` is the end of the l-labeled edge leaving v and
``rows[v][r+l-1]`` the start of the l-labeled edge entering v, or -1.
Every graph is folded, then trimmed of dangling trees and renumbered
breadth-first by one routine, `_trim_and_number`, so two subgroups are
equal iff their graphs compare equal.

Construction from generators goes through a mutable multigraph that
attaches one base loop per generator and folds. A loop is first read
through the graph from both ends: the prefix that the graph already reads
from the base and the suffix it reads into the base cost no edges, and only
the middle between them is added, in one pass, so the fold settles clashes
at the two ends of each middle rather than undoing whole copies of letters
the graph already has. An edge may carry a name, a freely reduced word in
a second free group; for a homomorphism h from that group, the names along
any base loop multiply to a word that h maps onto the loop's label.
Attaching loops so named and folding keep this true (Kapovich-Myasnikov,
J. Algebra 248, 2002), so reading a member word through the folded graph
spells a preimage of it. One thing names edges: ``Preimage`` names the loop
h(x_i) by i. It serves ``express_in_generators`` through x_i -> gens[i-1],
and a subgroup K through ``K.basis_hom()``; its ``image`` is the one way
to compute the image of a subgroup.

Folding follows Touikan (IJAC 16(6), 2006) and never rescans the graph.
Storage is flat: each vertex owns a slot row of 2·rank entries in one list,
laid out as a row of the canonical table; an edge whose slot is already
held goes on a work list of clashes with the holder. Each clash deletes
one edge and merges two vertices, the one with fewer edges into the other
(the base never merges away), and only the moved edges are seated again,
which finds the next clashes. A fold therefore costs the edges moved, not
a scan per clash. The folded slot rows are exported as vertex rows, the
head of each out-edge and the tail of each in-edge, for `_trim_and_number`,
which peels vertices of degree 1 off a queue and numbers the rest. The
pullback of two folded graphs and the coset graph of a congruence subgroup
are folded already, so `intersect` and `congruence_subgroup` write those
rows directly and skip the builder.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Sequence

from ._value import FrozenValue, set_field
from .homs import FreeHom
from .words import Alphabet, CertificateError, Word, _inverse, free_reduce, render_word, weighted_sum


class _Builder:
    """Mutable edge-labeled multigraph over a fixed alphabet; base vertex 0.

    Storage is flat. ``slot`` holds a row of 2·rank entries per vertex:
    ``slot[v*2r + l-1]`` is the l-edge leaving v and ``slot[v*2r + r + l-1]``
    the l-edge entering v, or -1; out-edges by label, then in-edges by
    label, the layout of a row of the canonical table. An edge that finds
    one of its slots taken waits in ``clashes`` beside the edge holding it.
    ``edges[e]`` is (tail, label, head), or None once e is dropped;
    ``incident[v]`` is the set of edges at v, or None once v has merged
    away. ``names`` holds the nonempty edge names; an edge missing
    from it has the empty name.
    """

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.rank = alphabet.rank
        self.base = 0
        self.edges: list[tuple[int, int, int] | None] = []
        self.names: dict[int, tuple[int, ...]] = {}
        self.slot: list[int] = [-1] * (2 * self.rank)
        self.incident: list[set[int] | None] = [set()]
        self.clashes: list[tuple[int, int]] = []

    def add_loop(self, w: Word, name: tuple[int, ...] = ()) -> None:
        """Attach a base loop spelling w whose edge names multiply to ``name``.

        The graph already reads some prefix of w from the base (``head``,
        the product of the names met) and some suffix of w into the base
        (``tail``). Neither read passes through the base: a read that went
        on would wrap c^(k+1) round the loop of c^k and fold the graph onto
        itself with long names. Only the middle between the reads gets new
        edges, and it keeps at least one letter; its last edge carries the
        name head^-1 name tail^-1, so the loop's names still multiply to
        ``name``. The middle is laid down in one pass: its inner vertices
        are new and w is reduced, so only its first and last edge can
        clash, and only those two are seated through ``_seat``. An empty w
        adds nothing.
        """
        letters = w.letters
        if not letters:
            return
        i, start, head = self._read(letters, len(letters) - 1, name, 1)
        k, end, tail_inverse = self._read(letters, len(letters) - 1 - i, name, -1)
        edges, incident, slot, r = self.edges, self.incident, self.slot, self.rank
        # the middle letters[i:i + count] runs start, v0, v0 + 1, ..., end on edges e0..last
        count, e0, v0 = len(letters) - k - i, len(edges), len(incident)
        last = e0 + count - 1
        path = [start, *range(v0, v0 + count - 1), end]
        edges.extend(
            [(a, x, b) if x > 0 else (b, -x, a) for a, x, b in zip(path, letters[i:], path[1:])]
        )
        incident[start].add(e0)
        incident.extend([{e - 1, e} for e in range(e0 + 1, last + 1)])
        incident[end].add(last)
        slot.extend([-1] * (2 * r * (count - 1)))
        for e in range(e0 + 1, last):  # both ends are new: no clash
            t, l, h = edges[e]
            slot[2 * r * t + l - 1] = slot[2 * r * h + r + l - 1] = e
        self._seat(e0, *edges[e0])
        if last != e0:
            self._seat(last, *edges[last])
        if name:
            label = free_reduce(_inverse(head) + name + tail_inverse)
            if label:
                self.names[last] = label if letters[i + count - 1] > 0 else _inverse(label)

    def _read(
        self, letters: tuple[int, ...], limit: int, named: tuple[int, ...], sign: int
    ) -> tuple[int, int, tuple[int, ...]]:
        """Follow at most ``limit`` letters of w (sign 1) or of w^-1 (sign -1)
        from the base, stopping before the base.

        Returns how many letters were read, the vertex reached and, when
        ``named`` is nonempty, the product of the names met (else ()).
        """
        slot, edges, names, base, r = self.slot, self.edges, self.names, self.base, self.rank
        cur, read, product = base, 0, ()
        while read < limit:
            x = letters[read] if sign > 0 else -letters[-1 - read]
            eid = slot[2 * r * cur + (x - 1 if x > 0 else r - x - 1)]
            if eid == -1:
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

    def names_along(self, letters: tuple[int, ...]) -> tuple[int, ...] | None:
        """The reduced product of the names on the base loop spelling
        ``letters``, or None when the folded graph reads no such loop."""
        slot, edges, names, r = self.slot, self.edges, self.names, self.rank
        cur = self.base
        product: list[int] = []
        for x in letters:
            eid = slot[2 * r * cur + (x - 1 if x > 0 else r - x - 1)]
            if eid == -1:
                return None
            t, _, h = edges[eid]
            cur = h if x > 0 else t
            name = names.get(eid)  # None for the empty name
            if name:
                product.extend(name if x > 0 else _inverse(name))
        return free_reduce(product) if cur == self.base else None

    def _seat(self, eid: int, tail: int, label: int, head: int) -> None:
        """Put an edge in both its slots; a slot held by another edge queues a clash."""
        slot, r = self.slot, self.rank
        for i in (2 * r * tail + label - 1, 2 * r * head + r + label - 1):
            holder = slot[i]
            if holder == -1:
                slot[i] = eid
            elif holder != eid:
                self.clashes.append((holder, eid))

    def _unseat(self, eid: int, tail: int, label: int, head: int) -> None:
        """Free the slots that the edge holds."""
        slot, r = self.slot, self.rank
        for i in (2 * r * tail + label - 1, 2 * r * head + r + label - 1):
            if slot[i] == eid:
                slot[i] = -1

    def _drop(self, eid: int) -> None:
        t, l, h = self.edges[eid]
        self.edges[eid] = None
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
        nothing rescans the graph, and each slot is one index into the
        flat ``slot`` list. Since ``add_loop`` adds no edge that the graph
        already reads, clashes start only at the two ends of each loop's
        new middle. Name rewriting comes on top and grows with the names,
        which stay empty unless the caller names edges.
        """
        edges, names, incident, clashes = self.edges, self.names, self.incident, self.clashes
        while clashes:
            a, b = clashes.pop()
            if edges[b] is None:
                continue
            if edges[a] is None:
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
        edges, names, incident = self.edges, self.names, self.incident
        back = _inverse(shift)
        into, moved = incident[survivor], incident[loser]
        incident[loser] = None
        for eid in moved:
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

    def canonical(self) -> "SubgroupGraph":
        """Fold, export the slot rows as vertex rows, then trim and number them."""
        self.fold()
        r = self.rank
        rows = [-1] * len(self.slot)
        for edge in self.edges:
            if edge is not None:
                t, l, h = edge
                rows[2 * r * t + l - 1] = h
                rows[2 * r * h + r + l - 1] = t
        return SubgroupGraph(self.alphabet, _trim_and_number(r, rows))


def _trim_and_number(rank: int, rows: list[int]) -> tuple[tuple[int, ...], ...]:
    """The canonical row table of a folded graph given by flat vertex rows.

    Each vertex owns 2·r entries of ``rows``, r the rank, laid out as the
    builder's slot rows: ``rows[v*2r + l-1]`` is the head of the l-edge
    leaving v and ``rows[v*2r + r + l-1]`` the tail of the l-edge entering
    v, or -1; vertex 0 is the base. Non-base vertices of degree 1 come off a
    queue (a loop counts twice), their edge cut from both ends' rows in
    place, so dangling trees peel away; vertices of degree 0 are never
    reached. The base's component is then numbered breadth first, out-edges
    by label and then in-edges by label, and each vertex's row, renumbered,
    is its row of the table.
    """
    r, width = rank, 2 * rank
    degree = [width - rows[lo : lo + width].count(-1) for lo in range(0, len(rows), width)]
    queue = [v for v in range(1, len(degree)) if degree[v] == 1]
    while queue:
        v = queue.pop()
        if degree[v] != 1:
            continue
        degree[v] = 0
        i = lo = v * width
        while rows[i] == -1:
            i += 1
        u, rows[i] = rows[i], -1
        i -= lo  # the same label in the other half of u's row holds v
        rows[u * width + (i + r if i < r else i - r)] = -1
        degree[u] -= 1
        if u != 0 and degree[u] == 1:
            queue.append(u)
    number = [-1] * (len(degree) + 1)  # the extra last entry keeps number[-1] == -1
    number[0] = 0
    at = number.__getitem__
    seq, table = [0], []
    for v in seq:
        row = rows[v * width : v * width + width]
        for u in row:
            if u != -1 and number[u] == -1:
                number[u] = len(seq)
                seq.append(u)
        table.append(tuple(map(at, row)))  # every neighbour of v is numbered by now
    return tuple(table)


class SubgroupGraph(FrozenValue):
    """Canonical folded based graph; equality means equality of subgroups.

    ``rows[v]`` holds 2·r entries, r the rank: ``rows[v][l-1]`` is the end
    of the l-edge leaving v and ``rows[v][r+l-1]`` the start of the l-edge
    entering v, or -1. The table comes from ``_trim_and_number``, so the
    vertices are numbered breadth first; a one-vertex graph may be written
    directly, its in-half equal to its out-half.
    """

    __slots__ = ("alphabet", "rows")

    def __init__(self, alphabet: Alphabet, rows: tuple[tuple[int, ...], ...]):
        set_field(self, "alphabet", alphabet)
        set_field(self, "rows", rows)

    @property
    def vertex_count(self) -> int:
        return len(self.rows)

    @property
    def edge_count(self) -> int:
        # an edge holds one entry in its tail's row and one in its head's
        return sum(len(row) - row.count(-1) for row in self.rows) // 2

    @property
    def rank(self) -> int:
        # Euler characteristic of a connected graph.
        return self.edge_count - self.vertex_count + 1

    def is_trivial(self) -> bool:
        return self.vertex_count == 1 and self.edge_count == 0

    def is_whole_group(self) -> bool:
        return self.vertex_count == 1 and self.edge_count == self.alphabet.rank

    def index(self) -> int | None:
        """Group-theoretic index, or None when it is infinite.

        Finite index is equivalent to the row table being total.
        """
        total = not any(-1 in row for row in self.rows)
        return self.vertex_count if total else None

    def contains(self, w: Word) -> bool:
        if w.alphabet != self.alphabet:
            raise ValueError(f"{w} is not a word over {self.alphabet}")
        rows, r = self.rows, self.alphabet.rank
        v = 0
        for x in w.letters:
            v = rows[v][x - 1 if x > 0 else r - x - 1]
            if v == -1:
                return False
        return v == 0

    def basis(self) -> tuple[Word, ...]:
        return tuple(self.basis_words())

    def basis_hom(self) -> FreeHom:
        """The hom x_i -> i-th basis word, from ``Alphabet(rank, "x")`` onto this subgroup.

        It is injective, since the basis is free. The trivial subgroup has
        none, as there is no alphabet of rank 0, and raises ValueError.
        """
        basis = self.basis()
        if not basis:
            raise ValueError("the trivial subgroup has no basis hom")
        return FreeHom(Alphabet(len(basis), "x"), self.alphabet, basis)

    def basis_words(self) -> Iterator[Word]:
        """The basis words in turn, one per edge off the breadth-first spanning tree.

        The vertices are numbered breadth first, out-edges by label and then
        in-edges by label, so a scan of the rows in that order meets the
        vertices in number order: an entry equal to the next number is the
        step that first reached that vertex, and ``parent[v]`` records the
        vertex and the letter of that step. A tree path, an edge off the
        tree and a tree path back do not backtrack in a folded graph, so the
        word they spell is reduced. A caller that stops early pays only for
        the words it took.
        """
        r = self.alphabet.rank
        parent = [(0, 0)]  # the base has no parent
        for v, row in enumerate(self.rows):
            for i, u in enumerate(row):
                if u == len(parent):
                    parent.append((v, i + 1 if i < r else r - i - 1))

        def path_to(v: int) -> tuple[int, ...]:
            # walked per basis word: paths stored for every vertex would
            # hold vertices x depth letters at once
            steps = []
            while v:
                v, x = parent[v]
                steps.append(x)
            return tuple(reversed(steps))

        for u, row in enumerate(self.rows):
            for l, v in enumerate(islice(row, r), start=1):
                if v == -1 or parent[v] == (u, l) or parent[u] == (v, -l):
                    continue
                letters = path_to(u) + (l,) + _inverse(path_to(v))
                yield Word._unchecked(self.alphabet, letters)

    def intersect(self, other: "SubgroupGraph") -> "SubgroupGraph":
        """Pullback construction: the component of the pair of basepoints.

        The product of two folded graphs is folded, so its vertex rows are
        written straight from the factors' rows, zipped entry by entry, and
        go to the same ``_trim_and_number`` as every other graph.
        """
        if self.alphabet != other.alphabet:
            raise ValueError("cannot intersect subgroups of different groups")
        ids: dict[tuple[int, int], int] = {(0, 0): 0}
        pairs: list[tuple[int, int]] = [(0, 0)]
        rows1, rows2 = self.rows, other.rows
        rows: list[int] = []
        for s1, s2 in pairs:
            for key in zip(rows1[s1], rows2[s2]):
                if -1 in key:
                    rows.append(-1)
                    continue
                v = ids.get(key)
                if v is None:
                    v = ids[key] = len(pairs)
                    pairs.append(key)
                rows.append(v)
        return SubgroupGraph(self.alphabet, _trim_and_number(self.alphabet.rank, rows))

    def __str__(self) -> str:
        if self.is_trivial():
            return "<1>"
        return "<" + ", ".join(render_word(g) for g in self.basis_words()) + ">"


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
    return SubgroupGraph(alphabet, ((-1,) * (2 * alphabet.rank),))


def whole_group(alphabet: Alphabet) -> SubgroupGraph:
    return SubgroupGraph(alphabet, ((0,) * (2 * alphabet.rank),))


class Preimage:
    """A hom h folded once: the image of h and a way back into its source.

    The loop h(x_i) of each generator x_i is named (i,), so the names along
    a base loop multiply to a source word that h maps onto its label.
    Reading is a homomorphism from the image back to the source, a right
    inverse of h. For h on a subgroup K, fold ``K.basis_hom().then(h)`` and
    map each lift into K through the basis hom.
    """

    __slots__ = ("h", "_fold")

    def __init__(self, h: FreeHom):
        fold = _Builder(h.target)
        for i, w in enumerate(h.images, start=1):
            fold.add_loop(w, (i,))
        fold.fold()
        self.h, self._fold = h, fold

    def image(self) -> SubgroupGraph:
        """The canonical graph of the image of h, computed when called."""
        return self._fold.canonical()

    def lift(self, target: Word) -> Word | None:
        """A source word that h maps onto ``target``, or None when target is not in the image."""
        if target.alphabet != self.h.target:
            raise ValueError(f"{target} is not a word over {self.h.target}")
        letters = self._fold.names_along(target.letters)
        if letters is None:
            return None
        out = Word._unchecked(self.h.source, letters)
        if self.h.image_letters(letters) != target.letters:
            raise CertificateError(f"h({render_word(out)}) is not {render_word(target)}")
        return out


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
    index = {0: 0}
    for r in seq:
        for wj in weights:
            s = (r + wj) % m
            if s not in index:
                index[s] = len(seq)
                seq.append(s)
    # each label permutes the residues, so the coset graph is folded
    rows = [index[(r + sign * wj) % m] for r in seq for sign in (1, -1) for wj in weights]
    return SubgroupGraph(alphabet, _trim_and_number(alphabet.rank, rows))


def restricted_kernel_trivial(graph: SubgroupGraph, weights: Sequence[int]) -> Word | None:
    """Some g != 1 in H = graph with weighted_sum(g, weights) == 0, or None.

    None means that kernel is trivial. A subgroup of rank >= 2 always
    meets the kernel nontrivially; rank 1 does iff its generator has
    weight zero.
    """
    pair = list(islice(graph.basis_words(), 2))
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

    It is the lift of target through the ``Preimage`` of x_i -> gens[i-1].
    With no generators only the identity is expressed, by the empty product.
    """
    if not gens:
        return [] if target.is_identity() else None
    h = FreeHom(Alphabet(len(gens), "x"), target.alphabet, tuple(gens))
    lifted = Preimage(h).lift(target)
    return None if lifted is None else list(lifted.letters)
