"""Tubings of a graph and their forest encodings.

Two tubes are *compatible* when they are nested or their union is not a tube
(compatible tubes that are not nested are automatically disjoint).  A tubing
is a pairwise-compatible set of tubes; the maximal ones are the vertices of
the graph associahedron.  Every tubing lies in a maximal one, and the nested
complex is pure: each maximal tubing has exactly n tubes (Carr-Devadoss,
2006).  So ``Tubing.is_maximal`` only counts the tubes.

A ``Tubing`` is always a tubing: its constructor checks each tube, and each
pair by the rule below (nested, or disjoint with no edge between).  Only
this module's producers skip the check, through ``_tubing``, each by a rule.
``psi_tubing``'s tube comp(w_j, P_j) is connected in the prefix P_k, k > j,
so it lies in comp(w_k, P_k) or apart from it; ``coarsen`` and ``flip`` give
psi of a word (see below), and ``chi`` the ideals of a ``GForest``.  In
``restrict_std`` a component of T & I lies in one component of T' & I when
T lies in T', and pieces of tubes apart stay apart.  In
``quotient_std`` a component C of G|_I, I an ideal, is a tube of x, so it
lies in each tube J not inside I that it meets or touches: J - I is a tube
of G/I, and tubes apart in G stay apart, as an edge of G/I through C would
need C inside both.  ``ideal_splits`` takes x/I so, and x|_I by the ideal
rule below.  ``flip_by_search`` checks its new tube with ``compatible``, and
``maximal_tubings_oracle`` takes cliques of ``compatibility_masks``.

Maximal tubings are encoded interchangeably as forests: ``chi`` sends a
forest to the tubing of its principal ideals, and ``tau`` inverts it.  The
``top`` of a tube in a maximal tubing is its unique vertex outside every
smaller tube, and tops are a bijection onto [n].

A parent array is a G-forest when it has no cycle, every principal ideal is
a tube, and incomparable vertices have ideals whose union is not a tube;
disjoint tubes have a tube union exactly when an edge joins them.  A
``GForest`` is always a G-forest: its constructor tests this locally,
bottom-up on bitmasks: every vertex v is adjacent to the ideal of each
child, and no edge joins the ideals of two children of v or of two roots.
The local test is equivalent.  Given the sibling condition, v's ideal is a
tube iff v touches each child's ideal, since a path out of a child's ideal
can only leave through v.  Two incomparable vertices lie under distinct
children c, c' of their lowest common ancestor (or under distinct roots),
and an edge between their ideals is an edge between the ideals of c and c'.
Only ``tau`` skips the test, by this rule: in a maximal tubing x the tube
with top v is v together with the tubes just below it in the tube tree, so,
down the tree, it is v's ideal in tau(x).  The ideals of tau(x) are x's
tubes, pairwise compatible, and each parent's tube is strictly larger, so
tau(x) is a G-forest.  ``tau`` builds each ideal as v's bit OR the ideals of
v's children in the tube tree, never by copying x's tubes, so
``chi(tau(x)) == x`` tests its parent array.

``enumerate_maximal_tubings`` builds every maximal tubing from one fact: a
maximal tubing of a connected set picks a root and recurses on the
components of what is left.  ``_tubewise`` is that recursion: it ORs a piece
of each (tube, root) pair over the tubes of every maximal tubing.
``count_maximal_tubings`` walks it by a recursion of its own, as
``_tubewise`` keeps a list of tubings per subset and the count one number
(a sum over roots of products over components): one walk would branch on
its caller.  The code table counts first when n! exceeds its bound of 2^21,
and refuses a graph past it.  The enumerator works on *codes* (of the m
tubes of g, ``tubes(g)[k]`` holds bit m - 1 - k), so adding a tube, or
joining the tubings of disjoint components, is an OR, and a code is
``_tubewise`` with the piece (tube, root) -> the tube's bit.
Descending codes are ascending ``Tubing.key``: ``tubes(g)`` is in
``tube_key`` order, so two maximal tubings (n tubes each) compare as their
sorted tube indices; the lower one holds the least index where they differ,
so its code is the larger.  Read highest bit first, a code's tubes come in
``tube_key`` order, with no sort; ``_halves`` reads them so, split at bit
m // 2, decoding the high half as it changes (sorted codes repeat it) and
memoizing the low half.  Only this module knows the format: the enumerator
keeps one table per graph (tube mask -> bit, the codes descending, their
tubings aligned), whose tubings ``enumerate_maximal_tubings`` returns.
``psi_images``, ``split_restrictions`` and ``coarsenings`` answer in
tubings, zipping codes with tubings once per call; ``flips`` in positions.
``psi_tubing``, the surjection from words, and ``maximal_tubings_oracle``, a
clique search over the per-graph table ``compatibility_masks``, are
independent routes to the same set.

The words of a forest (``linear_extensions``, and its lexicographic
extremes ``sigma_min`` and ``sigma_max``) come from one walk over the
bitmask of unplaced vertices, in ascending or descending vertex order.

The tube tree is read in one pass over the tube masks, smallest first.
Tubes of a tubing are nested or disjoint, so a tube's top is its one vertex
that no smaller tube has claimed, and its children are the roots so far
(tubes not yet inside a larger one) that lie inside it, found with one AND
against the mask of root tops.  ``tau`` reads it so, writing each top's
parent, children and ideal as its tube is read.  ``top`` reads one tube's
top alone: the one vertex of I outside the tubes strictly inside I.
A flip exchanges I for J, the component of top(K) in K - top(I), K the
smallest tube strictly containing I, as ``flip`` computes it; it goes up in
L_G iff top(I) < top(K), and the flips that go up are the covers of L_G.
``flips`` yields each cover once, from its lower end: one loop per code
reads the tube masks off its bits and keeps the tube tree, so ``build_lg``
builds no tube tree and reads no tube set, and J is found, with no search,
only for a child I of K with top(I) < top(K).  K - top(I) is top(K), the
other children of K, each touching top(K) but not I, and the children of I,
components of I - top(I); so J is K - top(I) less the children of I that
miss top(K).  The flip is psi of a linear extension of tau(x) with top(I)
and top(K) swapped where they stand next to each other, so it is a tubing.

Restriction and coarsening follow one rule: each tube T of a maximal
tubing x keeps the component of its top v.  Restricted to a vertex set I,
x|_I = {comp_G(v, T & I) : v in I}, exactly |I| tubes; coarsened to a
subgraph h of G on the same vertices, x becomes {comp_h(v, T)}.  Proof: let
w be a linear extension of tau(x) and P_j its prefix ending at w_j; then
psi_G(w) = x, and the tube with top w_j is T_j = comp_G(w_j, P_j).
Restricting psi_G(w) to I gives psi_{G|I}(w|_I); each of its tubes,
comp(w_j, P_j & I), is connected, lies in P_j and contains w_j, so it lies
in T_j and equals comp(w_j, T_j & I).  Coarsening gives psi_h(w), and
comp_h(w_j, P_j) lies in T_j because h is inside G, so it equals
comp_h(w_j, T_j).  So each tube's image depends only on the tube and its
top, and a tubing's image is the OR of its tubes' images.  In
``_tubewise`` a tube's top is the root picked for it, so
``split_restrictions`` and ``coarsenings`` read the two maps in the one
pass that builds the codes: each piece is the tube's bit OR its image
shifted past g's m bits, and ``divmod`` splits each tubing's sum into image
and code.  ``coarsen``, for one tubing, reads the tube with top v as v's
ideal in tau(w).  The tubings they build are psi of w.

``restrict_std``, ``quotient_std`` and ``ideal_splits`` put x|_I on G|_I
and x/I on G/I, relabeled onto [k] in label order, all read off one table,
``_cut_graphs``, built once per (G, I); ``restrict_std`` flood-fills each
tube's mask cut to I.  An ideal of x is a union of disjoint tubes of x.
The cover rule: I is an ideal iff the tubes of x inside I cover I (as
``is_ideal`` tests), for their maximal members are compatible and not
nested, so disjoint with no edge between: the components of G|_I.  The
ideal rule: for an ideal I of x, x|_I is the tubes of x inside I.  Proof:
each component C of G|_I is a tube of x.  A tube inside I is its own
component; a tube T not inside I contains each C it meets, being
compatible with C and not inside it, so T & I's components are such C.
``ideal_splits`` reads both sides so.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import (
    InvalidForest,
    InvalidTubing,
    InvalidVertex,
    MaximalTubeNotFlippable,
    NotAnIdeal,
    NotASubgraph,
    NotATube,
    TubeNotInTubing,
    TubelatError,
)
from .graphs import (
    Graph,
    adjacency,
    bits,
    component,
    contract,
    induced_subgraph,
    is_subgraph,
    is_tube,
    mask_vertices,
    tube_key,
    tubes,
)


def canonical_tubes(ts: Iterable[frozenset]) -> tuple[frozenset, ...]:
    return tuple(sorted(set(ts), key=tube_key))


@dataclass(frozen=True, slots=True)
class Tubing:
    """A tubing of ``graph``, its tubes distinct and in ``tube_key`` order.

    ``Tubing(...)`` sorts and dedupes the tubes, then raises ``InvalidVertex``
    or ``NotATube`` unless each is a tube, and ``InvalidTubing`` unless each
    pair is nested or disjoint with no edge between.  Only this module's
    producers skip the check, through ``_tubing`` (see the module docstring),
    and the code table skips the sort too, through ``_sorted_tubing``.
    It has slots, no ``__dict__``; equality and ``repr`` skip ``_hash``."""

    graph: Graph
    tubes: tuple[frozenset, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g, ts = self.graph, canonical_tubes(self.tubes)
        adj = adjacency(g)
        seen = []  # each tube's mask, and that of it and its neighbours
        for t in ts:
            for v in t:
                if not 1 <= v <= g.n:
                    raise InvalidVertex(f"vertex {v} not in [1..{g.n}]")
            mask = near = 0
            for v in t:
                mask |= 1 << v
                near |= adj[v]
            if not mask or component(adj, mask, v) != mask:
                raise NotATube(f"{sorted(t)} is not a tube of the graph")
            seen.append((mask, mask | near))
        # tubes come smallest first, so an earlier tube a clashes with t iff
        # a is not inside t and a or a neighbour of a lies in t
        for k, (mask, _) in enumerate(seen):
            for i in range(k):
                a_mask, a_reach = seen[i]
                if a_mask & ~mask and a_reach & mask:
                    raise InvalidTubing(f"incompatible tubes {sorted(ts[i])}, {sorted(ts[k])}")
        object.__setattr__(self, "tubes", ts)
        object.__setattr__(self, "_hash", hash((g, ts)))

    def __hash__(self) -> int:
        # the dataclass formula, computed once: tubings key the poset and
        # fiber dicts
        return self._hash

    def __len__(self) -> int:
        return len(self.tubes)

    def __contains__(self, t) -> bool:
        return frozenset(t) in self.tubes

    def key(self) -> tuple:
        return tuple(map(tube_key, self.tubes))

    def __lt__(self, other: "Tubing") -> bool:
        return self.key() < other.key()

    def is_maximal(self) -> bool:
        """No tube can be added iff there are n tubes, by purity (module docstring)."""
        return len(self.tubes) == self.graph.n

    def label(self) -> str:
        return "".join("{" + ",".join(map(str, sorted(t))) + "}" for t in self.tubes)

    def to_json_obj(self) -> dict:
        return {
            "graph": self.graph.to_json_obj(),
            "tubes": [sorted(t) for t in self.tubes],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "Tubing":
        g = Graph.from_json_obj(obj["graph"])
        return Tubing(g, tuple(frozenset(t) for t in obj["tubes"]))


def _sorted_tubing(g: Graph, ts: tuple[frozenset, ...]) -> Tubing:
    """``Tubing(g, ts)`` with no sort and no check, for ts a tubing of g,
    distinct and in ``tube_key`` order."""
    x = object.__new__(Tubing)
    _set_graph(x, g)
    _set_tubes(x, ts)
    _set_hash(x, hash((g, ts)))
    return x


def _tubing(g: Graph, ts: Iterable[frozenset]) -> Tubing:
    """``Tubing(g, ts)`` with no check, for ts a tubing of g by a rule of the
    module docstring."""
    return _sorted_tubing(g, canonical_tubes(ts))


def compatible(g: Graph, I: Iterable[int], J: Iterable[int]) -> bool:
    """Nested, or the union fails to be a tube."""
    I, J = frozenset(I), frozenset(J)
    if not is_tube(g, I):
        raise NotATube(f"{sorted(I)} is not a tube")
    if not is_tube(g, J):
        raise NotATube(f"{sorted(J)} is not a tube")
    if I <= J or J <= I:
        return True
    return not is_tube(g, I | J)


@lru_cache(maxsize=None)
def compatibility_masks(g: Graph) -> tuple[int, ...]:
    """Indexed like ``tubes(g)``: bit j of entry i is set iff tubes i and j
    are distinct and compatible (nested, or the union is not a tube)."""
    ts = tubes(g)
    tset = set(ts)
    out = [0] * len(ts)
    for i, j in itertools.combinations(range(len(ts)), 2):
        a, b = ts[i], ts[j]
        if a <= b or b <= a or a | b not in tset:
            out[i] |= 1 << j
            out[j] |= 1 << i
    return tuple(out)


@dataclass(frozen=True, slots=True)
class GForest:
    """A G-forest on [n] as a parent array; parent 0 marks a root.

    i <_T k means k lies on the path from i to its root.  ``GForest(...)``
    raises ``InvalidForest`` unless the array is a G-forest of ``graph`` (no
    cycle, principal ideals are tubes, incomparable ideals have non-tube
    unions), by the local test of the module docstring, and keeps each
    vertex's children and principal ideal as masks, in the slots ``_below``
    and ``_ideal``, which equality, hash and ``repr`` leave out; a forest has
    no ``__dict__``.  Only ``tau`` skips the check (see the module docstring).
    """

    graph: Graph
    parent: tuple[int, ...]
    _below: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _ideal: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.graph
        if len(self.parent) != g.n:
            raise InvalidForest("parent array length must equal n")
        # bit c of below[v] marks a child c of v; below[0] marks the roots
        below = [0] * (g.n + 1)
        for v, p in enumerate(self.parent, 1):
            if not 0 <= p <= g.n:
                raise InvalidForest(f"parent of {v} out of range")
            below[p] |= 1 << v
        # 0, then every vertex off a cycle, each after its parent
        order = [0]
        for v in order:
            order.extend(bits(below[v]))
        if len(order) <= g.n:
            raise InvalidForest("parent relation has a cycle")
        adj = adjacency(g)
        ideal = [0] * (g.n + 1)  # v's principal ideal; 0's holds 0 and every vertex
        reach = [0] * (g.n + 1)  # the vertices adjacent to that ideal
        for v in reversed(order):
            down, near = 0, adj[v]
            for c in bits(below[v]):
                # v touches each child's ideal; sibling ideals do not touch
                if v and not adj[v] & ideal[c] or reach[c] & down:
                    _gforest_scan(g, below, order)
                down |= ideal[c]
                near |= reach[c]
            ideal[v], reach[v] = down | 1 << v, near
        object.__setattr__(self, "_below", tuple(below))
        object.__setattr__(self, "_ideal", tuple(ideal))

    def parent_of(self, v: int) -> int:
        return self.parent[v - 1]

    def children(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self._below[v]))

    def ideal(self, v: int) -> frozenset:
        """The principal order ideal v_down."""
        return mask_vertices(self._ideal[v])

    def to_json_obj(self) -> dict:
        return {"graph": self.graph.to_json_obj(), "parent": list(self.parent)}

    @staticmethod
    def from_json_obj(obj: dict) -> "GForest":
        g = Graph.from_json_obj(obj["graph"])
        return GForest(g, tuple(int(p) for p in obj["parent"]))


# the slot setters of the unchecked producers, bound once
_set_graph, _set_tubes, _set_hash = Tubing.graph.__set__, Tubing.tubes.__set__, Tubing._hash.__set__
_set_forest_graph, _set_parent, _set_below, _set_ideal = (
    GForest.graph.__set__, GForest.parent.__set__, GForest._below.__set__, GForest._ideal.__set__
)


def _gforest_scan(g: Graph, below: list[int], order: list[int]) -> None:
    """Raise ``InvalidForest`` for the acyclic parent array whose child masks
    are ``below`` and whose vertices, each after its parent, are ``order``,
    naming its first failure: every ideal, then every incomparable pair, is
    tested in turn."""
    ideal = [0] * (g.n + 1)
    for v in reversed(order):
        ideal[v] = 1 << v
        for c in bits(below[v]):
            ideal[v] |= ideal[c]
    adj = adjacency(g)
    for v in g.vertices:
        if component(adj, ideal[v], v) != ideal[v]:
            raise InvalidForest(f"principal ideal of {v} is not a tube")
    for i, k in itertools.combinations(g.vertices, 2):
        if not (ideal[k] >> i & 1 or ideal[i] >> k & 1):
            # incomparable ideals are disjoint tubes: the union is a tube
            # iff an edge joins them
            if any(adj[u] & ideal[k] for u in bits(ideal[i])):
                raise InvalidForest(
                    f"incomparable {i},{k} have a tube union {list(bits(ideal[i] | ideal[k]))}"
                )


def chi(t: GForest) -> Tubing:
    """Forest -> maximal tubing of principal ideals."""
    return _tubing(t.graph, tuple(map(mask_vertices, t._ideal[1:])))


def top(x: Tubing, I: Iterable[int]) -> int:
    """The unique vertex of I avoiding every tube of x properly inside I."""
    I = frozenset(I)
    if I not in x:
        raise TubeNotInTubing(f"{sorted(I)} not in tubing")
    if len(rest := I.difference(*(t for t in x.tubes if t < I))) != 1:
        raise InvalidTubing(f"tube {sorted(I)} has no unique top; tubing not maximal?")
    return min(rest)


def tau(x: Tubing) -> GForest:
    """Maximal tubing -> forest: each top's parent is the top of the next tube
    up, read in one pass over x's tube masks, smallest first (see the module
    docstring).  Built with no check, by the rule there: each ideal is v's
    bit OR its children's, whole before it is OR-ed into its parent's."""
    if not x.is_maximal():
        raise InvalidTubing("tau requires a maximal tubing")
    n = x.graph.n
    parent, below, ideal = [0] * n, [0] * (n + 1), [0] * (n + 1)
    roots = claimed = 0  # roots: the tops of the tubes not yet inside a larger one
    for t in x.tubes:
        mask = 0
        for v in t:
            mask |= 1 << v
        own = mask & ~claimed
        if not own or own & own - 1:
            raise InvalidTubing(f"tube {sorted(t)} has no unique top; tubing not maximal?")
        v = own.bit_length() - 1
        below[v] = kids = roots & mask
        roots = roots & ~mask | own
        claimed |= mask
        while kids:
            c = (kids & -kids).bit_length() - 1
            kids ^= 1 << c
            parent[c - 1] = v
            own |= ideal[c]
        ideal[v] = own
    below[0], ideal[0] = roots, claimed | 1  # the roots' ideals cover [n]
    t = object.__new__(GForest)
    _set_forest_graph(t, x.graph)
    _set_parent(t, tuple(parent))
    _set_below(t, tuple(below))
    _set_ideal(t, tuple(ideal))
    return t


def psi_tubing(g: Graph, word: Sequence[int]) -> Tubing:
    """The canonical surjection from words to maximal tubings.

    The j-th tube is the connected component of w_j in the subgraph induced
    by the prefix {w_1, ..., w_j}.
    """
    adj = adjacency(g)
    placed = 0
    ts = []
    for v in word:
        placed |= 1 << v
        ts.append(mask_vertices(component(adj, placed, v)))
    return _tubing(g, tuple(ts))


def psi_images(g: Graph) -> list[Tubing]:
    """``psi_tubing(g, w)`` for every word w of [n], in lexicographic order,
    as the objects of ``enumerate_maximal_tubings``: one walk over word
    prefixes keeps each prefix's components as masks, shared by every word
    that extends it (so the merge stays inline, not in ``graphs.component``),
    and each leaf's code picks its tubing."""
    adj = adjacency(g)
    bit, codes, xs = _code_table(g)
    by_code = dict(zip(codes, xs))
    images: list = []

    def walk(rest: int, comps: list, code: int) -> None:
        if not rest:
            x = by_code.get(code)
            if x is None:
                w = next(itertools.islice(itertools.permutations(g.vertices), len(images), None))
                w = ("," if g.n > 9 else "").join(map(str, w))
                raise TubelatError(f"psi({w}) is not an enumerated maximal tubing of {g}")
            images.append(x)
            return
        todo = rest
        while todo:
            vbit = todo & -todo
            todo ^= vbit
            near = adj[vbit.bit_length() - 1]
            after = [vbit]  # the new tube, then the components it does not touch
            for c in comps:
                if c & near:
                    after[0] |= c
                else:
                    after.append(c)
            walk(rest ^ vbit, after, code | bit[after[0]])

    walk((2 << g.n) - 2, [], 0)
    return images


@lru_cache(maxsize=None)
def _code_table(g: Graph) -> tuple[dict, tuple[int, ...], tuple[Tubing, ...]]:
    """Tube mask -> its bit, the codes descending, and their maximal tubings
    aligned (``_halves`` into ``_sorted_tubing``).  A code is the OR of its
    tubes' bits: ``_tubewise`` with the piece (C, r) -> bit(C)."""
    # past 2^21 tubings (about 750 MB) it refuses; g has at most n! (psi is onto)
    if g.n > 9 and (count := count_maximal_tubings(g)) > 1 << 21:
        raise TubelatError(f"{g.size_name()} has {count:,} maximal tubings; enumeration takes at most 2,097,152")
    rev = tubes(g)[::-1]  # bit j stands for rev[j] (see the module docstring)
    bit = {sum(1 << v for v in t): 1 << j for j, t in enumerate(rev)}
    codes = tuple(sorted(_tubewise(g, lambda C, r: bit[C]), reverse=True))
    return bit, codes, tuple(_sorted_tubing(g, ts) for ts in _halves(codes, rev))


def _halves(codes: Sequence[int], items: Sequence) -> Iterator[tuple]:
    """Each code's items[j], j its set bits, highest first, read by halves."""
    def decode(v: int, base: int) -> tuple:
        out = []
        while v:
            out.append(items[base + (j := v.bit_length() - 1)])
            v ^= 1 << j
        return tuple(out)

    half = len(items) // 2
    low, last, memo = (1 << half) - 1, None, {}
    for code in codes:
        if code >> half != last:
            head = decode(last := code >> half, half)
        if (tail := memo.get(code & low)) is None:
            tail = memo[code & low] = decode(code & low, 0)
        yield head + tail


def _tubewise(g: Graph, piece) -> list[int]:
    """The OR of ``piece(C, r)`` over the tubes C of each maximal tubing of
    g, r the top of C, one int per tubing.  A maximal tubing of a connected
    set C picks a root r, the top of C, and recurses on the components of
    C - {r}; a disconnected set combines one of each component.  Each subset
    is decomposed once, its ints memoized; the memo is freed on return."""
    adj = adjacency(g)
    memo: dict = {}

    def rec(S: int) -> list[int]:
        if S not in memo:
            combos = [0]
            rest = S
            while rest:
                C = component(adj, rest, (rest & -rest).bit_length() - 1)
                rest ^= C
                # one piece per root r, not one per code
                opts = [
                    sub | image
                    for r in bits(C)
                    for image in [piece(C, r)]
                    for sub in rec(C ^ 1 << r)
                ]
                combos = [acc | o for acc in combos for o in opts]
            memo[S] = combos
        return memo[S]

    return rec((2 << g.n) - 2)


def count_maximal_tubings(g: Graph) -> int:
    """The number of maximal tubings of g, building none: a connected set C
    has the sum over its roots r of the count of C - {r}, a disconnected set
    the product of its components' counts, memoized per call on masks."""
    adj, memo = adjacency(g), {0: 1}

    def rec(S: int) -> int:
        if S not in memo:
            count, rest = 1, S
            while rest:
                C = component(adj, rest, (rest & -rest).bit_length() - 1)
                rest ^= C
                count *= sum(rec(C ^ 1 << r) for r in bits(C))
            memo[S] = count
        return memo[S]

    return rec((2 << g.n) - 2)


@lru_cache(maxsize=None)
def enumerate_maximal_tubings(g: Graph) -> tuple[Tubing, ...]:
    """All maximal tubings, sorted by ``Tubing.key``: the code table's tuple."""
    return _code_table(g)[2]


def flips(g: Graph) -> Iterator[tuple[int, int, int, int]]:
    """(i, j, a, b) for every cover x < y of L_G, once, from its lower end,
    by position in ``enumerate_maximal_tubings(g)``: x is tubing i, tubing j
    is x with I exchanged for J, and a = top(I) < b = top(K) = top(J).  One
    loop per code reads its tube masks off its bits, smallest tube first, and
    keeps the tube tree (see the module docstring); J and j, the position of
    code ^ bit(I) ^ bit(J), are found for no downward flip."""
    adj = adjacency(g)
    bit, codes, _ = _code_table(g)
    tube = list(bit)  # the mask of bit k, at index k
    index = dict(zip(codes, range(len(codes))))  # code -> position
    # by top: the tube's mask, its bit, and its children's tops
    mask, tube_bit, below = [0] * (g.n + 1), [0] * (g.n + 1), [0] * (g.n + 1)
    for i, code in enumerate(codes):
        rest, roots, claimed = code, 0, 0  # roots: the tops of the tubes not yet inside a larger one
        while rest:
            k = rest.bit_length() - 1
            rest ^= 1 << k
            K = tube[k]
            b = (K & ~claimed).bit_length() - 1
            claimed |= K
            kids = roots & K
            roots ^= kids | 1 << b
            mask[b], tube_bit[b], below[b] = K, 1 << k, kids
            up, near = kids & (1 << b) - 1, adj[b]
            while up:
                a = up.bit_length() - 1
                up ^= 1 << a
                J, cut = K ^ 1 << a, below[a]
                while cut:  # the children of I that miss top(K) leave J
                    c = cut.bit_length() - 1
                    cut ^= 1 << c
                    if not mask[c] & near:
                        J ^= mask[c]
                yield i, index[code ^ tube_bit[a] ^ bit[J]], a, b


def split_restrictions(g: Graph, n: int) -> Iterator[tuple[Tubing, Tubing, Tubing]]:
    """(z, restrict_std(z, [1..n]), restrict_std(z, [n+1..N])) for every
    maximal tubing z of g on [N], in enumeration order.  By the restriction
    rule, each tube C of z with top r gives ``_tubewise`` its own bit and,
    past g's m bits, the component of r in C cut to r's side, as a bit of the
    left table (r <= n) or, shifted down by n, of the right one, shifted past
    the left table's bits."""
    adj = adjacency(g)
    bit, codes, xs = _code_table(g)
    low_bit, *low = _code_table(induced_subgraph(g, range(1, n + 1))[0])
    high_bit, *high = _code_table(induced_subgraph(g, range(n + 1, g.n + 1))[0])
    low_by_code, high_by_code = dict(zip(*low)), dict(zip(*high))
    below, m, shift = (2 << n) - 2, len(bit), len(low_bit)

    def piece(C: int, r: int) -> int:
        if r <= n:
            return bit[C] | low_bit[component(adj, C & below, r)] << m
        return bit[C] | high_bit[component(adj, C & ~below, r) >> n] << m + shift

    images = dict(divmod(p, 1 << m)[::-1] for p in _tubewise(g, piece))
    for code, z in zip(codes, xs):
        right, left = divmod(images[code], 1 << shift)
        yield z, low_by_code[left], high_by_code[right]


def coarsenings(h: Graph, g: Graph) -> Iterator[tuple[Tubing, Tubing]]:
    """(w, coarsen(h, w)) for every maximal tubing w of g, in enumeration
    order, each image an object of ``enumerate_maximal_tubings(h)``: each
    tube C of w with top r gives ``_tubewise`` its own bit and, past g's m
    bits, the h-component of r in C."""
    if not is_subgraph(h, g):
        raise NotASubgraph(f"{h} is not a subgraph of {g}")
    adj = adjacency(h)
    bit, codes, ws = _code_table(g)
    h_bit, *h_table = _code_table(h)
    h_by_code, m = dict(zip(*h_table)), len(bit)
    packed = _tubewise(g, lambda C, r: bit[C] | h_bit[component(adj, C, r)] << m)
    images = dict(divmod(p, 1 << m)[::-1] for p in packed)
    return ((w, h_by_code[images[code]]) for code, w in zip(codes, ws))


def coarsen(h: Graph, w: Tubing) -> Tubing:
    """Push a maximal tubing of G down to the subgraph h (same vertices):
    the tube with top v, v's ideal in tau(w), keeps v's h-component, by the
    restriction rule, as h's surjection does on any linear extension of tau(w)."""
    g = w.graph
    if not is_subgraph(h, g):
        raise NotASubgraph(f"{h} is not a subgraph of {g}")
    if not w.is_maximal():
        raise InvalidTubing("coarsen requires a maximal tubing")
    adj, ideal = adjacency(h), tau(w)._ideal
    return _tubing(h, tuple(mask_vertices(component(adj, ideal[v], v)) for v in g.vertices))


def maximal_tubings_oracle(g: Graph) -> tuple[Tubing, ...]:
    """Test oracle: maximal compatible subsets of the tube list, by pivoted
    Bron-Kerbosch over the compatibility graph; it does not use the
    component decomposition of ``enumerate_maximal_tubings``.
    """
    ts = tubes(g)
    m = len(ts)
    comp_mask = compatibility_masks(g)
    results = []

    def bron_kerbosch(R: int, P: int, X: int):
        if P == 0 and X == 0:
            results.append(R)
            return
        pivot_pool = P | X
        pivot = (pivot_pool & -pivot_pool).bit_length() - 1
        best = -1
        pool = pivot_pool
        while pool:
            b = pool & -pool
            v = b.bit_length() - 1
            deg = bin(P & comp_mask[v]).count("1")
            if deg > best:
                best, pivot = deg, v
            pool ^= b
        cand = P & ~comp_mask[pivot]
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            bron_kerbosch(R | b, P & comp_mask[v], X & comp_mask[v])
            P &= ~b
            X |= b
            cand ^= b

    bron_kerbosch(0, (1 << m) - 1, 0)
    out = [
        _tubing(g, tuple(ts[i] for i in range(m) if bits >> i & 1)) for bits in results
    ]
    return tuple(sorted(out, key=Tubing.key))


def restrict_std(x: Tubing, I: Iterable[int]) -> Tubing:
    """X|_I: the components of each tube cut to I, flood-filled on masks, a
    tubing of G|_I, relabeled with it onto [|I|] in label order."""
    I = frozenset(I)
    sub, _, label = _cut_graphs(x.graph, I)
    adj, cut, out = adjacency(x.graph), sum(1 << v for v in I), set()
    for t in x.tubes:
        rest = sum(1 << v for v in t) & cut
        while rest:
            c = component(adj, rest, (rest & -rest).bit_length() - 1)
            rest ^= c
            out.add(c)
    return _tubing(sub, [frozenset(map(label.__getitem__, bits(c))) for c in out])


def is_ideal(x: Tubing, I: Iterable[int]) -> bool:
    """Whether I is a union of pairwise disjoint tubes of x: whether the
    tubes of x inside I cover I (see the module docstring)."""
    I = frozenset(I)
    return frozenset().union(*(t for t in x.tubes if t <= I)) == I


def quotient_std(x: Tubing, I: Iterable[int]) -> Tubing:
    """X/I = {J - I : J in X, J not inside I}, a tubing of G/I, relabeled
    with it onto [n - |I|] in label order; ``NotAnIdeal`` unless ``is_ideal``."""
    I = frozenset(I)
    if not is_ideal(x, I):
        raise NotAnIdeal(f"{sorted(I)} is not an ideal of the tubing")
    _, quo, label = _cut_graphs(x.graph, I)
    return _tubing(quo, [frozenset(map(label.__getitem__, t - I)) for t in x.tubes if not t <= I])


def ideals(x: Tubing) -> list[frozenset]:
    """All ideals (including the empty set and [n]), canonically ordered.

    An ideal's components are tubes of x, pairwise disjoint, so each ideal
    is built once, as the union of its components: each tube t of x joins
    every union so far that it misses.  Disjoint tubes of a tubing have no
    edge between them, so missing t is all the test needs.  For a maximal
    tubing these coincide with the order ideals of tau(x).
    """
    out = [0]
    for t in x.tubes:
        mask = sum(1 << v for v in t)
        out += [I | mask for I in out if not I & mask]
    return sorted(map(mask_vertices, out), key=tube_key)


def ideal_splits(x: Tubing) -> Iterator[tuple[frozenset, Tubing, Tubing]]:
    """(I, restrict_std(x, I), quotient_std(x, I)) for every ideal I of x, in
    ``ideals`` order, by the ideal rule of the module docstring."""
    for I in ideals(x):
        sub, quo, label = _cut_graphs(x.graph, I)
        inside = [frozenset(map(label.__getitem__, t)) for t in x.tubes if t <= I]
        outside = [frozenset(map(label.__getitem__, t - I)) for t in x.tubes if not t <= I]
        yield I, _tubing(sub, inside), _tubing(quo, outside)


@lru_cache(maxsize=None)
def _cut_graphs(g: Graph, I: frozenset) -> tuple[Graph, Graph, tuple]:
    """G|_I, G/I and each vertex's label in the one of them that keeps it."""
    (sub, low), (quo, high) = induced_subgraph(g, I), contract(g, I)
    return sub, quo, tuple(map({**low, **high}.get, range(g.n + 1)))


def _forest_words(t: GForest, descending: bool = False) -> Iterator[tuple[int, ...]]:
    """The linear extensions of t in lexicographic order (reversed when
    ``descending``), by one depth-first walk over the bitmask of unplaced
    vertices.  A vertex is available once its children are placed; every
    available vertex extends to a whole word, so the first word is greedy."""
    below = t._below
    order = t.graph.vertices[::-1] if descending else t.graph.vertices
    word: list[int] = []

    def walk(rest: int) -> Iterator[tuple[int, ...]]:
        if not rest:
            yield tuple(word)
            return
        for v in order:
            if rest >> v & 1 and not below[v] & rest:
                word.append(v)
                yield from walk(rest ^ 1 << v)
                word.pop()

    return walk((1 << t.graph.n + 1) - 2)


def linear_extensions(t: GForest) -> list[tuple[int, ...]]:
    """All words listing every element after everything below it in t."""
    return list(_forest_words(t))


def sigma_min(t: GForest) -> tuple[int, ...]:
    """Lexicographically minimal linear extension (take the least available
    minimal element at each step)."""
    return next(_forest_words(t))


def sigma_max(t: GForest) -> tuple[int, ...]:
    """Lexicographically maximal linear extension; for left- or right-filled
    graphs this is the unique largest element of the fiber."""
    return next(_forest_words(t, descending=True))


def forest_inversions(t: GForest) -> frozenset:
    """Pairs (i, j) with i < j and j strictly below i in the forest."""
    return frozenset((i, j) for i in t.graph.vertices for j in bits(t._ideal[i] & -(2 << i)))


def descents(t: GForest) -> frozenset:
    """Pairs (i, k), i < k, where i covers k in the forest."""
    return frozenset(
        (i, k) for k in t.graph.vertices for i in [t.parent_of(k)] if i != 0 and i < k
    )


def ascents(t: GForest) -> frozenset:
    """Pairs (i, k), i > k, where i covers k in the forest."""
    return frozenset(
        (p, k) for k in t.graph.vertices for p in [t.parent_of(k)] if p != 0 and p > k
    )


def flip(x: Tubing, I: Iterable[int]) -> tuple[Tubing, frozenset]:
    """Exchange tube I of the maximal tubing x for J, the component of
    top(K) in K - top(I), K the smallest tube of x strictly containing I;
    component tubes have no such K and cannot be flipped.  The flip goes up
    in L_G iff top(I) < top(K), and top(K) is the top of J after it."""
    I = frozenset(I)
    if not x.is_maximal():
        raise InvalidTubing("flip requires a maximal tubing")
    if I not in x:
        raise TubeNotInTubing(f"{sorted(I)} not in tubing")
    # supertubes of I are nested, and tube_key order puts the smallest first
    K = next((t for t in x.tubes if I < t), None)
    if K is None:
        raise MaximalTubeNotFlippable(
            f"{sorted(I)} is the tube of a whole component; it cannot be flipped"
        )
    rest = sum(1 << v for v in K - {top(x, I)})
    J = mask_vertices(component(adjacency(x.graph), rest, top(x, K)))
    return _tubing(x.graph, tuple(t for t in x.tubes if t != I) + (J,)), J


def flip_by_search(x: Tubing, I: Iterable[int]) -> tuple[Tubing, frozenset]:
    """Oracle flip: scan all tubes for the unique completion (test use)."""
    I = frozenset(I)
    if I not in x:
        raise TubeNotInTubing(f"{sorted(I)} not in tubing")
    rest = [t for t in x.tubes if t != I]
    found = []
    for J in tubes(x.graph):
        if J == I or J in set(rest):
            continue
        if all(compatible(x.graph, J, t) for t in rest):
            found.append(J)
    if len(found) != 1:
        raise MaximalTubeNotFlippable(
            f"{sorted(I)} has {len(found)} exchange candidates"
        )
    J = found[0]
    return _tubing(x.graph, tuple(rest) + (J,)), J


def vertex_coordinates(t: GForest) -> tuple[int, ...]:
    """Vertex of the graph associahedron at the maximal tubing chi(t):
    coordinate i counts the tubes of G inside the smallest tube of chi(t)
    containing i that themselves contain i.

    That tube is the one whose top is i, the ideal of i in t."""
    return tuple(_containment_counts(t.graph, t.ideal(v))[v] for v in t.graph.vertices)


@lru_cache(maxsize=None)
def _containment_counts(g: Graph, S: frozenset) -> tuple[int, ...]:
    """Entry i counts the tubes t of G with i in t <= S (entry 0 unused)."""
    inside = [t for t in tubes(g) if t <= S]
    return tuple(sum(i in t for t in inside) for i in range(g.n + 1))
