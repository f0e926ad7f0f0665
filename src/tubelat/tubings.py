"""Tubings of a graph and their forest encodings.

Two tubes are *compatible* when they are nested or their union is not a tube
(compatible tubes that are not nested are automatically disjoint).  A tubing
is a pairwise-compatible set of tubes; the maximal ones all have exactly n
tubes and are the vertices of the graph associahedron.

Maximal tubings are encoded interchangeably as forests: ``chi`` sends a
forest to the tubing of its principal ideals, and ``tau`` inverts it.  The
``top`` of a tube in a maximal tubing is its unique vertex outside every
smaller tube, and tops are a bijection onto [n].

A parent array is a G-forest when it has no cycle, every principal ideal is
a tube, and incomparable vertices have ideals whose union is not a tube;
disjoint tubes have a tube union exactly when an edge joins them.
``validate_gforest`` tests this locally, bottom-up on bitmasks: every vertex
v is adjacent to the ideal of each child, and no edge joins the ideals of
two children of v or of two roots.  The local test is equivalent.  Given
the sibling condition, v's ideal is a tube iff v touches each child's ideal,
since a path out of a child's ideal can only leave through v.  Two
incomparable vertices lie under distinct children c, c' of their lowest
common ancestor (or under distinct roots), and an edge between their ideals
is an edge between the ideals of c and c'.

``enumerate_maximal_tubings`` builds every maximal tubing from one fact: a
maximal tubing of a connected set picks a root and recurses on the
components of what is left.  It works on *codes* (of the m tubes of g,
``tubes(g)[k]`` holds bit m - 1 - k), so adding a tube, or joining the
tubings of disjoint components, is an OR.  Descending codes are ascending
``Tubing.key``: ``tubes(g)`` is in ``tube_key`` order, so two maximal
tubings (n tubes each) compare as their sorted tube indices; the lower one
holds the least index where they differ, so its code is the larger.
Only this module knows the format: the enumerator keeps one table per graph
(tube mask -> bit, code -> tubing), and ``flips``, ``psi_images`` and
``split_restrictions`` answer in tubings, finding each by code there.
``psi_tubing``, the surjection from words, and ``maximal_tubings_oracle``, a
clique search over the per-graph table ``compatibility_masks``, are
independent routes to the same set.

The words of a forest (``linear_extensions``, and its lexicographic
extremes ``sigma_min`` and ``sigma_max``) come from one walk over the
bitmask of unplaced vertices, in ascending or descending vertex order.

``tube_tree`` reads the tube tree, for ``tau``, ``top``, flips and
coordinates, in one pass over the tubes, largest first.  Tubes of a tubing
are nested or disjoint, so when tube I is reached each of its vertices still
belongs to its smallest strict supertube K, and I takes them all.  Each tube
ends up owning exactly its vertices outside every smaller tube: its top, in
a maximal tubing.  A flip exchanges I for J, the component of top(K) in
K - top(I); oriented by comparing tops, the flips are the covers of the
partial order on maximal tubings built in the poset module.  K - top(I) is
top(K), the other children of K, each touching top(K) but not I, and the
children of I, components of I - top(I); so J is K - top(I) less the
children of I that miss top(K), which the tree gives with no search.

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
comp_h(w_j, T_j).  ``split_restrictions`` and ``hopf.coarsen`` read the two
maps off ``tube_tree`` this way.

``restrict_std`` and ``quotient_std`` return ``Tubing`` values on the graph
that ``graphs.induced_subgraph`` or ``graphs.contract`` returns, relabeled
onto [k] in label order with it: x|_I on G|_I and x/I on G/I.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import (
    InvalidForest,
    InvalidTubing,
    MaximalTubeNotFlippable,
    NotAnIdeal,
    NotATube,
    TubeNotInTubing,
    TubelatError,
)
from .graphs import (
    Graph,
    adjacency,
    bits,
    component,
    component_tubes,
    components_within,
    contract,
    induced_subgraph,
    is_tube,
    mask_vertices,
    tube_key,
    tubes,
)


def canonical_tubes(ts: Iterable[frozenset]) -> tuple[frozenset, ...]:
    return tuple(sorted(set(ts), key=tube_key))


@dataclass(frozen=True)
class Tubing:
    """A set of pairwise compatible tubes, canonically ordered.  The
    constructor validates nothing: ``make_tubing`` and JSON input do, and
    ``tube_tree``, ``hopf.coarsen``, ``hopf.fiber_sum`` and the code table
    trust it."""

    graph: Graph
    tubes: tuple[frozenset, ...]

    def __post_init__(self):
        ts = canonical_tubes(self.tubes)
        object.__setattr__(self, "tubes", ts)
        object.__setattr__(self, "_hash", hash((self.graph, ts)))

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
        if len(self.tubes) != self.graph.n:
            return False
        return all(c in self.tubes for c in component_tubes(self.graph))

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
        return make_tubing(g, [frozenset(t) for t in obj["tubes"]])


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


def make_tubing(g: Graph, ts: Iterable[frozenset]) -> Tubing:
    ts = [frozenset(t) for t in ts]
    for t in ts:
        if not is_tube(g, t):
            raise NotATube(f"{sorted(t)} is not a tube of the graph")
    for a, b in itertools.combinations(set(ts), 2):
        if not compatible(g, a, b):
            raise InvalidTubing(f"incompatible tubes {sorted(a)}, {sorted(b)}")
    return Tubing(g, tuple(ts))


@dataclass(frozen=True)
class GForest:
    """Forest poset on [n] as a parent array; parent 0 marks a root.

    i <_T k means k lies on the path from i to its root.  Validity (no
    cycle, principal ideals are tubes, incomparable ideals have non-tube
    unions) is checked by ``validate_gforest``; ``chi``/``tau`` always hand
    back valid values.
    """

    graph: Graph
    parent: tuple[int, ...]

    def __post_init__(self):
        n = self.graph.n
        if len(self.parent) != n:
            raise InvalidForest("parent array length must equal n")
        # children[0] lists the roots; bit c of below[v] marks a child c of v
        children: list[list[int]] = [[] for _ in range(n + 1)]
        below = [0] * (n + 1)
        for v, p in enumerate(self.parent, 1):
            if not 0 <= p <= n:
                raise InvalidForest(f"parent of {v} out of range")
            children[p].append(v)
            below[p] |= 1 << v
        object.__setattr__(self, "_children", tuple(map(tuple, children)))
        object.__setattr__(self, "_below", tuple(below))

    def parent_of(self, v: int) -> int:
        return self.parent[v - 1]

    def children(self, v: int) -> tuple[int, ...]:
        return self._children[v]

    def roots(self) -> tuple[int, ...]:
        return self._children[0]

    def less(self, i: int, k: int) -> bool:
        """i <_T k (strictly)."""
        v = self.parent_of(i)
        while v != 0:
            if v == k:
                return True
            v = self.parent_of(v)
        return False

    def ideal(self, v: int) -> frozenset:
        """The principal order ideal v_down: a flood fill over the child masks."""
        return mask_vertices(component(self._below, -1, v))

    def to_json_obj(self) -> dict:
        return {"graph": self.graph.to_json_obj(), "parent": list(self.parent)}

    @staticmethod
    def from_json_obj(obj: dict) -> "GForest":
        g = Graph.from_json_obj(obj["graph"])
        t = GForest(g, tuple(int(p) for p in obj["parent"]))
        validate_gforest(t)
        return t


def validate_gforest(t: GForest) -> tuple[frozenset, ...]:
    """Raise ``InvalidForest`` unless t is a G-forest; return the principal
    ideals of vertices 1..n.

    One bottom-up pass over bitmasks applies the local test of the module
    docstring; a forest it rejects goes through ``_gforest_scan``, which
    names the first failure.
    """
    g = t.graph
    children = t._children
    # every vertex off a cycle hangs below a root
    below_roots = list(children[0])
    for v in below_roots:
        below_roots.extend(children[v])
    if len(below_roots) != g.n:
        raise InvalidForest("parent relation has a cycle")
    adj = adjacency(g)
    ideal = [0] * (g.n + 1)  # mask of v's principal ideal
    reach = [0] * (g.n + 1)  # mask of the vertices adjacent to that ideal
    for v in reversed(below_roots):
        down, near = 0, adj[v]
        for c in children[v]:
            # v touches each child's ideal; sibling ideals do not touch
            if not adj[v] & ideal[c] or reach[c] & down:
                return _gforest_scan(t, below_roots)
            down |= ideal[c]
            near |= reach[c]
        ideal[v], reach[v] = down | 1 << v, near
    apart = 0
    for r in children[0]:
        if reach[r] & apart:
            return _gforest_scan(t, below_roots)
        apart |= ideal[r]
    return tuple(map(mask_vertices, ideal[1:]))


def _gforest_scan(t: GForest, below_roots: list[int]) -> tuple[frozenset, ...]:
    """``validate_gforest`` for an acyclic t, by testing every ideal and every
    incomparable pair in turn; it names the first failure."""
    g = t.graph
    ideal = [0] * (g.n + 1)
    for v in reversed(below_roots):
        ideal[v] = 1 << v
        for c in t.children(v):
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
    return tuple(map(mask_vertices, ideal[1:]))


def chi(t: GForest) -> Tubing:
    """Forest -> maximal tubing of principal ideals."""
    return Tubing(t.graph, validate_gforest(t))


def tube_tree(x: Tubing) -> tuple[list[int], list[int], list[int]]:
    """Indexed like ``x.tubes``: the top of each tube, the index of its
    smallest strict supertube (-1 for none), and its vertex mask.

    One pass, largest tube first (see the module docstring); raises
    ``InvalidTubing`` unless every tube ends up owning exactly one vertex.
    """
    ts = x.tubes
    owner = [-1] * (x.graph.n + 1)  # the last tube to take each vertex
    up = [-1] * len(ts)
    masks = [0] * len(ts)
    for i in reversed(range(len(ts))):
        up[i] = owner[next(iter(ts[i]), 0)]
        mask = 0
        for v in ts[i]:
            owner[v] = i
            mask |= 1 << v
        masks[i] = mask
    tops = [0] * len(ts)  # -1 marks a tube left with two vertices
    for v, i in enumerate(owner):
        if i >= 0:
            tops[i] = -1 if tops[i] else v
    for t, v in zip(ts, tops):
        if v <= 0:
            raise InvalidTubing(f"tube {sorted(t)} has no unique top; tubing not maximal?")
    return tops, up, masks


def top(x: Tubing, I: Iterable[int]) -> int:
    """The unique vertex of I avoiding every tube of x properly inside I."""
    I = frozenset(I)
    if I not in x:
        raise TubeNotInTubing(f"{sorted(I)} not in tubing")
    return tube_tree(x)[0][x.tubes.index(I)]


def tau(x: Tubing) -> GForest:
    """Maximal tubing -> forest: each top's parent is the top of the next tube up."""
    if not x.is_maximal():
        raise InvalidTubing("tau requires a maximal tubing")
    parent = [0] * x.graph.n
    tops, up, _ = tube_tree(x)
    for i, j in enumerate(up):
        if j >= 0:
            parent[tops[i] - 1] = tops[j]
    return GForest(x.graph, tuple(parent))


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
    return Tubing(g, tuple(ts))


def psi_images(g: Graph) -> list[Tubing]:
    """``psi_tubing(g, w)`` for every word w of [n], in lexicographic order,
    as the objects of ``enumerate_maximal_tubings``: one walk over word
    prefixes keeps each prefix's components as masks, shared by every word
    that extends it (so the merge stays inline, not in ``graphs.component``),
    and each leaf's code picks its tubing."""
    adj = adjacency(g)
    bit, by_code = _code_table(g)
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
def _code_table(g: Graph) -> tuple[dict, dict]:
    """The code table of g: tube mask -> its bit, and code -> maximal tubing
    in ``Tubing.key`` order.  A maximal tubing of a connected set C picks a
    root r, the top of the tube C, and recurses on the components of C - {r};
    a disconnected set combines one maximal tubing of each component.  Each
    subset is decomposed once, its codes memoized."""
    adj = adjacency(g)
    rev = tubes(g)[::-1]  # bit j stands for rev[j] (see the module docstring)
    bit = {sum(1 << v for v in t): 1 << j for j, t in enumerate(rev)}
    memo: dict = {}

    def rec(S: int) -> list[int]:
        """Codes of the maximal tubings of G|_S, S a mask."""
        if S not in memo:
            combos = [0]
            rest = S
            while rest:
                C = component(adj, rest, (rest & -rest).bit_length() - 1)
                rest ^= C
                tube = bit[C]
                opts = [code | tube for r in bits(C) for code in rec(C ^ 1 << r)]
                combos = [acc | o for acc in combos for o in opts]
            memo[S] = combos
        return memo[S]

    codes = sorted(rec((2 << g.n) - 2), reverse=True)
    return bit, {code: Tubing(g, tuple(rev[j] for j in bits(code))) for code in codes}


@lru_cache(maxsize=None)
def enumerate_maximal_tubings(g: Graph) -> tuple[Tubing, ...]:
    """All maximal tubings, sorted by ``Tubing.key``: the tubings of the
    code table, as the same objects."""
    return tuple(_code_table(g)[1].values())


def flips(g: Graph) -> Iterator[tuple[Tubing, Tubing, int, int]]:
    """(x, y, a, b) for every flip of every maximal tubing x of g, in
    enumeration order: y is x with I exchanged for J, a = top(I) and
    b = top(J) as ``oriented_flips`` yields them; x < y in L_G iff a < b.
    y is found by code, so no tubing or tube set is built per flip."""
    bit, by_code = _code_table(g)
    for code, x in by_code.items():
        for I, J, a, b in oriented_flips(x):
            yield x, by_code[code ^ bit[I] ^ bit[J]], a, b


def split_restrictions(g: Graph, n: int) -> Iterator[tuple[Tubing, Tubing, Tubing]]:
    """(z, restrict_std(z, [1..n]), restrict_std(z, [n+1..N])) for every
    maximal tubing z of g on [N].  By the restriction rule, each tube t of z
    with top v adds the component of v in t cut to v's side to the code of
    the left restriction (v <= n) or, shifted down by n, of the right one."""
    adj = adjacency(g)
    low_bit, low_by_code = _code_table(induced_subgraph(g, range(1, n + 1))[0])
    high_bit, high_by_code = _code_table(induced_subgraph(g, range(n + 1, g.n + 1))[0])
    below = (2 << n) - 2
    for z in enumerate_maximal_tubings(g):
        tops, _, masks = tube_tree(z)
        left = right = 0
        for v, t in zip(tops, masks):
            if v <= n:
                left |= low_bit[component(adj, t & below, v)]
            else:
                right |= high_bit[component(adj, t & ~below, v) >> n]
        yield z, low_by_code[left], high_by_code[right]


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
        Tubing(g, tuple(ts[i] for i in range(m) if bits >> i & 1)) for bits in results
    ]
    return tuple(sorted(out, key=Tubing.key))


def restrict_std(x: Tubing, I: Iterable[int]) -> Tubing:
    """X|_I: components of every I-intersected tube, a tubing of G|_I,
    relabeled with it onto [|I|] in label order."""
    g = x.graph
    I = frozenset(I)
    sub, phi = induced_subgraph(g, I)
    out: set = set()
    for t in x.tubes:
        out.update(components_within(g, t & I))
    return Tubing(sub, tuple(frozenset(phi[v] for v in c) for c in out))


def is_ideal(x: Tubing, I: Iterable[int]) -> bool:
    """An ideal is a union of pairwise disjoint tubes of x, equivalently a
    set whose G|_I components all belong to x."""
    I = frozenset(I)
    if not I:
        return True
    if not I <= set(x.graph.vertices):
        return False
    tset = set(x.tubes)
    return all(c in tset for c in components_within(x.graph, I))


def quotient_std(x: Tubing, I: Iterable[int]) -> Tubing:
    """X/I = {J - I : J in X, J not inside I}, a tubing of G/I, relabeled
    with it onto [n - |I|] in label order."""
    I = frozenset(I)
    if not is_ideal(x, I):
        raise NotAnIdeal(f"{sorted(I)} is not an ideal of the tubing")
    quo, phi = contract(x.graph, I)
    return Tubing(quo, tuple(frozenset(phi[v] for v in t - I) for t in x.tubes if not t <= I))


def ideals(x: Tubing) -> list[frozenset]:
    """All ideals (including the empty set and [n]), canonically ordered.

    For a maximal tubing these coincide with the order ideals of tau(x).
    """
    tset = set(x.tubes)
    out = []
    for r in range(x.graph.n + 1):
        for sub in itertools.combinations(x.graph.vertices, r):
            I = frozenset(sub)
            if all(c in tset for c in components_within(x.graph, I)):
                out.append(I)
    return sorted(out, key=tube_key)


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


def _first_word(t: GForest, descending: bool) -> tuple[int, ...]:
    for word in _forest_words(t, descending):
        return word
    raise InvalidForest("parent relation has a cycle")


def sigma_min(t: GForest) -> tuple[int, ...]:
    """Lexicographically minimal linear extension (take the least available
    minimal element at each step)."""
    return _first_word(t, descending=False)


def sigma_max(t: GForest) -> tuple[int, ...]:
    """Lexicographically maximal linear extension; for left- or right-filled
    graphs this is the unique largest element of the fiber."""
    return _first_word(t, descending=True)


def forest_inversions(t: GForest) -> frozenset:
    """Pairs (i, j) with i < j and j strictly below i in the forest."""
    return frozenset(
        (i, j)
        for i, j in itertools.combinations(t.graph.vertices, 2)
        if t.less(j, i)
    )


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
    """Exchange tube I of the maximal tubing x for the unique alternative J
    (see ``oriented_flips``); component tubes cannot be flipped."""
    I = frozenset(I)
    if not x.is_maximal():
        raise InvalidTubing("flip requires a maximal tubing")
    if I not in x:
        raise TubeNotInTubing(f"{sorted(I)} not in tubing")
    mask = sum(1 << v for v in I)
    for old, J, _, _ in oriented_flips(x):
        if old == mask:
            J = mask_vertices(J)
            return Tubing(x.graph, tuple(t for t in x.tubes if t != I) + (J,)), J
    raise MaximalTubeNotFlippable(
        f"{sorted(I)} is the tube of a whole component; it cannot be flipped"
    )


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
    return Tubing(x.graph, tuple(rest) + (J,)), J


def oriented_flips(x: Tubing) -> Iterator[tuple[int, int, int, int]]:
    """Yield (I, J, a, b) for every flippable tube I of the maximal tubing x,
    with I and J as vertex masks.

    Let K be the smallest tube of x strictly containing I, a = top(I) and
    b = top(K); then J is the component of b in G restricted to K - {a}, and
    b is the top of J after the flip.  The flip goes up in L_G iff a < b.
    Component tubes have no such K and are skipped.  J is read off the tube
    tree (see the module docstring).
    """
    adj = adjacency(x.graph)
    tops, up, masks = tube_tree(x)
    cut = [0] * len(up)  # the children of each tube I that miss top(K)
    for c, i in enumerate(up):
        if i >= 0 and up[i] >= 0 and not masks[c] & adj[tops[up[i]]]:
            cut[i] |= masks[c]
    for i, j in enumerate(up):
        if j >= 0:
            a, b = tops[i], tops[j]
            yield masks[i], masks[j] ^ 1 << a ^ cut[i], a, b


def vertex_coordinates(x: Tubing) -> tuple[int, ...]:
    """Vertex of the graph associahedron: coordinate i counts the tubes of G
    inside the smallest x-tube containing i that themselves contain i.

    The smallest x-tube containing i is the tube whose top is i."""
    coords = [0] * (x.graph.n + 1)
    for t, v in zip(x.tubes, tube_tree(x)[0]):
        coords[v] = _containment_counts(x.graph, t)[v]
    if 0 in coords[1:]:
        raise InvalidTubing(f"no tube of the tubing contains {coords.index(0, 1)}")
    return tuple(coords[1:])


@lru_cache(maxsize=None)
def _containment_counts(g: Graph, S: frozenset) -> tuple[int, ...]:
    """Entry i counts the tubes t of G with i in t <= S (entry 0 unused)."""
    inside = [t for t in tubes(g) if t <= S]
    return tuple(sum(i in t for t in inside) for i in range(g.n + 1))
