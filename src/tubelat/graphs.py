"""Simple graphs on the vertex set [n] = {1, ..., n}.

A vertex subset I is a *tube* when the induced subgraph is connected.  The
minor operations here act on vertex sets, not edges: deletion restricts to
the complement, and contraction (the "reconnected complement") additionally
joins two surviving vertices whenever both have a neighbor inside a common
tube of the removed set.

There is one kind of graph value, ``Graph``, whose vertex set is exactly
[n]; everything downstream (tubings, posets, Hopf structures) consumes it.
The minor operations ``induced_subgraph``, ``delete`` and ``contract`` keep
k of the vertices and return the graph relabeled onto [k] in label order,
together with the label map old -> new, so no value ever carries other
labels.

Connectivity is computed on int bitmasks (bit v stands for vertex v), from
the neighbor masks of ``adjacency`` by ``component``, the one flood fill;
frozensets are built only at the boundary, for tubes, return values and
labels.  Only the prefix walk of ``tubings.psi_images`` merges components.

Graph families (one graph per degree) live here too: path, complete,
edge-free, cycle, odd-bipartite, the distance bands H_{k,n}, and the general
distance-set families where {i, j} is an edge iff |j - i| lies in a fixed set.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvalidVertex, TubelatError

Edge = tuple[int, int]


def _normalize_edges(edges: Iterable[Iterable[int]]) -> tuple[Edge, ...]:
    out = set()
    for e in edges:
        a, b = e
        if a == b:
            raise TubelatError(f"loop edge {a!r}")
        out.add((min(a, b), max(a, b)))
    return tuple(sorted(out))


@dataclass(frozen=True, order=True)
class Graph:
    """Simple graph with vertex set {1, ..., n} and a sorted edge tuple."""

    n: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise TubelatError("vertex count must be nonnegative")
        if self.n >= sys.maxsize:
            # tables indexed by vertex have n + 1 entries, which must fit an index
            raise TubelatError(f"vertex count {self.n} is not below {sys.maxsize}")
        edges = _normalize_edges(self.edges)
        object.__setattr__(self, "edges", edges)
        for a, b in edges:
            if not (1 <= a < b <= self.n):
                raise InvalidVertex(f"edge ({a},{b}) out of range for n={self.n}")
        object.__setattr__(self, "_hash", hash((self.n, edges)))

    def __hash__(self) -> int:
        # the dataclass formula, computed once: graphs key every cache
        return self._hash

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def has_edge(self, i: int, j: int) -> bool:
        return 1 <= i <= self.n and 1 <= j <= self.n and bool(adjacency(self)[i] >> j & 1)

    def to_text(self) -> str:
        lines = [str(self.n)]
        lines.extend(f"{a} {b}" for a, b in self.edges)
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Graph":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise TubelatError("empty graph text")
        n = int(lines[0])
        edges = []
        for ln in lines[1:]:
            a, b = ln.split()
            edges.append((int(a), int(b)))
        return Graph(n, tuple(edges))

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @staticmethod
    def from_json_obj(obj: dict) -> "Graph":
        """The inverse of ``to_json_obj``: {"n": int, "edges": [[int, int], ...]}."""
        if not isinstance(obj, dict) or not {"n", "edges"} <= obj.keys():
            raise TubelatError('a JSON graph needs the keys "n" and "edges"')
        n, edges = obj["n"], obj["edges"]
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 for e in edges
        ):
            raise TubelatError("JSON graph edges must be a list of vertex pairs")
        if not all(type(v) is int for v in [n, *itertools.chain.from_iterable(edges)]):
            raise TubelatError("JSON graph vertex counts and edge ends must be integers")
        return Graph(n, tuple((a, b) for a, b in edges))

    def __str__(self) -> str:
        return f"Graph(n={self.n}, edges={{{', '.join(f'{a}{b}' if self.n < 10 else f'{a}-{b}' for a, b in self.edges)}}})"


@lru_cache(maxsize=None)
def tube_key(t: frozenset) -> tuple:
    """The canonical tube order: by size, then by sorted vertex list.

    Memoized, so each vertex set is sorted once; the keys are subsets of
    [n], at most 2^n of them per n.  ``t`` must be a frozenset.
    """
    return (len(t), tuple(sorted(t)))


@lru_cache(maxsize=None)
def adjacency(g: Graph) -> tuple[int, ...]:
    """Neighbor masks indexed by vertex: bit u of entry v is set iff u ~ v.
    Index 0 is unused."""
    adj = [0] * (g.n + 1)
    for a, b in g.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return tuple(adj)


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


@lru_cache(maxsize=None)
def mask_vertices(mask: int) -> frozenset:
    """The vertex set of a bitmask: bit v stands for vertex v."""
    return frozenset(bits(mask))


@lru_cache(maxsize=None)
def component_tubes(g: Graph) -> tuple[frozenset, ...]:
    """The connected components of G, ordered by smallest member."""
    return tuple(components_within(g, g.vertices))


def component(adj: Sequence[int], allowed: int, v: int) -> int:
    """The mask of the vertices joined to v by paths inside the mask
    ``allowed`` (v included), by flood fill over an ``adjacency`` table.

    The one connected-component routine (see the module docstring)."""
    comp = frontier = 1 << v
    while frontier:
        near = 0
        while frontier:
            b = frontier & -frontier
            near |= adj[b.bit_length() - 1]
            frontier ^= b
        frontier = near & allowed & ~comp
        comp |= frontier
    return comp


def components_within(g: Graph, S: Iterable[int]) -> list[frozenset]:
    """Connected components of G|_S, ordered by smallest member."""
    adj = adjacency(g)
    rest = sum(1 << v for v in set(S))
    comps = []
    while rest:
        comp = component(adj, rest, (rest & -rest).bit_length() - 1)
        rest ^= comp
        comps.append(mask_vertices(comp))
    return comps


def _check_vertex_subset(g: Graph, I: Iterable[int]) -> frozenset:
    I = frozenset(I)
    for v in I:
        if not (1 <= v <= g.n):
            raise InvalidVertex(f"vertex {v} not in [1..{g.n}]")
    return I


def _relabeled(kept: Sequence[int], edges: Iterable[Edge]) -> tuple[Graph, dict]:
    """The graph on [k] of ``edges`` between the sorted labels ``kept``,
    relabeled in label order, and the label map old -> new."""
    phi = {v: i for i, v in enumerate(kept, 1)}
    return Graph(len(kept), tuple((phi[a], phi[b]) for a, b in edges)), phi


def induced_subgraph(g: Graph, I: Iterable[int]) -> tuple[Graph, dict]:
    """The induced subgraph on I, relabeled onto [|I|] in label order, and
    the label map old -> new."""
    I = _check_vertex_subset(g, I)
    return _relabeled(sorted(I), (e for e in g.edges if e[0] in I and e[1] in I))


def delete(g: Graph, I: Iterable[int]) -> tuple[Graph, dict]:
    """Vertex deletion: the induced subgraph on the complement of I."""
    I = _check_vertex_subset(g, I)
    return induced_subgraph(g, set(g.vertices) - I)


def contract(g: Graph, I: Iterable[int]) -> tuple[Graph, dict]:
    """The reconnected complement G/I, relabeled onto [n - |I|] in label
    order, and the label map old -> new.

    Surviving vertices i, j are adjacent when {i,j} was an edge of G or when
    both have a neighbor inside one tube of G|_I.  It suffices to test the
    maximal tubes, i.e. the connected components of G|_I: j must touch the
    component of i in G|_(I + i).
    """
    I = _check_vertex_subset(g, I)
    adj = adjacency(g)
    inside = sum(1 << v for v in I)
    rest = tuple(v for v in g.vertices if v not in I)
    reach = {i: component(adj, inside, i) for i in rest}
    return _relabeled(
        rest, ((i, j) for i, j in itertools.combinations(rest, 2) if adj[j] & reach[i])
    )


def is_tube(g: Graph, I: Iterable[int]) -> bool:
    """True iff I is nonempty and G induces a connected subgraph on it."""
    I = _check_vertex_subset(g, I)
    mask = sum(1 << v for v in I)
    return bool(I) and component(adjacency(g), mask, min(I)) == mask


@lru_cache(maxsize=None)
def tubes(g: Graph) -> tuple[frozenset, ...]:
    """All tubes, each exactly once, sorted by (size, vertex list).

    Enumerates by growing connected sets from their minimum vertex, so the
    cost is proportional to the number of tubes rather than 2^n.  ``banned``
    holds the vertices up to the minimum and those earlier branches took.
    """
    adj = adjacency(g)
    out: list[int] = []

    def grow(current: int, near: int, banned: int):
        out.append(current)
        cand = near & ~(current | banned)
        while cand:
            b = cand & -cand
            grow(current | b, near | adj[b.bit_length() - 1], banned)
            banned |= b
            cand ^= b

    for v in range(1, g.n + 1):
        grow(1 << v, adj[v], (2 << v) - 1)
    return tuple(sorted(map(mask_vertices, out), key=tube_key))


@dataclass(frozen=True)
class FilledStatus:
    filled: bool
    right_filled: bool
    left_filled: bool


def filled_status(g: Graph) -> FilledStatus:
    """Whether each edge {i,k} forces the chords {j,k} (RF) / {i,j} (LF)."""
    eset = set(g.edges)
    right = all(
        (j, k) in eset for (i, k) in g.edges for j in range(i + 1, k)
    )
    left = all(
        (i, j) in eset for (i, k) in g.edges for j in range(i + 1, k)
    )
    return FilledStatus(filled=right and left, right_filled=right, left_filled=left)


def minimal_non_edges(g: Graph) -> list[Edge]:
    """Pairs x < y off the edge set whose every intermediate z sees both ends."""
    eset = set(g.edges)
    out = []
    for x, y in itertools.combinations(g.vertices, 2):
        if (x, y) in eset:
            continue
        if all((x, z) in eset and (z, y) in eset for z in range(x + 1, y)):
            out.append((x, y))
    return out


def dual_graph(g: Graph) -> Graph:
    """Swap vertex i with n+1-i; an involution."""
    n = g.n
    return Graph(n, tuple((n + 1 - b, n + 1 - a) for a, b in g.edges))


def minors(g: Graph) -> list[Graph]:
    """All graphs reachable by single-vertex deletions and contractions,
    deduplicated, in BFS order (the graph itself first)."""
    seen = {g}
    order = [g]
    queue = [g]
    while queue:
        h = queue.pop(0)
        for v in h.vertices:
            for child, _ in (delete(h, {v}), contract(h, {v})):
                if child not in seen:
                    seen.add(child)
                    order.append(child)
                    queue.append(child)
    return order


# ---------------------------------------------------------------------------
# Graph families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphFamily:
    """One graph per degree; ``rule(n)`` must return a Graph on [n]."""

    name: str
    rule: Callable[[int], Graph] = field(compare=False, repr=False)

    def __call__(self, n: int) -> Graph:
        g = self.rule(n)
        if g.n != n:
            raise TubelatError(f"family {self.name!r} returned wrong degree at n={n}")
        return g


def _distance_graph(n: int, allowed: Callable[[int], bool]) -> Graph:
    edges = tuple(
        (i, j) for i, j in itertools.combinations(range(1, n + 1), 2) if allowed(j - i)
    )
    return Graph(n, edges)


def family_from_A(A) -> GraphFamily:
    """Distance-set family: {i,j} is an edge iff |j-i| is in A.

    ``A`` may be a finite set of positive integers or the string "all".
    """
    if A == "all":
        return GraphFamily("A:all", lambda n: _distance_graph(n, lambda d: True))
    A = frozenset(int(a) for a in A)
    if any(a < 1 for a in A):
        raise TubelatError("distance set must contain positive integers")
    name = "A:{" + ",".join(str(a) for a in sorted(A)) + "}"
    return GraphFamily(name, lambda n: _distance_graph(n, lambda d: d in A))


def family_path() -> GraphFamily:
    return GraphFamily("path", lambda n: _distance_graph(n, lambda d: d == 1))


def family_complete() -> GraphFamily:
    return GraphFamily("complete", lambda n: _distance_graph(n, lambda d: True))


def family_empty() -> GraphFamily:
    return GraphFamily("empty", lambda n: Graph(n))


def family_cycle() -> GraphFamily:
    """Cycle graphs with vertices labeled in cyclic order (C_2 = K_2)."""

    def rule(n: int) -> Graph:
        if n <= 1:
            return Graph(n)
        if n == 2:
            return Graph(2, ((1, 2),))
        edges = tuple((i, i + 1) for i in range(1, n)) + ((1, n),)
        return Graph(n, edges)

    return GraphFamily("cycle", rule)


def family_odd_bipartite() -> GraphFamily:
    """Complete bipartite family: i ~ j iff |i-j| is odd."""
    return GraphFamily("oddbip", lambda n: _distance_graph(n, lambda d: d % 2 == 1))


def family_h(k: int) -> GraphFamily:
    """Distance band H_{k,n}: edges at distance at most k."""
    if k < 0:
        raise TubelatError("k must be nonnegative")
    return GraphFamily(f"h:{k}", lambda n: _distance_graph(n, lambda d: d <= k))


def parse_family(descriptor: str) -> GraphFamily:
    """Parse a CLI family descriptor.

    Accepted: ``path``, ``complete``, ``empty``, ``cycle``, ``oddbip``,
    ``h:<k>``, ``A:{a1,a2,...}``, ``A:all``.
    """
    d = descriptor.strip()
    simple = {
        "path": family_path,
        "complete": family_complete,
        "empty": family_empty,
        "cycle": family_cycle,
        "oddbip": family_odd_bipartite,
    }
    if d in simple:
        return simple[d]()
    if d.startswith("h:"):
        return family_h(int(d[2:]))
    if d.startswith("A:"):
        body = d[2:]
        if body == "all":
            return family_from_A("all")
        body = body.strip("{}")
        items = [s for s in body.split(",") if s.strip()]
        return family_from_A(frozenset(int(s) for s in items))
    raise TubelatError(f"unknown family descriptor {descriptor!r}")


def parse_graph(descriptor: str) -> Graph:
    """Parse ``<family>:<n>`` descriptors, e.g. ``path:4`` or ``A:{1,3}:5``.

    >>> parse_graph("cycle:4").edges
    ((1, 2), (1, 4), (2, 3), (3, 4))
    """
    d = descriptor.strip()
    head, _, tail = d.rpartition(":")
    if not head:
        raise TubelatError(f"graph descriptor {descriptor!r} needs a ':<n>' suffix")
    try:
        n = int(tail)
    except ValueError:
        raise TubelatError(f"bad vertex count in {descriptor!r}")
    if n >= sys.maxsize:
        # tables indexed by vertex have n + 1 entries, which must fit an index
        raise TubelatError(f"vertex count in {descriptor!r} is not below {sys.maxsize}")
    return parse_family(head)(n)


def load_graph_file(path: str) -> Graph:
    """Load a graph from the text format or the JSON alternative."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise TubelatError(f"cannot read graph file {path}: {exc.strerror}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return Graph.from_json_obj(json.loads(text))
    return Graph.from_text(text)


def all_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) graphs on [n], in a fixed deterministic order."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for chosen in range(1 << len(pairs)):
        yield Graph(n, tuple(p for i, p in enumerate(pairs) if chosen >> i & 1))


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(component_tubes(g)) == 1
