"""The weak order on permutations, arcs, and congruences.

Permutations are tuples w = (w_1, ..., w_n) over [n], ordered by inclusion of
inversion sets; covers swap an adjacent ascent/descent pair.  Meets and joins
are read off the materialized weak-order poset, built once per n.

A cover that swaps the values i < k determines an *arc* (i, k, eps): the sign
of an intermediate value j records whether j sits before (-) or after (+) the
swapped pair.  Arcs index the join-irreducible lattice congruences, and one
arc forces another exactly when it is a subarc, so a congruence is described
by the upward closure of its generating arcs; ``Congruence(n, arcs)`` closes
its arcs on construction, so every value is forcing-closed.  Congruence
classes are then connected components of the Hasse diagram along contracted
covers, read from ``weak_cover_arcs``, the covers of S_n grouped by arc once
per n; they are intervals, each with its first word as minimum.

The canonical surjection ``psi`` onto maximal tubings lives here as well,
together with the derived notions: G-permutations, the congruence of a
filled graph generated by positive arcs over minimal non-edges, and the
translational/insertional family checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import (
    InvalidVertex,
    NotACover,
    NotFilled,
    SizeMismatch,
    TubelatError,
)
from .graphs import (
    Graph,
    GraphFamily,
    adjacency,
    component,
    filled_status,
    minimal_non_edges,
)
from .posets import Poset, build_lg
from .tubings import Tubing, psi_images, psi_tubing

Perm = tuple[int, ...]


@lru_cache(maxsize=None)
def permutations(n: int) -> tuple[Perm, ...]:
    """S_n in lexicographic order; n >= 10 is refused before it is built."""
    if n >= 10:
        raise TubelatError(f"S_{n} has {math.factorial(n):,} words; n <= 9 is supported")
    return tuple(itertools.permutations(range(1, n + 1)))


def check_perm(w: Sequence[int]) -> Perm:
    w = tuple(w)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise TubelatError(f"{w!r} is not a permutation of [n]")
    return w


def parse_perm(s: str) -> Perm:
    s = s.strip()
    if "," in s:
        word = tuple(int(x) for x in s.split(","))
    else:
        word = tuple(int(ch) for ch in s)
    return check_perm(word)


def format_perm(w: Perm) -> str:
    if len(w) == 0:
        return "()"
    if max(w) <= 9:
        return "".join(map(str, w))
    return ",".join(map(str, w))


def inversions(w: Sequence[int]) -> frozenset:
    """Pairs (i, k), i < k, with k appearing before i in the word.

    >>> sorted(inversions((3, 1, 2)))
    [(1, 3), (2, 3)]
    """
    out = set()
    for s, k in enumerate(w):
        for i in w[s + 1 :]:
            if i < k:
                out.add((i, k))
    return frozenset(out)


def perm_descents(w: Perm) -> frozenset:
    """Descents as value pairs (i, k), i < k, k immediately before i."""
    return frozenset(
        (w[s], w[s - 1]) for s in range(1, len(w)) if w[s - 1] > w[s]
    )


def weak_upper_covers(w: Perm) -> list[Perm]:
    out = []
    for s in range(1, len(w)):
        if w[s - 1] < w[s]:
            u = list(w)
            u[s - 1], u[s] = u[s], u[s - 1]
            out.append(tuple(u))
    return out


@lru_cache(maxsize=None)
def weak_order_poset(n: int) -> Poset:
    """The weak order on S_n as a Poset, for 0 <= n <= 8; other sizes are
    refused before anything is built (S_9's closure would take ~33 GB)."""
    if not 0 <= n <= 8:
        raise TubelatError(f"the weak order is built for n = 0..8, not n = {n}")
    words = permutations(n)
    index = dict(zip(words, range(len(words))))
    return Poset.from_upper_covers(words, [[index[u] for u in weak_upper_covers(w)] for w in words])


def weak_meet(u: Perm, w: Perm) -> Perm:
    if len(u) != len(w):
        raise SizeMismatch("permutations of different sizes")
    return weak_order_poset(len(u)).meet(check_perm(u), check_perm(w))


def weak_join(u: Perm, w: Perm) -> Perm:
    if len(u) != len(w):
        raise SizeMismatch("permutations of different sizes")
    return weak_order_poset(len(u)).join(check_perm(u), check_perm(w))


@lru_cache(maxsize=None)
def weak_cover_pairs(n: int) -> tuple[tuple[Perm, Perm], ...]:
    return tuple(
        (u, w) for u in permutations(n) for w in weak_upper_covers(u)
    )


@lru_cache(maxsize=None)
def weak_cover_arcs(n: int) -> tuple[tuple[Arc, tuple[tuple[Perm, Perm], ...]], ...]:
    """(arc, its covers (u, w) in ``weak_cover_pairs`` order) for each arc of
    a cover of S_n; graphs and congruences on [n] read arcs from here."""
    out: dict = {}
    for u, w in weak_cover_pairs(n):
        out.setdefault(arc_of_cover(u, w), []).append((u, w))
    return tuple((arc, tuple(pairs)) for arc, pairs in out.items())


# ---------------------------------------------------------------------------
# Arcs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Arc:
    """Triple (i, k, signs) on ambient [n]; signs has one entry per value
    strictly between i and k, +1 or -1."""

    i: int
    k: int
    signs: tuple[int, ...]
    n: int

    def __post_init__(self):
        if not (1 <= self.i < self.k <= self.n):
            raise TubelatError(f"bad arc endpoints ({self.i},{self.k}) for n={self.n}")
        if len(self.signs) != self.k - self.i - 1:
            raise TubelatError("sign vector length must be k-i-1")
        if any(s not in (1, -1) for s in self.signs):
            raise TubelatError("signs must be +1/-1")

    def format(self) -> str:
        body = "".join("+" if s > 0 else "-" for s in self.signs)
        return f"{self.i}-{self.k}:{body}"

    def gap(self) -> int:
        return self.k - self.i


def parse_arc(s: str, n: int) -> Arc:
    head, _, body = s.strip().partition(":")
    i, _, k = head.partition("-")
    signs = tuple(1 if ch == "+" else -1 for ch in body.strip())
    if any(ch not in "+-" for ch in body.strip()):
        raise TubelatError(f"bad sign characters in {s!r}")
    return Arc(int(i), int(k), signs, n)


def positive_arc(i: int, k: int, n: int) -> Arc:
    return Arc(i, k, tuple([1] * (k - i - 1)), n)


@lru_cache(maxsize=None)
def all_arcs(n: int) -> tuple[Arc, ...]:
    out = []
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            for signs in itertools.product((1, -1), repeat=k - i - 1):
                out.append(Arc(i, k, signs, n))
    return tuple(sorted(out))


def arc_of_cover(u: Perm, w: Perm) -> Arc:
    """The arc of a weak-order cover u <. w.

    The sign of a value j between the swapped values records whether u
    places j after (+) or before (-) the swapped adjacent pair.
    """
    n = len(u)
    if len(w) != n:
        raise NotACover("words of different sizes")
    diff = [s for s in range(n) if u[s] != w[s]]
    if len(diff) != 2 or diff[1] != diff[0] + 1:
        raise NotACover(f"{u!r} -> {w!r} does not swap an adjacent pair")
    p = diff[0]
    i, k = u[p], u[p + 1]
    if not (i < k and w[p] == k and w[p + 1] == i):
        raise NotACover(f"{u!r} -> {w!r} is not an ascent swap")
    pos = {v: s for s, v in enumerate(u)}
    signs = tuple(1 if pos[j] > p + 1 else -1 for j in range(i + 1, k))
    return Arc(i, k, signs, n)


def perm_of_arc(a: Arc) -> Perm:
    """The minimal (join-irreducible) permutation among upper ends of covers
    with this arc: prefix, left nodes, k, i, right nodes, suffix.

    >>> perm_of_arc(Arc(2, 5, (-1, 1), 5))
    (1, 3, 5, 2, 4)
    """
    left = [j for j in range(a.i + 1, a.k) if a.signs[j - a.i - 1] < 0]
    right = [j for j in range(a.i + 1, a.k) if a.signs[j - a.i - 1] > 0]
    word = (
        list(range(1, a.i)) + left + [a.k, a.i] + right + list(range(a.k + 1, a.n + 1))
    )
    return tuple(word)


def perm_of_arc_lower(a: Arc) -> Perm:
    """The unique lower cover of ``perm_of_arc(a)`` (swap the descent)."""
    w = list(perm_of_arc(a))
    p = w.index(a.k)
    w[p], w[p + 1] = w[p + 1], w[p]
    return tuple(w)


def is_subarc(a: Arc, b: Arc) -> bool:
    """a is a subarc of b: endpoints inside and signs agree on the overlap.
    Subarcs force their superarcs as congruences."""
    if a.n != b.n:
        raise SizeMismatch("arcs on different ambient sizes")
    if not (b.i <= a.i and a.k <= b.k):
        return False
    off = a.i - b.i
    return all(a.signs[j] == b.signs[j + off] for j in range(len(a.signs)))


def arc_delete(a: Arc, v: int) -> Arc:
    """Delete node v from the arc diagram.

    Endpoints shift for v outside [i, k]; an interior v drops its own sign;
    deleting an endpoint drops the adjacent sign.  Deleting an endpoint of a
    unit arc leaves nothing and is an error.
    """
    if not (1 <= v <= a.n):
        raise InvalidVertex(f"node {v} not in [1..{a.n}]")
    if v < a.i:
        return Arc(a.i - 1, a.k - 1, a.signs, a.n - 1)
    if v > a.k:
        return Arc(a.i, a.k, a.signs, a.n - 1)
    if a.k - a.i == 1:
        raise InvalidVertex("cannot delete an endpoint of a unit arc")
    if v == a.i:
        return Arc(a.i, a.k - 1, a.signs[1:], a.n - 1)
    if v == a.k:
        return Arc(a.i, a.k - 1, a.signs[:-1], a.n - 1)
    idx = v - a.i - 1
    return Arc(a.i, a.k - 1, a.signs[:idx] + a.signs[idx + 1 :], a.n - 1)


def arc_insertions(a: Arc, v: int) -> list[Arc]:
    """All arcs on [n+1] collapsing back to ``a`` when node v is deleted:
    one shifted copy for v outside the open interval, two sign choices for v
    strictly inside it."""
    m = a.n + 1
    if not (1 <= v <= m):
        raise InvalidVertex(f"insertion point {v} not in [1..{m}]")
    if v <= a.i:
        return [Arc(a.i + 1, a.k + 1, a.signs, m)]
    if v > a.k:
        return [Arc(a.i, a.k, a.signs, m)]
    idx = v - a.i - 1
    return [
        Arc(a.i, a.k + 1, a.signs[:idx] + (s,) + a.signs[idx:], m) for s in (1, -1)
    ]


def translates(a: Arc, m: int) -> list[Arc]:
    """All arcs on [m] with the same gap and sign vector."""
    return [
        Arc(i, i + a.gap(), a.signs, m) for i in range(1, m - a.gap() + 1)
    ]


# ---------------------------------------------------------------------------
# Congruences generated by arcs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Congruence:
    """The lattice congruence of the weak order generated by ``arcs``.

    An arc forces exactly its superarcs, so the constructor keeps the
    subarc-minimal arcs as ``generators`` and their superarc closure as
    ``contracted``: every ``Congruence`` is forcing-closed, and its classes
    are intervals (E05 checks this)."""

    n: int
    arcs: InitVar[Iterable[Arc]]
    generators: frozenset = field(init=False)
    contracted: frozenset = field(init=False)

    def __post_init__(self, arcs: Iterable[Arc]) -> None:
        if self.n < 0:
            raise TubelatError(f"a congruence of S_n needs n >= 0, not n = {self.n}")
        arcs = list(arcs)
        for a in arcs:
            if a.n != self.n:
                raise SizeMismatch(f"arc {a.format()} not on [{self.n}]")
        gens = frozenset(a for a in arcs if not any(o != a and is_subarc(o, a) for o in arcs))
        contracted = frozenset(b for b in all_arcs(self.n) if any(is_subarc(a, b) for a in gens))
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "contracted", contracted)


def congruence_classes(theta: Congruence) -> tuple[tuple[Perm, ...], ...]:
    """Partition of S_n into classes: connected components of the Hasse
    diagram restricted to covers whose arc is contracted.  S_n is read in
    lexicographic order, so each class comes out sorted and the classes come
    in the order of their first words."""
    perms = permutations(theta.n)
    parent = {w: w for w in perms}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for arc, pairs in weak_cover_arcs(theta.n):
        if arc in theta.contracted:
            for u, w in pairs:
                ru, rw = find(u), find(w)
                if ru != rw:
                    parent[ru] = rw
    groups: dict = {}
    for w in perms:
        groups.setdefault(find(w), []).append(w)
    return tuple(map(tuple, groups.values()))


def quotient_poset(theta: Congruence) -> Poset:
    """Quotient of the weak order: classes keyed by their minimum.

    Its covers are the images of the weak-order covers that cross classes;
    for a lattice congruence none is redundant: if x < y is a cover, x, y
    lie in different classes and [x] < Z < [y], then for z in Z, (z v x) ^ y
    lies in Z and in [x, y] = {x, y}.  ``Poset`` rejects redundant covers.

    A class's minimum is its first word: a ``Congruence`` is forcing-closed,
    so its classes are intervals, and an upper cover turns an ascent into a
    descent, so the word grows lexicographically along the order.  Like
    ``build_lg``, it refuses more than 65,536 classes before it builds the
    poset, whose closure takes |classes|^2 bits, and counts the n! singleton
    classes of the discrete congruence unbuilt (S_10 on is refused anyway).
    """
    count = math.factorial(theta.n) if not theta.contracted and theta.n < 10 else 0
    if count <= 1 << 16:
        count = len(classes := congruence_classes(theta))
    if count > 1 << 16:
        raise TubelatError(f"the quotient has {count:,} classes; a poset takes at most 65,536")
    rep = {w: cls[0] for cls in classes for w in cls}
    covers = {(rep[u], rep[w]) for u, w in weak_cover_pairs(theta.n) if rep[u] != rep[w]}
    return Poset([cls[0] for cls in classes], covers)


def is_lattice_congruence(partition: Iterable[Sequence[Perm]], n: int) -> bool:
    """Whether a partition of S_n is a lattice congruence, by
    ``Poset.is_congruence``; raises unless it covers S_n exactly once."""
    sn = weak_order_poset(n)
    label = [-1] * len(sn)
    for c, cls in enumerate(partition):
        for w in cls:
            a = sn.index(w)
            if label[a] >= 0:
                raise TubelatError(f"{format_perm(w)} lies in two classes")
            label[a] = c
    if -1 in label:
        raise TubelatError(f"{format_perm(sn.elements[label.index(-1)])} lies in no class")
    return sn.is_congruence(label)


def finest_lattice_congruence(n: int, pairs: Iterable[tuple[Perm, Perm]]):
    """The most refined equivalence on S_n identifying the given pairs that
    is stable under meet and join with arbitrary elements (congruence
    closure by a merge worklist of meet and join probes)."""
    sn = weak_order_poset(n)
    parent = {w: w for w in sn.elements}

    def find(x: Perm) -> Perm:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work: list = []

    def union(u: Perm, w: Perm) -> None:
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[ru] = rw
            work.append((ru, rw))

    for u, w in pairs:
        union(*(sn.elements[sn.index(x)] for x in (u, w)))  # a word outside S_n raises
    while work:
        u, w = work.pop()
        for z in sn.elements:
            union(sn.meet(u, z), sn.meet(w, z))
            union(sn.join(u, z), sn.join(w, z))
    groups: dict = {}
    for w in permutations(n):  # in lexicographic order: each class comes out sorted
        groups.setdefault(find(w), []).append(w)
    return tuple(map(tuple, groups.values()))


# ---------------------------------------------------------------------------
# The surjection onto maximal tubings
# ---------------------------------------------------------------------------


def psi(g: Graph, w: Sequence[int]) -> Tubing:
    """Map a permutation to the maximal tubing of prefix components."""
    w = check_perm(w)
    if len(w) != g.n:
        raise SizeMismatch(f"permutation size {len(w)} != graph size {g.n}")
    return psi_tubing(g, w)


@lru_cache(maxsize=None)
def psi_map(g: Graph) -> dict:
    """w -> psi(w) for every w in S_n, in ``permutations`` order (cached per
    graph), by ``tubings.psi_images``, one object per tubing; S_n is refused
    for n >= 10 before that walk."""
    return dict(zip(permutations(g.n), psi_images(g)))


@lru_cache(maxsize=None)
def psi_fibers(g: Graph) -> dict:
    fibers: dict = {}
    for w, x in psi_map(g).items():
        fibers.setdefault(x, []).append(w)
    # psi_map lists S_n in lexicographic order, so each fiber comes out sorted
    return {x: tuple(ws) for x, ws in fibers.items()}


def is_g_permutation(g: Graph, w: Sequence[int]) -> bool:
    """Each prefix keeps w_i connected to the running maximum."""
    w = check_perm(w)
    if len(w) != g.n:
        raise SizeMismatch("permutation size mismatch")
    adj = adjacency(g)
    placed = running_max = 0
    for v in w:
        placed |= 1 << v
        running_max = max(running_max, v)
        if not component(adj, placed, v) >> running_max & 1:
            return False
    return True


@lru_cache(maxsize=None)
def contracted_arcs_of_graph(g: Graph) -> frozenset:
    """Arcs whose covers the fiber partition of psi collapses.

    For filled graphs this is the contracted-arc set of the lattice
    congruence; it is well-defined from the raw fibers for every graph.
    """
    pm = psi_map(g)  # one object per tubing, so ``is`` compares tubings
    arcs = weak_cover_arcs(g.n)
    return frozenset(arc for arc, pairs in arcs if any(pm[u] is pm[w] for u, w in pairs))


def theta_g(g: Graph) -> Congruence:
    """The congruence of a filled graph: positive arcs over minimal
    non-edges generate it."""
    if not filled_status(g).filled:
        raise NotFilled("theta_g requires a filled graph")
    return Congruence(g.n, generators_of_theta_g(g))


def generators_of_theta_g(g: Graph) -> list[Arc]:
    if not filled_status(g).filled:
        raise NotFilled("generators are defined for filled graphs")
    return [positive_arc(x, y, g.n) for x, y in minimal_non_edges(g)]


# ---------------------------------------------------------------------------
# Lattice-map checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeMapReport:
    meet_ok: bool
    join_ok: bool
    witness: Optional[tuple]

    @property
    def ok(self) -> bool:
        return self.meet_ok and self.join_ok


def lattice_map_report(g: Graph, lg: Optional[Poset] = None) -> LatticeMapReport:
    """Whether psi: S_n -> L_G preserves meets and joins, by ``Poset.map_kinds``.
    psi is onto (an empty fiber raises); S_8 (whose closure this would build)
    and beyond are refused before L_G, S_n or psi is built."""
    if g.n >= 8:
        raise TubelatError(
            f"the lattice-map report takes n <= 7; S_{g.n} has {math.factorial(g.n):,} elements"
        )
    lg = lg if lg is not None else build_lg(g)
    sn, pm = weak_order_poset(g.n), psi_map(g)
    img = [lg.index(pm[w]) for w in sn.elements]
    if len(set(img)) < len(lg):
        raise TubelatError(f"psi misses a maximal tubing of {g}")
    return LatticeMapReport(*sn.map_kinds(lg, img))


# ---------------------------------------------------------------------------
# Translational / insertional families
# ---------------------------------------------------------------------------


def _contracted_by_degree(source, max_degree: int) -> dict:
    """n -> contracted arc set, for a GraphFamily or a callable n -> arcs."""
    out = {}
    for n in range(max_degree + 1):
        if isinstance(source, GraphFamily):
            out[n] = contracted_arcs_of_graph(source(n))
        else:
            out[n] = frozenset(source(n))
    return out


def translational_witness(source, max_degree: int):
    """None when translational through max_degree; else (arc, translate)."""
    sets = _contracted_by_degree(source, max_degree)
    for n in range(max_degree + 1):
        for a in sorted(sets[n]):
            for m in range(a.gap() + 1, max_degree + 1):
                for b in translates(a, m):
                    if b not in sets[m]:
                        return (a, b)
    return None


def insertional_witness(source, max_degree: int):
    """None when insertional through max_degree; else (arc, node, insertion)."""
    sets = _contracted_by_degree(source, max_degree)
    for n in range(1, max_degree):
        for a in sorted(sets[n]):
            for v in range(1, n + 2):
                for b in arc_insertions(a, v):
                    if b not in sets[n + 1]:
                        return (a, v, b)
    return None


def metasylvester_congruence(n: int, k: int) -> Congruence:
    """The congruence contracting every arc with at least k plus signs;
    generated by the subarc-minimal such arcs."""
    if k < 0:
        raise TubelatError("k must be nonnegative")
    # the set is closed under superarcs, so it is its own closure and its
    # subarc-minimal arcs are the generators
    return Congruence(n, (a for a in all_arcs(n) if sum(1 for s in a.signs if s > 0) >= k))


def rho_subword(w: Perm, V: Iterable[int]) -> tuple[int, ...]:
    """Delete the letters outside V, keeping the order of the rest."""
    V = set(V)
    return tuple(v for v in w if v in V)
