"""Finite poset engine and the flip order on maximal tubings.

A poset is built only from its covers, never by reducing a relation: every
caller (L_G, the weak order and its quotients, products, duals) knows its
covers, and construction rejects a cycle or a transitively redundant cover.
Elements are arbitrary hashable keys stored in a deterministic topological
order; the reachability relation is kept as one up-set and one down-set
bitmask per element.  Because the storage order extends the partial order, a
single meet or join is a bitmask probe: the meet of x and y exists iff the
highest-indexed common lower bound dominates all the others.  For the same
reason only element 0 can be the least element and only the last the
greatest.  Partitions, maps and the maximal tubings of a face come in as
bitmasks by index; the lowest-indexed member of one is its only possible
minimum and its highest its only possible maximum, so it is an interval iff
it equals up[lo] & down[hi].

Whole-lattice queries work from the covers and probes alone.  A poset with
a least element is a lattice iff every two upper covers of a common element
have a join, one probe per such pair.  A lattice is semidistributive iff the
kappa map exists on every join-irreducible and its dual on every
meet-irreducible, one bitmask probe each; a lattice that fails is searched
for its first violating triple with one probe per element and z.

Construction has one body, ``_init_by_index``, on each element's upper
covers as a list of positions.  ``Poset(elements, covers)`` groups its key
pairs so, once; ``build_lg``, ``dual`` (the lower covers), ``product`` and
the weak order pass the lists to ``Poset.from_upper_covers`` as they build
them.  Redundant covers are found from sibling covers on the up closure (see
``Poset.__init__``).  ``build_lg`` assembles the poset L_G of maximal
tubings: its covers are ``tubings.flips``, each found once from its lower
end, and acyclicity plus irredundancy of covers are verified on
construction (the orientation is induced by a linear functional, so a
cycle or a redundant edge would indicate a flip bug).
``all_tubings`` lists the faces as the cliques of the per-graph
``compatibility_masks`` table, each checked once by the ``Tubing``
constructor.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .errors import ElementNotFound, NotALattice, NotComparable, TubelatError
from .graphs import Graph, bits, tubes
from .tubings import Tubing, compatibility_masks, count_maximal_tubings, enumerate_maximal_tubings, flips


class Poset:
    """Immutable finite poset over hashable element keys."""

    __slots__ = ("elements", "_index", "covers", "_upper", "_lower", "_up", "_down")

    def __init__(self, elements: Sequence[Hashable], covers: Iterable[tuple]):
        """Build from elements and cover pairs (lower, upper), given by key,
        mapped to positions for ``_init_by_index``.  Raises on duplicate
        elements, a self-loop, a cycle or a transitively redundant cover;
        drops a repeated cover.  Elements are reordered into a deterministic
        linear extension, ties broken by original position.

        A listed cover a < b is redundant iff another listed upper cover c of
        a has b in up(c): a path a < z < b starts with a listed cover a < c,
        c <= z < b, so c != b; conversely b in up(c), c != b, gives a < c < b.
        Such a c precedes b in index order, so the up closure of a, read over
        its upper covers in that order, holds b on reaching it iff a < b is
        redundant.  The error names the first redundant cover in ``covers``
        order.
        """
        idx = {e: i for i, e in enumerate(elements)}
        if len(idx) != len(elements):
            raise TubelatError("duplicate poset elements")
        succs = [[] for _ in elements]  # grouped once, each cover once
        try:
            for a, b in dict.fromkeys((idx[a], idx[b]) for a, b in covers):
                succs[a].append(b)
        except KeyError as exc:
            raise ElementNotFound(f"{exc.args[0]!r} not in poset") from None
        self._init_by_index(elements, succs)

    @classmethod
    def from_upper_covers(cls, elements: Sequence[Hashable], succs: Sequence[Sequence[int]]) -> "Poset":
        """``Poset(...)`` on each element's upper covers by position:
        ``succs[a]`` lists, once each, the b with ``elements[a] < elements[b]``."""
        return cls.__new__(cls)._init_by_index(elements, succs)

    def _init_by_index(self, elements: Sequence[Hashable], succs: Sequence[Sequence[int]]) -> "Poset":
        """``Poset(...)`` on distinct covers given by position, ``succs[a]``
        the upper covers of ``elements[a]``, with every check; fills and
        returns self, and hashes no key per cover."""
        n = len(elements)
        indeg = [0] * n
        for b in itertools.chain.from_iterable(succs):
            indeg[b] += 1
        order = []
        heap = [i for i in range(n) if indeg[i] == 0]  # ascending, so a heap
        while heap:
            v = heapq.heappop(heap)
            order.append(v)
            for w in succs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(heap, w)
        if len(order) != n:  # a self-loop is a cycle, so only a failed sort looks for one
            if any(a in ups for a, ups in enumerate(succs)):
                raise TubelatError("cover relation is a self-loop")
            raise TubelatError("cover relation has a cycle")
        pos = dict(zip(order, range(n)))
        self.elements = tuple(elements[old] for old in order)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != n:
            raise TubelatError("duplicate poset elements")
        # the upper and lower covers of each element, sorted after relabelling
        upper = [sorted([pos[b] for b in succs[old]]) for old in order]
        self.covers = tuple((a, b) for a, ups in enumerate(upper) for b in ups)
        lower = [[] for _ in range(n)]
        for a, b in self.covers:
            lower[b].append(a)
        self._upper = tuple(map(tuple, upper))
        self._lower = tuple(map(tuple, lower))
        up, first = [0] * n, -1
        for a in range(n - 1, -1, -1):
            mask = 1 << a
            for b in upper[a]:
                if mask >> b & 1:  # an earlier upper cover of a lies below b
                    first = a  # the least such a, when the loop ends
                mask |= up[b]
            up[a] = mask
        if first >= 0:
            ups = upper[first]
            b = next(b for b in ups if any(up[c] >> b & 1 for c in ups if c != b))
            raise TubelatError(
                f"cover {self.elements[first]!r} < {self.elements[b]!r} is transitively redundant"
            )
        down = [0] * n
        for i in range(n):
            mask = 1 << i
            for a in lower[i]:
                mask |= down[a]
            down[i] = mask
        self._up = tuple(up)
        self._down = tuple(down)
        return self

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, x: Hashable) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise ElementNotFound(f"{x!r} not in poset")

    # -- order queries -------------------------------------------------------

    def le(self, x: Hashable, y: Hashable) -> bool:
        i, j = self.index(x), self.index(y)
        return bool(self._up[i] >> j & 1)

    def up_mask(self, x: Hashable) -> int:
        """The elements y >= x, as a bitmask: bit i stands for ``elements[i]``."""
        return self._up[self.index(x)]

    def minimum(self) -> Optional[Hashable]:
        """The least element, or None; only element 0 can be it."""
        full = (1 << len(self)) - 1
        return self.elements[0] if full and self._up[0] == full else None

    def maximum(self) -> Optional[Hashable]:
        """The greatest element, or None; only the last element can be it."""
        full = (1 << len(self)) - 1
        return self.elements[-1] if full and self._down[-1] == full else None

    def _meet_idx(self, i: int, j: int) -> int:
        common = self._down[i] & self._down[j]
        if common == 0:
            return -1
        z = common.bit_length() - 1
        return z if self._down[z] == common else -1

    def _join_idx(self, i: int, j: int) -> int:
        common = self._up[i] & self._up[j]
        if common == 0:
            return -1
        z = (common & -common).bit_length() - 1
        return z if self._up[z] == common else -1

    def meet(self, x: Hashable, y: Hashable) -> Optional[Hashable]:
        z = self._meet_idx(self.index(x), self.index(y))
        return None if z < 0 else self.elements[z]

    def join(self, x: Hashable, y: Hashable) -> Optional[Hashable]:
        z = self._join_idx(self.index(x), self.index(y))
        return None if z < 0 else self.elements[z]

    def is_lattice(self) -> bool:
        """Whether every two elements have a meet and a join, from the covers.

        A finite poset with a least element is a lattice iff every two upper
        covers of a common element have a join (Bjorner, Edelman, Ziegler,
        *Hyperplane arrangements with a lattice of regions*, 1990, Lemma 2.1),
        so this is one join probe per such pair and builds no table.  Proof:
        suppose some pair has no join, and among all common lower bounds of
        such pairs take a maximal one, z, below the pair x, y.  They are
        incomparable, so there are upper covers x' <= x and y' <= y of z, and
        x' != y' by the maximality of z; w = x' v y' exists.  x and w lie
        above x' > z, so by maximality s = x v w exists, and s and y lie above
        y', so t = s v y exists.  Every common upper bound of x and y lies
        above x', y', hence w, hence s, hence t: t = x v y, a contradiction.
        A finite join-semilattice with a least element is a lattice.
        """
        if not self.elements:
            return True
        if self.minimum() is None:
            return False
        join = self._join_idx
        return all(
            join(x, y) >= 0 for ups in self._upper for k, x in enumerate(ups) for y in ups[k + 1 :]
        )

    def lattice_failure_witness(self):
        """A pair with no join (reported with its minimal upper bounds) or no
        meet (with maximal lower bounds), or None when a lattice."""
        n = len(self)
        for i in range(n):
            for j in range(i + 1, n):
                if self._join_idx(i, j) < 0:
                    common = self._up[i] & self._up[j]
                    mubs = [
                        self.elements[z]
                        for z in bits(common)
                        if self._down[z] & common == 1 << z
                    ]
                    return (self.elements[i], self.elements[j], "join", mubs)
                if self._meet_idx(i, j) < 0:
                    common = self._down[i] & self._down[j]
                    mlbs = [
                        self.elements[z]
                        for z in bits(common)
                        if self._up[z] & common == 1 << z
                    ]
                    return (self.elements[i], self.elements[j], "meet", mlbs)
        return None

    def is_semidistributive(self) -> bool:
        """Whether this lattice is semidistributive, by the kappa test."""
        if not self.is_lattice():
            raise NotALattice("semidistributivity is defined for lattices")
        return self._kappa_maps_exist()

    def semidistributivity_witness(self):
        """None if both SD-meet and SD-join hold; else ((x, y, z), kind).

        The answer comes from the kappa test; only a lattice that fails it is
        scanned for the first violating triple.
        """
        return None if self.is_semidistributive() else self._semidistributivity_scan()

    def _semidistributivity_scan(self):
        """The first triple (x, y, z) of this lattice that violates SD-meet or
        SD-join, in the order z ascending, SD-meet before SD-join, then (x, y)
        row-major; None when there is none.

        Fix z and group the elements x by m = x ^ z.  A group is convex (x <=
        w <= v in it gives m <= w ^ z <= m) with least element m, and (x v y)
        ^ z >= m for x, y in it, so (x, y, z) violates SD-meet iff x and y
        share a group that does not hold x v y.  A group is closed under joins
        iff it has a single maximal element: the join of all its members is
        then in it, and conversely x, y <= M puts x v y in [m, M].  Row x has
        a violating y iff x is not below every maximal element of its group:
        if it is, each y lies below some maximal M >= x, so x v y <= M stays
        in the group; if x is not below a maximal M, then x v M > M leaves
        it.  That row's first y is the first member of the group whose join
        with x leaves it.  SD-join is the dual: groups by x v z, their
        minimal elements, meets.  Each z costs one probe per element.
        """
        n = len(self)
        for z in range(n):
            for kind, bound, other, beyond in (
                ("SD-meet", self._meet_idx, self._join_idx, self._up),
                ("SD-join", self._join_idx, self._meet_idx, self._down),
            ):
                of = [bound(x, z) for x in range(n)]
                groups = dict.fromkeys(of, 0)
                for x, m in enumerate(of):
                    groups[m] |= 1 << x
                # the maximal members of each group (the minimal ones for SD-join)
                ends = {
                    m: sum(1 << x for x in bits(g) if beyond[x] & g == 1 << x)
                    for m, g in groups.items()
                }
                for x, m in enumerate(of):
                    if beyond[x] & ends[m] != ends[m]:
                        g = groups[m]
                        y = next(y for y in bits(g) if not g >> other(x, y) & 1)
                        return (self.elements[x], self.elements[y], self.elements[z]), kind
        return None

    def _kappa_maps_exist(self) -> bool:
        """Whether this lattice is semidistributive, by the kappa test.

        A finite lattice is meet-semidistributive iff every join-irreducible
        j, with lower cover j_*, has kappa(j) = max{x >= j_*, x not >= j};
        join-semidistributivity is the dual statement for meet-irreducibles
        (Freese, Jezek, Nation, *Free Lattices*, 1995, Ch. 2).  Storage order
        extends the partial order, so only the highest-indexed element of a
        set can be its maximum (the lowest its minimum), and each test is one
        bitmask probe.
        """
        for j in range(len(self)):
            if len(self._lower[j]) == 1:
                s = self._up[self._lower[j][0]] & ~self._up[j]
                if s & ~self._down[s.bit_length() - 1]:
                    return False
            if len(self._upper[j]) == 1:
                s = self._down[self._upper[j][0]] & ~self._down[j]
                if s & ~self._up[(s & -s).bit_length() - 1]:
                    return False
        return True

    def mobius(self, x: Hashable, y: Hashable) -> int:
        """Mobius function on the interval [x, y].

        Index order extends the order, so each z of the interval comes after
        the elements below it.  ``having[v]`` masks the elements seen so far
        whose value is v, for each v != 0, so mu(z) = -sum(mu(w) : x <= w < z)
        is -sum(v * popcount(below(z) & having[v])): exact integers, one
        popcount per distinct value."""
        i, j = self.index(x), self.index(y)
        if not self._up[i] >> j & 1:
            raise NotComparable(f"{x!r} and {y!r} are not comparable in order")
        interval = self._up[i] & self._down[j]
        having = {1: 1 << i}
        mu = 1
        for z in bits(interval & ~(1 << i)):
            below = self._down[z] & ~(1 << z)
            mu = -sum(v * (below & m).bit_count() for v, m in having.items())
            if mu:
                having[mu] = having.get(mu, 0) | 1 << z
        return mu

    # -- partitions and maps, given by index ----------------------------------

    def is_congruence(self, label: Sequence[Hashable]) -> bool:
        """Whether the classes of this lattice, ``label[a]`` the class of
        ``elements[a]``, form a lattice congruence.

        An equivalence relation on a finite lattice is a lattice congruence iff
        every class is an interval and the maps pi_down and pi_up, taking each
        element to the minimum and to the maximum of its class, are
        order-preserving (Reading, *Lattice congruences of the weak order*,
        Order 2004), and a map is order-preserving iff it is monotone on every
        cover.  A class is an interval iff its mask is up[lo] & down[hi], for
        its lowest- and highest-indexed members lo and hi, which then are its
        minimum and maximum.
        """
        up, down, lo, hi = self._up, self._down, {}, {}
        for c, m in _class_masks(label).items():
            lo[c], hi[c] = (m & -m).bit_length() - 1, m.bit_length() - 1
            if m != up[lo[c]] & down[hi[c]]:
                return False
        return all(
            up[lo[label[a]]] >> lo[label[b]] & 1 and up[hi[label[a]]] >> hi[label[b]] & 1
            for a, b in self.covers
        )

    def map_kinds(self, target: "Poset", img: Sequence[int]) -> tuple:
        """(meet_ok, join_ok, witness) for the map ``elements[a] ->
        target.elements[img[a]]`` from this lattice onto ``target``.

        A meet- or join-preserving map f is order-preserving (u <= w gives f(u)
        = f(u ^ w) = f(u) ^ f(w)), and then f of the bottom and top bound the
        target, whose elements are all images, so the target is a lattice.  Both
        kinds fail if f is not monotone on a cover or the target is not a
        lattice.  Otherwise the fibers are convex (u <= v <= w in one fiber pins
        f(v)), and f preserves meets iff every fiber has a minimum and the fiber
        minima rise along every cover of the target.  (<=) Take w in the fiber
        of z = f(x) ^ f(y): its fiber minimum lies below the minima of the
        fibers of x and y, hence below x ^ y, so z <= f(x ^ y), and
        monotonicity gives the reverse.  (=>) The fibers are meet-closed, so
        each has a least element, and if f(p) <= f(q), the meet of the two
        fiber minima lies in p's fiber.  Joins are the dual.  A fiber mask m
        has a minimum iff m lies in up[lo] for its lowest-indexed member lo.
        Only a kind that fails is searched for its witness (kind, x, y): the
        first pair a < b in index order where it fails, the meet first when
        both fail there.
        """
        up, ok = self._up, {"meet": False, "join": False}
        if target.is_lattice() and all(target._up[img[a]] >> img[b] & 1 for a, b in self.covers):
            fibers = _class_masks(img)
            lo = {p: (m & -m).bit_length() - 1 for p, m in fibers.items()}
            hi = {p: m.bit_length() - 1 for p, m in fibers.items()}
            for kind, ends, within in (("meet", lo, up), ("join", hi, self._down)):
                ok[kind] = all(not m & ~within[ends[p]] for p, m in fibers.items()) and all(
                    up[ends[p]] >> ends[q] & 1 for p, q in target.covers
                )
        probes = {"meet": (target._meet_idx, self._meet_idx), "join": (target._join_idx, self._join_idx)}
        failed = [(kind, probes[kind]) for kind in ok if not ok[kind]]
        bad = (
            (kind, self.elements[a], self.elements[b])
            for a, b in itertools.combinations(range(len(img)), 2)
            for kind, (probe, own) in failed
            if probe(img[a], img[b]) != img[own(a, b)]
        )
        return ok["meet"], ok["join"], next(bad) if failed else None

    # -- constructions ---------------------------------------------------------

    def dual(self) -> "Poset":
        return Poset.from_upper_covers(self.elements, self._lower)

    def product(self, other: "Poset") -> "Poset":
        m = len(other)  # (x, y) sits at m * index(x) + index(y)
        elements = [(x, y) for x in self.elements for y in other.elements]
        succs = [
            [b * m + y for b in ups] + [x * m + c for c in other_ups]
            for x, ups in enumerate(self._upper)
            for y, other_ups in enumerate(other._upper)
        ]
        return Poset.from_upper_covers(elements, succs)

    # -- export ---------------------------------------------------------------

    def to_json_obj(self, label: Callable[[Hashable], str] = str) -> dict:
        return {
            "elements": [label(e) for e in self.elements],
            "covers": [[a, b] for a, b in self.covers],
        }

    def to_dot(
        self,
        label: Callable[[Hashable], str] = str,
        annotate: Iterable[Hashable] = (),
        name: str = "poset",
    ) -> str:
        """DOT digraph; edges point from lower to upper cover."""
        marked = {self.index(e) for e in annotate}
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for i, e in enumerate(self.elements):
            attrs = f'label="{label(e)}"'
            if i in marked:
                attrs += ", style=filled, fillcolor=lightblue"
            lines.append(f"  n{i} [{attrs}];")
        for a, b in self.covers:
            lines.append(f"  n{a} -> n{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _class_masks(label: Sequence[Hashable]) -> dict:
    """Class -> its members, as a bitmask: bit a stands for element a."""
    masks = dict.fromkeys(label, 0)
    for a, c in enumerate(label):
        masks[c] |= 1 << a
    return masks


# ---------------------------------------------------------------------------
# The flip order L_G
# ---------------------------------------------------------------------------


def build_lg(g: Graph) -> Poset:
    """The poset of maximal tubings, on the upper covers ``flips`` gives by
    position in the enumeration.  Its closure takes |MTub|^2 bits, so past
    65,536 tubings, counted first when n! exceeds that, it is refused."""
    if g.n > 8 and (count := count_maximal_tubings(g)) > 1 << 16:
        raise TubelatError(f"{g.size_name()} has {count:,} maximal tubings; L_G takes at most 65,536")
    mtub = enumerate_maximal_tubings(g)
    succs = [[] for _ in mtub]
    for i, j, _, _ in flips(g):
        succs[i].append(j)
    return Poset.from_upper_covers(mtub, succs)


@dataclass(frozen=True)
class FaceIntervalResult:
    ok: bool
    lower: Tubing
    upper: Tubing


def tubing_face_interval(g: Graph, y: Tubing, lg: Optional[Poset] = None) -> FaceIntervalResult:
    """Whether the maximal tubings containing ``y`` form an interval of L_G,
    with their lowest- and highest-indexed members, which are then its
    minimum and maximum.  As in ``Poset.is_congruence``, a set is an interval
    iff its mask is up[lo] & down[hi].  Every tubing lies in a maximal one,
    so the set is never empty."""
    if y.graph != g:
        raise TubelatError(f"the tubing is on {y.graph}, not on {g}")
    lg = lg if lg is not None else build_lg(g)
    face = set(y.tubes)
    m = sum(1 << i for i, x in enumerate(lg.elements) if face.issubset(x.tubes))
    lo, hi = (m & -m).bit_length() - 1, m.bit_length() - 1
    return FaceIntervalResult(m == lg._up[lo] & lg._down[hi], lg.elements[lo], lg.elements[hi])


def all_tubings(g: Graph) -> list[Tubing]:
    """Every tubing of g (all faces of the nested set complex, incl. empty):
    cliques of ``compatibility_masks``, each extended by larger tube indices."""
    ts = tubes(g)
    compat = compatibility_masks(g)
    out: list[Tubing] = []

    def rec(chosen: list, allowed: int):
        out.append(Tubing(g, tuple(ts[i] for i in chosen)))
        while allowed:
            bit = allowed & -allowed
            allowed ^= bit
            k = bit.bit_length() - 1
            chosen.append(k)
            rec(chosen, allowed & compat[k])
            chosen.pop()

    rec([], (1 << len(ts)) - 1)
    return out
