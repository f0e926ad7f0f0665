"""Finite poset engine and the flip order on maximal tubings.

A poset is built only from its covers, never by reducing a relation: every
caller (L_G, the weak order and its quotients, products, duals) knows its
covers, and construction rejects a cycle or a transitively redundant cover.
Elements are arbitrary hashable keys stored in a deterministic topological
order; the reachability relation is kept as one up-set and one down-set
bitmask per element.  Because the storage order extends the partial order, a
single meet or join is a bitmask probe: the meet of x and y exists iff the
highest-indexed common lower bound dominates all the others.

Whole-lattice queries work from the covers and probes alone.  A poset with
a least element is a lattice iff every two upper covers of a common element
have a join, one probe per such pair.  A lattice is semidistributive iff the
kappa map exists on every join-irreducible and its dual on every
meet-irreducible, one bitmask probe each; a lattice that fails is searched
for its first violating triple with one probe per element and z.

``build_lg`` assembles the poset L_G of maximal tubings: its covers are the
``tubings.flips`` that go up, each found once from its lower end, and
acyclicity plus irredundancy of covers are verified on construction (the
orientation is induced by a linear functional, so a cycle or a redundant
edge would indicate a flip bug).  ``all_tubings`` lists the faces as the
cliques of the per-graph ``compatibility_masks`` table.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .errors import ElementNotFound, NotALattice, NotComparable, TubelatError
from .graphs import Graph, bits, tubes
from .tubings import Tubing, compatibility_masks, enumerate_maximal_tubings, flips, make_tubing


class Poset:
    """Immutable finite poset over hashable element keys."""

    __slots__ = ("elements", "_index", "covers", "_upper", "_lower", "_up", "_down")

    def __init__(self, elements: Sequence[Hashable], covers: Iterable[tuple]):
        """Build from elements and cover pairs (lower, upper), given by key.

        Raises if the covers contain a cycle or a transitively redundant
        pair.  Elements are reordered into a deterministic linear extension:
        ties broken by original position.
        """
        idx = {e: i for i, e in enumerate(elements)}
        if len(idx) != len(elements):
            raise TubelatError("duplicate poset elements")
        cov = sorted({(idx[a], idx[b]) for a, b in covers})
        n = len(elements)
        succs = [[] for _ in range(n)]
        indeg = [0] * n
        for a, b in cov:
            if a == b:
                raise TubelatError("cover relation is a self-loop")
            succs[a].append(b)
            indeg[b] += 1
        order = []
        heap = [i for i in range(n) if indeg[i] == 0]
        heapq.heapify(heap)
        while heap:
            v = heapq.heappop(heap)
            order.append(v)
            for w in succs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(heap, w)
        if len(order) != n:
            raise TubelatError("cover relation has a cycle")
        pos = {old: new for new, old in enumerate(order)}
        self.elements = tuple(elements[old] for old in order)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.covers = tuple(sorted((pos[a], pos[b]) for a, b in cov))
        # the upper and the lower covers of each element, in index order
        upper = [[] for _ in range(n)]
        lower = [[] for _ in range(n)]
        for a, b in self.covers:
            upper[a].append(b)
            lower[b].append(a)
        self._upper = tuple(map(tuple, upper))
        self._lower = tuple(map(tuple, lower))
        up = [1 << i for i in range(n)]
        for i in range(n - 1, -1, -1):
            for b in upper[i]:
                up[i] |= up[b]
        down = [1 << i for i in range(n)]
        for i in range(n):
            for a in lower[i]:
                down[i] |= down[a]
        self._up = tuple(up)
        self._down = tuple(down)
        for a, b in self.covers:
            between = self._up[a] & self._down[b] & ~(1 << a) & ~(1 << b)
            if between:
                raise TubelatError(
                    f"cover {self.elements[a]!r} < {self.elements[b]!r} is transitively redundant"
                )

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

    def lt(self, x: Hashable, y: Hashable) -> bool:
        return x != y and self.le(x, y)

    def upper_covers(self, x: Hashable) -> list:
        return [self.elements[b] for b in self._upper[self.index(x)]]

    def lower_covers(self, x: Hashable) -> list:
        return [self.elements[a] for a in self._lower[self.index(x)]]

    def minimum(self) -> Optional[Hashable]:
        mins = [i for i in range(len(self)) if self._down[i] == 1 << i]
        return self.elements[mins[0]] if len(mins) == 1 else None

    def maximum(self) -> Optional[Hashable]:
        maxs = [i for i in range(len(self)) if self._up[i] == 1 << i]
        return self.elements[maxs[0]] if len(maxs) == 1 else None

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
        """Mobius function on the interval [x, y]."""
        i, j = self.index(x), self.index(y)
        if not self._up[i] >> j & 1:
            raise NotComparable(f"{x!r} and {y!r} are not comparable in order")
        interval = self._up[i] & self._down[j]
        mu = {i: 1}
        for z in bits(interval):
            if z == i:
                continue
            below = interval & self._down[z] & ~(1 << z)
            mu[z] = -sum(mu[w] for w in bits(below))
        return mu[j]

    def interval(self, x: Hashable, y: Hashable) -> list:
        i, j = self.index(x), self.index(y)
        return [self.elements[z] for z in bits(self._up[i] & self._down[j])]

    # -- constructions ---------------------------------------------------------

    def dual(self) -> "Poset":
        return Poset(self.elements, [(self.elements[b], self.elements[a]) for a, b in self.covers])

    def product(self, other: "Poset") -> "Poset":
        elements = [(x, y) for x in self.elements for y in other.elements]
        covers = []
        for a, b in self.covers:
            for y in other.elements:
                covers.append(((self.elements[a], y), (self.elements[b], y)))
        for x in self.elements:
            for a, b in other.covers:
                covers.append(((x, other.elements[a]), (x, other.elements[b])))
        return Poset(elements, covers)

    def is_isomorphic_to(self, other: "Poset") -> bool:
        return _isomorphic(self, other)

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


def _refine_labels(p: Poset) -> list:
    n = len(p)
    up_covers, down_covers = p._upper, p._lower
    labels = [
        (len(up_covers[i]), len(down_covers[i]), bin(p._up[i]).count("1"), bin(p._down[i]).count("1"))
        for i in range(n)
    ]
    for _ in range(n):
        new = []
        for i in range(n):
            new.append(
                (
                    labels[i],
                    tuple(sorted(labels[j] for j in up_covers[i])),
                    tuple(sorted(labels[j] for j in down_covers[i])),
                )
            )
        canon = {v: k for k, v in enumerate(sorted(set(new)))}
        new_ids = [canon[v] for v in new]
        if new_ids == labels:
            break
        labels = new_ids
    return labels


def _isomorphic(p: Poset, q: Poset) -> bool:
    if len(p) != len(q) or len(p.covers) != len(q.covers):
        return False
    lp, lq = _refine_labels(p), _refine_labels(q)
    if sorted(lp) != sorted(lq):
        return False
    n = len(p)
    candidates = [[j for j in range(n) if lq[j] == lp[i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: len(candidates[i]))
    qcov = set(q.covers)
    up_adj, down_adj = p._upper, p._lower
    assignment: dict = {}
    used = set()

    def bk(k: int) -> bool:
        if k == n:
            return True
        i = order[k]
        for j in candidates[i]:
            if j in used:
                continue
            ok = True
            for b in up_adj[i]:
                if b in assignment and (j, assignment[b]) not in qcov:
                    ok = False
                    break
            if ok:
                for a in down_adj[i]:
                    if a in assignment and (assignment[a], j) not in qcov:
                        ok = False
                        break
            if ok:
                assignment[i] = j
                used.add(j)
                if bk(k + 1):
                    return True
                del assignment[i]
                used.discard(j)
        return False

    return bk(0)


# ---------------------------------------------------------------------------
# The flip order L_G
# ---------------------------------------------------------------------------


def build_lg(g: Graph) -> Poset:
    """The poset of maximal tubings; its covers are the ``flips`` that go up."""
    return Poset(enumerate_maximal_tubings(g), [(x, y) for x, y, a, b in flips(g) if a < b])


@dataclass(frozen=True)
class FaceIntervalResult:
    ok: bool
    lower: Optional[Tubing]
    upper: Optional[Tubing]
    witness: Optional[tuple]


def tubing_face_interval(g: Graph, y: Tubing, lg: Optional[Poset] = None) -> FaceIntervalResult:
    """Check that the maximal tubings containing ``y`` form an order-convex
    interval of L_G, returning its endpoints or a violating chain."""
    make_tubing(g, y.tubes)  # validates tubes and pairwise compatibility
    lg = lg if lg is not None else build_lg(g)
    members = [x for x in lg.elements if set(y.tubes) <= set(x.tubes)]
    if not members:
        return FaceIntervalResult(False, None, None, None)
    member_idx = [lg.index(x) for x in members]
    member_mask = 0
    for i in member_idx:
        member_mask |= 1 << i
    minimal = [i for i in member_idx if lg._down[i] & member_mask == 1 << i]
    maximal = [i for i in member_idx if lg._up[i] & member_mask == 1 << i]
    if len(minimal) != 1 or len(maximal) != 1:
        lo, hi = minimal[0], maximal[-1]
        return FaceIntervalResult(
            False, lg.elements[lo], lg.elements[hi], ("multiple extrema", len(minimal), len(maximal))
        )
    lo, hi = minimal[0], maximal[0]
    interval_mask = lg._up[lo] & lg._down[hi]
    if interval_mask != member_mask:
        stray = interval_mask & ~member_mask
        z = next(bits(stray))
        return FaceIntervalResult(
            False,
            lg.elements[lo],
            lg.elements[hi],
            (lg.elements[lo], lg.elements[z], lg.elements[hi]),
        )
    return FaceIntervalResult(True, lg.elements[lo], lg.elements[hi], None)


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
