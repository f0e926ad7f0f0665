"""Finite poset engine and the flip order on maximal tubings.

A poset is built only from its covers, never by reducing a relation: every
caller (L_G, the weak order and its quotients, products, duals) knows its
covers, and construction rejects a cycle or a transitively redundant cover.
Elements are arbitrary hashable keys stored in a deterministic topological
order; the reachability relation is kept as one up-set and one down-set
bitmask per element.  Because the storage order extends the partial order, a
single meet or join is a bitmask probe: the meet of x and y exists iff the
highest-indexed common lower bound dominates all the others.

Whole-lattice queries work from the covers.  The meet and join tables are
filled by cover recursion, a level of rows per numpy step: the join of
incomparable i and j is the least of the joins c v j over the upper covers c
of i, if one of them lies below all the others (meets dually), with the probe
as the fallback where a c v j is missing, so the tables are exact for every
poset; they are refused above ``MAX_TABLE_ELEMENTS`` elements.  A lattice is
semidistributive iff the kappa map exists on every join-irreducible and its
dual on every meet-irreducible, one bitmask probe each; the scan over all
triples runs only to find the witness of a failure.

``build_lg`` assembles the poset L_G of maximal tubings: covers are the
flips oriented by comparing tops, the transitive closure is computed rather
than assumed, and acyclicity plus irredundancy of covers are verified on
construction (the orientation is induced by a linear functional, so a cycle
or a redundant edge would indicate a flip bug).  Each cover is found once,
from its lower end, among the ``oriented_flips`` that go up, and the upper
end is looked up by its tube set among the enumerated tubings, so no tubing
is built or sorted per flip.  ``all_tubings`` lists the faces as the cliques
of the per-graph ``compatibility_masks`` table.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence

import numpy as np

from .errors import ElementNotFound, NotALattice, NotComparable, TubelatError
from .graphs import Graph, tubes
from .tubings import Tubing, compatibility_masks, enumerate_maximal_tubings, oriented_flips

# Meet and join tables are n x n int32.  At this bound each takes 144 MB;
# S_7 (5,040 elements) fits, S_8 (40,320) would need 6.5 GB per table.
MAX_TABLE_ELEMENTS = 6000
_TABLE_BLOCK = 1 << 16  # candidate entries per numpy block of table rows


def check_table_size(n: int) -> None:
    """Refuse meet/join tables over more than ``MAX_TABLE_ELEMENTS`` elements."""
    if n > MAX_TABLE_ELEMENTS:
        raise TubelatError(
            f"meet/join tables over {n:,} elements would take {4 * n * n:,} bytes "
            f"each; the limit is {MAX_TABLE_ELEMENTS:,} elements"
        )


class Poset:
    """Immutable finite poset over hashable element keys."""

    __slots__ = (
        "elements", "_index", "covers", "_upper", "_lower", "_up", "_down", "_meets", "_joins"
    )

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
        self._meets = None
        self._joins = None
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

    def comparable(self, x: Hashable, y: Hashable) -> bool:
        return self.le(x, y) or self.le(y, x)

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

    def meet_table(self) -> np.ndarray:
        """n x n int32 table of meet indices, -1 where no meet exists."""
        if self._meets is None:
            self._meets = self._bound_table(joins=False)
        return self._meets

    def join_table(self) -> np.ndarray:
        """n x n int32 table of join indices, -1 where no join exists."""
        if self._joins is None:
            self._joins = self._bound_table(joins=True)
        return self._joins

    def _bound_table(self, joins: bool) -> np.ndarray:
        """The join table (``joins``) or the meet table, by cover recursion.

        For joins: an upper bound of incomparable i and j lies above some
        upper cover c of i, so the upper bounds of {i, j} are the union of
        those of the {c, j}.  When every c v j exists, i v j therefore exists
        iff the least-indexed candidate m = c v j lies below all the others,
        and then it is m.  Rows are filled one level at a time, from the
        maximal elements down, so the rows of the covers are done first.  A
        pair with a candidate lacking a join gets no reduction and falls back
        to the bitmask probe, which keeps the table exact for any poset.
        Meets are the dual: lower covers, down-sets, the largest index.
        """
        n = len(self)
        check_table_size(n)
        nbytes = (n + 7) // 8
        packed = np.frombuffer(
            b"".join(m.to_bytes(nbytes, "little") for m in self._up), dtype=np.uint8
        ).reshape(n, nbytes)
        le = np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)
        # ahead[a, b]: b is a bound of a in the table's direction
        ahead, pick, probe = (le, np.min, self._join_idx) if joins else (le.T, np.max, self._meet_idx)
        nexts = self._upper if joins else self._lower  # the covers of each row's element
        level = [0] * n  # longest chain to an extreme in the table's direction
        for i in range(n - 1, -1, -1) if joins else range(n):
            if nexts[i]:
                level[i] = 1 + max(level[c] for c in nexts[i])
        level = np.array(level)
        table = np.empty((n, n), dtype=np.int32)
        cols = np.arange(n, dtype=np.int32)
        for lv in range(int(level.max(initial=-1)) + 1):
            rows = np.flatnonzero(level == lv).astype(np.int32)
            if lv == 0:  # no covers: i v j is i for j behind i, else missing
                table[rows] = np.where(ahead[:, rows].T, rows[:, None], -1)
                continue
            width = max(len(nexts[i]) for i in rows)
            step = max(1, _TABLE_BLOCK // (width * n))
            for lo in range(0, len(rows), step):
                block = rows[lo : lo + step]
                pad = [nexts[i] + nexts[i][:1] * (width - len(nexts[i])) for i in block]
                cand = table[np.array(pad)]  # (row, cover c, j) -> bound of c and j
                missing = (cand < 0).any(axis=1)
                np.maximum(cand, 0, out=cand)
                best = pick(cand, axis=1)
                out = np.where(ahead[best[:, None, :], cand].all(axis=1), best, -1)
                beyond, behind = ahead[block], ahead[:, block].T
                out = np.where(behind, block[:, None], out)
                out = np.where(beyond, cols, out)
                for r, j in np.argwhere(missing & ~beyond & ~behind):
                    out[r, j] = probe(int(block[r]), int(j))
                table[block] = out
        return table

    def is_meet_semilattice(self) -> bool:
        return bool((self.meet_table() >= 0).all())

    def is_join_semilattice(self) -> bool:
        return bool((self.join_table() >= 0).all())

    def is_lattice(self) -> bool:
        return self.is_meet_semilattice() and self.is_join_semilattice()

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
                        for z in _bits(common)
                        if self._down[z] & common == 1 << z
                    ]
                    return (self.elements[i], self.elements[j], "join", mubs)
                if self._meet_idx(i, j) < 0:
                    common = self._down[i] & self._down[j]
                    mlbs = [
                        self.elements[z]
                        for z in _bits(common)
                        if self._up[z] & common == 1 << z
                    ]
                    return (self.elements[i], self.elements[j], "meet", mlbs)
        return None

    def is_semidistributive(self) -> bool:
        return self.semidistributivity_witness() is None

    def semidistributivity_witness(self):
        """None if both SD-meet and SD-join hold; else ((x, y, z), kind).

        The answer comes from the kappa test; only a lattice that fails it is
        scanned for the first violating triple.
        """
        if not self.is_lattice():
            raise NotALattice("semidistributivity is defined for lattices")
        if self._kappa_maps_exist():
            return None
        return self._semidistributivity_scan()

    def _semidistributivity_scan(self):
        """The first violating triple, by scanning every z against all pairs
        (x, y) of this lattice; None when there is none."""
        m, j = self.meet_table(), self.join_table()
        n = len(self)
        for z in range(n):
            mz = m[:, z]
            gathered = mz[j]          # (x, y) -> meet(join(x, y), z)
            eq = mz[:, None] == mz[None, :]
            bad = eq & (gathered != mz[:, None])
            if bad.any():
                x, y = map(int, np.argwhere(bad)[0])
                return (self.elements[x], self.elements[y], self.elements[z]), "SD-meet"
            jz = j[:, z]
            gathered = jz[m]
            eq = jz[:, None] == jz[None, :]
            bad = eq & (gathered != jz[:, None])
            if bad.any():
                x, y = map(int, np.argwhere(bad)[0])
                return (self.elements[x], self.elements[y], self.elements[z]), "SD-join"
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
        for z in _bits(interval):
            if z == i:
                continue
            below = interval & self._down[z] & ~(1 << z)
            mu[z] = -sum(mu[w] for w in _bits(below))
        return mu[j]

    def interval(self, x: Hashable, y: Hashable) -> list:
        i, j = self.index(x), self.index(y)
        return [self.elements[z] for z in _bits(self._up[i] & self._down[j])]

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


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


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
    """The poset of maximal tubings; its covers are the ``oriented_flips``
    that go up, each found from its lower end."""
    elements = enumerate_maximal_tubings(g)
    by_tubes = {frozenset(x.tubes): x for x in elements}
    covers = [
        (x, by_tubes[tset - {I} | {J}])
        for tset, x in by_tubes.items()
        for I, J, a, b in oriented_flips(x)
        if a < b
    ]
    return Poset(elements, covers)


@dataclass(frozen=True)
class FaceIntervalResult:
    ok: bool
    lower: Optional[Tubing]
    upper: Optional[Tubing]
    witness: Optional[tuple]


def tubing_face_interval(g: Graph, y: Tubing, lg: Optional[Poset] = None) -> FaceIntervalResult:
    """Check that the maximal tubings containing ``y`` form an order-convex
    interval of L_G, returning its endpoints or a violating chain."""
    from .tubings import make_tubing

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
        z = next(_bits(stray))
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
