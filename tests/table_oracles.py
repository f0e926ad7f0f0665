"""Meet and join tables of a poset, and the table scans built on them.

These numpy routines once answered the semidistributivity witness and the
congruence questions in ``tubelat``; the package now answers them from
covers and bitmask probes, and the tests keep the tables as oracles.
"""

from collections import deque
from functools import lru_cache

import numpy as np

from tubelat.weakorder import weak_order_poset

_TABLE_BLOCK = 1 << 16  # candidate entries per numpy block of table rows


def meet_table(p) -> np.ndarray:
    """n x n int32 table of meet indices, -1 where no meet exists."""
    return bound_table(p, joins=False)


def join_table(p) -> np.ndarray:
    """n x n int32 table of join indices, -1 where no join exists."""
    return bound_table(p, joins=True)


def bound_table(p, joins: bool) -> np.ndarray:
    """The join table (``joins``) or the meet table of ``p``, by cover recursion.

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
    n = len(p)
    nbytes = (n + 7) // 8
    packed = np.frombuffer(
        b"".join(m.to_bytes(nbytes, "little") for m in p._up), dtype=np.uint8
    ).reshape(n, nbytes)
    le = np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)
    # ahead[a, b]: b is a bound of a in the table's direction
    ahead, pick, probe = (le, np.min, p._join_idx) if joins else (le.T, np.max, p._meet_idx)
    nexts = p._upper if joins else p._lower  # the covers of each row's element
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


@lru_cache(maxsize=None)
def weak_order_tables(n: int):
    """The weak order on S_n with its meet and join tables, once per n."""
    sn = weak_order_poset(n)
    return sn, meet_table(sn), join_table(sn)


def semidistributivity_scan(p):
    """The first violating triple of the lattice ``p``, by scanning every z
    against all pairs (x, y); None when there is none."""
    m, j = meet_table(p), join_table(p)
    for z in range(len(p)):
        mz = m[:, z]
        gathered = mz[j]          # (x, y) -> meet(join(x, y), z)
        eq = mz[:, None] == mz[None, :]
        bad = eq & (gathered != mz[:, None])
        if bad.any():
            x, y = map(int, np.argwhere(bad)[0])
            return (p.elements[x], p.elements[y], p.elements[z]), "SD-meet"
        jz = j[:, z]
        gathered = jz[m]
        eq = jz[:, None] == jz[None, :]
        bad = eq & (gathered != jz[:, None])
        if bad.any():
            x, y = map(int, np.argwhere(bad)[0])
            return (p.elements[x], p.elements[y], p.elements[z]), "SD-join"
    return None


def is_lattice_congruence(partition, n: int) -> bool:
    """Meet and join stability of a partition of S_n, checked directly:
    within a class, meeting or joining with any fixed z must land in a
    single class."""
    poset, mt, jt = weak_order_tables(n)
    cls_arr = np.empty(len(poset.elements), dtype=np.int32)
    nclasses = 0
    for idx, cls in enumerate(partition):
        nclasses = idx + 1
        for w in cls:
            cls_arr[poset.index(w)] = idx
    for idx in range(nclasses):
        members = np.flatnonzero(cls_arr == idx)
        if len(members) < 2:
            continue
        rows = cls_arr[mt[members, :]]
        if (rows != rows[0]).any():
            return False
        rows = cls_arr[jt[members, :]]
        if (rows != rows[0]).any():
            return False
    return True


def finest_lattice_congruence(n: int, pairs):
    """The congruence closure of ``pairs`` on S_n by a merge worklist over
    table columns."""
    poset, mt, jt = weak_order_tables(n)
    m = len(poset.elements)
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work: deque = deque()

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            work.append((ra, rb))

    for u, w in pairs:
        union(poset.index(u), poset.index(w))
    while work:
        a, b = work.popleft()
        for z in range(m):
            union(int(mt[a, z]), int(mt[b, z]))
            union(int(jt[a, z]), int(jt[b, z]))
    groups: dict = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(poset.elements[i])
    return tuple(
        tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: sorted(g)[0])
    )
