"""Formal sums over permutations and tubings; shuffle algebra and the tubing
algebra/coalgebra of a graph family.

The permutation side is the classical one: the product of two basis words is
the sum over shuffles of the first with the shifted second, and the coproduct
splits a word into standardized prefix/suffix pairs.

For a family with one graph per degree, the product of two maximal tubings is
the sum over tubings of the degree-(n+m) graph restricting to the given pair;
the family is *admissible* (the product well-defined and associative) exactly
when it is a distance-set family.  A *restriction-compatible* family also
carries a coproduct: summing over ideals, each side is pushed into the family
graph of matching size via the fiber-sum section of the coarsening map.
Restriction and coarsening follow one rule, proved and applied in the
``tubings`` module: ``tubings.split_restrictions`` cuts the product's
tubings, ``tubings.coarsenings`` sends each maximal tubing to the fiber it
lies in, and ``tubings.ideal_splits`` cuts a coproduct's tubing at each
ideal.  A fiber's precondition, h a subgraph of g, is checked once, where
``coarsenings`` builds the fiber index; the coproduct reports its
``NotASubgraph`` as a family not restriction-compatible.  The per-graph
indexes read only those pairs and fibers and call no ``tau``
(``test_hopf_indexes_call_no_tau`` checks this); ``embed_c`` and
``c_delta_holds`` read each tubing's forest through ``tau``, one pass over
its tube masks.  A product copies its pair's finished ``{Z: 1}`` dict out
of the split index with one ``dict(...)``, which reuses the stored hashes,
so a warm product hashes only its (X, Y) key.

All coefficients are exact integers.  Products here are multiplicity-free;
coproducts are not (distinct ideals may standardize to the same pair), so no
0/1 assumption is made anywhere.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import (
    InvalidTubing,
    NotAdmissibleAtDegree,
    NotASubgraph,
    NotRestrictionCompatible,
    SizeMismatch,
)
from .graphs import Graph, GraphFamily, contract, induced_subgraph
from .tubings import (
    Tubing,
    coarsenings,
    enumerate_maximal_tubings,
    ideal_splits,
    linear_extensions,
    split_restrictions,
    tau,
)
from .weakorder import Perm, check_perm


class FormalSum:
    """Integer-coefficient linear combination over hashable basis keys.  Its terms
    are its own: an exact dict of nonzero coefficients is copied whole, else filtered."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms: Optional[dict] = None):
        self.basis = basis
        if type(terms) is dict and all(terms.values()):
            self.terms: dict = dict(terms)
        else:
            self.terms = {key: c for key, c in (terms or {}).items() if c}

    def add_term(self, key, coeff: int = 1) -> None:
        c = self.terms.get(key, 0) + coeff
        if c:
            self.terms[key] = c
        else:
            self.terms.pop(key, None)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FormalSum)
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("FormalSum is not hashable")

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if self.basis != other.basis:
            raise SizeMismatch("cannot add sums over different bases")
        out = FormalSum(self.basis, self.terms)
        for k, c in other.terms.items():
            out.add_term(k, c)
        return out

    def __len__(self) -> int:
        return len(self.terms)

    def coefficients(self) -> list[int]:
        return list(self.terms.values())

    def __repr__(self):
        return f"FormalSum({self.basis!r}, {len(self.terms)} terms)"


def _degree_key(key) -> tuple:
    return (key.graph.n, key.key()) if isinstance(key, Tubing) else (len(key), key)


def sorted_terms(s: FormalSum) -> list:
    """The keys of s in the canonical term order of text and JSON output: by
    degree, then word or ``Tubing.key``; a tensor key by its left side first."""
    if s.basis not in ("F", "P", "F*F", "P*P"):
        raise SizeMismatch(f"unknown basis {s.basis!r}")
    if "*" in s.basis:
        return sorted(s.terms, key=lambda k: (_degree_key(k[0]), _degree_key(k[1])))
    return sorted(s.terms, key=_degree_key)


def _key_json(key):
    if isinstance(key, tuple) and (not key or isinstance(key[0], int)):
        return list(key)
    return key.to_json_obj()


def formal_sum_to_json_obj(s: FormalSum) -> dict:
    """Canonical JSON: tensor sums keep the plain basis name and encode the
    key as a [left, right] pair."""
    terms = []
    for key in sorted_terms(s):
        if "*" in s.basis:
            degree = _degree_key(key[0])[0] + _degree_key(key[1])[0]
            obj = [_key_json(key[0]), _key_json(key[1])]
        else:
            degree, obj = _degree_key(key)[0], _key_json(key)
        terms.append({"degree": degree, "key": obj, "coeff": s.terms[key]})
    return {"basis": s.basis[0], "terms": terms}


# ---------------------------------------------------------------------------
# Malvenuto-Reutenauer operations on permutations
# ---------------------------------------------------------------------------


def shift_word(w: Sequence[int], m: int) -> tuple[int, ...]:
    return tuple(v + m for v in w)


def standardize_word(seq: Sequence[int]) -> Perm:
    """The permutation with the same relative order as ``seq``.

    >>> standardize_word((3, 7, 5))
    (1, 3, 2)
    """
    order = {v: i + 1 for i, v in enumerate(sorted(seq))}
    return tuple(order[v] for v in seq)


def shuffles(u: Sequence[int], v: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """All interleavings of two disjoint words, each exactly once."""
    n, m = len(u), len(v)
    for positions in itertools.combinations(range(n + m), n):
        out = [0] * (n + m)
        pset = set(positions)
        iu = iter(u)
        iv = iter(v)
        for p in range(n + m):
            out[p] = next(iu) if p in pset else next(iv)
        yield tuple(out)


def mr_product(u: Perm, v: Perm) -> FormalSum:
    """F_u . F_v = sum of F_w over shuffles of u with v shifted by |u|."""
    u, v = check_perm(u), check_perm(v)
    return mr_product_sums(FormalSum("F", {u: 1}), FormalSum("F", {v: 1}))


def mr_product_sums(a: FormalSum, b: FormalSum) -> FormalSum:
    out = FormalSum("F")
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            for w in shuffles(u, shift_word(v, len(u))):
                out.add_term(w, cu * cv)
    return out


def mr_coproduct(u: Perm) -> FormalSum:
    """Split u into standardized prefix/suffix pairs (n+1 terms)."""
    return mr_coproduct_sum(FormalSum("F", {check_perm(u): 1}))


def mr_coproduct_sum(a: FormalSum) -> FormalSum:
    out = FormalSum("F*F")
    for u, cu in a.terms.items():
        for i in range(len(u) + 1):
            out.add_term((standardize_word(u[:i]), standardize_word(u[i:])), cu)
    return out


# ---------------------------------------------------------------------------
# Tubing algebra
# ---------------------------------------------------------------------------


def _require_admissible_at(family: GraphFamily, n: int, m: int) -> None:
    """G_{n+m} must restrict to G_n on [n] and to a shift of G_m above it."""
    big = family(n + m)
    low, _ = induced_subgraph(big, range(1, n + 1))
    if low != family(n):
        raise NotAdmissibleAtDegree(
            f"family {family.name!r}: restriction of degree {n+m} to [1..{n}] "
            f"is {low} but the family provides {family(n)}"
        )
    high, _ = induced_subgraph(big, range(n + 1, n + m + 1))
    if high != family(m):
        raise NotAdmissibleAtDegree(
            f"family {family.name!r}: restriction of degree {n+m} to "
            f"[{n+1}..{n+m}] standardizes to {high} but the family provides {family(m)}"
        )


@lru_cache(maxsize=None)
def _split_index(family: GraphFamily, n: int, m: int) -> dict:
    """(X, Y) -> {Z: 1} over the Z in MTub(G_{n+m}) restricting to the pair, in
    ``split_restrictions`` order: shared terms, which ``tubing_product`` copies and none mutates.

    Admissibility makes G_{n+m} equal to G_n on [1..n] and to G_m shifted by
    n above it, so ``tubings.split_restrictions`` gives each Z's pair.
    """
    _require_admissible_at(family, n, m)
    index: dict = {}
    for z, x, y in split_restrictions(family(n + m), n):
        index.setdefault((x, y), {})[z] = 1
    return index


def tubing_product(family: GraphFamily, x: Tubing, y: Tubing) -> FormalSum:
    """P_x . P_y for maximal x, y: a copy of the sum over maximal tubings of
    G_{n+m} restricting to x below and to a shifted copy of y above."""
    n, m = x.graph.n, y.graph.n
    if x.graph != family(n) or y.graph != family(m):
        raise SizeMismatch("tubings do not belong to the family at their degree")
    if len(x.tubes) != n or len(y.tubes) != m:  # maximal, by purity
        raise InvalidTubing("the product requires maximal tubings")
    return FormalSum("P", _split_index(family, n, m).get((x, y), {}))


def tubing_product_sums(family: GraphFamily, a: FormalSum, b: FormalSum) -> FormalSum:
    if any(g != family(g.n) for g in {t.graph for s in (a, b) for t in s.terms}):
        raise SizeMismatch("tubings do not belong to the family at their degree")
    out = FormalSum("P")
    for x, cx in a.terms.items():
        for y, cy in b.terms.items():
            for z in _split_index(family, x.graph.n, y.graph.n).get((x, y), ()):
                out.add_term(z, cx * cy)
    return out


def associativity_witness(family: GraphFamily, max_degree: int):
    """None when (P_x P_y) P_z = P_x (P_y P_z) for all degree triples with
    positive parts summing to at most max_degree; else the failing triple."""
    for total in range(3, max_degree + 1):
        for a in range(1, total - 1):
            for b in range(1, total - a):
                c = total - a - b
                xs = enumerate_maximal_tubings(family(a))
                ys = enumerate_maximal_tubings(family(b))
                zs = enumerate_maximal_tubings(family(c))
                for x in xs:
                    for y in ys:
                        xy = tubing_product(family, x, y)
                        for z in zs:
                            yz = tubing_product(family, y, z)
                            lhs = tubing_product_sums(
                                family, xy, FormalSum("P", {z: 1})
                            )
                            rhs = tubing_product_sums(
                                family, FormalSum("P", {x: 1}), yz
                            )
                            if lhs != rhs:
                                return (x, y, z)
    return None


def admissibility_witness(family: GraphFamily, max_degree: int):
    """None when all split restrictions through max_degree match; else a
    message describing the first mismatch."""
    for total in range(0, max_degree + 1):
        for n in range(0, total + 1):
            try:
                _require_admissible_at(family, n, total - n)
            except NotAdmissibleAtDegree as e:
                return str(e)
    return None


def recover_A(family: GraphFamily, max_degree: int) -> frozenset:
    """Read the distance set from the first-row edges: k is in A iff
    {1, k+1} is an edge of the degree-(k+1) graph."""
    return frozenset(
        k for k in range(1, max_degree) if family(k + 1).has_edge(1, k + 1)
    )


def restriction_compatibility_witness(family: GraphFamily, max_degree: int):
    """None when standardized restrictions and contractions stay subgraphs
    of the family member of matching size; else (n, I, kind, edge)."""
    for n in range(0, max_degree + 1):
        g = family(n)
        for r in range(0, n + 1):
            for I in itertools.combinations(g.vertices, r):
                sub, _ = induced_subgraph(g, I)
                target = family(len(I))
                extra = set(sub.edges) - set(target.edges)
                if extra:
                    return (n, I, "restriction", sorted(extra)[0])
                quo, _ = contract(g, I)
                target = family(n - len(I))
                extra = set(quo.edges) - set(target.edges)
                if extra:
                    return (n, I, "contraction", sorted(extra)[0])
    return None


# ---------------------------------------------------------------------------
# Fibers of coarsening between graphs on the same vertex set
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _coarsen_fibers(h: Graph, g: Graph) -> dict:
    fibers: dict = {}
    for w, x in coarsenings(h, g):
        fibers.setdefault(x, []).append(w)
    return {x: tuple(v) for x, v in fibers.items()}


def fiber_sum(h: Graph, g: Graph, x: Tubing) -> FormalSum:
    """c_h^g(P_x): the sum of P_w over maximal tubings of g coarsening to x,
    empty unless x is a maximal tubing of h (``coarsenings`` checks that h
    is a subgraph of g)."""
    return FormalSum("P", dict.fromkeys(_fiber(h, g, x), 1))


def _fiber(h: Graph, g: Graph, x: Tubing) -> tuple[Tubing, ...]:
    """The maximal tubings of g coarsening to x (``NotASubgraph`` unless h
    is a subgraph of g).  ``tubing_coproduct`` reads its fibers here, as
    restrictions and quotients of a maximal tubing are maximal tubings."""
    if h == g:  # the identity on MTub(g), a subgraph of itself: enumerate nothing
        return (x,) if x.graph == g and x.is_maximal() else ()
    return _coarsen_fibers(h, g).get(x, ())


def embed_c(x: Tubing) -> FormalSum:
    """The embedding into permutations: the sum of F_w over linear
    extensions of the forest of x."""
    out = FormalSum("F")
    for w in linear_extensions(tau(x)):
        out.add_term(w)
    return out


# ---------------------------------------------------------------------------
# Tubing coalgebra
# ---------------------------------------------------------------------------


def tubing_coproduct(family: GraphFamily, x: Tubing) -> FormalSum:
    """Delta(P_x): over each ideal I, the fiber sums of the standardized
    restriction to I and quotient by I, paired as a tensor."""
    n = x.graph.n
    if x.graph != family(n):
        raise SizeMismatch("tubing does not belong to the family at its degree")
    if len(x.tubes) != n:  # maximal, by purity
        raise InvalidTubing("the coproduct requires a maximal tubing")
    out = FormalSum("P*P")
    for I, low, high in ideal_splits(x):
        try:
            lows = _fiber(low.graph, family(len(I)), low)
            highs = _fiber(high.graph, family(n - len(I)), high)
        except NotASubgraph:
            raise NotRestrictionCompatible(
                f"family {family.name!r} is not restriction-compatible at the "
                f"ideal {sorted(I)} of degree {n}"
            ) from None
        for lx in lows:
            for rx in highs:
                out.add_term((lx, rx))
    return out


def c_delta_holds(family: GraphFamily, x: Tubing) -> bool:
    """Whether the permutation embedding intertwines the two coproducts at
    the tubing x: Delta(c(P_x)) = (c (x) c)(Delta(P_x))."""
    lhs = mr_coproduct_sum(embed_c(x))
    rhs = FormalSum("F*F")
    for (lx, rx), c in tubing_coproduct(family, x).terms.items():
        for wl in linear_extensions(tau(lx)):
            for wr in linear_extensions(tau(rx)):
                rhs.add_term((wl, wr), c)
    return lhs == rhs


def c_delta_witness(family: GraphFamily, max_degree: int) -> Optional[Tubing]:
    """None when the permutation embedding intertwines the two coproducts for
    every tubing through max_degree; else the failing tubing."""
    for n in range(0, max_degree + 1):
        for x in enumerate_maximal_tubings(family(n)):
            if not c_delta_holds(family, x):
                return x
    return None
