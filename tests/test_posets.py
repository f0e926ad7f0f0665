import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelat.errors import ElementNotFound, NotALattice, NotComparable, TubelatError
from tubelat.graphs import (
    Graph,
    all_graphs,
    bits,
    component_tubes,
    is_tube,
    parse_graph,
    tubes,
)
from tubelat.posets import Poset, all_tubings, build_lg, tubing_face_interval
from tubelat.tubings import (
    Tubing,
    enumerate_maximal_tubings,
    flip_by_search,
    flips,
    psi_tubing,
    top,
)
from tubelat.weakorder import permutations, weak_cover_pairs, weak_order_poset

from table_oracles import join_table, meet_table, semidistributivity_scan
from test_graphs import component_by_dfs


def chain(n):
    return Poset(list(range(n)), [(i, i + 1) for i in range(n - 1)])


def antichain(n):
    return Poset(list(range(n)), [])


def divisor_lattice(m):
    """The divisors of m; d is covered by d * p for each prime p."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    primes = [p for p in divisors[1:] if all(p % q for q in range(2, p))]
    return Poset(divisors, [(d, d * p) for d in divisors for p in primes if m % (d * p) == 0])


def boolean_lattice(k):
    """Subsets of k bits as ints; a is covered by a with one more bit."""
    return Poset(
        list(range(1 << k)),
        [(a, a | 1 << i) for a in range(1 << k) for i in range(k) if not a >> i & 1],
    )


@pytest.fixture(scope="module")
def small_lgs():
    """L_G for every graph with n <= 5 (1,100 posets, 410 of them not lattices)."""
    return [build_lg(g) for n in range(6) for g in all_graphs(n)]


PENTAGON = Poset(
    ["0", "b", "c", "d", "1"],
    [("0", "b"), ("b", "d"), ("d", "1"), ("0", "c"), ("c", "1")],
)


def test_covers_must_be_acyclic_and_irredundant():
    with pytest.raises(TubelatError):
        Poset([1, 2], [(1, 2), (2, 1)])
    with pytest.raises(TubelatError):
        Poset([1, 2, 3], [(1, 2), (2, 3), (1, 3)])


def _index_path(elements, covers):
    # the constructor path that build_lg, dual, product and the weak order
    # take, fed the same covers as each element's list of upper covers by
    # position in elements, each once, as they give
    idx = {e: i for i, e in enumerate(elements)}
    succs = [[] for _ in elements]
    for a, b in dict.fromkeys((idx[a], idx[b]) for a, b in covers):
        succs[a].append(b)
    return Poset.from_upper_covers(elements, succs)


def _fields(p):
    return p.elements, p.covers, p._upper, p._lower, p._up, p._down


def _error(build, elements, covers):
    with pytest.raises(TubelatError) as info:
        build(elements, covers)
    return str(info.value)


def _redundant_by_interval(n, covers):
    # the per-cover test that the sibling test replaced, kept as the oracle:
    # a < b is redundant iff up[a] & down[b] holds a third element; covers
    # are index pairs in a linear extension, closed here from scratch
    up = [1 << i for i in range(n)]
    down = [1 << i for i in range(n)]
    for a, b in sorted(covers, reverse=True):
        up[a] |= up[b]
    for a, b in sorted(covers, key=lambda c: c[1]):
        down[b] |= down[a]
    return [(a, b) for a, b in sorted(set(covers)) if up[a] & down[b] & ~(1 << a) & ~(1 << b)]


def test_both_constructor_paths_agree():
    def agree(elements, covers, *built):
        fields = {_fields(p) for p in (Poset(elements, covers), _index_path(elements, covers), *built)}
        assert len(fields) == 1

    for n in range(6):
        for g in all_graphs(n):
            xs = enumerate_maximal_tubings(g)
            agree(xs, [(xs[i], xs[j]) for i, j, a, b in flips(g)], build_lg(g))
    for n in range(7):
        s = weak_order_poset(n)
        agree(permutations(n), weak_cover_pairs(n), s)
        agree(s.elements, [(s.elements[b], s.elements[a]) for a, b in s.covers], s.dual())
    for p, q in [(PENTAGON, chain(3)), (chain(2), chain(2)), (antichain(2), PENTAGON.dual())]:
        elements = [(x, y) for x in p.elements for y in q.elements]
        covers = [((p.elements[a], y), (p.elements[b], y)) for a, b in p.covers for y in q.elements]
        covers += [((x, q.elements[a]), (x, q.elements[b])) for x in p.elements for a, b in q.covers]
        agree(elements, covers, p.product(q))
        agree(p.elements, [(p.elements[b], p.elements[a]) for a, b in p.covers], p.dual())
    # a repeated cover is dropped
    agree(list("abc"), [("a", "b"), ("b", "c"), ("a", "b")], Poset(list("abc"), [("a", "b"), ("b", "c")]))


def test_both_constructor_paths_raise_the_same_errors():
    cases = {
        "cover relation is a self-loop": (list("ab"), [("a", "b"), ("b", "b")]),
        "cover relation has a cycle": (list("abc"), [("a", "b"), ("b", "c"), ("c", "a")]),
        "duplicate poset elements": (list("aba"), [("a", "b")]),
        "cover 'a' < 'c' is transitively redundant": (
            list("abcd"), [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("b", "d")]
        ),
    }
    for message, (elements, covers) in cases.items():
        assert _error(Poset, elements, covers) == _error(_index_path, elements, covers) == message


def test_sibling_redundancy_test_against_interval_oracle(small_lgs):
    # a valid poset: the oracle finds no redundant cover either
    for p in small_lgs:
        assert _redundant_by_interval(len(p), p.covers) == []
    # one redundant cover at the start, the middle and the end of a chain
    for a, b in [(0, 2), (2, 4), (3, 5), (0, 5)]:
        covers = [(i, i + 1) for i in range(5)] + [(a, b)]
        assert _redundant_by_interval(6, covers) == [(a, b)]
        for build in (Poset, _index_path):
            assert _error(build, list(range(6)), covers) == f"cover {a} < {b} is transitively redundant"
    # L_G with the first path x < y < z of its storage order closed by x < z:
    # the first redundant cover in covers order is the oracle's first
    for p in small_lgs:
        path = next(((a, c) for a, b in p.covers for c in p._upper[b]), None)
        if path is None:
            continue
        covers = [*p.covers, path]
        first = _redundant_by_interval(len(p), covers)[0]
        message = f"cover {p.elements[first[0]]!r} < {p.elements[first[1]]!r} is transitively redundant"
        keyed = [(p.elements[a], p.elements[b]) for a, b in covers]
        assert _error(Poset, p.elements, keyed) == message
        assert _error(_index_path, p.elements, keyed) == message


def test_cover_naming_a_non_element_raises_element_not_found():
    with pytest.raises(ElementNotFound, match="'c' not in poset"):
        Poset(["a", "b"], [("a", "c")])


def test_le_and_covers():
    p = chain(4)
    assert p.le(0, 3) and not p.le(3, 0)
    assert p.covers == ((0, 1), (1, 2), (2, 3))
    with pytest.raises(ElementNotFound):
        p.le(0, 99)


def test_meet_join_chain_and_antichain():
    p = chain(3)
    assert p.meet(0, 2) == 0 and p.join(0, 2) == 2
    q = antichain(2)
    assert q.meet(0, 1) is None and q.join(0, 1) is None
    assert not q.is_lattice()
    x, y, kind, bounds = q.lattice_failure_witness()
    assert kind in {"meet", "join"} and bounds == []


def test_pentagon_is_lattice_and_semidistributive():
    assert PENTAGON.is_lattice()
    assert PENTAGON.meet("b", "c") == "0"
    assert PENTAGON.join("b", "c") == "1"
    assert PENTAGON.is_semidistributive()


def test_diamond_m3_fails_semidistributivity():
    m3 = Poset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )
    assert m3.is_lattice()
    wit = m3.semidistributivity_witness()
    assert wit is not None
    with pytest.raises(NotALattice):
        antichain(2).is_semidistributive()


def test_mobius_basics():
    p = chain(2)
    assert p.mobius(0, 0) == 1
    assert p.mobius(0, 1) == -1
    with pytest.raises(NotComparable):
        antichain(2).mobius(0, 1)
    # weak order on S_3 is a hexagon: mu over the full interval is 1
    s3 = weak_order_poset(3)
    assert s3.mobius((1, 2, 3), (3, 2, 1)) == 1


def test_dual_and_product():
    p = chain(3)
    assert _cover_set(p.dual().dual()) == _cover_set(p)
    pr = chain(2).product(chain(2))
    assert len(pr) == 4 and pr.is_lattice()
    assert _cover_set(pr) == {
        ((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1))
    }
    # N5 is self-dual by the flip that exchanges its two chains' ends
    flip = {"1": "0", "d": "b", "b": "d", "c": "c", "0": "1"}
    assert {(flip[x], flip[y]) for x, y in _cover_set(PENTAGON.dual())} == _cover_set(PENTAGON)


def _brute_meet(p, x, y):
    lower = [z for z in p.elements if p.le(z, x) and p.le(z, y)]
    maxima = [z for z in lower if not any(z != w and p.le(z, w) for w in lower)]
    return maxima[0] if len(maxima) == 1 else None


def test_meet_join_against_brute_force():
    posets = [divisor_lattice(60), boolean_lattice(3), PENTAGON, weak_order_poset(3)]
    for g in all_graphs(3):
        posets.append(build_lg(g))
    for p in posets:
        for x in p.elements:
            for y in p.elements:
                assert p.meet(x, y) == _brute_meet(p, x, y)
                assert p.join(x, y) == _brute_meet(p.dual(), x, y)


def test_mobius_boolean_lattice():
    boolean = boolean_lattice(3)
    assert boolean.mobius(0, 7) == -1
    assert boolean.mobius(0, 3) == 1
    assert boolean.mobius(0, 1) == -1


def test_mobius_against_zeta_inversion():
    import numpy as np

    posets = [weak_order_poset(4), PENTAGON, build_lg(parse_graph("cycle:4"))]
    for p in posets:
        n = len(p)
        zeta = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                if p.le(p.elements[i], p.elements[j]):
                    zeta[i, j] = 1
        mu = np.linalg.inv(zeta).round().astype(np.int64)
        for i in range(n):
            for j in range(n):
                if zeta[i, j]:
                    assert p.mobius(p.elements[i], p.elements[j]) == mu[i, j]


def _mobius_by_sum(p, x, y):
    # the summation loop that the popcount recurrence replaced, kept as the
    # oracle: mu(z) = -sum(mu(w) : x <= w < z), over the interval in index
    # order
    i, j = p.index(x), p.index(y)
    interval = p._up[i] & p._down[j]
    mu = {i: 1}
    for z in bits(interval):
        if z != i:
            mu[z] = -sum(mu[w] for w in bits(interval & p._down[z] & ~(1 << z)))
    return mu[j]


def test_mobius_beyond_plus_minus_one():
    m4 = Poset(
        ["0", "a", "b", "c", "d", "1"],
        [("0", a) for a in "abcd"] + [(a, "1") for a in "abcd"],
    )
    m3_squared = M3.product(M3)
    for p, value in ((M3, 2), (m4, 3), (m3_squared, 4)):
        assert p.mobius(p.minimum(), p.maximum()) == value
    cases = [M3, m4, m3_squared, boolean_lattice(4)]
    cases += [build_lg(g) for n in range(5) for g in all_graphs(n)]
    for p in cases:
        for x in p.elements:
            for y in p.elements:
                if p.le(x, y):
                    assert p.mobius(x, y) == _mobius_by_sum(p, x, y)
    values = set()
    for g in all_graphs(5):
        lg = build_lg(g)
        lo, hi = lg.elements[0], lg.elements[-1]
        values.add(lg.mobius(lo, hi))
        assert lg.mobius(lo, hi) == _mobius_by_sum(lg, lo, hi), g
    assert values == {-1, 1}


def _naive_semidistributive(p):
    for x in p.elements:
        for y in p.elements:
            for z in p.elements:
                if p.meet(x, z) == p.meet(y, z):
                    if p.meet(p.join(x, y), z) != p.meet(x, z):
                        return False
                if p.join(x, z) == p.join(y, z):
                    if p.join(p.meet(x, y), z) != p.join(x, z):
                        return False
    return True


def test_semidistributivity_against_naive_scan(small_lgs):
    star = build_lg(Graph(4, ((1, 2), (1, 3), (1, 4))))
    m3 = Poset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )
    # join- but not meet-semidistributive, and its dual
    one_sided = Poset(range(7), [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5), (3, 5), (4, 6), (5, 6)])
    for p in [PENTAGON, weak_order_poset(3), weak_order_poset(4), star, m3,
              build_lg(parse_graph("cycle:4")), one_sided, one_sided.dual()]:
        assert p.is_semidistributive() == _naive_semidistributive(p)
    # the kappa test against the scan over all triples
    lattices = [p for p in small_lgs if p.is_lattice()]
    assert len(lattices) == 690
    for p in [PENTAGON, star, m3, one_sided, one_sided.dual(), weak_order_poset(5)] + lattices:
        assert p._kappa_maps_exist() == (p._semidistributivity_scan() is None)


# seven graphs on [6] and [7] whose L_G is a lattice but not semidistributive
NON_SD_GRAPHS = [
    Graph(6, ((2, 3), (3, 5), (3, 6), (4, 5), (4, 6))),
    Graph(6, ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (5, 6))),
    Graph(6, ((1, 4), (1, 6), (2, 3), (2, 4), (2, 6), (3, 4), (3, 6), (4, 6))),
    Graph(6, ((1, 5), (2, 4), (2, 5), (3, 6))),
    Graph(7, ((1, 5), (2, 3), (2, 7), (3, 4), (3, 6))),
    Graph(7, ((1, 3), (1, 7), (3, 6), (3, 7), (5, 6), (5, 7))),
    Graph(7, ((1, 2), (1, 7), (2, 3), (2, 5), (3, 5), (5, 7), (6, 7))),
]


def test_semidistributivity_scan_against_tables(small_lgs):
    # the probe scan returns the numpy table scan's first triple, kind included
    one_sided = Poset(range(7), [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5), (3, 5), (4, 6), (5, 6)])
    stars = [build_lg(Graph(n, tuple((1, i) for i in range(2, n + 1)))) for n in (4, 7)]
    lattices = [p for p in small_lgs if p.is_lattice()]
    cases = [M3, PENTAGON, one_sided, one_sided.dual(), weak_order_poset(5)] + stars
    non_sd = [build_lg(g) for g in NON_SD_GRAPHS]
    assert not any(p.is_semidistributive() for p in non_sd)
    cases += lattices + non_sd
    kinds = set()
    for p in cases:
        wit = p._semidistributivity_scan()
        assert wit == semidistributivity_scan(p)
        kinds.add(wit and wit[1])
    assert kinds == {None, "SD-meet", "SD-join"}


BOWTIE = Poset(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def _probe_table(p, probe):
    n = len(p)
    t = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        for j in range(i, n):
            t[i, j] = t[j, i] = probe(i, j)
    return t


def test_meet_join_tables_against_probes(small_lgs):
    # the cover-recursion tables of the test oracles against pair-by-pair probes
    for p in small_lgs + [weak_order_poset(5), BOWTIE, PENTAGON.dual(), Poset([], [])]:
        assert np.array_equal(meet_table(p), _probe_table(p, p._meet_idx))
        assert np.array_equal(join_table(p), _probe_table(p, p._join_idx))
    assert (meet_table(BOWTIE) < 0).any() and (join_table(BOWTIE) < 0).any()


def test_long_chain_is_a_semidistributive_lattice():
    # 6,001 elements, answered from the covers alone
    big = chain(6001)
    assert big.is_lattice() and big.is_semidistributive()


M3 = Poset(
    ["0", "a", "b", "c", "1"],
    [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
)
V = Poset(["a", "b", "c"], [("a", "c"), ("b", "c")])  # two minima
LAMBDA = V.dual()  # two maxima


def _lattice_by_tables(p):
    return bool((meet_table(p) >= 0).all() and (join_table(p) >= 0).all())


def test_is_lattice_against_tables(small_lgs):
    cases = small_lgs + [weak_order_poset(n) for n in range(6)] + [
        BOWTIE, PENTAGON, PENTAGON.dual(), M3, antichain(2), V, LAMBDA, Poset([], []), chain(1)
    ]
    for p in cases:
        assert p.is_lattice() == _lattice_by_tables(p)
    assert not V.is_lattice() and not LAMBDA.is_lattice() and Poset([], []).is_lattice()


@st.composite
def _random_posets(draw):
    """The Hasse diagram of the order generated by a random relation on
    0..n-1 (each pair i < j drawn), with a least element -1 added or not."""
    n = draw(st.integers(0, 9))
    up = [1 << i for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if draw(st.integers(0, 3)) == 0:
            up[i] |= 1 << j
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if up[i] >> j & 1:
                up[i] |= up[j]
    covers = [
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if up[i] >> j & 1 and not any(up[i] >> k & 1 and up[k] >> j & 1 for k in range(i + 1, j))
    ]
    elements = list(range(n))
    if draw(st.booleans()):
        minima = [j for j in range(n) if not any(b == j for _, b in covers)]
        elements.append(-1)
        covers += [(-1, j) for j in minima]
    return Poset(elements, covers)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_random_posets())
def test_is_lattice_against_tables_random(p):
    assert p.is_lattice() == _lattice_by_tables(p)


def test_is_semidistributive_matches_witness(small_lgs):
    lattices = [p for p in small_lgs if p.is_lattice()]
    assert len(lattices) == 690
    for p in lattices:
        assert p.is_semidistributive() == (p.semidistributivity_witness() is None)


def test_weak_order_meets_against_brute_force_s4():
    s4 = weak_order_poset(4)
    for x in s4.elements:
        for y in s4.elements:
            assert s4.meet(x, y) == _brute_meet(s4, x, y)


def test_build_lg_small_examples():
    g = Graph(3, ((1, 3), (2, 3)))
    lg = build_lg(g)
    assert len(lg) == 5
    k2 = build_lg(Graph(2, ((1, 2),)))
    assert len(k2) == 2 and len(k2.covers) == 1
    assert len(build_lg(Graph(4))) == 1


def _cover_set(lg):
    return {(lg.elements[a], lg.elements[b]) for a, b in lg.covers}


def _oriented_flips_by_top(x):
    """The first flip construction, kept as an oracle: for each tube I with a
    smallest strict supertube K, J is the component of top(K) in K - top(I),
    found by separate ``top`` scans; yields (neighbour, goes up)."""
    g = x.graph
    for I in x.tubes:
        K = next((t for t in x.tubes if I < t), None)
        if K is not None:
            J = component_by_dfs(g, K - {top(x, I)}, top(x, K))
            y = Tubing(g, tuple(t for t in x.tubes if t != I) + (J,))
            yield y, top(x, I) < top(y, J)


def test_build_lg_covers_match_oriented_flips():
    # every flip of every tubing, from both ends, unioned
    graphs = [g for n in range(6) for g in all_graphs(n)]
    for g in graphs + [parse_graph("cycle:7"), parse_graph("path:8")]:
        expected = set()
        for x in enumerate_maximal_tubings(g):
            for y, goes_up in _oriented_flips_by_top(x):
                expected.add((x, y) if goes_up else (y, x))
        assert _cover_set(build_lg(g)) == expected, g


def test_build_lg_covers_match_flip_by_search():
    # the flip found by scanning every tube of G, oriented by comparing tops
    graphs = [g for n in range(5) for g in all_graphs(n)]
    for g in graphs + [parse_graph(d) for d in ("cycle:5", "complete:5", "path:5")]:
        expected = set()
        for x in enumerate_maximal_tubings(g):
            for I in x.tubes:
                if I not in component_tubes(g):
                    y, J = flip_by_search(x, I)
                    expected.add((x, y) if top(x, I) < top(y, J) else (y, x))
        assert _cover_set(build_lg(g)) == expected, g


def test_cover_lists_match_cover_scan(small_lgs):
    s4 = weak_order_poset(4)
    cases = small_lgs + [s4, s4.dual(), PENTAGON, PENTAGON.product(chain(3)), antichain(3)]
    for p in cases:
        for i in range(len(p)):
            assert p._upper[i] == tuple(b for a, b in p.covers if a == i)
            assert p._lower[i] == tuple(a for a, b in p.covers if b == i)


def test_lg_min_is_identity_image():
    from tubelat.weakorder import psi

    for g in all_graphs(4):
        lg = build_lg(g)
        assert lg.minimum() == psi(g, tuple(range(1, g.n + 1)))
        assert lg.maximum() == psi(g, tuple(range(g.n, 0, -1)))


def _extreme_by_scan(p, below):
    # the one element with no other element below it, or None when there
    # are several
    ends = [x for x in p.elements if not any(y != x and below(y, x) for y in p.elements)]
    return ends[0] if len(ends) == 1 else None


def test_minimum_and_maximum_match_a_scan():
    vee = Poset(["a", "b", "c"], [("a", "c"), ("b", "c")])  # two minimal elements
    cases = [build_lg(g) for n in range(5) for g in all_graphs(n)]
    cases += [weak_order_poset(4), vee, vee.dual(), vee.product(chain(2)), PENTAGON.dual()]
    cases += [PENTAGON.product(antichain(2)), antichain(3), antichain(1), antichain(0)]
    for p in cases:
        assert p.minimum() == _extreme_by_scan(p, p.le)
        assert p.maximum() == _extreme_by_scan(p, lambda x, y: p.le(y, x))
    assert sum(p.minimum() is None for p in cases) == 5
    assert sum(p.maximum() is None for p in cases) == 4


def _face_interval_by_probes(lg, y):
    # by definition: the members have one minimal and one maximal element
    # by le, and every element between those two is a member; otherwise
    # lower and upper are the first and last members in storage order
    members = [x for x in lg.elements if set(y.tubes) <= set(x.tubes)]
    mins = [x for x in members if not any(z != x and lg.le(z, x) for z in members)]
    maxs = [x for x in members if not any(z != x and lg.le(x, z) for z in members)]
    ok = len(mins) == len(maxs) == 1 and all(
        z in members for z in lg.elements if lg.le(mins[0], z) and lg.le(z, maxs[0])
    )
    return (True, mins[0], maxs[0]) if ok else (False, members[0], members[-1])


def test_face_interval_matches_a_probe_oracle():
    for g in [g for n in range(5) for g in all_graphs(n)] + [parse_graph("cycle:5")]:
        lg = build_lg(g)
        for y in all_tubings(g):
            res = tubing_face_interval(g, y, lg)
            assert (res.ok, res.lower, res.upper) == _face_interval_by_probes(lg, y), (g, y.label())
    # stand-in orders on the maximal tubings of path:3, where a face's
    # members need not form an interval
    g = parse_graph("path:3")
    ms = list(enumerate_maximal_tubings(g))
    shuffled = ms[::2] + ms[1::2]
    oks = []
    for order in (Poset(ms, []), Poset(shuffled, list(zip(shuffled, shuffled[1:])))):
        for y in all_tubings(g):
            res = tubing_face_interval(g, y, order)
            assert (res.ok, res.lower, res.upper) == _face_interval_by_probes(order, y), y.label()
            oks.append(res.ok)
    assert True in oks and False in oks


def test_face_interval_trivial_cases():
    g = parse_graph("path:3")
    lg = build_lg(g)
    whole = tubing_face_interval(g, Tubing(g, (frozenset({1, 2, 3}),)), lg)
    assert whole.ok
    assert whole.lower == lg.minimum() and whole.upper == lg.maximum()
    for x in lg.elements:
        res = tubing_face_interval(g, x, lg)
        assert res.ok and res.lower == res.upper == x


def test_face_interval_refuses_a_tubing_of_another_graph():
    # y's tubes are checked against y.graph on construction, so a y on
    # another graph is refused, not read as a face of g
    g = parse_graph("path:3")
    for y in (Tubing(Graph(3), (frozenset({1}), frozenset({3}))), Tubing(Graph(2), ())):
        with pytest.raises(TubelatError):
            tubing_face_interval(g, y)


@st.composite
def _random_faces(draw):
    """A graph on 5 or 6 vertices and a random subset of the tubes of one
    of its maximal tubings."""
    n = draw(st.integers(5, 6))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    g = Graph(n, tuple(p for p in pairs if draw(st.booleans())))
    x = psi_tubing(g, draw(st.permutations(g.vertices)))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return g, Tubing(g, tuple(t for t, k in zip(x.tubes, keep) if k))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_random_faces())
def test_face_intervals_are_convex_random(face):
    g, y = face
    lg = build_lg(g)
    res = tubing_face_interval(g, y, lg)
    assert res.ok, (g, y.label())
    assert lg.le(res.lower, res.upper)


def test_lower_cover_degrees_are_palindromic():
    # L_G orients the graph of a simple polytope of dimension n - #components
    # by a generic linear functional, so the number of elements with k lower
    # covers is the h-vector entry h_k, and Dehn-Sommerville makes it
    # palindromic
    descriptors = ("cycle:6", "h:2:6", "complete:5", "path:7")
    for g in [parse_graph(d) for d in descriptors] + list(all_graphs(4)):
        lg = build_lg(g)
        lower = [0] * len(lg)
        for _, b in lg.covers:
            lower[b] += 1
        h = [0] * (g.n - len(component_tubes(g)) + 1)
        for k in lower:
            h[k] += 1
        assert h == h[::-1], g


def test_all_tubings_counts():
    g = parse_graph("path:2")
    labels = {t.label() for t in all_tubings(g)}
    assert labels == {"", "{1}", "{1}{1,2}", "{1,2}", "{2}", "{2}{1,2}"}
    k3 = parse_graph("complete:3")
    # tubes of K_3 are all 7 nonempty subsets and compatibility is nestedness,
    # so tubings are chains: 1 empty + 7 + 12 two-chains + 6 three-chains
    assert len(all_tubings(k3)) == 26


def _all_tubings_by_matrix(g):
    # the hand-built list matrix ``all_tubings`` used before it read
    # ``compatibility_masks``, kept as the oracle
    ts = list(tubes(g))
    m = len(ts)
    compat = [[False] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            a, b = ts[i], ts[j]
            compat[i][j] = compat[j][i] = a <= b or b <= a or not is_tube(g, a | b)
    out = []

    def rec(chosen: list, start: int):
        out.append(Tubing(g, tuple(ts[i] for i in chosen)))
        for k in range(start, m):
            if all(compat[i][k] for i in chosen):
                chosen.append(k)
                rec(chosen, k + 1)
                chosen.pop()

    rec([], 0)
    return out


def test_all_tubings_match_matrix_oracle():
    for n in range(5):
        for g in all_graphs(n):
            assert all_tubings(g) == _all_tubings_by_matrix(g)


def test_to_dot_and_json():
    p = chain(2)
    dot = p.to_dot()
    assert dot.startswith("digraph") and "n0 -> n1" in dot
    obj = p.to_json_obj()
    assert obj == {"elements": ["0", "1"], "covers": [[0, 1]]}
