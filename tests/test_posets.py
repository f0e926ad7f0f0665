import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelat import posets
from tubelat.cli import run
from tubelat.errors import ElementNotFound, NotALattice, NotComparable, TubelatError
from tubelat.graphs import (
    Graph,
    adjacency,
    all_graphs,
    component,
    component_tubes,
    is_tube,
    parse_graph,
    tubes,
)
from tubelat.posets import Poset, all_tubings, build_lg, tubing_face_interval
from tubelat.tubings import Tubing, enumerate_maximal_tubings, flip_by_search, psi_tubing, top
from tubelat.weakorder import weak_order_poset


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


def test_le_and_covers():
    p = chain(4)
    assert p.le(0, 3) and not p.le(3, 0)
    assert p.upper_covers(1) == [2]
    assert p.lower_covers(1) == [0]
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
    assert p.dual().dual().is_isomorphic_to(p)
    pr = chain(2).product(chain(2))
    assert len(pr) == 4 and pr.is_lattice()
    assert not pr.is_isomorphic_to(chain(4))
    assert PENTAGON.dual().is_isomorphic_to(PENTAGON)


def _brute_meet(p, x, y):
    lower = [z for z in p.elements if p.le(z, x) and p.le(z, y)]
    maxima = [z for z in lower if not any(p.lt(z, w) for w in lower)]
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
    # the kappa test against the numpy scan over all triples
    lattices = [p for p in small_lgs if p.is_lattice()]
    assert len(lattices) == 690
    for p in [PENTAGON, star, m3, one_sided, one_sided.dual(), weak_order_poset(5)] + lattices:
        assert p._kappa_maps_exist() == (p._semidistributivity_scan() is None)


BOWTIE = Poset(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def _probe_table(p, probe):
    n = len(p)
    t = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        for j in range(i, n):
            t[i, j] = t[j, i] = probe(i, j)
    return t


def test_meet_join_tables_against_probes(small_lgs):
    # the pair-by-pair tables the cover recursion replaced, kept as the oracle
    for p in small_lgs + [weak_order_poset(5), BOWTIE, PENTAGON.dual(), Poset([], [])]:
        assert np.array_equal(p.meet_table(), _probe_table(p, p._meet_idx))
        assert np.array_equal(p.join_table(), _probe_table(p, p._join_idx))
    assert not BOWTIE.is_meet_semilattice() and not BOWTIE.is_join_semilattice()


def test_table_size_guard(monkeypatch, capsys):
    n = posets.MAX_TABLE_ELEMENTS + 1
    big = chain(n)
    for build in (big.meet_table, big.join_table, big.is_lattice):
        with pytest.raises(TubelatError, match=f"{n:,} elements would take {4 * n * n:,} bytes"):
            build()
    assert big._meets is None and big._joins is None
    monkeypatch.setattr(posets, "MAX_TABLE_ELEMENTS", 10)  # L_path:4 has 14 elements
    assert run(["check", "lattice", "--graph", "path:4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: meet/join tables over 14 elements") and "Traceback" not in err


def test_weak_order_meets_against_brute_force_s4():
    s4 = weak_order_poset(4)
    for x in s4.elements:
        for y in s4.elements:
            assert s4.meet(x, y) == _brute_meet(s4, x, y)


def test_build_lg_small_examples():
    g = Graph(3, ((1, 3), (2, 3)))
    lg = build_lg(g)
    assert len(lg) == 5
    assert lg.is_isomorphic_to(PENTAGON)
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
            J = component(adjacency(g), K - {top(x, I)}, top(x, K))
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
        for i, x in enumerate(p.elements):
            assert p.upper_covers(x) == [p.elements[b] for a, b in p.covers if a == i]
            assert p.lower_covers(x) == [p.elements[a] for a, b in p.covers if b == i]


def test_lg_min_is_identity_image():
    from tubelat.weakorder import psi

    for g in all_graphs(4):
        lg = build_lg(g)
        assert lg.minimum() == psi(g, tuple(range(1, g.n + 1)))
        assert lg.maximum() == psi(g, tuple(range(g.n, 0, -1)))


def test_face_interval_trivial_cases():
    g = parse_graph("path:3")
    lg = build_lg(g)
    whole = tubing_face_interval(g, Tubing(g, (frozenset({1, 2, 3}),)), lg)
    assert whole.ok
    assert whole.lower == lg.minimum() and whole.upper == lg.maximum()
    for x in lg.elements:
        res = tubing_face_interval(g, x, lg)
        assert res.ok and res.lower == res.upper == x


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
    assert res.ok, (g, y.label(), res.witness)
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
