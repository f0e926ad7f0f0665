import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelat.errors import (
    InvalidVertex,
    NotACover,
    NotFilled,
    NotRightFilled,
    SizeMismatch,
    TubelatError,
)
from tubelat.graphs import Graph, all_graphs, family_h, family_path, parse_graph
from tubelat.posets import Poset
from tubelat.tubings import enumerate_maximal_tubings, psi_tubing, sigma_min, tau
from tubelat.weakorder import (
    Arc,
    all_arcs,
    arc_delete,
    arc_insertions,
    arc_of_cover,
    class_maximum,
    class_minimum,
    congruence_classes,
    congruence_from_generators,
    contracted_arcs_of_graph,
    format_perm,
    generators_of_theta_g,
    inversions,
    is_g_permutation,
    is_lattice_congruence,
    is_subarc,
    is_insertional,
    is_translational,
    lattice_map_report,
    metasylvester_congruence,
    parse_arc,
    parse_perm,
    perm_of_arc,
    perm_of_arc_lower,
    permutations,
    pi_down,
    positive_arc,
    psi,
    psi_fibers,
    psi_map,
    quotient_poset,
    theta_g,
    weak_cover_arcs,
    weak_cover_pairs,
    weak_covers,
    weak_join,
    weak_le,
    weak_meet,
    weak_order_poset,
)


def test_perm_parsing_and_formatting():
    assert parse_perm("35214") == (3, 5, 2, 1, 4)
    assert parse_perm("3,5,2,1,4") == (3, 5, 2, 1, 4)
    assert format_perm((3, 5, 2, 1, 4)) == "35214"
    with pytest.raises(TubelatError):
        parse_perm("332")


def test_inversions_and_weak_order():
    assert inversions((3, 2, 1)) == {(1, 2), (1, 3), (2, 3)}
    assert weak_le((2, 1, 3), (2, 3, 1))
    assert not weak_le((2, 3, 1), (2, 1, 3))
    assert sorted(weak_covers((3, 2, 1))) == [(2, 3, 1), (3, 1, 2)]
    with pytest.raises(SizeMismatch):
        weak_le((1,), (1, 2))


def test_weak_meet_join_examples():
    assert weak_join((2, 1, 3), (1, 3, 2)) == (3, 2, 1)
    ident = (1, 2, 3, 4)
    for w in permutations(4):
        assert weak_meet(w, ident) == ident
        assert weak_join(w, w) == w


def test_weak_order_meets_are_inversion_intersections_closure():
    s4 = weak_order_poset(4)
    for u in permutations(4):
        for w in permutations(4):
            m = s4.meet(u, w)
            assert inversions(m) <= inversions(u) & inversions(w)


def test_arc_construction_and_parsing():
    a = Arc(2, 5, (-1, 1), 5)
    assert a.format() == "2-5:-+"
    assert parse_arc("2-5:-+", 5) == a
    with pytest.raises(TubelatError):
        Arc(2, 5, (1,), 5)
    with pytest.raises(TubelatError):
        Arc(5, 2, (), 5)
    assert positive_arc(1, 4, 5).signs == (1, 1)


def test_arc_of_cover_worked_example():
    assert arc_of_cover((3, 2, 5, 1, 4), (3, 5, 2, 1, 4)) == Arc(2, 5, (-1, 1), 5)
    assert arc_of_cover((1, 2, 3), (1, 3, 2)) == Arc(2, 3, (), 3)
    with pytest.raises(NotACover):
        arc_of_cover((1, 2, 3), (3, 2, 1))
    with pytest.raises(NotACover):
        arc_of_cover((1, 3, 2), (1, 2, 3))


def test_perm_of_arc_examples():
    assert perm_of_arc(Arc(2, 4, (1,), 4)) == (1, 4, 2, 3)
    assert perm_of_arc(Arc(1, 2, (), 3)) == (2, 1, 3)
    for n in range(2, 6):
        for a in all_arcs(n):
            j = perm_of_arc(a)
            descents = [
                (j[s], j[s - 1]) for s in range(1, n) if j[s - 1] > j[s]
            ]
            assert len(descents) == 1
            assert arc_of_cover(perm_of_arc_lower(a), j) == a


def test_is_subarc_examples():
    a = Arc(2, 4, (1,), 4)
    assert is_subarc(a, a)
    assert is_subarc(a, Arc(1, 4, (1, 1), 4))
    assert is_subarc(a, Arc(1, 4, (-1, 1), 4))
    assert not is_subarc(a, Arc(1, 4, (-1, -1), 4))
    with pytest.raises(SizeMismatch):
        is_subarc(a, Arc(1, 4, (1, 1), 5))


def test_congruence_from_generators():
    th = congruence_from_generators(4, [Arc(2, 4, (1,), 4)])
    assert th.contracted == {
        Arc(2, 4, (1,), 4),
        Arc(1, 4, (1, 1), 4),
        Arc(1, 4, (-1, 1), 4),
    }
    assert th.generators == {Arc(2, 4, (1,), 4)}
    # redundant generators collapse to the antichain
    th2 = congruence_from_generators(4, [Arc(2, 4, (1,), 4), Arc(1, 4, (1, 1), 4)])
    assert th2.generators == {Arc(2, 4, (1,), 4)}
    assert th2.contracted == th.contracted


def test_discrete_congruence_quotient_is_weak_order():
    th = congruence_from_generators(3, [])
    classes = congruence_classes(th)
    assert all(len(c) == 1 for c in classes)
    q = quotient_poset(th)
    assert q.is_isomorphic_to(weak_order_poset(3))


def test_congruence_classes_are_intervals_spot():
    th = congruence_from_generators(4, [Arc(2, 4, (1,), 4)])
    classes = congruence_classes(th)
    assert sorted(len(c) for c in classes) == [1] * 14 + [2, 2, 3, 3]
    assert is_lattice_congruence(classes, 4)
    for cls in classes:
        lo, hi = class_minimum(cls), class_maximum(cls)
        assert all(weak_le(lo, w) and weak_le(w, hi) for w in cls)


def test_psi_examples():
    g = parse_graph("path:3")
    x = psi(g, (2, 1, 3))
    assert {tuple(sorted(t)) for t in x.tubes} == {(2,), (1, 2), (1, 2, 3)}
    assert tau(x).parent == (3, 1, 0)
    k4 = parse_graph("complete:4")
    for w in permutations(4):
        t = tau(psi(k4, w))
        assert sigma_min(t) == w
    free = Graph(3)
    assert len({psi(free, w) for w in permutations(3)}) == 1
    with pytest.raises(SizeMismatch):
        psi(g, (1, 2, 3, 4))


def _assert_psi_map_is_psi_tubing(g):
    pm = psi_map(g)
    expected = {w: psi_tubing(g, w) for w in permutations(g.n)}
    assert list(pm) == list(expected)
    assert pm == expected
    enumerated = {x: x for x in enumerate_maximal_tubings(g)}
    assert all(x is enumerated[x] for x in pm.values())


def test_psi_map_matches_psi_tubing():
    for n in range(6):
        for g in all_graphs(n):
            _assert_psi_map_is_psi_tubing(g)


@st.composite
def random_graphs(draw, lo, hi):
    n = draw(st.integers(lo, hi))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, tuple(p for p, k in zip(pairs, keep) if k))


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(random_graphs(6, 7))
def test_psi_map_matches_psi_tubing_random(g):
    _assert_psi_map_is_psi_tubing(g)


def test_psi_map_names_a_word_missing_from_the_enumeration(monkeypatch):
    from tubelat import weakorder

    g = parse_graph("cycle:4")
    full = enumerate_maximal_tubings(g)
    first = next(w for w in permutations(4) if psi_tubing(g, w) == full[0])
    monkeypatch.setattr(weakorder, "enumerate_maximal_tubings", lambda h: full[1:])
    psi_map.cache_clear()
    try:
        with pytest.raises(TubelatError, match=f"psi\\({format_perm(first)}\\)"):
            psi_map(g)
    finally:
        psi_map.cache_clear()


def test_weak_cover_arcs_match_arc_of_cover():
    for n in range(7):
        table = weak_cover_arcs(n)
        by_cover = {(u, w): arc for arc, pairs in table for u, w in pairs}
        assert len(by_cover) == sum(len(pairs) for _, pairs in table)
        assert by_cover == {(u, w): arc_of_cover(u, w) for u, w in weak_cover_pairs(n)}
        assert sorted(arc for arc, _ in table) == list(all_arcs(n))


def test_is_g_permutation_examples():
    g = Graph(3, ((1, 3), (2, 3)))
    assert not is_g_permutation(g, (2, 1, 3))
    for n in range(5):
        ident = tuple(range(1, n + 1))
        for graph in (parse_graph(f"complete:{n}"), Graph(n), parse_graph(f"path:{n}")):
            assert is_g_permutation(graph, ident)
    k4 = parse_graph("complete:4")
    assert all(is_g_permutation(k4, w) for w in permutations(4))


def test_pi_down_examples():
    k3 = parse_graph("complete:3")
    for w in permutations(3):
        assert pi_down(k3, w) == w
    p4 = parse_graph("path:4")
    for w in permutations(4):
        v = pi_down(p4, w)
        assert is_g_permutation(p4, v)
        assert psi(p4, v) == psi(p4, w)
        assert weak_le(v, w)
    star = Graph(4, ((1, 2), (1, 3), (1, 4)))  # left- but not right-filled
    with pytest.raises(NotRightFilled):
        pi_down(star, (1, 2, 3, 4))


def test_theta_g_examples():
    assert generators_of_theta_g(parse_graph("complete:4")) == []
    p4 = parse_graph("path:4")
    assert [a.format() for a in generators_of_theta_g(p4)] == ["1-3:+", "2-4:+"]
    for k in range(4):
        g = family_h(k)(6)
        gens = generators_of_theta_g(g)
        assert all(a.is_positive() and a.gap() == k + 1 for a in gens)
    with pytest.raises(NotFilled):
        theta_g(Graph(3, ((1, 3),)))


def test_theta_g_classes_are_fibers_spot():
    p4 = parse_graph("path:4")
    classes = {frozenset(c) for c in congruence_classes(theta_g(p4))}
    fibers = {frozenset(ws) for ws in psi_fibers(p4).values()}
    assert classes == fibers


def test_lattice_map_variants():
    g = Graph(3, ((1, 3), (2, 3)))  # right-filled, not left-filled
    rep = lattice_map_report(g)
    assert rep.meet_ok and not rep.join_ok
    assert set(rep.witness[1:]) == {(2, 1, 3), (1, 3, 2)}
    mirror = Graph(3, ((1, 2), (1, 3)))  # left-filled
    rep = lattice_map_report(mirror)
    assert rep.join_ok and not rep.meet_ok


def _lattice_map_report_by_pairs(g):
    # the pair loop the table-driven report replaced, kept as the oracle
    from tubelat.posets import build_lg
    from tubelat.weakorder import LatticeMapReport, psi_map

    lg = build_lg(g)
    sn = weak_order_poset(g.n)
    pm = psi_map(g)
    img = [lg.index(pm[w]) for w in sn.elements]
    mt, jt = sn.meet_table(), sn.join_table()
    meet_ok, join_ok = True, True
    witness = None
    m = len(sn.elements)
    for a in range(m):
        for b in range(a + 1, m):
            if meet_ok:
                lm = lg._meet_idx(img[a], img[b])
                if lm < 0 or lm != img[mt[a, b]]:
                    meet_ok = False
                    if witness is None:
                        witness = ("meet", sn.elements[a], sn.elements[b])
            if join_ok:
                lj = lg._join_idx(img[a], img[b])
                if lj < 0 or lj != img[jt[a, b]]:
                    join_ok = False
                    if witness is None:
                        witness = ("join", sn.elements[a], sn.elements[b])
            if not meet_ok and not join_ok:
                return LatticeMapReport(meet_ok, join_ok, witness)
    return LatticeMapReport(meet_ok, join_ok, witness)


def test_lattice_map_report_against_pair_loop():
    import random

    rng = random.Random(20181)
    graphs = [g for n in range(5) for g in all_graphs(n)]
    graphs += [
        Graph(5, tuple(p for p in itertools.combinations(range(1, 6), 2) if rng.random() < 0.5))
        for _ in range(128)
    ]
    kinds = set()
    for g in graphs:
        rep = lattice_map_report(g)
        assert rep == _lattice_map_report_by_pairs(g), g
        kinds.add(rep.witness and rep.witness[0])
    assert kinds == {None, "meet", "join"}


def test_lattice_map_refuses_oversized_sn_before_building():
    from tubelat import tubings, weakorder

    caches = (weakorder.psi_map, weakorder.weak_order_poset, tubings.enumerate_maximal_tubings)
    before = [c.cache_info().currsize for c in caches]
    n = 40320  # |S_8|
    message = f"tables over {n:,} elements would take {4 * n * n:,} bytes"
    with pytest.raises(TubelatError, match=message):
        lattice_map_report(parse_graph("path:8"))
    assert [c.cache_info().currsize for c in caches] == before


def test_arc_delete_examples():
    assert arc_delete(Arc(2, 5, (-1, 1), 5), 3) == Arc(2, 4, (1,), 4)
    assert arc_delete(Arc(2, 4, (1,), 4), 1) == Arc(1, 3, (1,), 3)
    assert arc_delete(Arc(2, 4, (1,), 4), 2) == Arc(2, 3, (), 3)
    assert arc_delete(Arc(2, 4, (1,), 4), 4) == Arc(2, 3, (), 3)
    assert arc_delete(Arc(1, 2, (), 3), 3) == Arc(1, 2, (), 2)
    with pytest.raises(InvalidVertex):
        arc_delete(Arc(1, 2, (), 3), 1)
    with pytest.raises(InvalidVertex):
        arc_delete(Arc(1, 2, (), 3), 9)


def test_arc_insertions_examples():
    outs = arc_insertions(Arc(1, 2, (), 2), 2)
    assert set(outs) == {Arc(1, 3, (1,), 3), Arc(1, 3, (-1,), 3)}
    assert arc_insertions(Arc(1, 2, (), 2), 1) == [Arc(2, 3, (), 3)]
    assert arc_insertions(Arc(1, 2, (), 2), 3) == [Arc(1, 2, (), 3)]
    for b in outs:
        assert arc_delete(b, 2) == Arc(1, 2, (), 2)


def test_translational_insertional_band_families():
    for k, (tr, ins) in {0: (True, True), 1: (True, True), 2: (True, False)}.items():
        fam = family_h(k)
        assert is_translational(fam, 5) == tr
        assert is_insertional(fam, 5) == ins


def test_from_a2_family_oracle_values():
    # the distance-{2} family is translational at desk scale (it is not
    # filled, so the band-graph characterization does not apply) but it is
    # not insertional from n=3 on
    from tubelat.graphs import family_from_A

    fam = family_from_A({2})
    assert is_translational(fam, 4)
    assert is_translational(fam, 6)
    assert not is_insertional(fam, 3)
    assert not is_insertional(fam, 6)


def test_contracted_arcs_match_theta_for_filled():
    for g in all_graphs(4):
        from tubelat.graphs import filled_status

        if not filled_status(g).filled:
            continue
        assert contracted_arcs_of_graph(g) == theta_g(g).contracted


def test_metasylvester_small():
    th = metasylvester_congruence(4, 1)
    assert all(sum(1 for s in a.signs if s > 0) == 1 for a in th.generators)
    path_cong = theta_g(family_path()(4))
    assert congruence_classes(th) == congruence_classes(path_cong)


def test_uncontracted_arcs_closed_under_subarcs():
    from tubelat.weakorder import all_arcs, is_subarc

    for a in all_arcs(4):
        theta = congruence_from_generators(4, [a])
        unc = theta.uncontracted()
        for beta in unc:
            for alpha in all_arcs(4):
                if is_subarc(alpha, beta):
                    assert alpha in unc


def test_is_lattice_congruence_rejects_non_congruences():
    # merging just the two ends of the weak order is not meet/join stable
    perms = list(permutations(3))
    bottom, top = (1, 2, 3), (3, 2, 1)
    partition = [[bottom, top]] + [[w] for w in perms if w not in (bottom, top)]
    assert not is_lattice_congruence(partition, 3)
    # the discrete and the total partitions always are
    assert is_lattice_congruence([[w] for w in perms], 3)
    assert is_lattice_congruence([perms], 3)


def test_quotient_by_theta_g_is_flip_order():
    from tubelat.graphs import filled_status
    from tubelat.posets import build_lg

    for g in all_graphs(4):
        if not filled_status(g).filled:
            continue
        q = quotient_poset(theta_g(g))
        assert q.is_isomorphic_to(build_lg(g))


def _quotient_by_reduction(theta):
    # quotient_poset before it passed the crossing covers straight to Poset:
    # the images of all covers, transitively reduced, kept as the oracle
    rep = {}
    for cls in congruence_classes(theta):
        m = class_minimum(cls)
        for w in cls:
            rep[w] = m
    elements = sorted(set(rep.values()))
    idx = {e: i for i, e in enumerate(elements)}
    succ = [set() for _ in elements]
    for u, w in weak_cover_pairs(theta.n):
        if rep[u] != rep[w]:
            succ[idx[rep[u]]].add(idx[rep[w]])
    reach = [0] * len(elements)  # bit w of reach[v]: w lies above v

    def up(v):
        if not reach[v]:
            reach[v] = 1 << v
            for w in succ[v]:
                reach[v] |= up(w)
        return reach[v]

    covers = []
    for v in range(len(elements)):
        above = [w for w in range(len(elements)) if w != v and up(v) >> w & 1]
        for w in above:
            if not any(u != w and up(u) >> w & 1 for u in above):
                covers.append((elements[v], elements[w]))
    return Poset(elements, covers)


def _arc_antichain_congruences(n):
    arcs = all_arcs(n)
    for r in range(len(arcs) + 1):
        for gens in itertools.combinations(arcs, r):
            pairs = itertools.combinations(gens, 2)
            if not any(is_subarc(a, b) or is_subarc(b, a) for a, b in pairs):
                yield congruence_from_generators(n, gens)


def test_quotient_poset_matches_transitive_reduction():
    thetas = [th for n in range(5) for th in _arc_antichain_congruences(n)]
    thetas += [metasylvester_congruence(n, k) for n in range(7) for k in range(n)]
    for th in thetas:
        q, oracle = quotient_poset(th), _quotient_by_reduction(th)
        assert (q.elements, q.covers) == (oracle.elements, oracle.covers), th.generators


def test_weak_order_poset_refuses_sizes_outside_0_to_8_before_building():
    from tubelat import weakorder

    caches = (weakorder.permutations, weakorder.weak_cover_pairs, weakorder.weak_order_poset)
    before = [c.cache_info().currsize for c in caches]
    for n in (-1, 9):
        with pytest.raises(TubelatError, match=f"built for n = 0..8, not n = {n}"):
            weak_order_poset(n)
    assert [c.cache_info().currsize for c in caches] == before
