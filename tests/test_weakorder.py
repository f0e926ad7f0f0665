import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelat.errors import (
    InvalidVertex,
    NotACover,
    NotFilled,
    SizeMismatch,
    TubelatError,
)
from tubelat.graphs import Graph, all_graphs, family_h, family_path, parse_graph
from tubelat.posets import Poset
from tubelat.tubings import enumerate_maximal_tubings, psi_tubing, sigma_min, tau
from tubelat.weakorder import (
    Arc,
    Congruence,
    all_arcs,
    arc_delete,
    arc_insertions,
    arc_of_cover,
    congruence_classes,
    contracted_arcs_of_graph,
    finest_lattice_congruence,
    format_perm,
    generators_of_theta_g,
    insertional_witness,
    inversions,
    is_g_permutation,
    is_lattice_congruence,
    is_subarc,
    lattice_map_report,
    metasylvester_congruence,
    parse_arc,
    parse_perm,
    perm_of_arc,
    perm_of_arc_lower,
    permutations,
    positive_arc,
    psi,
    psi_fibers,
    psi_map,
    quotient_poset,
    theta_g,
    translational_witness,
    weak_cover_arcs,
    weak_cover_pairs,
    weak_join,
    weak_meet,
    weak_order_poset,
)

import table_oracles


def test_perm_parsing_and_formatting():
    assert parse_perm("35214") == (3, 5, 2, 1, 4)
    assert parse_perm("3,5,2,1,4") == (3, 5, 2, 1, 4)
    assert format_perm((3, 5, 2, 1, 4)) == "35214"
    with pytest.raises(TubelatError):
        parse_perm("332")


def test_inversions_and_weak_order():
    assert inversions((3, 2, 1)) == {(1, 2), (1, 3), (2, 3)}
    assert inversions((2, 1, 3)) <= inversions((2, 3, 1))
    assert not inversions((2, 3, 1)) <= inversions((2, 1, 3))


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


def test_congruence_constructor_closes_its_arcs():
    th = Congruence(4, [Arc(2, 4, (1,), 4)])
    assert th.contracted == {
        Arc(2, 4, (1,), 4),
        Arc(1, 4, (1, 1), 4),
        Arc(1, 4, (-1, 1), 4),
    }
    assert th.generators == {Arc(2, 4, (1,), 4)}
    # redundant arcs collapse to the antichain, and repeats to one
    th2 = Congruence(4, [Arc(1, 4, (1, 1), 4), Arc(2, 4, (1,), 4), Arc(2, 4, (1,), 4)])
    assert th2.generators == {Arc(2, 4, (1,), 4)}
    assert th2 == th
    # any arcs closed under superarcs give back their own set
    closed = frozenset(b for b in all_arcs(5) if b.i == 1)
    assert Congruence(5, closed).contracted == closed
    with pytest.raises(SizeMismatch, match=r"^arc 2-4:\+ not on \[5\]$"):
        Congruence(5, [Arc(2, 4, (1,), 4)])
    with pytest.raises(TubelatError, match="^a congruence of S_n needs n >= 0, not n = -1$"):
        Congruence(-1, ())


def test_discrete_congruence_quotient_is_weak_order():
    th = Congruence(3, [])
    classes = congruence_classes(th)
    assert all(len(c) == 1 for c in classes)
    q, s3 = quotient_poset(th), weak_order_poset(3)
    assert (q.elements, q.covers) == (s3.elements, s3.covers)


def test_congruence_classes_are_intervals_spot():
    th = Congruence(4, [Arc(2, 4, (1,), 4)])
    classes = congruence_classes(th)
    assert sorted(len(c) for c in classes) == [1] * 14 + [2, 2, 3, 3]
    assert is_lattice_congruence(classes, 4)
    for cls in classes:
        lo, hi = cls[0], cls[-1]
        assert all(inversions(lo) <= inversions(w) <= inversions(hi) for w in cls)


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


def test_psi_map_values_are_enumerated_objects():
    # contracted_arcs_of_graph compares fibers with ``is``
    for g in [*(g for n in range(5) for g in all_graphs(n)), parse_graph("cycle:6")]:
        enumerated = {id(x) for x in enumerate_maximal_tubings(g)}
        assert all(id(x) in enumerated for x in psi_map(g).values()), g


def test_psi_fibers_are_sorted_tuples():
    for g in all_graphs(5):
        fibers = psi_fibers(g)
        assert sum(map(len, fibers.values())) == 120
        for ws in fibers.values():
            assert type(ws) is tuple and list(ws) == sorted(ws)


def test_permutations_refuse_n_from_10_before_building():
    from tubelat import tubings, weakorder

    caches = (weakorder.permutations, weakorder.psi_map, tubings.enumerate_maximal_tubings)
    before = [c.cache_info().currsize for c in caches]
    with pytest.raises(TubelatError, match="S_10 has 3,628,800 words"):
        permutations(10)
    # psi_map reads S_n before its walk and before enumerating the tubings
    with pytest.raises(TubelatError, match="S_11 has 39,916,800 words"):
        psi_map(parse_graph("path:11"))
    assert [c.cache_info().currsize for c in caches] == before


def test_psi_map_names_a_word_missing_from_the_enumeration(monkeypatch):
    from tubelat import tubings

    g = parse_graph("cycle:4")
    full = enumerate_maximal_tubings(g)
    first = next(w for w in permutations(4) if psi_tubing(g, w) == full[0])
    bit, by_code = tubings._code_table(g)
    rest = {code: x for code, x in by_code.items() if x is not full[0]}
    monkeypatch.setattr(tubings, "_code_table", lambda h: (bit, rest))
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


def test_theta_g_examples():
    assert generators_of_theta_g(parse_graph("complete:4")) == []
    p4 = parse_graph("path:4")
    assert [a.format() for a in generators_of_theta_g(p4)] == ["1-3:+", "2-4:+"]
    for k in range(4):
        g = family_h(k)(6)
        gens = generators_of_theta_g(g)
        assert all(set(a.signs) <= {1} and a.gap() == k + 1 for a in gens)
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


def _lattice_map_report_by_pairs(g, lg=None):
    # the pair loop the table-driven report replaced, kept as the oracle
    from tubelat.posets import build_lg
    from tubelat.weakorder import LatticeMapReport, psi_map

    lg = lg if lg is not None else build_lg(g)
    sn, mt, jt = table_oracles.weak_order_tables(g.n)
    pm = psi_map(g)
    img = [lg.index(pm[w]) for w in sn.elements]
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


def _lattice_map_report_by_tables(g):
    # the numpy scan of the meet/join tables of S_n and L_G that the cover
    # criterion replaced, kept as the oracle
    import numpy as np

    from tubelat.posets import build_lg
    from tubelat.weakorder import LatticeMapReport

    lg = build_lg(g)
    sn = weak_order_poset(g.n)
    pm = psi_map(g)
    img = np.array([lg.index(pm[w]) for w in sn.elements], dtype=np.int32)
    m = len(img)
    tables = {
        "meet": (table_oracles.meet_table(lg), table_oracles.meet_table(sn)),
        "join": (table_oracles.join_table(lg), table_oracles.join_table(sn)),
    }
    first: dict = {}  # kind -> flat index of its first failing pair
    cols = np.arange(m)
    step = max(1, (1 << 16) // m)
    for lo in range(0, m, step):
        rows = cols[lo : lo + step]
        for kind, (lt, st) in tables.items():
            if kind not in first:
                bad = lt[img[rows, None], img] != img[st[rows]]
                hits = np.flatnonzero(bad & (cols > rows[:, None]))
                if hits.size:
                    first[kind] = lo * m + int(hits[0])
        if len(first) == 2:
            break
    witness = None
    if first:
        kind = min(first, key=lambda k: (first[k], k != "meet"))
        a, b = divmod(first[kind], m)
        witness = (kind, sn.elements[a], sn.elements[b])
    return LatticeMapReport("meet" not in first, "join" not in first, witness)


def test_lattice_map_report_against_pair_loop():
    cases, kinds = set(), set()
    for g in (g for n in range(6) for g in all_graphs(n)):
        rep = lattice_map_report(g)
        assert rep == _lattice_map_report_by_pairs(g), g
        cases.add((rep.meet_ok, rep.join_ok))
        kinds.add(rep.witness and rep.witness[0])
    assert cases == set(itertools.product((True, False), repeat=2))
    assert kinds == {None, "meet", "join"}


def test_lattice_map_report_against_tables():
    import random

    rng = random.Random(20186)
    pairs = list(itertools.combinations(range(1, 7), 2))
    graphs = [Graph(6, tuple(p for p in pairs if rng.random() < 0.5)) for _ in range(32)]
    graphs += [parse_graph("cycle:7"), parse_graph("complete:6")]
    graphs.append(Graph(6, tuple((i, 6) for i in range(1, 6))))  # right-filled only
    cases, kinds = set(), set()
    for g in graphs:
        rep = lattice_map_report(g)
        assert rep == _lattice_map_report_by_tables(g), g
        cases.add((rep.meet_ok, rep.join_ok))
        kinds.add(rep.witness and rep.witness[0])
    assert cases == set(itertools.product((True, False), repeat=2))
    assert kinds == {None, "meet", "join"}


def test_lattice_map_report_refuses_a_map_that_is_not_monotone(monkeypatch):
    # psi is monotone for every graph, so the monotonicity test is tried on
    # a stand-in map onto the chain p < q.  Its fibers {123, 213, 231, 321}
    # and {132, 312} each have one member with no lower cover inside and the
    # minima 123 <= 132 rise along p < q, but 312 <= 321 maps to q > p, so
    # psi(312 ^ 321) = q is not p ^ q = p.
    from tubelat import weakorder

    g, chain = Graph(3), Poset(["p", "q"], [("p", "q")])
    fake = {w: "q" if w in ((1, 3, 2), (3, 1, 2)) else "p" for w in permutations(3)}
    monkeypatch.setattr(weakorder, "psi_map", lambda h: fake)
    rep = lattice_map_report(g, chain)
    assert rep == weakorder.LatticeMapReport(False, False, ("join", (1, 3, 2), (2, 1, 3)))
    assert rep == _lattice_map_report_by_pairs(g, chain)


def test_lattice_map_report_refuses_an_empty_fiber():
    from tubelat.posets import build_lg

    g = parse_graph("path:3")
    lg = build_lg(g)
    top = lg.maximum()
    covers = [(lg.elements[a], lg.elements[b]) for a, b in lg.covers] + [(top, "extra")]
    padded = Poset(lg.elements + ("extra",), covers)
    with pytest.raises(TubelatError, match="psi misses a maximal tubing"):
        lattice_map_report(g, padded)


def test_lattice_map_iff_filled_on_5_vertices():
    import time

    from tubelat.graphs import filled_status

    start = time.perf_counter()
    filled = 0
    for g in all_graphs(5):
        assert lattice_map_report(g).ok == filled_status(g).filled, g
        filled += filled_status(g).filled
    assert filled == 42
    assert time.perf_counter() - start < 10.0


def test_lattice_map_refuses_oversized_sn_before_building():
    from tubelat import tubings, weakorder

    caches = (weakorder.psi_map, weakorder.weak_order_poset, tubings.enumerate_maximal_tubings)
    before = [c.cache_info().currsize for c in caches]
    n = 40320  # |S_8|
    message = f"takes n <= 7; S_8 has {n:,} elements"
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
        assert (translational_witness(fam, 5) is None) == tr
        assert (insertional_witness(fam, 5) is None) == ins


def test_from_a2_family_oracle_values():
    # the distance-{2} family is translational at desk scale (it is not
    # filled, so the band-graph characterization does not apply) but it is
    # not insertional from n=3 on
    from tubelat.graphs import family_from_A

    fam = family_from_A({2})
    assert translational_witness(fam, 4) is None
    assert translational_witness(fam, 6) is None
    assert insertional_witness(fam, 3) is not None
    assert insertional_witness(fam, 6) is not None


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
        theta = Congruence(4, [a])
        unc = frozenset(all_arcs(4)) - theta.contracted
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
    # classes that are intervals, where only the minima (then only the
    # maxima) fail to rise along a cover: 231 < 321, then 123 < 132
    rest = [[(1, 2, 3)], [(1, 3, 2)]]
    assert not is_lattice_congruence(rest + [[(2, 1, 3), (2, 3, 1)], [(3, 1, 2), (3, 2, 1)]], 3)
    rest = [[(2, 3, 1)], [(3, 2, 1)]]
    assert not is_lattice_congruence(rest + [[(1, 2, 3), (2, 1, 3)], [(1, 3, 2), (3, 1, 2)]], 3)
    # the discrete and the total partitions always are
    assert is_lattice_congruence([[w] for w in perms], 3)
    assert is_lattice_congruence([perms], 3)


def test_is_lattice_congruence_refuses_a_non_partition():
    perms = list(permutations(3))
    with pytest.raises(TubelatError, match="321 lies in no class"):
        is_lattice_congruence([perms[:-1]], 3)
    with pytest.raises(TubelatError, match="123 lies in two classes"):
        is_lattice_congruence([perms, perms], 3)


def _e05_e06_partitions():
    """(partition, n): the arc-generated congruences E05 checks and the
    subword fibers E06 checks, at n <= 5."""
    from tubelat.verify import _arc_antichains
    from tubelat.weakorder import rho_subword

    out = []
    for n in range(1, 6):
        arcs = all_arcs(n)
        if n <= 4:
            gen_sets = list(_arc_antichains(n))
        else:
            gen_sets = [[a] for a in arcs] + [list(p) for p in itertools.combinations(arcs, 2)]
        out += [(congruence_classes(Congruence(n, gens)), n) for gens in gen_sets]
        for r in range(n + 1):
            for V in itertools.combinations(range(1, n + 1), r):
                fibers: dict = {}
                for w in permutations(n):
                    fibers.setdefault(rho_subword(w, V), []).append(w)
                out.append((list(fibers.values()), n))
    return out


def test_is_lattice_congruence_against_tables():
    answers = []
    for partition, n in _e05_e06_partitions():
        answers.append(is_lattice_congruence(partition, n))
        assert answers[-1] == table_oracles.is_lattice_congruence(partition, n)
    assert len(answers) == 483 and sum(answers) == 461


@st.composite
def _partitions(draw):
    """(partition of S_n, n) for n = 3, 4: the classes of a congruence
    generated by drawn arcs or of drawn labels, then two classes merged or
    not."""
    n = draw(st.sampled_from((3, 4)))
    perms = permutations(n)
    if draw(st.booleans()):
        gens = draw(st.lists(st.sampled_from(all_arcs(n)), max_size=3))
        classes = [list(c) for c in congruence_classes(Congruence(n, gens))]
    else:
        labels = draw(st.lists(st.integers(0, 5), min_size=len(perms), max_size=len(perms)))
        groups: dict = {}
        for w, c in zip(perms, labels):
            groups.setdefault(c, []).append(w)
        classes = list(groups.values())
    if len(classes) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(classes) - 2))
        j = draw(st.integers(i + 1, len(classes) - 1))
        classes[i] += classes.pop(j)
    return classes, n


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_partitions())
def test_is_lattice_congruence_against_tables_random(case):
    partition, n = case
    assert is_lattice_congruence(partition, n) == table_oracles.is_lattice_congruence(partition, n)


def test_finest_lattice_congruence_against_tables():
    # the E04 cases: the closure of one or two join-irreducible covers
    for n in range(1, 5):
        covers = [(perm_of_arc_lower(a), perm_of_arc(a)) for a in all_arcs(n)]
        cases = [[c] for c in covers] + [list(p) for p in itertools.combinations(covers, 2)]
        for pairs in cases:
            closure = finest_lattice_congruence(n, pairs)
            assert closure == table_oracles.finest_lattice_congruence(n, pairs)


def test_quotient_by_theta_g_is_flip_order():
    from tubelat.graphs import filled_status
    from tubelat.posets import build_lg

    # psi carries the class with minimum m to psi(m)
    for g in (g for n in range(6) for g in all_graphs(n)):
        if not filled_status(g).filled:
            continue
        q, lg = quotient_poset(theta_g(g)), build_lg(g)
        image = {m: psi(g, m) for m in q.elements}
        assert len(q) == len(lg) and set(image.values()) == set(lg.elements), g
        assert {(image[q.elements[a]], image[q.elements[b]]) for a, b in q.covers} == {
            (lg.elements[a], lg.elements[b]) for a, b in lg.covers
        }, g


def _quotient_by_reduction(theta):
    # quotient_poset before it passed the crossing covers straight to Poset:
    # the images of all covers, transitively reduced, kept as the oracle
    rep = {}
    for cls in congruence_classes(theta):
        m = next(u for u in cls if all(inversions(u) <= inversions(w) for w in cls))
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
                yield Congruence(n, gens)


def test_quotient_poset_matches_transitive_reduction():
    thetas = [th for n in range(5) for th in _arc_antichain_congruences(n)]
    thetas += [metasylvester_congruence(n, k) for n in range(7) for k in range(n)]
    for th in thetas:
        classes = congruence_classes(th)  # each sorted, in order of first words
        assert list(classes) == sorted(tuple(sorted(c)) for c in classes), th.generators
        q, oracle = quotient_poset(th), _quotient_by_reduction(th)
        assert (q.elements, q.covers) == (oracle.elements, oracle.covers), th.generators


def test_congruence_closes_arcs_that_are_not_forcing_closed():
    # these four arcs are not closed under superarcs: as a contracted set
    # they would put 2413, 4123 and 4213 in one class with no least word
    # (2413 inverts 1, 2; 4123 does not).  The constructor closes them, so
    # every class has its first word as minimum
    arcs = [parse_arc(s, 4) for s in ("1-2:", "1-4:--", "2-4:+", "2-4:-")]
    theta = Congruence(4, arcs)
    assert theta.contracted == {b for b in all_arcs(4) if any(is_subarc(a, b) for a in arcs)}
    assert theta.contracted > set(arcs)
    assert theta.generators == set(arcs) - {parse_arc("1-4:--", 4)}
    q, oracle = quotient_poset(theta), _quotient_by_reduction(theta)
    assert (q.elements, q.covers) == (oracle.elements, oracle.covers)


def test_quotient_poset_refuses_more_classes_than_a_poset_takes(monkeypatch):
    # S_9's discrete quotient would need about 16 GB of up-masks; a stand-in
    # for its classes shows the refusal comes before the poset is built
    from tubelat import weakorder

    classes = tuple(((k,),) for k in range((1 << 16) + 1))
    monkeypatch.setattr(weakorder, "congruence_classes", lambda theta: classes)
    monkeypatch.setattr(weakorder, "Poset", None)  # building the poset raises TypeError
    with pytest.raises(TubelatError, match="^the quotient has 65,537 classes; a poset takes at most 65,536$"):
        quotient_poset(Congruence(9, ()))
    # 65,536 classes go on to the poset (n = 0 keeps the covers empty)
    classes = classes[: 1 << 16]
    with pytest.raises(TypeError, match="'NoneType' object is not callable"):
        quotient_poset(Congruence(0, ()))


def test_weak_order_poset_refuses_sizes_outside_0_to_8_before_building():
    from tubelat import weakorder

    caches = (weakorder.permutations, weakorder.weak_cover_pairs, weakorder.weak_order_poset)
    before = [c.cache_info().currsize for c in caches]
    for n in (-1, 9):
        with pytest.raises(TubelatError, match=f"built for n = 0..8, not n = {n}"):
            weak_order_poset(n)
    assert [c.cache_info().currsize for c in caches] == before
