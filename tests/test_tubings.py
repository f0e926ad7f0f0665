import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelat import tubings
from tubelat.errors import (
    InvalidForest,
    InvalidTubing,
    InvalidVertex,
    MaximalTubeNotFlippable,
    NotAnIdeal,
    NotATube,
    TubeNotInTubing,
)
from tubelat.graphs import (
    Graph,
    adjacency,
    all_graphs,
    bits,
    component_tubes,
    components_within,
    family_cycle,
    family_path,
    induced_subgraph,
    is_tube,
    mask_vertices,
    parse_graph,
    tube_key,
    tubes,
)
from tubelat.hopf import _coarsen_fibers, _split_index, tubing_coproduct
from tubelat.posets import all_tubings, build_lg
from tubelat.tubings import (
    GForest,
    Tubing,
    chi,
    compatibility_masks,
    compatible,
    descents,
    ascents,
    coarsen,
    enumerate_maximal_tubings,
    flip,
    flip_by_search,
    flips,
    forest_inversions,
    ideal_splits,
    ideals,
    is_ideal,
    linear_extensions,
    maximal_tubings_oracle,
    psi_tubing,
    quotient_std,
    restrict_std,
    sigma_max,
    sigma_min,
    split_restrictions,
    tau,
    top,
    tube_tree,
    vertex_coordinates,
)

P3 = parse_graph("path:3")
K2 = Graph(2, ((1, 2),))
K3 = parse_graph("complete:3")


def fs(*vs):
    return frozenset(vs)


def test_compatible_examples():
    assert compatible(P3, {1}, {3})
    assert not compatible(P3, {1}, {2})
    assert compatible(P3, {1}, {1, 2})
    with pytest.raises(NotATube):
        compatible(P3, {1, 3}, {2})


def test_tubing_constructor_validates():
    Tubing(P3, [fs(1), fs(1, 2)])
    with pytest.raises(InvalidTubing):
        Tubing(P3, [fs(1), fs(2)])
    with pytest.raises(NotATube):
        Tubing(P3, [fs(1, 3)])


def test_constructor_pair_rule_matches_compatible():
    # the constructor tests pairs on masks (nested, or disjoint with no edge
    # between); compatible() is the definition (nested, or the union is not
    # a tube)
    pairs = 0
    for n in range(6):
        for g in all_graphs(n):
            for a, b in itertools.combinations(tubes(g), 2):
                try:
                    Tubing(g, (a, b))
                    built = True
                except InvalidTubing:
                    built = False
                assert built == compatible(g, a, b), (g, a, b)
                pairs += 1
    assert pairs > 100_000


def _assert_checked(y):
    # the producers skip the constructor's check; it must pass them
    assert Tubing(y.graph, y.tubes) == y


def test_trusted_producers_build_tubings():
    # every graph on [4]: faces of every tubing for restrict_std and
    # quotient_std, maximal tubings for the rest
    from tubelat.posets import all_tubings

    for g in all_graphs(4):
        for y in all_tubings(g):
            for r in range(g.n + 1):
                for I in itertools.combinations(g.vertices, r):
                    _assert_checked(restrict_std(y, I))
            for I in ideals(y):
                _assert_checked(quotient_std(y, I))
        for w in itertools.permutations(g.vertices):
            _assert_checked(psi_tubing(g, w))
        for x in maximal_tubings_oracle(g):
            _assert_checked(x)
            _assert_checked(chi(tau(x)))
            for I in x.tubes:
                if I not in component_tubes(g):
                    _assert_checked(flip(x, I)[0])
                    _assert_checked(flip_by_search(x, I)[0])
            for drop in g.edges:
                _assert_checked(coarsen(Graph(g.n, tuple(e for e in g.edges if e != drop)), x))


def test_enumeration_counts():
    assert len(enumerate_maximal_tubings(K3)) == 6
    assert len(enumerate_maximal_tubings(P3)) == 5
    for n in range(5):
        unique = enumerate_maximal_tubings(Graph(n))
        assert len(unique) == 1
        assert unique[0].tubes == tuple(fs(i) for i in range(1, n + 1))


def test_every_enumerated_pair_compatible():
    for g in all_graphs(4):
        for x in enumerate_maximal_tubings(g):
            assert x.is_maximal()
            for a, b in itertools.combinations(x.tubes, 2):
                assert compatible(g, a, b)


def test_oracle_matches_on_structured_graphs():
    # acceptance covers all graphs n<=4; spot-check the larger families here
    for desc in ("path:6", "cycle:6", "complete:6"):
        g = parse_graph(desc)
        assert enumerate_maximal_tubings(g) == maximal_tubings_oracle(g)


def test_decomposition_enumerator_matches_sweep():
    # psi is onto, so its image over all of S_n is an independent enumeration
    for g in list(all_graphs(4)) + [parse_graph("cycle:5"), parse_graph("complete:5")]:
        image = {psi_tubing(g, w) for w in itertools.permutations(g.vertices)}
        assert enumerate_maximal_tubings(g) == tuple(sorted(image, key=Tubing.key))


def test_enumerator_sorts_by_tubing_key():
    # the enumerator sorts codes descending; this must be strictly ascending
    # Tubing.key order
    graphs = [g for n in range(6) for g in all_graphs(n)]
    assert len(graphs) == 1100
    for g in graphs + [parse_graph("complete:7"), parse_graph("path:9")]:
        out = enumerate_maximal_tubings(g)
        assert all(x.key() < y.key() for x, y in zip(out, out[1:]))


def test_code_table_tubings_match_the_public_constructor():
    # the code table builds its tubings without sorting; the public
    # constructor, given the tubes in reverse order, must build equal ones,
    # field for field
    graphs = [g for n in range(6) for g in all_graphs(n)]
    seen = 0
    for g in graphs + [parse_graph("complete:7"), parse_graph("path:9")]:
        for x in enumerate_maximal_tubings(g):
            y = Tubing(g, x.tubes[::-1])
            assert x.tubes == y.tubes
            assert hash(x) == hash(y)
            assert x == y
            assert vars(x) == vars(y)
            seen += g.n <= 5
    assert seen == 58302


def test_enumeration_beyond_sweep_threshold():
    # n = 9 is past the reach of the n! psi sweep used as an oracle above
    x = enumerate_maximal_tubings(parse_graph("path:9"))
    assert len(x) == 4862  # Catalan(9)


def test_chi_tau_examples():
    free2 = Graph(2)
    both_roots = GForest(free2, (0, 0))
    assert chi(both_roots).tubes == (fs(1), fs(2))
    chain = GForest(K2, (2, 0))
    assert chi(chain).tubes == (fs(1), fs(1, 2))
    x = Tubing(K2, (fs(1), fs(1, 2)))
    assert tau(x) == chain


def test_gforest_rejects_bad_forests():
    with pytest.raises(InvalidForest):
        GForest(P3, (2, 1, 0))  # cycle between 1 and 2
    # ideals must be tubes: parent 3 covers 1 directly in the path graph
    with pytest.raises(InvalidForest):
        GForest(P3, (3, 0, 0))
    # incomparable ideals whose union is a tube
    with pytest.raises(InvalidForest):
        GForest(K2, (0, 0))
    # parents outside [0, n] never reach the children masks
    for parent in ((5, 0, 0), (-1, 0, 0)):
        with pytest.raises(InvalidForest):
            GForest(P3, parent)


def test_gforest_refuses_a_cycle_at_construction():
    # once built, walking 2 <-> 3 up to a root would never end
    with pytest.raises(InvalidForest, match="^parent relation has a cycle$"):
        GForest(P3, (0, 3, 2))


def _ideal_by_walk(parent, v):
    # v and every vertex whose walk up the parent array passes v
    out = set()
    for u in range(1, len(parent) + 1):
        w = u
        for _ in range(len(parent) + 1):
            if w == v:
                out.add(u)
            w = parent[w - 1] if w else 0
    return frozenset(out)


def test_gforest_children_and_ideals_match_parent_scan():
    # tau builds its forest unchecked: it equals the checked constructor's
    for g in itertools.chain.from_iterable(all_graphs(n) for n in range(6)):
        for x in enumerate_maximal_tubings(g):
            t = tau(x)
            checked = GForest(g, t.parent)
            for u in (t, checked):
                assert u.parent == t.parent
                for v in range(g.n + 1):
                    assert u.children(v) == tuple(c for c in g.vertices if t.parent_of(c) == v)
                for v in g.vertices:
                    assert u.ideal(v) == _ideal_by_walk(t.parent, v)


def test_top_examples():
    x = Tubing(K2, (fs(1), fs(1, 2)))
    assert top(x, fs(1, 2)) == 2
    assert top(x, fs(1)) == 1
    with pytest.raises(TubeNotInTubing):
        top(x, fs(2))
    for g in all_graphs(4):
        for x in enumerate_maximal_tubings(g):
            tops = [top(x, t) for t in x.tubes]
            assert sorted(tops) == list(g.vertices)
    # {1, 2, 3} keeps both 2 and 3: {1} is its only smaller tube
    with pytest.raises(InvalidTubing, match=r"tube \[1, 2, 3\] has no unique top"):
        top(Tubing(P3, (fs(1), fs(1, 2, 3))), fs(1, 2, 3))


def _tops_and_supertubes_by_scan(x):
    # the frozenset subset scan that the one-pass tube tree replaced, kept as
    # the oracle: the smallest strict supertube is the first strict superset
    # in the canonical order
    ts = x.tubes
    up = [-1] * len(ts)
    covered = [set() for _ in ts]
    for i, I in enumerate(ts):
        for j in range(i + 1, len(ts)):
            if I < ts[j]:
                up[i] = j
                covered[j] |= I
                break
    tops = []
    for t, c in zip(ts, covered):
        rest = t - c
        if len(rest) != 1:
            raise InvalidTubing(f"tube {sorted(t)} has no unique top; tubing not maximal?")
        tops.extend(rest)
    return tops, up


def _assert_tube_tree_matches_scan(x):
    tops, up, masks = tube_tree(x)
    assert (tops, up) == _tops_and_supertubes_by_scan(x), x.label()
    assert [frozenset(v for v in x.graph.vertices if m >> v & 1) for m in masks] == list(x.tubes)


def test_tube_tree_matches_scan():
    for n in range(6):
        for g in all_graphs(n):
            for x in enumerate_maximal_tubings(g):
                _assert_tube_tree_matches_scan(x)


def test_tubewise_images_name_each_tube_and_its_top():
    # the decomposition's contract, with a piece that is injective on (tube,
    # top) pairs: each image names exactly the pairs of one maximal tubing
    for g in [*(g for n in range(6) for g in all_graphs(n)), parse_graph("cycle:6")]:
        pairs: dict = {}
        images = tubings._tubewise(g, lambda C, r: 1 << pairs.setdefault((C, r), len(pairs)))
        named = list(pairs)
        got = {frozenset(named[k] for k in bits(image)) for image in images}
        want = {
            frozenset(zip(masks, tops))
            for x in enumerate_maximal_tubings(g)
            for tops, _, masks in [tube_tree(x)]
        }
        assert len(images) == len(want) and got == want, g


def test_restrict_examples():
    for x in enumerate_maximal_tubings(K3):
        assert restrict_std(x, {1, 2, 3}) == x
    x = Tubing(P3, (fs(1), fs(1, 2), fs(1, 2, 3)))
    assert restrict_std(x, {1, 3}) == Tubing(Graph(2), (fs(1), fs(2)))
    assert restrict_std(x, set()) == Tubing(Graph(0), ())


def test_split_restrictions_match_restrict_std():
    # the restriction rule by code, against the frozenset route, returning
    # the enumerated objects of both sides of the cut
    for g in [*(g for n in range(5) for g in all_graphs(n)), parse_graph("cycle:6")]:
        for n in range(g.n + 1):
            sides = [range(1, n + 1), range(n + 1, g.n + 1)]
            known = [
                {id(w) for w in enumerate_maximal_tubings(induced_subgraph(g, s)[0])}
                for s in sides
            ]
            seen = []
            for z, *parts in split_restrictions(g, n):
                seen.append(z)
                for part, s, ids in zip(parts, sides, known):
                    assert part == restrict_std(z, s) and id(part) in ids, (g, n)
            assert seen == list(enumerate_maximal_tubings(g)), (g, n)


def test_quotient_examples():
    x = Tubing(K2, (fs(1), fs(1, 2)))
    assert quotient_std(x, set()) == x
    q = quotient_std(x, {1})
    assert q.graph == Graph(1)
    assert q.tubes == (fs(1),)
    with pytest.raises(NotAnIdeal):
        quotient_std(x, {2})


def test_ideals_examples():
    free2 = enumerate_maximal_tubings(Graph(2))[0]
    assert ideals(free2) == [fs(), fs(1), fs(2), fs(1, 2)]
    chain = Tubing(K2, (fs(1), fs(1, 2)))
    assert ideals(chain) == [fs(), fs(1), fs(1, 2)]


def test_ideals_are_forest_downsets():
    for g in all_graphs(4):
        for x in enumerate_maximal_tubings(g):
            t = tau(x)
            downsets = []
            for r in range(g.n + 1):
                for sub in itertools.combinations(g.vertices, r):
                    s = set(sub)
                    if all(set(t.children(v)) <= s for v in s):
                        downsets.append(frozenset(s))
            assert set(ideals(x)) == set(downsets)
            assert all(is_ideal(x, I) for I in ideals(x))


def _ideals_by_scan(x):
    # every vertex subset whose components all belong to x
    tset = set(x.tubes)
    out = []
    for r in range(x.graph.n + 1):
        for sub in itertools.combinations(x.graph.vertices, r):
            I = frozenset(sub)
            if all(c in tset for c in components_within(x.graph, I)):
                out.append(I)
    return sorted(out, key=tube_key)


def _ideal_test_tubings():
    # every tubing of the small graphs, not only the maximal ones
    xs = [x for n in range(5) for g in all_graphs(n) for x in all_tubings(g)]
    for name in ("cycle:6", "path:7", "complete:5"):
        xs += enumerate_maximal_tubings(parse_graph(name))
    assert len(xs) == 6166
    return xs


def test_ideals_match_subset_scan():
    for x in _ideal_test_tubings():
        assert ideals(x) == _ideals_by_scan(x), x


def _small_tubings():
    # every tubing of every graph with n <= 4, not only the maximal ones
    return [x for n in range(5) for g in all_graphs(n) for x in all_tubings(g)]


def _vertex_subsets(g):
    return [frozenset(I) for r in range(g.n + 1) for I in itertools.combinations(g.vertices, r)]


def test_is_ideal_matches_subset_scan():
    # the cover rule against the component scan, on every vertex subset
    for x in _small_tubings():
        scanned = _ideals_by_scan(x)
        for I in _vertex_subsets(x.graph):
            assert is_ideal(x, I) == (I in scanned), (x, I)


def _restrict_by_components(x, I):
    # the components of every tube cut to I, on the rebuilt subgraph
    sub, phi = induced_subgraph(x.graph, I)
    cut = {c for t in x.tubes for c in components_within(x.graph, t & I)}
    return Tubing(sub, tuple(frozenset(phi[v] for v in c) for c in cut))


def test_restrict_std_matches_component_scan():
    for x in _small_tubings():
        for I in _vertex_subsets(x.graph):
            got, want = restrict_std(x, I), _restrict_by_components(x, I)
            assert (got.graph, got.tubes) == (want.graph, want.tubes), (x, I)


def test_cuts_refuse_a_vertex_outside_the_graph():
    x = Tubing(P3, (fs(1), fs(1, 2), fs(1, 2, 3)))
    for I in ({0}, {4}, {1, 4}):
        with pytest.raises(InvalidVertex):
            restrict_std(x, I)
        with pytest.raises(NotAnIdeal):
            quotient_std(x, I)


def test_is_maximal_matches_component_tube_rule():
    # purity: n tubes make a tubing maximal; the oracle also asks for every
    # component of G among them
    kinds = set()
    graphs = [g for n in range(5) for g in all_graphs(n)]
    for g in graphs + [parse_graph("cycle:5"), parse_graph("path:5")]:
        comps = component_tubes(g)
        for x in all_tubings(g):
            want = len(x) == g.n and all(c in x.tubes for c in comps)
            assert x.is_maximal() == want, x
            kinds.add(want)
    assert kinds == {True, False}


def test_ideal_splits_match_restrict_and_quotient():
    # restrict_std and quotient_std, which rebuild their graphs and re-test
    # the ideal, are the oracle
    for x in _ideal_test_tubings():
        splits = list(ideal_splits(x))
        assert [I for I, _, _ in splits] == ideals(x), x
        for I, low, high in splits:
            for got, want in ((low, restrict_std(x, I)), (high, quotient_std(x, I))):
                assert (got.graph, got.tubes) == (want.graph, want.tubes), (x, I)


def test_linear_extensions_examples():
    chain = GForest(parse_graph("complete:3"), (2, 3, 0))
    assert linear_extensions(chain) == [(1, 2, 3)]
    free2 = GForest(Graph(2), (0, 0))
    assert sorted(linear_extensions(free2)) == [(1, 2), (2, 1)]
    fibers = [linear_extensions(tau(x)) for x in enumerate_maximal_tubings(K3)]
    assert sorted(len(f) for f in fibers) == [1] * 6


def test_sigma_examples():
    # the chain 2 < 1 < 3 in the forest order
    g = parse_graph("complete:3")
    chain = GForest(g, (3, 1, 0))
    assert sigma_min(chain) == (2, 1, 3)
    free3 = GForest(Graph(3), (0, 0, 0))
    assert sigma_min(free3) == (1, 2, 3)
    assert sigma_max(free3) == (3, 2, 1)


def test_sigma_minmax_are_lex_extremes():
    for g in all_graphs(4):
        for x in enumerate_maximal_tubings(g):
            t = tau(x)
            exts = linear_extensions(t)
            assert sigma_min(t) == min(exts)
            assert sigma_max(t) == max(exts)


def _linear_extensions_by_copies(t: GForest):
    # the recursion the forest walk replaced, kept as the oracle: it copies
    # the pending-children dict at every node
    out = []

    def rec(remaining: set, pending: dict, acc: list):
        if not remaining:
            out.append(tuple(acc))
            return
        for v in sorted(remaining):
            if not pending[v]:
                acc.append(v)
                rest = remaining - {v}
                rec(rest, {u: pending[u] - {v} for u in rest}, acc)
                acc.pop()

    rec(set(t.graph.vertices), {v: set(t.children(v)) for v in t.graph.vertices}, [])
    return out


def _greedy_extension(t: GForest, pick_max: bool):
    # the greedy sigma_min / sigma_max the forest walk replaced, as the oracle
    remaining = set(t.graph.vertices)
    word = []
    while remaining:
        avail = [v for v in remaining if not set(t.children(v)) & remaining]
        v = max(avail) if pick_max else min(avail)
        word.append(v)
        remaining.discard(v)
    return tuple(word)


def _assert_forest_walk_matches_oracles(t: GForest):
    assert linear_extensions(t) == _linear_extensions_by_copies(t)
    assert sigma_min(t) == _greedy_extension(t, pick_max=False)
    assert sigma_max(t) == _greedy_extension(t, pick_max=True)


def test_forest_walk_matches_oracles_on_every_parent_array():
    # every forest on [n] for n <= 4, each a G-forest of its own Hasse
    # diagram; the parent arrays with cycles are refused
    for n in range(5):
        for parent in itertools.product(range(n + 1), repeat=n):
            if _gforest_failure(Graph(n), parent) == "parent relation has a cycle":
                with pytest.raises(InvalidForest, match="^parent relation has a cycle$"):
                    GForest(Graph(n), parent)
            else:
                hasse = Graph(n, {(v, p) for v, p in enumerate(parent, 1) if p})
                _assert_forest_walk_matches_oracles(GForest(hasse, parent))


def test_compatibility_masks_match_compatible():
    for n in range(5):
        for g in all_graphs(n):
            ts = tubes(g)
            masks = compatibility_masks(g)
            assert len(masks) == len(ts)
            for i, j in itertools.product(range(len(ts)), repeat=2):
                expected = i != j and compatible(g, ts[i], ts[j])
                assert bool(masks[i] >> j & 1) == expected


def test_forest_inversions_examples():
    g = parse_graph("complete:3")
    up_chain = GForest(g, (2, 3, 0))
    assert forest_inversions(up_chain) == frozenset()
    down_chain = GForest(g, (0, 1, 2))  # 3 < 2 < 1
    assert forest_inversions(down_chain) == {(1, 2), (1, 3), (2, 3)}
    assert descents(down_chain) == {(1, 2), (2, 3)}
    assert ascents(up_chain) == {(2, 1), (3, 2)}


def test_flip_examples():
    x = Tubing(K2, (fs(1), fs(1, 2)))
    y, j = flip(x, fs(1))
    assert j == fs(2) and y.tubes == (fs(2), fs(1, 2))
    back, j2 = flip(y, j)
    assert back == x and j2 == fs(1)
    with pytest.raises(MaximalTubeNotFlippable):
        flip(x, fs(1, 2))
    with pytest.raises(TubeNotInTubing):
        flip(x, fs(2))


def test_flip_rejects_non_maximal_tubings():
    # a tube without a unique top, and a tubing missing a component tube
    with pytest.raises(InvalidTubing):
        flip(Tubing(P3, (fs(1), fs(1, 2, 3))), fs(1))
    with pytest.raises(InvalidTubing):
        flip(Tubing(Graph(2), (fs(1),)), fs(1))


def test_flip_matches_search_everywhere_small():
    for g in all_graphs(4):
        comps = set(component_tubes(g))
        for x in enumerate_maximal_tubings(g):
            for t in x.tubes:
                if t in comps:
                    continue
                assert flip(x, t) == flip_by_search(x, t)


def test_flips_match_flip_by_search():
    # every flip of every maximal tubing exactly once, to the searched tubing
    graphs = [g for n in range(5) for g in all_graphs(n)]
    for g in graphs + [parse_graph("cycle:5"), parse_graph("complete:5")]:
        xs = enumerate_maximal_tubings(g)
        expected = {
            (x, I): flip_by_search(x, I)
            for x in xs
            for I in x.tubes
            if I not in component_tubes(g)
        }
        seen = []
        for i, j, a, b in flips(g):
            x, y = xs[i], xs[j]
            (I,) = set(x.tubes) - set(y.tubes)
            searched, J = expected[(x, I)]
            assert y == searched and y is xs[xs.index(y)], g
            assert (a, b) == (top(x, I), top(y, J)), g
            seen.append((x, I))
        assert len(seen) == len(expected) and set(seen) == set(expected), g


def test_flips_yield_each_up_cover_pair_once():
    graphs = [g for n in range(6) for g in all_graphs(n)]
    for g in graphs + [parse_graph(d) for d in ("complete:6", "cycle:7")]:
        size = len(enumerate_maximal_tubings(g))
        pairs = [(i, j) for i, j, a, b in flips(g) if a < b]
        assert len(set(pairs)) == len(pairs), g
        assert all(0 <= i < size and 0 <= j < size and i != j for i, j in pairs), g


def _oriented_flips_by_tube_tree(x):
    # the tube-tree route that the one-pass mask generator replaced, kept as
    # the oracle: the tree first, then the children that miss top(K)
    adj = adjacency(x.graph)
    tops, up, masks = tube_tree(x)
    cut = [0] * len(up)
    for c, i in enumerate(up):
        if i >= 0 and up[i] >= 0 and not masks[c] & adj[tops[up[i]]]:
            cut[i] |= masks[c]
    for i, j in enumerate(up):
        if j >= 0:
            a, b = tops[i], tops[j]
            yield masks[i], masks[j] ^ 1 << a ^ cut[i], a, b


def _flip_order(f):
    x, y, a, b = f
    return x.key(), y.key(), a, b


def test_flips_match_tube_tree_oracle():
    # every field of every flip, and each flip's reverse among the flips
    graphs = [g for n in range(6) for g in all_graphs(n)]
    for g in graphs + [parse_graph(d) for d in ("complete:6", "cycle:7", "h:2:6")]:
        xs = enumerate_maximal_tubings(g)
        expected = []
        for x in xs:
            for I, J, a, b in _oriented_flips_by_tube_tree(x):
                I, J = mask_vertices(I), mask_vertices(J)
                y = Tubing(g, tuple(t for t in x.tubes if t != I) + (J,))
                expected.append((x, y, a, b))
        got = sorted(((xs[i], xs[j], a, b) for i, j, a, b in flips(g)), key=_flip_order)
        assert got == sorted(expected, key=_flip_order), g
        assert sorted(((y, x, b, a) for x, y, a, b in got), key=_flip_order) == got, g


def test_build_lg_builds_no_tube_tree(monkeypatch):
    calls = []
    real = tubings.tube_tree
    monkeypatch.setattr(tubings, "tube_tree", lambda x: calls.append(x) or real(x))
    lg = build_lg(parse_graph("cycle:6"))
    assert calls == []
    tau(lg.elements[0])  # the count sees the calls that do happen
    assert calls == [lg.elements[0]]


def test_hopf_indexes_build_no_tube_tree(monkeypatch):
    # the product's split index and the coproduct's coarsening fibers read
    # every tubing's images off the code table's recursion
    calls = []
    real = tubings.tube_tree
    monkeypatch.setattr(tubings, "tube_tree", lambda x: calls.append(x) or real(x))
    index = _split_index.__wrapped__(family_path(), 3, 4)
    fibers = _coarsen_fibers.__wrapped__(parse_graph("path:7"), parse_graph("cycle:7"))
    assert calls == []
    assert sum(map(len, index.values())) == 429 and sum(map(len, fibers.values())) == 924
    coarsen(parse_graph("path:7"), next(iter(fibers.values()))[0])
    assert len(calls) == 1


def test_coproduct_splits_ideals_without_component_scans(monkeypatch):
    # ideal_splits reads both sides of every ideal off the tubing's tubes:
    # no restrict_std scan of tube intersections, no quotient_std re-test
    # of the ideal
    calls = []
    # tubings binds no components_within, so it is patched where it lives
    for name, real in (
        ("tubelat.graphs.components_within", components_within),
        ("tubelat.tubings.is_ideal", is_ideal),
    ):
        monkeypatch.setattr(name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    terms = 0
    for fam in (family_path(), family_cycle()):
        for x in enumerate_maximal_tubings(fam(6)):
            terms += len(tubing_coproduct(fam, x))
    assert calls == []
    assert terms > 0


def test_vertex_coordinates_examples():
    for n in range(1, 5):
        x = enumerate_maximal_tubings(Graph(n))[0]
        assert vertex_coordinates(tau(x)) == tuple([1] * n)
    x = Tubing(K2, (fs(1), fs(1, 2)))
    assert vertex_coordinates(tau(x)) == (1, 2)
    for g in all_graphs(4):
        coords = [vertex_coordinates(tau(x)) for x in enumerate_maximal_tubings(g)]
        assert len(set(coords)) == len(coords)
    # tubings that are not maximal have no forest, so no coordinates
    for ts in ((fs(1), fs(1, 2, 3)), (fs(1), fs(1, 2))):
        with pytest.raises(InvalidTubing, match="tau requires a maximal tubing"):
            vertex_coordinates(tau(Tubing(P3, ts)))


def _smallest_containing_tube(x, v):
    # v_down: the smallest tube of the maximal tubing x containing v
    best = None
    for t in x.tubes:
        if v in t and (best is None or len(t) < len(best)):
            best = t
    if best is None:
        raise InvalidTubing(f"no tube of the tubing contains {v}")
    return best


def _vertex_coordinates_by_scan(x):
    # the per-vertex scan over every tube of G that the cached counts
    # replaced, kept as the oracle
    all_tubes = tubes(x.graph)
    coords = []
    for i in x.graph.vertices:
        idown = _smallest_containing_tube(x, i)
        coords.append(sum(1 for t in all_tubes if i in t and t <= idown))
    return tuple(coords)


def test_vertex_coordinates_match_scan():
    for n in range(6):
        for g in all_graphs(n):
            for x in enumerate_maximal_tubings(g):
                assert vertex_coordinates(tau(x)) == _vertex_coordinates_by_scan(x), (g, x.label())


def test_tubing_json_round_trip():
    for x in enumerate_maximal_tubings(P3):
        assert Tubing.from_json_obj(x.to_json_obj()) == x
    t = tau(enumerate_maximal_tubings(P3)[0])
    assert GForest.from_json_obj(t.to_json_obj()) == t


def test_psi_tubing_produces_n_distinct_tubes():
    for g in all_graphs(4):
        for w in itertools.permutations(g.vertices):
            x = psi_tubing(g, w)
            assert len(x.tubes) == g.n
            assert x.is_maximal()


def test_degree_zero_tubing():
    g0 = Graph(0)
    (x,) = enumerate_maximal_tubings(g0)
    assert x.tubes == ()
    assert x.is_maximal()
    assert tau(x).parent == ()
    assert linear_extensions(tau(x)) == [()]


# ---------------------------------------------------------------------------
# Closed-form counts beyond the exhaustive bounds
# ---------------------------------------------------------------------------


def test_cyclohedron_counts():
    for n in range(1, 9):
        count = len(enumerate_maximal_tubings(parse_graph(f"cycle:{n}")))
        assert count == math.comb(2 * n - 2, n - 1)


def test_stellohedron_counts():
    for n in range(1, 8):
        star = Graph(n, tuple((1, j) for j in range(2, n + 1)))
        expected = sum(math.factorial(n - 1) // math.factorial(k) for k in range(n))
        assert len(enumerate_maximal_tubings(star)) == expected


def test_associahedron_counts():
    for n in range(11):
        count = len(enumerate_maximal_tubings(parse_graph(f"path:{n}")))
        assert count == math.comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# Randomized differential tests against the oracles
# ---------------------------------------------------------------------------

RANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=50)


@st.composite
def random_graphs(draw, lo=6, hi=9):
    n = draw(st.integers(lo, hi))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, tuple(p for p, k in zip(pairs, keep) if k))


@RANDOMIZED
@given(random_graphs(), st.data())
def test_chi_tau_round_trip_random(g, data):
    x = psi_tubing(g, data.draw(st.permutations(g.vertices)))
    assert chi(tau(x)) == x


@RANDOMIZED
@given(random_graphs(), st.data())
def test_flip_matches_search_random(g, data):
    x = psi_tubing(g, data.draw(st.permutations(g.vertices)))
    for t in x.tubes:
        if t not in component_tubes(g):
            assert flip(x, t) == flip_by_search(x, t)


@settings(RANDOMIZED, max_examples=12)
@given(random_graphs(6, 7))
def test_enumerator_matches_oracle_random(g):
    assert enumerate_maximal_tubings(g) == maximal_tubings_oracle(g)


@settings(RANDOMIZED, max_examples=12)
@given(random_graphs(6, 7))
def test_tube_tree_matches_scan_random(g):
    for x in enumerate_maximal_tubings(g):
        _assert_tube_tree_matches_scan(x)


@settings(RANDOMIZED, max_examples=12)
@given(random_graphs(6, 7))
def test_forest_walk_matches_oracles_random(g):
    for x in enumerate_maximal_tubings(g):
        _assert_forest_walk_matches_oracles(tau(x))


def _gforest_failure(g, parent):
    """The definition of a G-forest, read off literally: the message
    ``GForest(g, parent)`` must raise, or None when parent is one."""
    for v in g.vertices:
        u = v
        for _ in range(g.n):
            u = parent[u - 1] if u else 0
        if u:
            return "parent relation has a cycle"
    ideal = {v: _ideal_by_walk(parent, v) for v in g.vertices}
    for v in g.vertices:
        if not is_tube(g, ideal[v]):
            return f"principal ideal of {v} is not a tube"
    for i, k in itertools.combinations(g.vertices, 2):
        if i not in ideal[k] and k not in ideal[i] and not compatible(g, ideal[i], ideal[k]):
            return f"incomparable {i},{k} have a tube union {sorted(ideal[i] | ideal[k])}"
    return None


@st.composite
def random_parent_arrays(draw):
    """G-forests with up to two parents redrawn, and arbitrary arrays."""
    g = draw(random_graphs(1, 9))
    if draw(st.integers(0, 3)):
        parent = list(tau(psi_tubing(g, draw(st.permutations(g.vertices)))).parent)
        for _ in range(draw(st.integers(0, 2))):
            parent[draw(st.integers(0, g.n - 1))] = draw(st.integers(0, g.n))
    else:
        parent = draw(st.lists(st.integers(0, g.n), min_size=g.n, max_size=g.n))
    return g, tuple(parent)


@settings(RANDOMIZED, max_examples=400)
@given(random_parent_arrays())
def test_gforest_matches_definition_random(g_parent):
    g, parent = g_parent
    expected = _gforest_failure(g, parent)
    if expected is None:
        t = GForest(g, parent)
        assert [t.ideal(v) for v in g.vertices] == [_ideal_by_walk(parent, v) for v in g.vertices]
    else:
        with pytest.raises(InvalidForest) as err:
            GForest(g, parent)
        assert str(err.value) == expected
