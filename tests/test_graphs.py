import itertools
import re

import pytest

from tubelat.errors import InvalidVertex, TubelatError
from tubelat.graphs import (
    Graph,
    GraphFamily,
    all_graphs,
    components_within,
    contract,
    delete,
    dual_graph,
    family_complete,
    family_from_A,
    family_h,
    family_odd_bipartite,
    filled_status,
    induced_subgraph,
    is_tube,
    minimal_non_edges,
    minors,
    parse_family,
    parse_graph,
    tubes,
    tube_key,
)

K3 = Graph(3, ((1, 2), (1, 3), (2, 3)))
P3 = Graph(3, ((1, 2), (2, 3)))
C4 = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))


def test_graph_normalizes_edges():
    g = Graph(3, ((3, 1), (2, 1)))
    assert g.edges == ((1, 2), (1, 3))
    assert g.has_edge(3, 1)
    assert not g.has_edge(-2, 1) and not g.has_edge(4, 1) and not g.has_edge(0, 2)
    assert not g.has_edge(1, 0) and not g.has_edge(1, -1) and not g.has_edge(1, 4)


def test_graph_rejects_bad_edges():
    with pytest.raises(TubelatError):
        Graph(2, ((1, 1),))
    with pytest.raises(InvalidVertex):
        Graph(2, ((1, 3),))


def test_induced_subgraph_examples():
    assert induced_subgraph(K3, {1, 3}) == (Graph(2, ((1, 2),)), {1: 1, 3: 2})
    assert induced_subgraph(P3, {1, 3}) == (Graph(2), {1: 1, 3: 2})
    assert induced_subgraph(C4, {1, 2, 4}) == (Graph(3, ((1, 2), (1, 3))), {1: 1, 2: 2, 4: 3})


def induced_edges(g, S):
    """The edges of G with both ends in S, in their old labels."""
    return [(a, b) for a, b in g.edges if a in S and b in S]


def reconnected_edges(g, I):
    """Oracle for ``contract``, in old labels: the pairs off I that are edges
    of G, or whose ends both have a neighbor in one component of G|_I, each
    component found by ``component_by_dfs``."""
    comps = {component_by_dfs(g, I, v) for v in I}

    def touches(v, c):
        return any(g.has_edge(v, u) for u in c)

    rest = [v for v in g.vertices if v not in I]
    return [
        (i, j)
        for i, j in itertools.combinations(rest, 2)
        if g.has_edge(i, j) or any(touches(i, c) and touches(j, c) for c in comps)
    ]


def test_minor_operations_relabel_in_label_order():
    # the kept labels (2, 5), (1, 3, 4) and (7,) go onto [k] in label order
    assert induced_subgraph(Graph(5, ((2, 5),)), (2, 5)) == (Graph(2, ((1, 2),)), {2: 1, 5: 2})
    g4 = Graph(4, ((1, 2), (1, 3), (3, 4)))
    assert induced_subgraph(g4, (1, 3, 4)) == (P3, {1: 1, 3: 2, 4: 3})
    assert delete(Graph(7, ((6, 7),)), range(1, 7)) == (Graph(1), {7: 1})
    for n in range(5):
        for g in all_graphs(n):
            for r in range(n + 1):
                for I in itertools.combinations(g.vertices, r):
                    rest = tuple(v for v in g.vertices if v not in I)
                    for op, kept, edges in (
                        (induced_subgraph, I, induced_edges(g, I)),
                        (delete, rest, induced_edges(g, rest)),
                        (contract, rest, reconnected_edges(g, I)),
                    ):
                        h, phi = op(g, I)
                        assert phi == {v: k for k, v in enumerate(kept, 1)}, (op, g, I)
                        assert h == Graph(len(kept), tuple((phi[a], phi[b]) for a, b in edges))


def test_delete_examples():
    assert delete(K3, {2}) == (Graph(2, ((1, 2),)), {1: 1, 3: 2})
    assert delete(P3, {2}) == (Graph(2), {1: 1, 3: 2})
    assert delete(C4, {1})[0] == P3


def test_contract_examples():
    assert contract(C4, {2}) == (K3, {1: 1, 3: 2, 4: 3})
    assert contract(P3, ()) == (P3, {1: 1, 2: 2, 3: 3})
    assert contract(P3, {1, 3}) == (Graph(1), {2: 1})


def test_delete_edges_inside_contract_edges():
    for g in all_graphs(4):
        for r in range(5):
            for I in itertools.combinations(g.vertices, r):
                (d, d_map), (c, c_map) = delete(g, I), contract(g, I)
                assert d_map == c_map
                assert set(d.edges) <= set(c.edges)


def test_is_tube_examples():
    assert not is_tube(P3, {1, 3})
    assert is_tube(P3, {1, 2})
    assert not is_tube(P3, set())


def test_tubes_examples():
    assert len(tubes(K3)) == 7
    assert [sorted(t) for t in tubes(Graph(3))] == [[1], [2], [3]]
    assert [sorted(t) for t in tubes(P3)] == [[1], [2], [3], [1, 2], [2, 3], [1, 2, 3]]


def component_by_dfs(g, allowed, v):
    """Oracle for ``graphs.component`` on vertex sets: the vertices joined to
    v by paths inside ``allowed`` (v included), by a depth-first search over
    neighbor sets read from the edge list."""
    nbrs = {u: set() for u in range(g.n + 1)}
    for a, b in g.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    comp = {v}
    stack = [v]
    while stack:
        for y in nbrs[stack.pop()]:
            if y in allowed and y not in comp:
                comp.add(y)
                stack.append(y)
    return frozenset(comp)


def tubes_by_subset_filter(g):
    """Oracle for ``tubes``: filter all 2^n subsets by ``component_by_dfs``."""
    out = []
    for r in range(1, g.n + 1):
        for sub in itertools.combinations(g.vertices, r):
            if component_by_dfs(g, sub, sub[0]) == frozenset(sub):
                out.append(frozenset(sub))
    return tuple(sorted(out, key=tube_key))


def test_tubes_against_subset_filter():
    for n in range(5):
        for g in all_graphs(n):
            assert tubes(g) == tubes_by_subset_filter(g)


def test_components_within_partitions_into_tubes():
    for n in range(5):
        for g in all_graphs(n):
            tube_set = set(tubes_by_subset_filter(g))
            for r in range(n + 1):
                for S in itertools.combinations(g.vertices, r):
                    blocks = components_within(g, S)
                    assert sorted(v for b in blocks for v in b) == list(S)
                    assert all(b in tube_set for b in blocks)
                    assert [min(b) for b in blocks] == sorted(min(b) for b in blocks)
                    owner = {v: k for k, b in enumerate(blocks) for v in b}
                    assert all(owner[a] == owner[b] for a, b in g.edges if a in owner and b in owner)
                    assert is_tube(g, S) == (len(blocks) == 1)


def test_filled_status_examples():
    for k in range(4):
        for n in range(7):
            assert filled_status(family_h(k)(n)).filled
    st = filled_status(C4)
    assert not st.filled
    star = Graph(4, ((1, 2), (1, 3), (1, 4)))
    st = filled_status(star)
    assert st.left_filled and not st.right_filled and not st.filled


def test_filled_is_conjunction_small_n():
    for n in range(5):
        for g in all_graphs(n):
            st = filled_status(g)
            assert st.filled == (st.right_filled and st.left_filled)


def test_minimal_non_edges_examples():
    assert minimal_non_edges(family_complete()(5)) == []
    assert minimal_non_edges(P3) == [(1, 3)]
    for k in range(4):
        for n in range(7):
            got = minimal_non_edges(family_h(k)(n))
            assert got == [(i, i + k + 1) for i in range(1, n - k)]


def test_dual_graph_examples():
    assert dual_graph(P3) == P3
    assert dual_graph(Graph(3, ((1, 3), (2, 3)))) == Graph(3, ((1, 2), (1, 3)))
    for g in all_graphs(4):
        assert dual_graph(dual_graph(g)) == g
        assert filled_status(g).right_filled == filled_status(dual_graph(g)).left_filled


def test_minors_examples():
    k2 = Graph(2, ((1, 2),))
    ms = minors(k2)
    assert ms == [k2, Graph(1), Graph(0)]
    ms = minors(P3)
    assert P3 in ms
    assert k2 in ms
    assert Graph(2) in ms


def test_family_from_A_restriction_invariance():
    for A in ({1}, {2}, {1, 3}):
        fam = family_from_A(A)
        for n in range(5):
            for m in range(5 - n):
                big = fam(n + m)
                assert induced_subgraph(big, range(1, n + 1))[0] == fam(n)
                assert induced_subgraph(big, range(n + 1, n + m + 1))[0] == fam(m)


def test_family_descriptors():
    assert parse_family("path")(3) == P3
    assert parse_family("complete")(3) == K3
    assert parse_family("empty")(4) == Graph(4)
    assert parse_family("cycle")(4) == C4
    assert parse_family("cycle")(2) == Graph(2, ((1, 2),))
    assert parse_family("oddbip")(4) == C4
    assert parse_family("h:2")(4) == Graph(4, ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)))
    assert parse_family("A:{1,3}")(4) == Graph(4, ((1, 2), (1, 4), (2, 3), (3, 4)))
    assert parse_family("A:all")(3) == K3
    assert parse_graph("path:3") == P3
    with pytest.raises(TubelatError):
        parse_family("nonsense")
    # a non-integer parameter is named with its family descriptor
    with pytest.raises(TubelatError, match="family descriptor 'h:x'$"):
        parse_graph("h:x:3")
    with pytest.raises(TubelatError, match=re.escape("family descriptor 'A:{1,a}'")):
        parse_family("A:{1,a}")


def test_family_builds_each_degree_once():
    # families are equal by name, and the name keys the one graph per degree
    assert parse_family("path")(5) is parse_family("path")(5)
    bad = GraphFamily("bad", lambda n: Graph(n + 1))
    for _ in range(2):  # a refused degree is not cached
        with pytest.raises(TubelatError, match="family 'bad' returned wrong degree at n=3"):
            bad(3)


def test_graph_text_and_json_round_trip():
    for g in (Graph(0), P3, C4, K3):
        assert Graph.from_text(g.to_text()) == g
        assert Graph.from_json_obj(g.to_json_obj()) == g


def test_graph_refuses_a_vertex_count_past_an_index():
    # tables indexed by vertex have n + 1 entries
    with pytest.raises(TubelatError, match="not below"):
        Graph.from_text("100000000000000000000\n")
    with pytest.raises(TubelatError, match="not below"):
        Graph.from_json_obj({"n": 10**20, "edges": []})


def test_odd_bipartite_is_complete_bipartite():
    g = family_odd_bipartite()(6)
    odds = {1, 3, 5}
    for i, j in itertools.combinations(range(1, 7), 2):
        expected = (i in odds) != (j in odds)
        assert g.has_edge(i, j) == expected


def test_empty_graph_edge_cases():
    g = Graph(0)
    assert tubes(g) == ()
    assert minors(g) == [g]
    assert filled_status(g).filled


def test_doctests():
    import doctest

    import tubelat.graphs
    import tubelat.hopf
    import tubelat.weakorder

    for mod in (tubelat.graphs, tubelat.hopf, tubelat.weakorder):
        failures, _ = doctest.testmod(mod)
        assert failures == 0
