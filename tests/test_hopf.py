import math
import sys

import pytest

from tubelat.errors import (
    InvalidTubing,
    InvalidVertex,
    NotATube,
    NotAdmissibleAtDegree,
    NotASubgraph,
    NotRestrictionCompatible,
    SizeMismatch,
)
from tubelat.graphs import (
    Graph,
    all_graphs,
    family_complete,
    family_cycle,
    family_empty,
    family_from_A,
    family_h,
    family_odd_bipartite,
    family_path,
    parse_family,
    parse_graph,
)
from tubelat.hopf import (
    FormalSum,
    admissibility_witness,
    embed_c,
    fiber_sum,
    formal_sum_to_json_obj,
    mr_coproduct,
    mr_coproduct_sum,
    mr_product,
    mr_product_sums,
    recover_A,
    restriction_compatibility_witness,
    shuffles,
    standardize_word,
    tubing_coproduct,
    tubing_product,
    tubing_product_sums,
)
from tubelat.hopf import _coarsen_fibers, _require_admissible_at, _split_index
from tubelat.tubings import (
    Tubing,
    coarsen,
    coarsenings,
    enumerate_maximal_tubings,
    psi_tubing,
    restrict_std,
    sigma_min,
    tau,
)
from tubelat.weakorder import permutations, psi


def test_formal_sum_arithmetic():
    a = FormalSum("F", {(1, 2): 2, (2, 1): 1})
    b = FormalSum("F", {(1, 2): -2})
    s = a + b
    assert s.terms == {(2, 1): 1}
    with pytest.raises(SizeMismatch):
        a + FormalSum("P")
    assert FormalSum("F", {(1, 2): 0}).terms == {}


def test_formal_sum_copies_its_terms():
    d = {(1, 2): 2, (2, 1): 1}
    s = FormalSum("F", d)
    assert s.terms == d and s.terms is not d
    s.add_term((1, 2), 1)
    assert d == {(1, 2): 2, (2, 1): 1}
    d[(2, 1)] = 5
    assert s.terms == {(1, 2): 3, (2, 1): 1}
    assert FormalSum("F", {(1, 2): 1, (2, 1): 0}).terms == {(1, 2): 1}


def test_shuffles_and_standardize():
    assert standardize_word((3, 7, 5)) == (1, 3, 2)
    assert standardize_word(()) == ()
    out = list(shuffles((1,), (2, 3)))
    assert len(out) == 3 and all(len(w) == 3 for w in out)


def test_mr_product_displayed_example():
    p = mr_product((2, 1), (1, 2))
    assert p.terms == {
        (2, 1, 3, 4): 1,
        (2, 3, 1, 4): 1,
        (2, 3, 4, 1): 1,
        (3, 2, 1, 4): 1,
        (3, 2, 4, 1): 1,
        (3, 4, 2, 1): 1,
    }


def test_mr_product_unit_and_support_size():
    u = (2, 1, 3)
    assert mr_product((), u).terms == {u: 1}
    assert mr_product(u, ()).terms == {u: 1}
    assert len(mr_product((1, 2), (1, 2))) == math.comb(4, 2)
    for n, m in [(1, 2), (2, 2), (2, 3)]:
        for u in permutations(n):
            for v in permutations(m):
                s = mr_product(u, v)
                assert len(s) == math.comb(n + m, n)
                assert set(s.coefficients()) == {1}
                assert all(len(w) == n + m for w in s.terms)


def test_mr_coproduct_displayed_example():
    d = mr_coproduct((3, 2, 4, 1))
    assert d.terms == {
        ((), (3, 2, 4, 1)): 1,
        ((1,), (2, 3, 1)): 1,
        ((2, 1), (2, 1)): 1,
        ((2, 1, 3), (1,)): 1,
        ((3, 2, 4, 1), ()): 1,
    }
    assert mr_coproduct(()).terms == {((), ()): 1}


def test_mr_coassociativity_s4():
    for u in permutations(4):
        left = {}
        right = {}
        d = mr_coproduct(u)
        for (a, b), c in d.terms.items():
            for (x, y), cc in mr_coproduct(a).terms.items():
                key = (x, y, b)
                left[key] = left.get(key, 0) + c * cc
            for (x, y), cc in mr_coproduct(b).terms.items():
                key = (a, x, y)
                right[key] = right.get(key, 0) + c * cc
        left = {k: v for k, v in left.items() if v}
        right = {k: v for k, v in right.items() if v}
        assert left == right


def test_tubing_product_complete_matches_mr():
    fam = family_complete()
    for total in range(2, 7):
        for n in range(1, total):
            m = total - n
            for u in permutations(n):
                for v in permutations(m):
                    x, y = psi(fam(n), u), psi(fam(m), v)
                    s = tubing_product(fam, x, y)
                    words = FormalSum("F")
                    for z, c in s.terms.items():
                        words.add_term(sigma_min(tau(z)), c)
                    assert words == mr_product(u, v)


def _split_index_by_restriction(family, n, m):
    # the construction the lookup in _split_index replaced, kept as the
    # oracle: restrict and standardize every tubing of G_{n+m}
    _require_admissible_at(family, n, m)
    index = {}
    for z in enumerate_maximal_tubings(family(n + m)):
        left = restrict_std(z, range(1, n + 1))
        right = restrict_std(z, range(n + 1, n + m + 1))
        index.setdefault((left, right), []).append(z)
    return {k: tuple(v) for k, v in index.items()}


def test_split_index_matches_restriction():
    path, complete, h2, a13, oddbip = (
        family_path(),
        family_complete(),
        family_h(2),
        family_from_A({1, 3}),
        family_odd_bipartite(),
    )
    splits = [
        (fam, n, total - n)
        for fam in (path, complete, h2, a13, oddbip)
        for total in range(7)
        for n in range(total + 1)
    ]
    # the splits of the benchmark's hopf workload
    splits += [(path, 3, 4), (complete, 3, 3), (h2, 3, 4), (a13, 3, 3), (oddbip, 3, 4)]
    for fam, n, m in splits:
        expected = _split_index_by_restriction(fam, n, m)
        index = _split_index(fam, n, m)
        assert list(index) == list(expected), (fam.name, n, m)
        for key, terms in index.items():
            assert tuple(terms) == expected[key], (fam.name, n, m, key)
            assert set(terms.values()) == {1}, (fam.name, n, m, key)


def _large_product_pair(fam, n, m):
    # the (x, y) pair of degrees n, m with the most product terms
    return max(_split_index(fam, n, m).items(), key=lambda item: len(item[1]))[0]


def test_warm_product_hashes_only_its_key(monkeypatch):
    # the terms are copied out of the split index with their stored hashes;
    # only the lookup key (x, y) is hashed, whatever the term count
    fam = family_path()
    x, y = _large_product_pair(fam, 3, 4)
    expected = tubing_product(fam, x, y).terms
    assert len(expected) >= 20
    calls = []
    real = Tubing.__hash__
    monkeypatch.setattr(Tubing, "__hash__", lambda t: calls.append(t) or real(t))
    s = tubing_product(fam, x, y)
    assert calls == [x, y]
    assert s.terms == expected


def test_product_terms_belong_to_the_caller():
    fam = family_path()
    x, y = _large_product_pair(fam, 3, 4)
    first = tubing_product(fam, x, y)
    expected = dict(first.terms)
    first.add_term(list(expected)[0], 2)
    first.add_term(list(expected)[-1], -1)
    assert tubing_product(fam, x, y).terms == expected
    assert list(_split_index(fam, 3, 4)[(x, y)].items()) == list(expected.items())


def test_tubing_product_unit_and_edge_free():
    fam = family_empty()
    iota = enumerate_maximal_tubings(fam(0))[0]
    x1 = enumerate_maximal_tubings(fam(1))[0]
    x2 = enumerate_maximal_tubings(fam(2))[0]
    assert tubing_product(fam, x1, x1).terms == {x2: 1}
    assert tubing_product(fam, iota, x2).terms == {x2: 1}
    assert tubing_product(fam, x2, iota).terms == {x2: 1}


def test_tubing_product_rejects_non_admissible_degrees():
    fam = family_cycle()
    x1 = enumerate_maximal_tubings(fam(1))[0]
    x3 = enumerate_maximal_tubings(fam(3))[0]
    # C_4 restricted to {2,3,4} is a path, not the triangle C_3
    with pytest.raises(NotAdmissibleAtDegree):
        tubing_product(fam, x1, x3)


def test_tubing_product_rejects_foreign_tubings():
    fam = family_path()
    x = enumerate_maximal_tubings(family_complete()(3))[0]
    with pytest.raises(SizeMismatch):
        tubing_product(fam, x, x)
    y = enumerate_maximal_tubings(family_complete()(2))[0]
    sx, sy = FormalSum("P", {x: 1}), FormalSum("P", {y: 1})
    with pytest.raises(SizeMismatch):
        tubing_product_sums(fam, sx, sy)
    ok = FormalSum("P", {enumerate_maximal_tubings(fam(2))[0]: 1})
    for a, b in ((sx, ok), (ok, sx)):
        with pytest.raises(SizeMismatch):
            tubing_product_sums(fam, a, b)


def test_tubing_operations_reject_non_maximal_tubings():
    # the product and coproduct are defined on maximal tubings, as tau is
    fam = family_path()
    partial = Tubing(fam(3), (frozenset({2}),))
    y = enumerate_maximal_tubings(fam(2))[0]
    for left, right in ((partial, y), (y, partial)):
        with pytest.raises(InvalidTubing):
            tubing_product(fam, left, right)
    with pytest.raises(InvalidTubing):
        tubing_coproduct(fam, partial)
    with pytest.raises(InvalidTubing):
        embed_c(partial)


def test_admissibility_examples():
    assert admissibility_witness(family_from_A({1, 3}), 6) is None
    assert admissibility_witness(family_odd_bipartite(), 4) is None
    assert admissibility_witness(family_cycle(), 4) is not None
    assert recover_A(family_path(), 6) == frozenset({1})
    assert recover_A(family_complete(), 6) == frozenset({1, 2, 3, 4, 5})
    assert recover_A(family_empty(), 6) == frozenset()


def test_restriction_compatibility_examples():
    for fam in (family_path(), family_complete(), family_empty(), family_cycle()):
        assert restriction_compatibility_witness(fam, 5) is None
    assert restriction_compatibility_witness(family_odd_bipartite(), 5) is not None


def test_coarsen_and_fibers():
    k3 = parse_graph("complete:3")
    p3 = parse_graph("path:3")
    for w in enumerate_maximal_tubings(k3):
        assert coarsen(k3, w) == w
    fibers = {}
    for w in enumerate_maximal_tubings(k3):
        fibers.setdefault(coarsen(p3, w), []).append(w)
    sizes = sorted(len(v) for v in fibers.values())
    assert len(fibers) == 5 and sum(sizes) == 6
    for x in fibers:
        assert len(fiber_sum(p3, k3, x)) == len(fibers[x])
    with pytest.raises(NotASubgraph):
        coarsen(k3, enumerate_maximal_tubings(p3)[0])


def test_fiber_sum_refuses_a_non_subgraph():
    # the refusal comes from coarsenings, where the fiber index is built
    k3, p3 = parse_graph("complete:3"), parse_graph("path:3")
    for x in (enumerate_maximal_tubings(k3)[0], enumerate_maximal_tubings(p3)[0]):
        with pytest.raises(NotASubgraph) as e:
            fiber_sum(k3, p3, x)
        assert str(e.value) == f"{k3} is not a subgraph of {p3}"


def test_fiber_sum_onto_the_same_graph_matches_the_fibers():
    # fiber_sum(g, g, x) skips _coarsen_fibers; it must agree with that route
    for fam in ("path", "complete", "cycle", "empty", "h:2"):
        for n in range(7):
            g = parse_family(fam)(n)
            fibers = _coarsen_fibers(g, g)
            for x in enumerate_maximal_tubings(g):
                assert fiber_sum(g, g, x) == FormalSum("P", dict.fromkeys(fibers.get(x, ()), 1))
    p2 = parse_graph("path:2")
    not_maximal = Tubing(p2, (frozenset({1, 2}),))
    of_another_graph = enumerate_maximal_tubings(Graph(2))[0]
    for x in (not_maximal, of_another_graph):
        assert fiber_sum(p2, p2, x) == FormalSum("P")
    # n tubes with the component tube, but {1,2} and {2,3} are not compatible,
    # {1,3} is not a tube of path:3 and 0 is not a vertex: no such Tubing
    # exists, so none reaches either route
    p3 = parse_graph("path:3")
    for a, b, error in (
        ({1, 2}, {2, 3}, InvalidTubing),
        ({1, 3}, {2}, NotATube),
        ({0}, {2}, InvalidVertex),
    ):
        with pytest.raises(error):
            Tubing(p3, (frozenset(a), frozenset(b), frozenset({1, 2, 3})))


def test_tubing_coproduct_at_degree_10_enumerates_nothing():
    fam = family_complete()
    w = tuple(range(1, 11))
    x = psi_tubing(fam(10), w)
    _coarsen_fibers.cache_clear()
    cop = tubing_coproduct(fam, x)
    assert _coarsen_fibers.cache_info().currsize == 0
    translated = FormalSum("F*F")
    for (l, r), c in cop.terms.items():
        translated.add_term((sigma_min(tau(l)), sigma_min(tau(r))), c)
    assert translated == mr_coproduct(w)


def _coarsen_by_walk(h, w):
    # the prefix walk coarsen replaced, kept as the oracle: h's surjection
    # applied to one linear extension of the forest of w
    return psi_tubing(h, sigma_min(tau(w)))


def _coarsen_pairs():
    # (h, g): g each graph on at most 4 vertices and h g less one edge or
    # less every edge, and three pairs on 6 and 7 vertices
    pairs = []
    for n in range(5):
        for g in all_graphs(n):
            pairs += [(Graph(n, tuple(e for e in g.edges if e != drop)), g) for drop in g.edges]
            pairs.append((Graph(n), g))
    pairs += [
        (parse_graph(h), parse_graph(g))
        for h, g in [("path:7", "complete:7"), ("cycle:7", "complete:7"), ("path:6", "cycle:6")]
    ]
    return pairs


def test_coarsen_matches_prefix_walk():
    for h, g in _coarsen_pairs():
        for w in enumerate_maximal_tubings(g):
            assert coarsen(h, w) == _coarsen_by_walk(h, w), (h, g, w.label())


def test_coarsenings_match_coarsen():
    # the coarsening rule by code, against coarsen's forest ideals, in
    # enumeration order and returning the enumerated objects of h
    for h, g in _coarsen_pairs():
        ws = enumerate_maximal_tubings(g)
        got = list(coarsenings(h, g))
        assert got == [(w, coarsen(h, w)) for w in ws], (h, g)
        assert all(v is w for (v, _), w in zip(got, ws)), (h, g)
        known = {id(x) for x in enumerate_maximal_tubings(h)}
        assert all(id(x) in known for _, x in got), (h, g)
    with pytest.raises(NotASubgraph):
        coarsenings(parse_graph("complete:3"), parse_graph("path:3"))


def test_coarsen_fibers_group_by_coarsen():
    for h, g in _coarsen_pairs():
        expected: dict = {}
        for w in enumerate_maximal_tubings(g):
            expected.setdefault(coarsen(h, w), []).append(w)
        got = _coarsen_fibers.__wrapped__(h, g)
        assert list(got.items()) == [(x, tuple(ws)) for x, ws in expected.items()], (h, g)


def test_coarsen_rejects_non_maximal_tubings():
    g = Graph(2)
    for w in (Tubing(g, (frozenset({1}),)), Tubing(g, ())):
        with pytest.raises(InvalidTubing):
            _coarsen_by_walk(g, w)
        with pytest.raises(InvalidTubing):
            coarsen(g, w)


def test_embed_c_examples():
    k2 = parse_graph("complete:2")
    for x in enumerate_maximal_tubings(k2):
        assert len(embed_c(x)) == 1
    free2 = Graph(2)
    (x,) = enumerate_maximal_tubings(free2)
    assert embed_c(x).terms == {(1, 2): 1, (2, 1): 1}


def test_tubing_coproduct_edge_free_degree2():
    fam = family_empty()
    (x,) = enumerate_maximal_tubings(fam(2))
    (p1,) = enumerate_maximal_tubings(fam(1))
    (iota,) = enumerate_maximal_tubings(fam(0))
    cop = tubing_coproduct(fam, x)
    assert cop.terms == {(iota, x): 1, (p1, p1): 2, (x, iota): 1}


def test_tubing_coproduct_complete_matches_mr():
    fam = family_complete()
    for n in range(5):
        for x in enumerate_maximal_tubings(fam(n)):
            w = sigma_min(tau(x))
            translated = FormalSum("F*F")
            for (l, r), c in tubing_coproduct(fam, x).terms.items():
                translated.add_term((sigma_min(tau(l)), sigma_min(tau(r))), c)
            assert translated == mr_coproduct(w)


def test_tubing_coproduct_rejects_incompatible_family():
    fam = family_odd_bipartite()
    x = enumerate_maximal_tubings(fam(4))[0]
    with pytest.raises(NotRestrictionCompatible) as e:
        tubing_coproduct(fam, x)
    assert str(e.value) == (
        "family 'oddbip' is not restriction-compatible at the ideal [1] of degree 4"
    )


def test_warm_coproducts_make_no_subgraph_test(monkeypatch):
    # the subgraph precondition is checked where coarsenings builds a fiber
    # index, so a coproduct that reads cached fibers tests no subgraph
    fams = (family_path(), family_cycle())
    xs = [(fam, x) for fam in fams for x in enumerate_maximal_tubings(fam(6))]
    cold = [tubing_coproduct(fam, x) for fam, x in xs]
    calls = []
    # every module that binds the name, so no import route escapes the count
    bound = [
        m
        for name, m in sys.modules.items()
        if name.split(".")[0] == "tubelat" and hasattr(m, "is_subgraph")
    ]
    for m in bound:
        real = m.is_subgraph
        monkeypatch.setattr(m, "is_subgraph", lambda *a, real=real: calls.append(a) or real(*a))
    assert [tubing_coproduct(fam, x) for fam, x in xs] == cold
    assert calls == [] and len(bound) >= 2


def test_grading():
    fam = family_path()
    for n, m in [(1, 2), (2, 2)]:
        for x in enumerate_maximal_tubings(fam(n)):
            for y in enumerate_maximal_tubings(fam(m)):
                s = tubing_product(fam, x, y)
                assert all(z.graph.n == n + m for z in s.terms)
    for x in enumerate_maximal_tubings(fam(4)):
        cop = tubing_coproduct(fam, x)
        assert all(l.graph.n + r.graph.n == 4 for (l, r) in cop.terms)


def test_formal_sum_json():
    s = mr_product((1,), (1,))
    obj = formal_sum_to_json_obj(s)
    assert obj == {
        "basis": "F",
        "terms": [
            {"degree": 2, "key": [1, 2], "coeff": 1},
            {"degree": 2, "key": [2, 1], "coeff": 1},
        ],
    }
    fam = family_empty()
    (x,) = enumerate_maximal_tubings(fam(1))
    obj = formal_sum_to_json_obj(tubing_coproduct(fam, x))
    assert obj["basis"] == "P"
    assert [t["coeff"] for t in obj["terms"]] == [1, 1]
    assert all(isinstance(t["key"], list) and len(t["key"]) == 2 for t in obj["terms"])


def test_product_sums_bilinearity():
    a = FormalSum("F", {(1,): 2})
    b = FormalSum("F", {(1, 2): 3})
    s = mr_product_sums(a, b)
    assert all(c == 6 for c in s.coefficients())
    assert len(s) == 3
    c = mr_coproduct_sum(a)
    assert c.terms == {((), (1,)): 2, ((1,), ()): 2}
