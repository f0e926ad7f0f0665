"""Exhaustive small-n verification of the library's theorems.

Each check replays one finite statement (a classification, an identity, an
equivalence of definitions) over the full range it claims, with exact
integer/set equality; there are no tolerances anywhere.  ``run_suite``
executes the acceptance battery, the worked-example battery, or both, and
reports one pass/fail line per check.

Checks accept an optional ``max_n`` that lowers (never raises) their
exhaustive bound, for quick smoke runs.
"""

from __future__ import annotations

import itertools
import math
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import TubelatError
from .graphs import (
    Graph,
    GraphFamily,
    all_graphs,
    dual_graph,
    family_complete,
    family_cycle,
    family_empty,
    family_from_A,
    family_h,
    family_odd_bipartite,
    family_path,
    filled_status,
    induced_subgraph,
    is_connected,
    is_tube,
    minimal_non_edges,
    component_tubes,
)
from .hopf import (
    FormalSum,
    admissibility_witness,
    associativity_witness,
    c_delta_holds,
    c_delta_witness,
    coarsen,
    fiber_sum,
    is_admissible,
    is_restriction_compatible,
    mr_coproduct,
    mr_product,
    recover_A,
    restriction_compatibility_witness,
    standardize_word,
    tubing_coproduct,
    tubing_product,
    tubing_product_sums,
)
from .posets import Poset, all_tubings, build_lg, tubing_face_interval
from .tubings import (
    GForest,
    Tubing,
    ascents,
    chi,
    descents,
    enumerate_maximal_tubings,
    flip,
    flip_by_search,
    flips,
    forest_inversions,
    ideals,
    linear_extensions,
    maximal_tubings_oracle,
    psi_tubing,
    quotient_std,
    restrict_std,
    sigma_max,
    sigma_min,
    tau,
    top,
    vertex_coordinates,
)
from .weakorder import (
    Arc,
    all_arcs,
    arc_delete,
    arc_insertions,
    arc_of_cover,
    congruence_classes,
    congruence_from_generators,
    class_maximum,
    class_minimum,
    finest_lattice_congruence,
    generators_of_theta_g,
    inversions,
    is_g_permutation,
    is_insertional,
    is_lattice_congruence,
    is_subarc,
    is_translational,
    lattice_map_report,
    metasylvester_congruence,
    perm_descents,
    perm_of_arc,
    perm_of_arc_lower,
    permutations,
    positive_arc,
    psi,
    psi_fibers,
    psi_map,
    rho_subword,
    theta_g,
    translational_witness,
    weak_cover_pairs,
    weak_join,
    weak_order_poset,
)


class VerifyFailure(AssertionError):
    pass


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status}  {self.name}  ({self.seconds:.1f}s)  {self.detail}"


def _cap(bound: int, max_n: Optional[int]) -> int:
    return bound if max_n is None else min(bound, max_n)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise VerifyFailure(msg)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _fibers_as_partition(g: Graph) -> set:
    return {frozenset(ws) for ws in psi_fibers(g).values()}


# ---------------------------------------------------------------------------
# Acceptance criteria
# ---------------------------------------------------------------------------


def acc_01_lattice_map_iff_filled(max_n=None) -> str:
    bound = _cap(4, max_n)
    checked = 0
    for n in range(bound + 1):
        for g in all_graphs(n):
            _require(
                lattice_map_report(g).ok == filled_status(g).filled,
                f"lattice-map/filled mismatch at {g}",
            )
            checked += 1
    return f"{checked} graphs through n={bound}"


def acc_02_nonlattice_classification(max_n=None) -> str:
    if max_n is not None and max_n < 4:
        return "skipped (needs n=4)"
    non_lattices = []
    for g in all_graphs(4):
        if not is_connected(g):
            continue
        eset = set(g.edges)
        predicted = (1, 3) in eset and (2, 4) in eset and (2, 3) not in eset
        actual = not build_lg(g).is_lattice()
        _require(actual == predicted, f"classification fails at {g}")
        if actual:
            non_lattices.append(g)
    _require(len(non_lattices) == 7, f"expected 7 non-lattice graphs, got {len(non_lattices)}")
    return "7 non-lattice connected graphs on [4], matching the edge criterion"


def acc_03_dimension_counts(max_n=None) -> str:
    bound = _cap(7, max_n)
    for n in range(bound + 1):
        np_ = len(enumerate_maximal_tubings(family_path()(n)))
        _require(np_ == catalan(n), f"|MTub(path:{n})| = {np_} != Catalan")
        nk = len(enumerate_maximal_tubings(family_complete()(n)))
        _require(nk == math.factorial(n), f"|MTub(complete:{n})| = {nk} != n!")
        ne = len(enumerate_maximal_tubings(family_empty()(n)))
        _require(ne == 1, f"|MTub(empty:{n})| = {ne} != 1")
    return f"Catalan / factorial / 1 counts through n={bound}"


def _right_filled_graphs(n: int):
    return [g for g in all_graphs(n) if filled_status(g).right_filled]


def _left_filled_graphs(n: int):
    return [g for g in all_graphs(n) if filled_status(g).left_filled]


def acc_04_right_filled_inversion_order(max_n=None) -> str:
    bound = _cap(5, max_n)
    graphs = 0
    for n in range(bound + 1):
        for g in _right_filled_graphs(n):
            lg = build_lg(g)
            trees = {x: tau(x) for x in lg.elements}
            invs = {x: forest_inversions(t) for x, t in trees.items()}
            sigmas = {x: sigma_min(t) for x, t in trees.items()}
            for x in lg.elements:
                if inversions(sigmas[x]) != invs[x]:
                    raise VerifyFailure(f"inv(sigma) != inv(T) for {g}")
                if perm_descents(sigmas[x]) != descents(trees[x]):
                    raise VerifyFailure(f"des(sigma) != des(T) for {g}")
            gperms = {w for w in permutations(n) if is_g_permutation(g, w)}
            _require(set(sigmas.values()) == gperms, f"sigma image != G-permutations for {g}")
            holders: dict = {}  # pair -> the elements whose inversions hold it
            for j, x in enumerate(lg.elements):
                for pair in invs[x]:
                    holders[pair] = holders.get(pair, 0) | 1 << j
            for x in lg.elements:
                above = (1 << len(lg)) - 1  # the y with inv(x) <= inv(y)
                for pair in invs[x]:
                    above &= holders[pair]
                if lg.up_mask(x) != above:
                    raise VerifyFailure(f"L_G order != inversion containment for {g}")
            report = lattice_map_report(g, lg)
            _require(report.meet_ok, f"psi not meet-preserving for right-filled {g}")
            _require(lg.is_lattice(), f"L_G not a lattice for right-filled {g}")
            # fiber minima are the G-permutations; the projection is monotone
            fibers = psi_fibers(g)
            pm = psi_map(g)
            for x, ws in fibers.items():
                if class_minimum(ws) != sigmas[x]:
                    raise VerifyFailure(f"fiber minimum mismatch for {g}")
            for u, w in weak_cover_pairs(n):
                if not invs[pm[u]] <= invs[pm[w]]:
                    raise VerifyFailure(f"pi_down not order preserving for {g}")
            graphs += 1
    return f"{graphs} right-filled graphs through n={bound}"


def acc_05_left_filled_joins(max_n=None) -> str:
    bound = _cap(5, max_n)
    graphs = 0
    for n in range(bound + 1):
        for g in _left_filled_graphs(n):
            lg = build_lg(g)
            _require(lg.is_lattice(), f"L_G not a lattice for left-filled {g}")
            report = lattice_map_report(g, lg)
            _require(report.join_ok, f"psi not join-preserving for left-filled {g}")
            trees = {x: tau(x) for x in lg.elements}
            fibers = psi_fibers(g)
            for x, ws in fibers.items():
                if class_maximum(ws) != sigma_max(trees[x]):
                    raise VerifyFailure(f"fiber maximum is not sigma* for {g}")
            graphs += 1
    return f"{graphs} left-filled graphs through n={bound}"


def acc_06_theta_generators(max_n=None) -> str:
    bound = _cap(5, max_n)
    graphs = 0
    for n in range(bound + 1):
        for g in all_graphs(n):
            if not filled_status(g).filled:
                continue
            classes = congruence_classes(theta_g(g))
            _require(
                {frozenset(c) for c in classes} == _fibers_as_partition(g),
                f"congruence classes != psi fibers for {g}",
            )
            graphs += 1
    return f"{graphs} filled graphs through n={bound}"


def acc_07_face_intervals_and_mobius(max_n=None) -> str:
    bound = _cap(4, max_n)
    intervals = 0
    conjecture_notes = []
    for n in range(bound + 1):
        for g in all_graphs(n):
            lg = build_lg(g)
            lattice = lg.is_lattice()
            maximal_tubes = set(component_tubes(g))
            containment_intervals = {}
            for y in all_tubings(g):
                res = tubing_face_interval(g, y, lg)
                if not res.ok:
                    raise VerifyFailure(f"containing set not an interval for {g}, {y.label()}")
                intervals += 1
                if maximal_tubes <= set(y.tubes):
                    expected = (-1) ** (n - len(y.tubes))
                    mu = lg.mobius(res.lower, res.upper)
                    if lattice:
                        if mu != expected:
                            raise VerifyFailure(f"mobius {mu} != {expected} for {g}, {y.label()}")
                    elif mu != expected:
                        conjecture_notes.append(f"{g} {y.label()}: mu={mu} expected={expected}")
                    containment_intervals[(res.lower, res.upper)] = expected
            if lattice:
                for a in lg.elements:
                    for b in lg.elements:
                        if not lg.le(a, b):
                            continue
                        mu = lg.mobius(a, b)
                        if (a, b) in containment_intervals:
                            if mu != containment_intervals[(a, b)]:
                                raise VerifyFailure(f"mobius form mismatch {g}")
                        elif mu != 0:
                            raise VerifyFailure(f"mobius {mu} != 0 off-form for {g}")
    note = "; conjecture holds on non-lattices" if not conjecture_notes else (
        "; conjecture counterexamples: " + " | ".join(conjecture_notes[:3])
    )
    return f"{intervals} face intervals through n={bound}" + note


def acc_08_semidistributivity(max_n=None) -> str:
    bound = _cap(6, max_n)
    details = []
    for n in range(3, bound + 1):
        lg = build_lg(family_cycle()(n))
        _require(lg.is_lattice(), f"L_C{n} not a lattice")
        _require(lg.is_semidistributive(), f"L_C{n} not semidistributive")
        details.append(f"C_{n}:|{len(lg)}|")
    star = Graph(4, ((1, 2), (1, 3), (1, 4)))
    lg = build_lg(star)
    _require(lg.is_lattice(), "star graph lattice expected")
    wit = lg.semidistributivity_witness()
    _require(wit is not None, "star graph should fail semidistributivity")
    (x, y, z), kind = wit
    detail = f"cyclohedra {' '.join(details)}; star fails {kind} at ({x.label()}, {y.label()}, {z.label()})"
    return detail


def acc_09_hopf_identities(max_n=None) -> str:
    # displayed shuffle product
    p = mr_product((2, 1), (1, 2))
    expected = {
        (2, 1, 3, 4): 1,
        (2, 3, 1, 4): 1,
        (2, 3, 4, 1): 1,
        (3, 2, 1, 4): 1,
        (3, 2, 4, 1): 1,
        (3, 4, 2, 1): 1,
    }
    _require(p.terms == expected, "F_21 . F_12 expansion mismatch")
    d = mr_coproduct((3, 2, 4, 1))
    expected_d = {
        ((), (3, 2, 4, 1)): 1,
        ((1,), (2, 3, 1)): 1,
        ((2, 1), (2, 1)): 1,
        ((2, 1, 3), (1,)): 1,
        ((3, 2, 4, 1), ()): 1,
    }
    _require(d.terms == expected_d, "Delta(F_3241) expansion mismatch")

    assoc_bound = _cap(6, max_n)
    for fam in (family_path(), family_complete(), family_empty(), family_odd_bipartite()):
        wit = associativity_witness(fam, assoc_bound)
        _require(wit is None, f"associativity fails for {fam.name}: {wit}")
        for total in range(2, _cap(5, max_n) + 1):
            for n in range(1, total):
                for x in enumerate_maximal_tubings(fam(n)):
                    for y in enumerate_maximal_tubings(fam(total - n)):
                        coeffs = set(tubing_product(fam, x, y).coefficients())
                        _require(
                            coeffs <= {1},
                            f"product not multiplicity-free for {fam.name}",
                        )

    alg_bound = _cap(5, max_n)
    nested = [
        (family_empty(), family_path()),
        (family_path(), family_complete()),
        (family_empty(), family_complete()),
        (family_from_A({2}), family_from_A({1, 2})),
        (family_path(), family_from_A({1, 2})),
    ]
    for fam_a, fam_b in nested:
        wit = _c_algebra_map_witness(fam_a, fam_b, alg_bound)
        _require(wit is None, f"c not an algebra map {fam_a.name} -> {fam_b.name}: {wit}")

    for fam in (family_path(), family_complete(), family_empty(), family_cycle()):
        wit = c_delta_witness(fam, alg_bound)
        _require(wit is None, f"c does not intertwine Delta for {fam.name}: {wit}")
    return (
        f"displayed expansions verbatim; associativity to degree {assoc_bound}; "
        f"algebra/coalgebra embeddings to degree {alg_bound}"
    )


def _c_algebra_map_witness(fam_a: GraphFamily, fam_b: GraphFamily, max_degree: int):
    """c(P_x . P_y) vs c(P_x) . c(P_y) across a nested pair of families."""
    for total in range(2, max_degree + 1):
        for n in range(1, total):
            m = total - n
            ga_n, ga_m, ga_t = fam_a(n), fam_a(m), fam_a(total)
            gb_n, gb_m, gb_t = fam_b(n), fam_b(m), fam_b(total)
            for x in enumerate_maximal_tubings(ga_n):
                cx = fiber_sum(ga_n, gb_n, x)
                for y in enumerate_maximal_tubings(ga_m):
                    cy = fiber_sum(ga_m, gb_m, y)
                    lhs = FormalSum("P")
                    for z, c in tubing_product(fam_a, x, y).terms.items():
                        for w, cw in fiber_sum(ga_t, gb_t, z).terms.items():
                            lhs.add_term(w, c * cw)
                    rhs = tubing_product_sums(fam_b, cx, cy)
                    if lhs != rhs:
                        return (x, y)
    return None


def acc_10_family_equivalences(max_n=None) -> str:
    bound = _cap(6, max_n)
    families = [
        ("k=0", family_h(0)),
        ("k=1", family_h(1)),
        ("k=2", family_h(2)),
        ("k=3", family_h(3)),
        ("k=inf", family_complete()),
    ]
    rc_true = []
    for label, fam in families:
        adm = is_admissible(fam, bound)
        tra = is_translational(fam, bound)
        _require(adm == tra, f"admissible != translational for {label}")
        _require(adm, f"H family {label} should be admissible")
        rc = is_restriction_compatible(fam, bound)
        ins = is_insertional(fam, bound)
        _require(rc == ins, f"restriction-compatible != insertional for {label}")
        if rc:
            rc_true.append(label)
        for n in range(bound + 1):
            gens = generators_of_theta_g(fam(n))
            if label == "k=inf":
                _require(gens == [], "complete graphs contract nothing")
            else:
                k = int(label[2:])
                _require(
                    gens == [positive_arc(i, i + k + 1, n) for i in range(1, n - k)],
                    f"band congruence generators wrong for {label}, n={n}",
                )
    if bound >= 6:
        _require(
            rc_true == ["k=0", "k=1", "k=inf"],
            f"classification at N={bound}: expected edge-free/path/complete, got {rc_true}",
        )
    if _cap(4, max_n) >= 4:
        alternating = GraphFamily(
            "alt", lambda n: family_path()(n) if n % 2 == 0 else family_complete()(n)
        )
        # path and complete graphs agree at degrees <= 2, so the alternating
        # family first betrays itself through its degree-4 restrictions
        _require(
            translational_witness(alternating, 4) is not None,
            "filled non-band family should not be translational",
        )
        _require(
            admissibility_witness(alternating, 4) is not None,
            "alternating family should fail admissibility by degree 4",
        )
    return f"H_k replay at N={bound}; restriction-compatible exactly for k in {{0,1,inf}}"


def acc_11_oracle_equivalence(max_n=None) -> str:
    bound = _cap(4, max_n)
    graphs = 0
    for n in range(bound + 1):
        for g in all_graphs(n):
            if enumerate_maximal_tubings(g) != maximal_tubings_oracle(g):
                raise VerifyFailure(f"enumerator != subset oracle for {g}")
            graphs += 1
    arc_bound = _cap(5, max_n)
    arcs_checked = 0
    for n in range(2, arc_bound + 1):
        for a in all_arcs(n - 1):
            for v in range(1, n + 1):
                for b in arc_insertions(a, v):
                    if arc_delete(b, v) != a:
                        raise VerifyFailure(f"delete(insert) != id at {a.format()}, v={v}")
                    arcs_checked += 1
        for b in all_arcs(n):
            for v in range(1, n + 1):
                if v in (b.i, b.k):
                    continue
                a = arc_delete(b, v)
                if b not in arc_insertions(a, v):
                    raise VerifyFailure(f"insert(delete) misses {b.format()} at v={v}")
    tree_bound = _cap(5, max_n)
    round_trips = 0
    for n in range(tree_bound + 1):
        for g in all_graphs(n):
            for x in enumerate_maximal_tubings(g):
                if chi(tau(x)) != x:
                    raise VerifyFailure(f"chi/tau round trip fails for {g}")
                round_trips += 1
    return (
        f"{graphs} graphs vs oracle; {arcs_checked} arc insert/delete pairs; "
        f"{round_trips} chi/tau round trips"
    )


# ---------------------------------------------------------------------------
# Worked examples and supporting statements from the source material
# ---------------------------------------------------------------------------


def ex_filledness_examples(max_n=None) -> str:
    for n in range(4, _cap(6, max_n) + 1):
        _require(not filled_status(family_cycle()(n)).filled, f"C_{n} should not be filled")
    for k in range(0, 4):
        for n in range(_cap(6, max_n) + 1):
            _require(filled_status(family_h(k)(n)).filled, f"H_{k},{n} should be filled")
            mne = minimal_non_edges(family_h(k)(n))
            _require(
                mne == [(i, i + k + 1) for i in range(1, n - k)],
                f"minimal non-edges of H_{k},{n} wrong",
            )
    star = Graph(4, ((1, 2), (1, 3), (1, 4)))
    st = filled_status(star)
    _require(st.left_filled and not st.right_filled, "star filledness wrong")
    for n in range(_cap(5, max_n) + 1):
        for g in all_graphs(n):
            _require(
                filled_status(g).right_filled == filled_status(dual_graph(g)).left_filled,
                f"duality of filledness fails at {g}",
            )
    return "cycle/star/H_k filledness and RF-LF duality"


def ex_pentagon_poset(max_n=None) -> str:
    g = Graph(3, ((1, 3), (2, 3)))
    lg = build_lg(g)
    _require(len(lg) == 5, f"expected 5 maximal tubings, got {len(lg)}")
    pentagon = Poset(
        ["bot", "b", "c", "d", "top"],
        [("bot", "b"), ("b", "d"), ("d", "top"), ("bot", "c"), ("c", "top")],
    )
    _require(lg.is_isomorphic_to(pentagon), "L_G is not the pentagon")
    _require(weak_join((2, 1, 3), (1, 3, 2)) == (3, 2, 1), "213 v 132 != 321")
    rep = lattice_map_report(g)
    _require(rep.meet_ok and not rep.join_ok, "join should fail, meet should hold")
    _require(
        rep.witness is not None and set(rep.witness[1:]) == {(2, 1, 3), (1, 3, 2)},
        f"expected witness (213,132), got {rep.witness}",
    )
    return "example poset is the pentagon; join fails exactly at (213, 132)"


def ex_psi_examples(max_n=None) -> str:
    bound = _cap(5, max_n)
    for n in range(bound + 1):
        g = family_complete()(n)
        for w in permutations(n):
            t = tau(psi(g, w))
            chain = list(w)
            for lower, upper in zip(chain, chain[1:]):
                if not t.less(lower, upper):
                    raise VerifyFailure(f"K_n fiber of {w} is not the chain")
        _require(
            len(psi_fibers(g)) == math.factorial(n), "K_n tubings should be all of S_n"
        )
    for n in range(_cap(5, max_n) + 1):
        for g in all_graphs(n):
            fibers = psi_fibers(g)
            for x, ws in fibers.items():
                if set(ws) != set(linear_extensions(tau(x))):
                    raise VerifyFailure(f"fiber != linear extensions for {g}")
    bound4 = _cap(4, max_n)
    for n in range(bound4 + 1):
        for g in all_graphs(n):
            pm = psi_map(g)
            for w in permutations(n):
                if is_g_permutation(g, w) != (w == sigma_min(tau(pm[w]))):
                    raise VerifyFailure(f"G-permutation != lex-min extension at {g}, {w}")
    p3 = family_path()(3)
    x = psi(p3, (2, 1, 3))
    _require(
        [sorted(t) for t in x.tubes] == [[2], [1, 2], [1, 2, 3]],
        "psi(path, 213) mismatch",
    )
    return f"K_n chains, fibers=extensions (n<={bound}), lex-min characterization (n<={bound4})"


def ex_arc_combinatorics(max_n=None) -> str:
    a = arc_of_cover((3, 2, 5, 1, 4), (3, 5, 2, 1, 4))
    _require(a == Arc(2, 5, (-1, 1), 5), f"worked arc example gives {a.format()}")
    _require(perm_of_arc(Arc(2, 4, (1,), 4)) == (1, 4, 2, 3), "j_(2,4,+) wrong")
    _require(perm_of_arc(Arc(1, 2, (), 3)) == (2, 1, 3), "j_(1,2) wrong")
    a24 = Arc(2, 4, (1,), 4)
    _require(is_subarc(a24, Arc(1, 4, (1, 1), 4)), "subarc example 1")
    _require(is_subarc(a24, Arc(1, 4, (-1, 1), 4)), "subarc example 2")
    _require(not is_subarc(a24, Arc(1, 4, (-1, -1), 4)), "subarc non-example")
    theta = congruence_from_generators(4, [a24])
    _require(
        theta.contracted == {a24, Arc(1, 4, (1, 1), 4), Arc(1, 4, (-1, 1), 4)},
        "closure of (2,4,+) wrong",
    )
    bound = _cap(5, max_n)
    for n in range(1, bound + 1):
        for a in all_arcs(n):
            j, jstar = perm_of_arc(a), perm_of_arc_lower(a)
            if perm_descents(j) != {(a.i, a.k)}:
                raise VerifyFailure(f"j_alpha should have the single descent ({a.i},{a.k})")
            if arc_of_cover(jstar, j) != a:
                raise VerifyFailure(f"arc round trip fails for {a.format()}")
    for n in range(1, _cap(4, max_n) + 1):
        for a in all_arcs(n):
            single = congruence_classes(congruence_from_generators(n, [a]))
            closure = finest_lattice_congruence(
                n, [(perm_of_arc_lower(a), perm_of_arc(a))]
            )
            _require(single == closure, f"forcing closure mismatch for {a.format()}")
        # joins of two join-irreducibles close the same way
        for a, b in itertools.combinations(all_arcs(n), 2):
            pair = congruence_classes(congruence_from_generators(n, [a, b]))
            closure = finest_lattice_congruence(
                n,
                [
                    (perm_of_arc_lower(a), perm_of_arc(a)),
                    (perm_of_arc_lower(b), perm_of_arc(b)),
                ],
            )
            _require(
                pair == closure,
                f"two-generator closure mismatch for {a.format()}, {b.format()}",
            )
    return "worked arc, subarc forcing == congruence closure (n<=4), j_alpha round trips"


def _arc_antichains(n: int):
    arcs = all_arcs(n)
    rel = {(a, b) for a in arcs for b in arcs if a != b and is_subarc(a, b)}
    for r in range(len(arcs) + 1):
        for sub in itertools.combinations(arcs, r):
            if not any(
                (a, b) in rel or (b, a) in rel
                for a, b in itertools.combinations(sub, 2)
            ):
                yield list(sub)


def ex_congruence_classes_are_intervals(max_n=None) -> str:
    bound = _cap(5, max_n)
    checked = 0
    for n in range(1, bound + 1):
        arcs = all_arcs(n)
        sn = weak_order_poset(n)
        if n <= 4:
            # every congruence of the weak order, via generator antichains
            gen_sets = list(_arc_antichains(n))
        else:
            gen_sets = [[a] for a in arcs]
            gen_sets += [list(p) for p in itertools.combinations(arcs, 2)]
        for gens in gen_sets:
            theta = congruence_from_generators(n, gens)
            classes = congruence_classes(theta)
            for cls in classes:
                lo, hi = class_minimum(cls), class_maximum(cls)
                _require(
                    all(inversions(lo) <= inversions(w) <= inversions(hi) for w in cls),
                    "class not between its extrema",
                )
                _require(set(sn.interval(lo, hi)) == set(cls), f"class is not an interval at n={n}")
            _require(
                is_lattice_congruence(classes, n),
                f"generated relation is not a congruence at n={n}",
            )
            checked += 1
    return f"{checked} arc-generated congruences (all of them for n<=4, 1-/2-generator sets at n=5)"


def ex_rho_subword_congruence(max_n=None) -> str:
    bound = _cap(5, max_n)
    for n in range(1, bound + 1):
        universe = range(1, n + 1)
        for r in range(n + 1):
            for V in itertools.combinations(universe, r):
                fibers: dict = {}
                for w in permutations(n):
                    fibers.setdefault(rho_subword(w, V), []).append(w)
                partition = list(fibers.values())
                is_cong = is_lattice_congruence(partition, n)
                is_interval = not V or max(V) - min(V) + 1 == len(V)
                _require(
                    is_cong == is_interval,
                    f"rho_V congruence iff interval fails at n={n}, V={V}",
                )
    return f"subword fibers are congruences exactly for interval V (n<={bound})"


def ex_prefix_interval_square(max_n=None) -> str:
    bound = _cap(4, max_n)
    for n in range(1, bound + 1):
        for g in all_graphs(n):
            for r in range(1, n + 1):
                for V in itertools.combinations(range(1, n + 1), r):
                    rest = [b for b in range(1, n + 1) if b not in V]
                    gprime, phi = induced_subgraph(g, V)
                    for head in itertools.permutations(V):
                        w = tuple(head) + tuple(rest)
                        lhs = restrict_std(psi(g, w), V)
                        rhs = psi(gprime, tuple(phi[v] for v in head))
                        if lhs != rhs:
                            raise VerifyFailure(f"interval square fails at {g}, V={V}, w={w}")
    return f"restriction square commutes on prefix intervals (n<={bound})"


def ex_cover_relations_formula(max_n=None) -> str:
    bound = _cap(4, max_n)
    flips_checked = 0
    for n in range(bound + 1):
        for g in all_graphs(n):
            for x in enumerate_maximal_tubings(g):
                t = tau(x)
                for i, k in descents(t):
                    kdown = t.ideal(k)
                    y_formula = _descent_flip_formula(t, i, k)
                    y_flip, J = flip(x, kdown)
                    y_search, J2 = flip_by_search(x, kdown)
                    if not y_flip == y_search == y_formula:
                        raise VerifyFailure(f"flip formula mismatch at {g}, descent ({i},{k})")
                    _require(
                        top(x, kdown) > top(y_flip, J),
                        "descent flip should go down",
                    )
                    flips_checked += 1
    return f"{flips_checked} descent flips agree with the swap formula and search"


def _descent_flip_formula(t: GForest, i: int, k: int) -> Tubing:
    g = t.graph
    children_ideals = [t.ideal(c) for c in t.children(k)]
    removed = set()
    for y in children_ideals:
        if not is_tube(g, y | {i}):
            removed |= y
    new_tube = t.ideal(i) - ({k} | removed)
    old = chi(t)
    ts = [s for s in old.tubes if s != t.ideal(k)] + [frozenset(new_tube)]
    return Tubing(g, tuple(ts))


def ex_lg_structure_sweep(max_n=None) -> str:
    bound = _cap(5, max_n)
    graphs = 0
    for n in range(bound + 1):
        for g in all_graphs(n):
            lg = build_lg(g)
            _require(lg.minimum() is not None, f"no unique minimum for {g}")
            _require(lg.maximum() is not None, f"no unique maximum for {g}")
            trees = [tau(x) for x in lg.elements]
            total_desc = sum(len(descents(t)) for t in trees)
            total_asc = sum(len(ascents(t)) for t in trees)
            _require(
                len(lg.covers) == total_desc == total_asc,
                f"cover/descent/ascent counts differ for {g}",
            )
            lam = lambda v: sum((n - idx) * v[idx] for idx in range(n))
            coords = {x: vertex_coordinates(x) for x in lg.elements}
            for x, y, i_t, j_t in flips(g):
                diff = [a - b for a, b in zip(coords[y], coords[x])]
                scale = diff[i_t - 1]
                expected = [0] * n
                expected[i_t - 1] = scale
                expected[j_t - 1] = -scale
                if diff != expected:
                    raise VerifyFailure(f"flip difference not c(e_i - e_j) at {g}")
                _require(scale > 0, "flip difference must gain on the leaving top")
                if i_t < j_t and not lam(coords[y]) > lam(coords[x]):
                    raise VerifyFailure(f"lambda orientation fails at {g}")
            graphs += 1
    return f"{graphs} graphs: unique extrema, covers=descents=ascents, lambda-monotone flips"


def ex_duality_and_decomposition(max_n=None) -> str:
    bound = _cap(4, max_n)
    for n in range(bound + 1):
        for g in all_graphs(n):
            _require(dual_graph(dual_graph(g)) == g, "dual not involutive")
            lg = build_lg(g)
            # the vertex swap i <-> n+1-i is itself the anti-isomorphism
            swap = lambda t: Tubing(
                dual_graph(g), tuple(frozenset(n + 1 - v for v in s) for s in t.tubes)
            )
            lg_star = build_lg(dual_graph(g))
            _require(
                {(swap(lg.elements[b]), swap(lg.elements[a])) for a, b in lg.covers}
                == {
                    (lg_star.elements[a], lg_star.elements[b])
                    for a, b in lg_star.covers
                },
                f"vertex swap is not an anti-isomorphism for {g}",
            )
    dec_bound = _cap(5, max_n)
    count = 0
    for n in range(2, dec_bound + 1):
        for g in all_graphs(n):
            comps = component_tubes(g)
            if len(comps) < 2:
                continue
            I = sorted(comps[0])
            rest = sorted(set(g.vertices) - set(I))
            a, _ = induced_subgraph(g, I)
            b, _ = induced_subgraph(g, rest)
            prod = build_lg(a).product(build_lg(b))
            _require(
                build_lg(g).is_isomorphic_to(prod),
                f"decomposition fails for {g}",
            )
            count += 1
    return f"duality (n<={bound}) and {count} product decompositions (n<={dec_bound})"


def ex_restriction_quotient_maximality(max_n=None) -> str:
    bound = _cap(4, max_n)
    for n in range(bound + 1):
        for g in all_graphs(n):
            for x in enumerate_maximal_tubings(g):
                for r in range(n + 1):
                    for I in itertools.combinations(g.vertices, r):
                        rx = restrict_std(x, I)
                        if not rx.is_maximal():
                            raise VerifyFailure(f"restriction not maximal for {g}")
                for I in ideals(x):
                    qx = quotient_std(x, I)
                    if not qx.is_maximal():
                        raise VerifyFailure(f"quotient not maximal for {g}")
    return f"restrictions and quotients stay maximal (n<={bound})"


def ex_metasylvester(max_n=None) -> str:
    bound = _cap(5, max_n)
    for n in range(1, bound + 1):
        for k in (1, 2):
            theta = metasylvester_congruence(n, k)
            expected = {
                a
                for a in all_arcs(n)
                if sum(1 for s in a.signs if s > 0) >= k
            }
            _require(theta.contracted == expected, f"metasylvester closure wrong n={n} k={k}")
            for g in theta.generators:
                plus = sum(1 for s in g.signs if s > 0)
                _require(plus == k, "generator should have exactly k plus signs")
                if g.signs:
                    _require(
                        g.signs[0] > 0 and g.signs[-1] > 0,
                        "generator signs must start and end with +",
                    )
    for k in (1, 2):
        src = lambda n, k=k: metasylvester_congruence(n, k).contracted
        _require(is_translational(src, bound), f"metasylvester k={k} not translational")
        _require(is_insertional(src, bound), f"metasylvester k={k} not insertional")
    _require(
        congruence_classes(metasylvester_congruence(3, 1))
        == congruence_classes(theta_g(family_path()(3))),
        "k=1 metasylvester should be the path congruence at n=3",
    )
    return f"metasylvester closure/generators/translational/insertional (n<={bound})"


def ex_admissibility_characterization(max_n=None) -> str:
    bound = _cap(6, max_n)
    for A in ({1}, {2}, {1, 2}, {1, 3}, {2, 3}, frozenset()):
        fam = family_from_A(A)
        _require(is_admissible(fam, bound), f"fromA({sorted(A)}) should be admissible")
        _require(
            recover_A(fam, bound) == frozenset(a for a in A if a < bound),
            f"recover_A mismatch for {sorted(A)}",
        )
    _require(is_admissible(family_from_A("all"), bound), "fromA(all) should be admissible")
    _require(recover_A(family_path(), 6) == frozenset({1}), "recover_A(path) != {1}")
    _require(is_admissible(family_odd_bipartite(), _cap(4, max_n)), "oddbip not admissible")
    return f"distance families admissible and recoverable at N={bound}"


def ex_restriction_compatible_families(max_n=None) -> str:
    bound = _cap(6, max_n)
    for fam in (family_path(), family_complete(), family_empty(), family_cycle()):
        _require(
            is_restriction_compatible(fam, bound),
            f"{fam.name} should be restriction-compatible",
        )
    wit = None
    if bound >= 4:
        wit = restriction_compatibility_witness(family_odd_bipartite(), bound)
        _require(wit is not None, "oddbip should fail restriction compatibility")
    return f"path/complete/empty/cycle compatible; oddbip witness {wit}"


def ex_coarsen_restriction_commutes(max_n=None) -> str:
    bound = _cap(5, max_n)
    pairs = [
        (family_path(), family_complete()),
        (family_empty(), family_path()),
        (family_from_A({2}), family_from_A({1, 2})),
    ]
    for fam_a, fam_b in pairs:
        for total in range(2, bound + 1):
            for n in range(1, total):
                ga, gb = fam_a(total), fam_b(total)
                for w in enumerate_maximal_tubings(gb):
                    lhs = restrict_std(coarsen(ga, w), range(1, n + 1))
                    lhs2 = coarsen(fam_a(n), restrict_std(w, range(1, n + 1)))
                    if lhs != lhs2:
                        raise VerifyFailure(f"psi restriction fails {fam_a.name}<{fam_b.name}")
    return f"coarsening commutes with restriction (degrees <= {bound})"


def ex_coarsen_well_defined(max_n=None) -> str:
    bound = _cap(4, max_n)
    for n in range(bound + 1):
        for g in all_graphs(n):
            if not is_connected(g):
                continue
            for drop in g.edges:
                h = Graph(n, tuple(e for e in g.edges if e != drop))
                for w in enumerate_maximal_tubings(g):
                    images = {psi_tubing(h, u) for u in linear_extensions(tau(w))}
                    if len(images) != 1:
                        raise VerifyFailure(
                            f"coarsening depends on the extension at {g} minus {drop}"
                        )
    return f"coarsening independent of the chosen extension (n<={bound})"


def ex_cycle_coproduct_example(max_n=None) -> str:
    fam = family_cycle()
    c4 = fam(4)
    x = Tubing(
        c4,
        (
            frozenset({1}),
            frozenset({3}),
            frozenset({1, 3, 4}),
            frozenset({1, 2, 3, 4}),
        ),
    )
    _require(x.is_maximal(), "chosen tubing should be maximal")
    idl = ideals(x)
    _require(len(idl) == 6, f"expected 6 ideals, got {len(idl)}")
    cop = tubing_coproduct(fam, x)
    by_ideal_multiterm = 0
    for I in idl:
        rx = restrict_std(x, I)
        left = fiber_sum(rx.graph, fam(len(I)), rx)
        if len(left) > 1:
            by_ideal_multiterm += 1
    _require(
        by_ideal_multiterm == 2,
        f"expected 2 multi-summand restrictions, got {by_ideal_multiterm}",
    )
    # 1+1+1+2+2+1 expansion over the six ideals, multiplicity-free
    _require(len(cop) == 8 and set(cop.coefficients()) == {1}, "coproduct expansion size")
    _require(c_delta_holds(fam, x), "coproduct of the chosen tubing fails the embedding check")
    return "cycle coproduct: 6 ideals, 2 multi-summand fiber sums, embedding-compatible"


def ex_oddbip_product_example(max_n=None) -> str:
    fam = family_odd_bipartite()
    g2 = fam(2)
    xs = enumerate_maximal_tubings(g2)
    _require(len(xs) == 2, "G_2 should have two maximal tubings")
    prod = tubing_product(fam, xs[0], xs[1])
    _require(len(prod) == 6, f"degree-(2,2) product should have 6 terms, got {len(prod)}")
    _require(set(prod.coefficients()) == {1}, "product should be multiplicity-free")
    return "odd-bipartite degree-(2,2) product has 6 unit-coefficient terms"


def ex_mr_coassociativity(max_n=None) -> str:
    bound = _cap(4, max_n)
    for n in range(bound + 1):
        for u in permutations(n):
            left: dict = {}
            right: dict = {}
            for i in range(n + 1):
                a, rest = standardize_word(u[:i]), standardize_word(u[i:])
                for j in range(len(a) + 1):
                    key = (standardize_word(a[:j]), standardize_word(a[j:]), rest)
                    left[key] = left.get(key, 0) + 1
                for j in range(len(rest) + 1):
                    key = (a, standardize_word(rest[:j]), standardize_word(rest[j:]))
                    right[key] = right.get(key, 0) + 1
            _require(left == right, f"coassociativity fails at {u}")
    support = mr_product((1, 2), (1, 2))
    _require(len(support) == math.comb(4, 2), "support of F_12 . F_12 should be C(4,2)")
    return f"prefix coproduct coassociative on S_n, n<={bound}"


ACCEPTANCE_CHECKS: list[tuple[str, Callable]] = [
    ("A01 lattice-map iff filled (n<=4)", acc_01_lattice_map_iff_filled),
    ("A02 non-lattice classification on [4]", acc_02_nonlattice_classification),
    ("A03 Catalan/factorial dimension counts (n<=7)", acc_03_dimension_counts),
    ("A04 right-filled inversion order (n<=5)", acc_04_right_filled_inversion_order),
    ("A05 left-filled join preservation (n<=5)", acc_05_left_filled_joins),
    ("A06 congruence generators = psi fibers (n<=5)", acc_06_theta_generators),
    ("A07 face intervals and mobius (n<=4)", acc_07_face_intervals_and_mobius),
    ("A08 cyclohedron semidistributivity, star witness", acc_08_semidistributivity),
    ("A09 Hopf identities", acc_09_hopf_identities),
    ("A10 admissible/translational replay (N=6)", acc_10_family_equivalences),
    ("A11 oracle equivalence", acc_11_oracle_equivalence),
]

EXAMPLE_CHECKS: list[tuple[str, Callable]] = [
    ("E01 filledness examples and duality", ex_filledness_examples),
    ("E02 pentagon poset and join failure", ex_pentagon_poset),
    ("E03 psi fibers and G-permutations", ex_psi_examples),
    ("E04 arc combinatorics and forcing", ex_arc_combinatorics),
    ("E05 congruence classes are intervals", ex_congruence_classes_are_intervals),
    ("E06 subword congruence iff interval", ex_rho_subword_congruence),
    ("E07 prefix-interval restriction square", ex_prefix_interval_square),
    ("E08 descent flip formula", ex_cover_relations_formula),
    ("E09 L_G structure sweep (n<=5)", ex_lg_structure_sweep),
    ("E10 duality and decomposition", ex_duality_and_decomposition),
    ("E11 restriction/quotient maximality", ex_restriction_quotient_maximality),
    ("E12 metasylvester congruences", ex_metasylvester),
    ("E13 admissibility characterization", ex_admissibility_characterization),
    ("E14 restriction-compatible families", ex_restriction_compatible_families),
    ("E15 coarsening commutes with restriction", ex_coarsen_restriction_commutes),
    ("E16 coarsening well-defined", ex_coarsen_well_defined),
    ("E17 cycle coproduct example", ex_cycle_coproduct_example),
    ("E18 odd-bipartite product example", ex_oddbip_product_example),
    ("E19 MR coassociativity", ex_mr_coassociativity),
]


def _run_one(item: tuple[str, Callable], max_n: Optional[int]) -> CheckResult:
    """Run one check; a crash is reported as a failure of that check alone."""
    name, fn = item
    start = time.time()
    try:
        detail = fn(max_n=max_n)
        return CheckResult(name, True, detail, time.time() - start)
    except VerifyFailure as exc:
        return CheckResult(name, False, str(exc), time.time() - start)
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        detail = f"{type(exc).__name__}: {exc} (in {where.name}, line {where.lineno})"
        return CheckResult(name, False, detail, time.time() - start)


def run_suite(
    suite: str = "all", max_n: Optional[int] = None, jobs: int = 1
) -> list[CheckResult]:
    if suite == "acceptance":
        checks = list(ACCEPTANCE_CHECKS)
    elif suite == "examples":
        checks = list(EXAMPLE_CHECKS)
    elif suite == "all":
        checks = list(ACCEPTANCE_CHECKS) + list(EXAMPLE_CHECKS)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    if max_n is not None and max_n < 0:
        raise TubelatError(f"--max-n must be nonnegative, not {max_n}")
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(checks))) as pool:
            futures = [pool.submit(_run_one, item, max_n) for item in checks]
            return [f.result() for f in futures]
    return [_run_one(item, max_n) for item in checks]
