"""Command-line front end.

Exit codes: 0 on success (or a true property), 1 when a checked property is
false (a witness is printed), 2 on malformed input.  ``--json`` switches
every command to a machine-readable form that is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import NotAdmissibleAtDegree, NotALattice, NotComparable, TubelatError
from .graphs import (
    Graph,
    filled_status,
    load_graph_file,
    parse_family,
    parse_graph,
)
from .hopf import (
    admissibility_witness,
    associativity_witness,
    formal_sum_to_json_obj,
    mr_coproduct,
    mr_product,
    restriction_compatibility_witness,
    sorted_terms,
    tubing_coproduct,
    tubing_product,
)
from .posets import all_tubings, build_lg, tubing_face_interval
from .tubings import count_maximal_tubings, enumerate_maximal_tubings, sigma_min, tau
from .weakorder import (
    Congruence,
    arc_delete,
    arc_insertions,
    congruence_classes,
    format_perm,
    insertional_witness,
    is_subarc,
    lattice_map_report,
    parse_arc,
    parse_perm,
    psi,
    quotient_poset,
    theta_g,
    translational_witness,
    weak_order_poset,
)


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _graph_from_args(args) -> Graph:
    if getattr(args, "graph_file", None):
        return load_graph_file(args.graph_file)
    if getattr(args, "graph", None):
        return parse_graph(args.graph)
    raise TubelatError("provide --graph or --graph-file")


def _add_graph_args(sub) -> None:
    sub.add_argument("--graph", help="descriptor like path:4, cycle:5, h:2:6, A:{1,3}:5")
    sub.add_argument("--graph-file", help="path to a graph text or JSON file")


def cmd_tubings(args) -> int:
    g = _graph_from_args(args)
    if args.count:
        print(count_maximal_tubings(g))
        return 0
    ts = enumerate_maximal_tubings(g)
    if args.json:
        _emit_json([t.to_json_obj() for t in ts])
    else:
        for t in ts:
            print(t.label())
    return 0


def cmd_poset(args) -> int:
    g = _graph_from_args(args)
    lg = build_lg(g)
    if args.json:
        _emit_json(lg.to_json_obj(label=lambda t: t.label()))
    else:
        print(f"{len(lg)} elements, {len(lg.covers)} covers")
        for i, e in enumerate(lg.elements):
            print(f"{i}: {e.label()}")
        for a, b in lg.covers:
            print(f"{a} < {b}")
    return 0


def cmd_check(args) -> int:
    g = _graph_from_args(args)
    if args.property == "filled":
        st = filled_status(g)
        payload = {
            "filled": st.filled,
            "right_filled": st.right_filled,
            "left_filled": st.left_filled,
        }
        if not st.filled:
            edge, missing = st.witness
            payload["witness"] = {"edge": list(edge), "missing": list(missing)}
        _emit_json(payload) if args.json else print(payload)
        return 0 if st.filled else 1
    if args.property == "lattice":
        lg = build_lg(g)
        ok = lg.is_lattice()
        payload = {"lattice": ok}
        if not ok:
            x, y, kind, bounds = lg.lattice_failure_witness()
            payload["witness"] = {
                "pair": [x.label(), y.label()],
                "missing": kind,
                "minimal_bounds": [b.label() for b in bounds],
            }
        _emit_json(payload) if args.json else print(payload)
        return 0 if ok else 1
    if args.property == "semidistributive":
        try:
            wit = build_lg(g).semidistributivity_witness()
        except NotALattice:
            payload = {"semidistributive": False, "witness": "not a lattice"}
            _emit_json(payload) if args.json else print(payload)
            return 1
        payload = {"semidistributive": wit is None}
        if wit is not None:
            (x, y, z), kind = wit
            payload["witness"] = {
                "kind": kind,
                "triple": [x.label(), y.label(), z.label()],
            }
        _emit_json(payload) if args.json else print(payload)
        return 0 if wit is None else 1
    if args.property == "lattice-map":
        rep = lattice_map_report(g)
        payload = {"lattice_map": rep.ok, "meet": rep.meet_ok, "join": rep.join_ok}
        if rep.witness:
            kind, u, w = rep.witness
            payload["witness"] = {"kind": kind, "pair": [format_perm(u), format_perm(w)]}
        _emit_json(payload) if args.json else print(payload)
        return 0 if rep.ok else 1
    lg = build_lg(g)  # "nrc", the last choice
    for y in all_tubings(g):
        if not tubing_face_interval(g, y, lg).ok:
            payload = {"nrc": False, "witness": y.label()}
            _emit_json(payload) if args.json else print(payload)
            return 1
    payload = {"nrc": True}
    _emit_json(payload) if args.json else print(payload)
    return 0


def cmd_psi(args) -> int:
    g = _graph_from_args(args)
    w = parse_perm(args.perm)
    x = psi(g, w)
    if args.json:
        _emit_json(x.to_json_obj())
    else:
        t = tau(x)
        print(x.label())
        print("parent:", list(t.parent))
        print("g-permutation:", format_perm(sigma_min(t)))
    return 0


def _congruence_from_args(args):
    if args.graph or args.graph_file:
        g = _graph_from_args(args)
        return theta_g(g), g.n
    if args.arcs is None or args.n is None:
        raise TubelatError("provide --graph/--graph-file or --arcs with --n")
    n = args.n
    arcs = [parse_arc(s, n) for s in args.arcs.split(",") if s.strip()]
    return Congruence(n, arcs), n


def cmd_congruence(args) -> int:
    theta, n = _congruence_from_args(args)
    if args.action == "generators":
        gens = sorted(a.format() for a in theta.generators)
        _emit_json(gens) if args.json else print("\n".join(gens) if gens else "(discrete)")
        return 0
    if args.action == "classes":
        classes = congruence_classes(theta)
        if args.json:
            _emit_json([[format_perm(w) for w in cls] for cls in classes])
        else:
            for cls in classes:
                print(" ".join(format_perm(w) for w in cls))
        return 0
    q = quotient_poset(theta)  # "quotient", the last choice
    if args.json:
        _emit_json(q.to_json_obj(label=format_perm))
    else:
        print(f"{len(q)} classes, {len(q.covers)} covers")
        for a, b in q.covers:
            print(f"{format_perm(q.elements[a])} < {format_perm(q.elements[b])}")
    return 0


def cmd_arc(args) -> int:
    if args.action in ("delete", "insert") and args.k is None:
        raise TubelatError(f"arc {args.action} needs --k")
    if args.action == "subarc" and args.arc2 is None:
        raise TubelatError("arc subarc needs --arc2")
    a = parse_arc(args.arc, args.n)
    if args.action == "delete":
        out = arc_delete(a, args.k)
        _emit_json(out.format()) if args.json else print(out.format())
        return 0
    if args.action == "insert":
        outs = [b.format() for b in arc_insertions(a, args.k)]
        _emit_json(outs) if args.json else print("\n".join(outs))
        return 0
    ok = is_subarc(a, parse_arc(args.arc2, args.n))  # "subarc", the last choice
    _emit_json(ok) if args.json else print(ok)
    return 0 if ok else 1


def cmd_product(args) -> int:
    if args.family:
        fam = parse_family(args.family)
        u, v = parse_perm(args.left_perm), parse_perm(args.right_perm)
        x = psi(fam(len(u)), u)
        y = psi(fam(len(v)), v)
        s = tubing_product(fam, x, y)
        if args.json:
            _emit_json(formal_sum_to_json_obj(s))
        else:
            for key in sorted_terms(s):
                print(f"{s.terms[key]} * {key.label()}")
    else:
        u, v = parse_perm(args.left_perm), parse_perm(args.right_perm)
        s = mr_product(u, v)
        if args.json:
            _emit_json(formal_sum_to_json_obj(s))
        else:
            for key in sorted_terms(s):
                print(f"{s.terms[key]} * {format_perm(key)}")
    return 0


def cmd_coproduct(args) -> int:
    if args.family:
        fam = parse_family(args.family)
        w = parse_perm(args.perm)
        x = psi(fam(len(w)), w)
        s = tubing_coproduct(fam, x)
        if args.json:
            _emit_json(formal_sum_to_json_obj(s))
        else:
            for (l, r) in sorted_terms(s):
                print(f"{s.terms[(l, r)]} * {l.label() or 'iota'} (x) {r.label() or 'iota'}")
    else:
        w = parse_perm(args.perm)
        s = mr_coproduct(w)
        if args.json:
            _emit_json(formal_sum_to_json_obj(s))
        else:
            for (l, r) in sorted_terms(s):
                print(f"{s.terms[(l, r)]} * {format_perm(l)} (x) {format_perm(r)}")
    return 0


def cmd_mobius(args) -> int:
    g = _graph_from_args(args)
    lg = build_lg(g)
    # a bound left out defaults to the extreme of L_G on its side
    lo = psi(g, parse_perm(args.lower_perm)) if args.lower_perm else lg.minimum()
    hi = psi(g, parse_perm(args.upper_perm)) if args.upper_perm else lg.maximum()
    if not lg.le(lo, hi):
        raise NotComparable(f"{lo.label()} and {hi.label()} are not comparable in order")
    mu = lg.mobius(lo, hi)
    if args.json:
        _emit_json({"lower": lo.label(), "upper": hi.label(), "mobius": mu})
    else:
        print(mu)
    return 0


def cmd_family(args) -> int:
    fam = parse_family(args.family)
    n = args.max_degree
    if n < 0:
        raise TubelatError(f"--max-degree must be nonnegative, not {n}")
    if args.property == "admissible":
        wit = admissibility_witness(fam, n)
    elif args.property == "restriction-compatible":
        wit = restriction_compatibility_witness(fam, n)
    elif args.property == "translational":
        wit = translational_witness(fam, n)
        if wit is not None:
            wit = f"arc {wit[0].format()} on [{wit[0].n}] contracted, translate {wit[1].format()} on [{wit[1].n}] not"
    elif args.property == "insertional":
        wit = insertional_witness(fam, n)
        if wit is not None:
            wit = (
                f"arc {wit[0].format()} on [{wit[0].n}] contracted, inserting {wit[1]} "
                f"gives uncontracted {wit[2].format()}"
            )
    else:  # "associative", the last choice
        try:
            wit = associativity_witness(fam, n)
        except NotAdmissibleAtDegree as exc:
            wit = f"product undefined: {exc}"
        else:
            if wit is not None:
                wit = " . ".join(t.label() for t in wit)
    ok = wit is None
    payload = {"family": fam.name, "property": args.property, "max_degree": n, "ok": ok}
    if not ok:
        payload["witness"] = str(wit)
    _emit_json(payload) if args.json else print(
        f"{args.property} through degree {n}: {ok}" + ("" if ok else f"\nwitness: {wit}")
    )
    return 0 if ok else 1


def cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(suite=args.suite, max_n=args.max_n, jobs=args.jobs)
    if args.json:
        _emit_json(
            [
                {"name": r.name, "ok": r.ok, "detail": r.detail, "seconds": round(r.seconds, 2)}
                for r in results
            ]
        )
    else:
        for r in results:
            print(r.line())
        bad = sum(1 for r in results if not r.ok)
        print(f"{len(results) - bad}/{len(results)} checks passed")
    return 0 if all(r.ok for r in results) else 1


def cmd_export_dot(args) -> int:
    if args.weak_order is not None:
        poset = weak_order_poset(args.weak_order)
        print(poset.to_dot(label=format_perm, name="weak_order"), end="")
        return 0
    g = _graph_from_args(args)
    lg = build_lg(g)
    annotate = []
    if args.annotate_nonlattice and not lg.is_lattice():
        x, y, kind, bounds = lg.lattice_failure_witness()
        annotate = [x, y] + bounds
    print(lg.to_dot(label=lambda t: t.label(), annotate=annotate, name="L_G"), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tubelat",
        description="Maximal tubings, the flip order, weak-order congruences, "
        "and tubing Hopf structures.",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("tubings", help="enumerate maximal tubings")
    _add_graph_args(s)
    s.add_argument("--count", action="store_true")
    s.set_defaults(fn=cmd_tubings)

    s = sub.add_parser("poset", help="build the flip order L_G")
    _add_graph_args(s)
    s.set_defaults(fn=cmd_poset)

    s = sub.add_parser("check", help="check a property of a graph or its poset")
    s.add_argument(
        "property",
        choices=["filled", "lattice", "semidistributive", "lattice-map", "nrc"],
    )
    _add_graph_args(s)
    s.set_defaults(fn=cmd_check)

    s = sub.add_parser("psi", help="map a permutation to its maximal tubing")
    _add_graph_args(s)
    s.add_argument("--perm", required=True)
    s.set_defaults(fn=cmd_psi)

    s = sub.add_parser("congruence", help="arc-generated weak order congruences")
    s.add_argument("action", choices=["generators", "classes", "quotient"])
    _add_graph_args(s)
    s.add_argument("--arcs", help="comma-separated arcs like 2-4:+,1-3:-")
    s.add_argument("--n", type=int)
    s.set_defaults(fn=cmd_congruence)

    s = sub.add_parser("arc", help="arc deletion, insertion, subarc test")
    s.add_argument("action", choices=["delete", "insert", "subarc"])
    s.add_argument("--arc", required=True)
    s.add_argument("--arc2")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int)
    s.set_defaults(fn=cmd_arc)

    s = sub.add_parser("product", help="shuffle or tubing product")
    s.add_argument("--family", help="tubing product in this family (else permutations)")
    s.add_argument("--left-perm", required=True)
    s.add_argument("--right-perm", required=True)
    s.set_defaults(fn=cmd_product)

    s = sub.add_parser("coproduct", help="prefix or tubing coproduct")
    s.add_argument("--family")
    s.add_argument("--perm", required=True)
    s.set_defaults(fn=cmd_coproduct)

    s = sub.add_parser("mobius", help="mobius function on an interval of L_G")
    _add_graph_args(s)
    s.add_argument("--lower-perm")
    s.add_argument("--upper-perm")
    s.set_defaults(fn=cmd_mobius)

    s = sub.add_parser("family", help="graded family properties")
    s.add_argument(
        "property",
        choices=[
            "admissible",
            "restriction-compatible",
            "translational",
            "insertional",
            "associative",
        ],
    )
    s.add_argument("--family", required=True)
    s.add_argument("--max-degree", type=int, default=6)
    s.set_defaults(fn=cmd_family)

    s = sub.add_parser("verify", help="run the verification suites")
    s.add_argument("--suite", choices=["all", "acceptance", "examples"], default="all")
    s.add_argument("--max-n", type=int, default=None)
    s.add_argument("--jobs", type=int, default=1)
    s.set_defaults(fn=cmd_verify)

    s = sub.add_parser("export-dot", help="emit a Hasse diagram as DOT")
    _add_graph_args(s)
    s.add_argument("--weak-order", type=int)
    s.add_argument("--annotate-nonlattice", action="store_true")
    s.set_defaults(fn=cmd_export_dot)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
