import json

from tubelat.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tubings_count(capsys):
    code, out, _ = invoke(capsys, "tubings", "--graph", "path:3", "--count")
    assert code == 0 and out.strip() == "5"


def test_tubings_json_deterministic(capsys):
    code, out1, _ = invoke(capsys, "--json", "tubings", "--graph", "cycle:4")
    code2, out2, _ = invoke(capsys, "--json", "tubings", "--graph", "cycle:4")
    assert code == code2 == 0
    assert out1 == out2
    assert len(json.loads(out1)) == 20


def test_check_filled_cycle4(capsys):
    code, out, _ = invoke(capsys, "--json", "check", "filled", "--graph", "cycle:4")
    assert code == 1
    payload = json.loads(out)
    assert payload["filled"] is False
    assert payload["witness"] == {"edge": [1, 4], "missing": [2, 4]}


def _filled_payload_by_chord_scan(g):
    """The ``check filled`` payload by a scan apart from ``filled_status``:
    the flags, then a second scan for the first missing chord."""
    eset = set(g.edges)
    right = all((j, k) in eset for (i, k) in g.edges for j in range(i + 1, k))
    left = all((i, j) in eset for (i, k) in g.edges for j in range(i + 1, k))
    payload = {"filled": right and left, "right_filled": right, "left_filled": left}
    witness = None
    if not payload["filled"]:
        for (i, k) in g.edges:
            for j in range(i + 1, k):
                if (j, k) not in eset:
                    witness = {"edge": [i, k], "missing": [j, k]}
                    break
                if (i, j) not in eset:
                    witness = {"edge": [i, k], "missing": [i, j]}
                    break
            if witness:
                break
        payload["witness"] = witness
    return payload


def test_check_filled_matches_chord_scan_on_every_graph_to_5(capsys, monkeypatch, tmp_path):
    from tubelat import cli
    from tubelat.graphs import all_graphs

    parser = cli.build_parser()  # built once: building it is most of a call
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    path = tmp_path / "g.json"
    for n in range(6):
        for g in all_graphs(n):
            path.write_text(json.dumps(g.to_json_obj()))
            expected = _filled_payload_by_chord_scan(g)
            code = 0 if expected["filled"] else 1
            blob = json.dumps(expected, sort_keys=True, separators=(",", ":"))
            argv = ("check", "filled", "--graph-file", str(path))
            assert invoke(capsys, *argv) == (code, f"{expected}\n", ""), g
            assert invoke(capsys, "--json", *argv) == (code, f"{blob}\n", ""), g


def test_check_lattice_witness(capsys):
    # one of the seven non-lattice graphs on [4]
    import tempfile, os

    text = "4\n1 2\n1 3\n2 4\n"
    with tempfile.NamedTemporaryFile("w", suffix=".graph", delete=False) as fh:
        fh.write(text)
        path = fh.name
    try:
        code, out, _ = invoke(capsys, "--json", "check", "lattice", "--graph-file", path)
        assert code == 1
        payload = json.loads(out)
        assert payload["lattice"] is False
        assert len(payload["witness"]["minimal_bounds"]) >= 2
    finally:
        os.unlink(path)


def test_check_lattice_map(capsys):
    code, _, _ = invoke(capsys, "check", "lattice-map", "--graph", "path:4")
    assert code == 0
    code, out, _ = invoke(capsys, "--json", "check", "lattice-map", "--graph", "cycle:4")
    assert code == 1
    assert json.loads(out)["lattice_map"] is False


def test_check_nrc(capsys):
    code, _, _ = invoke(capsys, "check", "nrc", "--graph", "cycle:4")
    assert code == 0


def test_psi_command(capsys):
    code, out, _ = invoke(capsys, "--json", "psi", "--graph", "path:3", "--perm", "213")
    assert code == 0
    payload = json.loads(out)
    assert payload["tubes"] == [[2], [1, 2], [1, 2, 3]]


def test_congruence_commands(capsys):
    code, out, _ = invoke(capsys, "--json", "congruence", "generators", "--graph", "h:1:4")
    assert code == 0 and json.loads(out) == ["1-3:+", "2-4:+"]
    code, out, _ = invoke(
        capsys, "--json", "congruence", "classes", "--arcs", "2-4:+", "--n", "4"
    )
    assert code == 0
    classes = json.loads(out)
    assert sum(len(c) for c in classes) == 24
    code, out, _ = invoke(
        capsys, "--json", "congruence", "quotient", "--arcs", "", "--n", "3"
    )
    assert code == 0
    assert len(json.loads(out)["elements"]) == 6


def test_arc_commands(capsys):
    code, out, _ = invoke(capsys, "arc", "delete", "--arc", "2-5:-+", "--n", "5", "--k", "3")
    assert code == 0 and out.strip() == "2-4:+"
    code, out, _ = invoke(capsys, "--json", "arc", "insert", "--arc", "1-2:", "--n", "2", "--k", "2")
    assert code == 0 and json.loads(out) == ["1-3:+", "1-3:-"]
    code, _, _ = invoke(capsys, "arc", "subarc", "--arc", "2-4:+", "--arc2", "1-4:-+", "--n", "4")
    assert code == 0
    code, _, _ = invoke(capsys, "arc", "subarc", "--arc", "2-4:+", "--arc2", "1-4:--", "--n", "4")
    assert code == 1


def test_product_commands(capsys):
    code, out, _ = invoke(capsys, "--json", "product", "--left-perm", "21", "--right-perm", "12")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["terms"]) == 6
    code, out, _ = invoke(
        capsys,
        "--json",
        "product",
        "--family",
        "path",
        "--left-perm",
        "1",
        "--right-perm",
        "21",
    )
    assert code == 0
    assert json.loads(out)["basis"] == "P"


def test_coproduct_commands(capsys):
    code, out, _ = invoke(capsys, "--json", "coproduct", "--perm", "3241")
    assert code == 0
    assert len(json.loads(out)["terms"]) == 5
    code, out, _ = invoke(
        capsys, "--json", "coproduct", "--family", "cycle", "--perm", "1234"
    )
    assert code == 0


def test_coproduct_names_the_ideal_of_an_incompatible_family(capsys):
    code, _, err = invoke(capsys, "coproduct", "--family", "oddbip", "--perm", "2314")
    assert code == 2
    assert err == (
        "error: family 'oddbip' is not restriction-compatible at the ideal [2] of degree 4\n"
    )


def test_mobius_command(capsys):
    # the full interval of the pentagon carries mu = (-1)^(3-1) = 1
    code, out, _ = invoke(capsys, "mobius", "--graph", "path:3")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = invoke(capsys, "mobius", "--graph", "complete:2")
    assert code == 0 and out.strip() == "-1"
    # psi(213) and psi(132) are incomparable: named by label, not repr
    code, _, err = invoke(
        capsys, "mobius", "--graph", "path:3", "--lower-perm", "213", "--upper-perm", "132"
    )
    assert code == 2
    assert "{2}{1,2}{1,2,3} and {1}{3}{1,2,3}" in err and "Tubing(" not in err


def test_mobius_single_bound(capsys):
    # a bound left out is the extreme of L_G on its side: psi(213) sits in
    # the middle of the long side of the pentagon, psi(132) is an atom
    code, out, _ = invoke(capsys, "--json", "mobius", "--graph", "path:3", "--lower-perm", "213")
    assert code == 0
    assert json.loads(out) == {"lower": "{2}{1,2}{1,2,3}", "upper": "{3}{2,3}{1,2,3}", "mobius": 0}
    code, out, _ = invoke(capsys, "--json", "mobius", "--graph", "path:3", "--upper-perm", "132")
    assert code == 0
    assert json.loads(out) == {"lower": "{1}{1,2}{1,2,3}", "upper": "{1}{3}{1,2,3}", "mobius": -1}


def test_family_commands(capsys):
    code, _, _ = invoke(capsys, "family", "admissible", "--family", "path", "--max-degree", "5")
    assert code == 0
    code, out, _ = invoke(
        capsys, "--json", "family", "restriction-compatible", "--family", "oddbip", "--max-degree", "5"
    )
    assert code == 1 and json.loads(out)["ok"] is False
    code, _, _ = invoke(
        capsys, "family", "translational", "--family", "h:2", "--max-degree", "5"
    )
    assert code == 0
    code, out, _ = invoke(
        capsys, "--json", "family", "insertional", "--family", "h:2", "--max-degree", "5"
    )
    assert code == 1 and "witness" in json.loads(out)
    code, _, _ = invoke(
        capsys, "family", "associative", "--family", "oddbip", "--max-degree", "4"
    )
    assert code == 0


def test_export_dot(capsys):
    code, out, _ = invoke(capsys, "export-dot", "--graph", "complete:2")
    assert code == 0
    assert out.startswith("digraph") and out.count("->") == 1
    code, out, _ = invoke(capsys, "export-dot", "--weak-order", "2")
    assert code == 0 and "12" in out and "21" in out
    code, out, _ = invoke(
        capsys,
        "export-dot",
        "--graph",
        "A:{2}:4",
        "--annotate-nonlattice",
    )
    assert code == 0


def test_annotated_nonlattice_dot(capsys):
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write(json.dumps({"n": 4, "edges": [[1, 2], [1, 3], [2, 4]]}))
        path = fh.name
    try:
        code, out, _ = invoke(
            capsys, "export-dot", "--graph-file", path, "--annotate-nonlattice"
        )
        assert code == 0 and "lightblue" in out
    finally:
        os.unlink(path)


BAD_INPUTS = [
    ("tubings", "--graph", "nonsense"),
    ("tubings", "--graph", "path:99999999999999999999"),  # refused before building
    ("tubings", "--graph", "h:x:3"),
    ("family", "translational", "--family", "A:{1,a}", "--max-degree", "3"),
    ("psi", "--graph", "path:3", "--perm", "211"),
    ("tubings",),
    ("arc", "delete", "--arc", "9-2:", "--n", "4", "--k", "1"),
    ("arc", "delete", "--arc", "2-5:-+", "--n", "5"),
    ("arc", "insert", "--arc", "1-2:", "--n", "2"),
    ("arc", "subarc", "--arc", "2-4:+", "--n", "4"),
    ("tubings", "--graph-file", "no-such-dir/no-such-graph.txt"),
    ("check", "lattice-map", "--graph", "path:8"),  # the report takes n <= 7
    ("poset", "--graph", "cycle:11"),  # 184,756 tubings: L_G is refused before its closure
    # counted, not enumerated: 39,916,800 and 362,880 tubings are refused unbuilt
    ("tubings", "--graph", "complete:11"),
    ("poset", "--graph", "complete:9"),
    # negative sizes, and a weak order past S_8, are refused before building
    ("export-dot", "--weak-order", "-1"),
    ("export-dot", "--weak-order", "9"),
    ("congruence", "classes", "--arcs", ",", "--n", "-2"),
    ("congruence", "classes", "--arcs", "1-2:", "--n", "10"),  # S_10 is refused
    ("family", "translational", "--family", "path", "--max-degree", "-1"),
    # a dict stands for a --graph-file holding it as JSON
    ("tubings", "--graph-file", {"n": 3}),
    ("tubings", "--graph-file", {"n": 3, "edges": 5}),
    ("tubings", "--graph-file", {"n": 3, "edges": [[1, 2.5]]}),
    ("tubings", "--graph-file", {"n": 10**20, "edges": []}),  # no vertex table fits
    ("verify", "--suite", "acceptance", "--max-n", "-1"),
    ("coproduct", "--family", "oddbip", "--perm", "2314"),  # not restriction-compatible
]


def test_bad_input_exits_2(capsys, tmp_path):
    for row in BAD_INPUTS:
        argv = list(row)
        for k, arg in enumerate(argv):
            if isinstance(arg, dict):
                argv[k] = str(tmp_path / f"graph{k}.json")
                (tmp_path / f"graph{k}.json").write_text(json.dumps(arg))
        code, _, err = invoke(capsys, *argv)
        assert code == 2, row
        assert "error:" in err and "Traceback" not in err, row


def test_oversized_graph_is_named_by_size(capsys):
    # the refusal names the graph by its size, not by its edge list
    code, _, err = invoke(capsys, "tubings", "--graph", "complete:11")
    (line,) = err.splitlines()
    assert code == 2 and "39,916,800" in line and len(line) < 120, line


FALSE_PROPERTIES = [
    # the product of a non-admissible family is undefined: the witness says where
    ("family", "associative", "--family", "cycle", "--max-degree", "4"),
]


def test_false_property_exits_1(capsys):
    for argv in FALSE_PROPERTIES:
        code, out, err = invoke(capsys, "--json", *argv)
        assert code == 1, argv
        assert json.loads(out)["witness"] and err == "", argv


def test_semidistributive_witness_on_a_large_star(capsys, tmp_path):
    # the star K_{1,7} has 13,700 tubings; its witness comes from probes
    from tubelat.graphs import Graph
    from tubelat.posets import build_lg

    edges = [[1, i] for i in range(2, 9)]
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"n": 8, "edges": edges}))
    code, out, err = invoke(capsys, "--json", "check", "semidistributive", "--graph-file", str(path))
    assert code == 1 and err == ""
    witness = json.loads(out)["witness"]
    assert witness["kind"] == "SD-meet"
    lg = build_lg(Graph(8, tuple(map(tuple, edges))))
    assert len(lg) == 13700
    by_label = {x.label(): x for x in lg.elements}
    x, y, z = (by_label[s] for s in witness["triple"])
    # x ^ z = y ^ z, but (x v y) ^ z is not x ^ z
    assert lg.meet(x, z) == lg.meet(y, z) != lg.meet(lg.join(x, y), z)


def test_check_semidistributive_decides_lattice_once(capsys, monkeypatch, tmp_path):
    from tubelat.posets import Poset

    calls = []
    is_lattice = Poset.is_lattice

    def counted(self):
        calls.append(self)
        return is_lattice(self)

    monkeypatch.setattr(Poset, "is_lattice", counted)
    code, out, _ = invoke(capsys, "--json", "check", "semidistributive", "--graph", "cycle:4")
    assert (code, json.loads(out), len(calls)) == (0, {"semidistributive": True}, 1)
    # L_G of this graph is not a lattice
    path = tmp_path / "g.txt"
    path.write_text("4\n1 2\n1 3\n2 4\n")
    code, out, err = invoke(capsys, "--json", "check", "semidistributive", "--graph-file", str(path))
    assert (code, json.loads(out), err) == (1, {"semidistributive": False, "witness": "not a lattice"}, "")


def test_import_loads_no_numpy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, tubelat, tubelat.cli, tubelat.verify; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_no_relative_import_inside_functions():
    # the one lazy relative import loads the battery only for `verify`
    import ast
    from pathlib import Path

    import tubelat

    found = set()
    for path in sorted(Path(tubelat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.ImportFrom) and node.level:
                        found.add((path.name, fn.name, "." * node.level + (node.module or "")))
    assert found == {("cli.py", "cmd_verify", ".verify")}


def test_no_dead_top_level_definitions():
    # every top-level function or class of the package is named somewhere
    # outside its own definition, in src/, tests/ or bench/; every method of
    # a package class (not a dunder) is read as an attribute in src/ or
    # bench/ outside its own definition; and every name __init__.py exports
    # is named in src/ outside __init__.py, or in bench/
    import ast
    from collections import Counter
    from pathlib import Path

    allowed = {  # public API that only tests call, each kept for a reason
        "minors": "the excluded-minor search for the lattice and SD properties will call it",
        "weak_meet": "a rewrite of the weak order on inversion masks keeps it",
        "dual": "tests build dual posets to check the order-dual statements",
    }
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "tubelat"
    defined, used, named = set(), set(), set()
    methods, exports, reads = [], set(), Counter()
    for path in sorted(p for d in ("src", "tests", "bench") for p in (root / d).rglob("*.py")):
        tree = ast.parse(path.read_text())
        code = path.parent in (package, root / "bench")  # production code
        if path == package / "__init__.py":
            exports = {a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            if path.parent == package and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                defined.add((path.name, own))
                if isinstance(stmt, ast.ClassDef):
                    methods += [
                        f
                        for f in stmt.body
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (f.name.startswith("__") and f.name.endswith("__"))
                    ]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                    reads[name] += code
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used.add(name)
                    if code and path.name != "__init__.py":
                        named.add(name)
    assert sorted((f, n) for f, n in defined if n not in used) == []
    dead = exports - named
    for m in methods:  # dead unless read outside its own body
        if reads[m.name] == sum(isinstance(n, ast.Attribute) and n.attr == m.name for n in ast.walk(m)):
            dead.add(m.name)
    assert sorted(dead - set(allowed)) == []
    assert sorted(set(allowed) - dead) == []  # an entry whose name gained a caller goes


def test_no_unused_module_level_imports():
    # a module-level import that nothing in its module names is left over
    # from deleted code; __init__.py imports are the package's exports
    import ast
    from pathlib import Path

    import tubelat

    unused = []
    for path in sorted(Path(tubelat.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Import):
                imported |= {(a.asname or a.name).partition(".")[0] for a in stmt.names}
            elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                imported |= {a.asname or a.name for a in stmt.names}
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in sorted(imported - names)]
    assert unused == []


def test_private_layouts_are_named_only_in_their_modules():
    # the maximal-tubing code format and the tube tree are decisions of the
    # tubings module; only its producers may skip the Tubing constructor's
    # check, and only its code table and _tubing, which sorts first, may
    # skip the sort; only tau may build a GForest without its constructor's
    # check.  The poset's index-order bitmask storage, and the private
    # constructor path that takes covers by index, are decisions of the
    # posets module.  The Hopf indexes hold shared term dicts and fibers
    # that only the hopf module may read or mutate
    import ast
    from pathlib import Path

    import tubelat

    def names(path):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            yield node.name if isinstance(node, ast.alias) else name

    src = Path(tubelat.__file__).parent
    private = (
        "_code_table", "_tubewise", "code_index", "tube_bits", "_sorted_tubing", "_tubing",
        "_cut_graphs", "_halves",
    )
    named = {(path.name, name) for path in sorted(src.glob("*.py")) for name in names(path)}
    assert {(f, n) for f, n in named if n in private} == {
        ("tubings.py", n)
        for n in (
            "_code_table", "_tubewise", "_sorted_tubing", "_tubing", "_cut_graphs", "_halves",
        )
    }
    storage = ("_up", "_down", "_upper", "_lower", "_meet_idx", "_join_idx", "_init_by_index")
    assert {(f, n) for f, n in named if n in storage} == {("posets.py", n) for n in storage}
    indexes = ("_split_index", "_coarsen_fibers")
    assert {(f, n) for f, n in named if n in indexes} == {("hopf.py", n) for n in indexes}
    root = src.parent.parent
    files = [*src.glob("*.py"), *root.glob("tests/*.py"), *root.glob("bench/*.py")]
    assert not [path.name for path in files if "make_tubing" in names(path)]
    tree = ast.parse(src.joinpath("tubings.py").read_text())
    callers = [
        f.name
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef)
        for node in ast.walk(f)
        if getattr(node, "id", None) == "_sorted_tubing"
    ]
    assert sorted(callers) == ["_code_table", "_tubing"]

    def gforest_news(tree):  # each __new__ call that names GForest
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "__new__"
            and "GForest" in {getattr(a, "id", None) for a in (node.func.value, *node.args)}
        ]

    unchecked = []  # (file, innermost enclosing function or None) of each
    for path in files:
        tree = ast.parse(path.read_text())
        functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        inside = {id(node): f.name for f in functions for node in gforest_news(f)}
        unchecked += [(path.name, inside.get(id(node))) for node in gforest_news(tree)]
    assert unchecked == [("tubings.py", "tau")]


def test_benchmark_clear_caches_empties_every_cache(monkeypatch):
    # every benchmark pass starts cold only if clear_caches reaches every
    # lru_cache of the package
    import importlib
    import importlib.util
    import pkgutil
    import sys
    from pathlib import Path

    import tubelat
    from tubelat.graphs import parse_family, parse_graph
    from tubelat.hopf import tubing_coproduct, tubing_product
    from tubelat.tubings import enumerate_maximal_tubings
    from tubelat.verify import run_suite
    from tubelat.weakorder import lattice_map_report

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    modules = [
        importlib.import_module(f"tubelat.{m.name}")
        for m in pkgutil.iter_modules(tubelat.__path__)
        if m.name != "__main__"
    ]
    caches = {
        (mod.__name__, name): obj
        for mod in modules
        for name, obj in vars(mod).items()
        if callable(getattr(obj, "cache_info", None))
    }
    fam = parse_family("path")
    x = enumerate_maximal_tubings(fam(2))[0]
    tubing_product(fam, x, x)
    tubing_coproduct(fam, enumerate_maximal_tubings(fam(3))[-1])
    lattice_map_report(parse_graph("cycle:4"))
    run_suite("acceptance", max_n=3)
    assert any(c.cache_info().currsize for c in caches.values())
    workloads.clear_caches()
    assert sorted(k for k, c in caches.items() if c.cache_info().currsize) == []
    assert all(callable(getattr(f, "cache_info", None)) for f in workloads.CACHES.values())


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tubelat", "tubings", "--graph", "path:3", "--count"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "5\n"


def test_verify_smoke(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "acceptance", "--max-n", "3")
    assert code == 0
    assert "checks passed" in out


def test_verify_all_maxn4(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "all", "--max-n", "4")
    assert code == 0
    assert "30/30 checks passed" in out


def test_verify_parallel_jobs(capsys):
    from tubelat.verify import run_suite

    serial = run_suite(suite="examples", max_n=2)
    parallel = run_suite(suite="examples", max_n=2, jobs=2)
    assert [(r.name, r.ok, r.detail) for r in serial] == [
        (r.name, r.ok, r.detail) for r in parallel
    ]


def test_verify_jobs_capped_at_check_count(monkeypatch):
    # the pool is replaced by one that records its size and runs each check
    # in this process, so no worker is started
    import concurrent.futures

    from tubelat import verify

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verify, "ACCEPTANCE_CHECKS", verify.ACCEPTANCE_CHECKS[2:5])
    for jobs, expected in ((5000, 3), (3, 3), (2, 2)):
        results = verify.run_suite(suite="acceptance", max_n=2, jobs=jobs)
        assert sizes.pop() == expected and all(r.ok for r in results)


def _crashing_check(max_n=None):
    return 1 // 0


def test_verify_reports_crashing_check(monkeypatch):
    from tubelat import verify

    crash = ("X01 crashing check", _crashing_check)
    monkeypatch.setattr(verify, "ACCEPTANCE_CHECKS", [crash, verify.ACCEPTANCE_CHECKS[2]])
    for jobs in (1, 2):
        bad, good = verify.run_suite(suite="acceptance", max_n=2, jobs=jobs)
        assert not bad.ok and bad.detail.startswith("ZeroDivisionError"), bad.detail
        assert bad.line().startswith("FAIL  X01 crashing check")
        assert good.ok


def test_verify_json_independent_of_hash_seed_and_jobs():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed, jobs in (("0", "1"), ("1", "1"), ("1", "2")):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "tubelat.cli", "--json", "verify", "--suite",
             "acceptance", "--max-n", "4", "--jobs", jobs],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)
        for r in results:
            del r["seconds"]
        outputs.append(json.dumps(results, sort_keys=True))
    assert outputs[0] == outputs[1] == outputs[2]
