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
    ("psi", "--graph", "path:3", "--perm", "211"),
    ("tubings",),
    ("arc", "delete", "--arc", "9-2:", "--n", "4", "--k", "1"),
    ("arc", "delete", "--arc", "2-5:-+", "--n", "5"),
    ("arc", "insert", "--arc", "1-2:", "--n", "2"),
    ("arc", "subarc", "--arc", "2-4:+", "--n", "4"),
    ("tubings", "--graph-file", "no-such-dir/no-such-graph.txt"),
    ("check", "lattice-map", "--graph", "path:8"),  # the report takes n <= 7
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
    # outside its own definition, in src/, tests/ or bench/
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "tubelat"
    defined, used = set(), set()
    for path in sorted(p for d in ("src", "tests", "bench") for p in (root / d).rglob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            if path.parent == package and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                defined.add((path.name, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used.add(name)
    assert sorted((f, n) for f, n in defined if n not in used) == []


def test_code_table_is_named_only_in_tubings():
    # the maximal-tubing code format is a decision of the tubings module
    import ast
    from pathlib import Path

    import tubelat

    named = set()
    for path in sorted(Path(tubelat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in ("_code_table", "code_index", "tube_bits"):
                named.add((path.name, name))
    assert named == {("tubings.py", "_code_table")}


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
