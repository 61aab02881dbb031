"""Properties of the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import slinv

PACKAGE = Path(slinv.__file__).parent
# the rational homology oracle and its private linear algebra
ORACLE = {"homology", "_linalg"}


def test_the_package_has_no_assert_statements():
    """Invariants raise typed errors, because `python -O` strips asserts."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _import_sites(tree: ast.Module):
    """(owner, statement) for each import in `tree`: owner is the name of
    the module-level function the import sits in, or None outside them."""
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield owner, node


def _loaded(node: ast.Import | ast.ImportFrom) -> set[str]:
    """The top-level module names, taken relative to slinv, that an import
    statement loads: {"homology"} for `from .homology import State` and for
    `from . import homology`, {"fractions"} for `from fractions import ...`."""
    if isinstance(node, ast.ImportFrom) and node.module not in (None, "slinv"):
        names = [node.module]
    else:
        names = [alias.name for alias in node.names]
    return {name.removeprefix("slinv.").split(".")[0] for name in names}


def test_the_fast_path_imports_no_oracle():
    """No fast path may check itself: the integer modules and the package
    never import the oracle, apart from a module-level __getattr__ that
    forwards its names to it on first use; cli loads it only inside a
    function (`states --dump`); and ribbon and diagram do no Fraction
    arithmetic at all."""
    found = []
    for name in ("__init__.py", "diagram.py", "ribbon.py", "invariants.py", "poly.py", "cli.py"):
        for owner, node in _import_sites(ast.parse((PACKAGE / name).read_text())):
            loaded = _loaded(node)
            lazy = owner is not None if name == "cli.py" else owner == "__getattr__"
            if loaded & ORACLE and not lazy:
                found.append(f"{name}:{node.lineno} imports {sorted(loaded & ORACLE)}")
            if "fractions" in loaded and name in ("diagram.py", "ribbon.py"):
                found.append(f"{name}:{node.lineno} imports fractions")
    assert found == []


def test_the_package_loads_the_oracle_on_first_use():
    """`import slinv.cli` loads neither the oracle nor its linear algebra,
    and the package's oracle names still import, loading it then."""
    script = (
        "import sys, slinv.cli\n"
        "print(sorted(m for m in sys.modules if m in ('slinv.homology', 'slinv._linalg')))\n"
        "from slinv import HomologyContext\n"
        "print(HomologyContext.__module__, 'slinv.homology' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.splitlines() == ["[]", "slinv.homology True"]


# each verifier's subject, the analysis it checks
VERIFIER_SUBJECTS = {
    "verify_route_equality": "DiagramAnalysis",
    "verify_jk_coefficients": "DiagramAnalysis",
    "verify_span": "DiagramAnalysis",
    "verify_twist_formula": "DiagramAnalysis",
    "verify_tait_duality": "DiagramAnalysis",
    "verify_state_kernel": "DiagramAnalysis",
    "verify_krushkal_coeffs": "MapAnalysis",
    "verify_polynomial_duality": "MapAnalysis",
    "verify_subgraph_count": "MapAnalysis",
    "tutte_check": "MapAnalysis",
    "loop_deletion_check": "MapAnalysis",
    "reduce": "MapAnalysis",
}


def _functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_verifiers_take_their_analysis():
    """Each verifier reads its diagram or map, and its cap, from the one
    analysis it checks: it has no second way in that builds a private
    analysis, and no cap or input that could disagree with the analysis."""
    found = []
    tree = ast.parse((PACKAGE / "invariants.py").read_text())
    functions = _functions(tree)
    for name, subject in VERIFIER_SUBJECTS.items():
        args = functions[name].args
        params = args.posonlyargs + args.args + args.kwonlyargs
        first = ast.unparse(params[0].annotation) if params[0].annotation else None
        if first != subject:
            found.append(f"{name} takes {first} first, not {subject}")
        found.extend(f"{name} has `{p.arg}`" for p in params if p.arg in ("analysis", "cap", "data"))
    for node in ast.walk(tree):
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            last = node.values[-1]
            if isinstance(last, ast.Call) and ast.unparse(last.func) in VERIFIER_SUBJECTS.values():
                found.append(f"invariants.py:{node.lineno} falls back to a private analysis")
    ribbon = _functions(ast.parse((PACKAGE / "ribbon.py").read_text()))
    for name in ("trivial_loops", "parallel_pairs"):
        args = ribbon[name].args
        defaults = dict(zip([p.arg for p in args.args][::-1], args.defaults[::-1]))
        if "k" in defaults:
            found.append(f"ribbon.{name} defaults k to {ast.unparse(defaults['k'])}")
    assert found == []


def test_the_tutte_oracle_is_its_own_route():
    """The rank polynomial by class recursion replaced the edge-at-a-time
    deletion-contraction, and nothing it calls names a subgraph walk or a
    face, so that tutte_specialization compares two independent routes."""
    functions = _functions(ast.parse((PACKAGE / "invariants.py").read_text()))
    assert not {"_whitney_rank", "_reachable"} & set(functions)
    oracle, todo = set(), ["rank_polynomial"]
    while todo:
        name = todo.pop()
        if name not in oracle:
            oracle.add(name)
            todo.extend(n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name) and n.id in functions)
    assert {"rank_polynomial", "_rank_terms", "_relabelled"} <= oracle
    walk = {"walk_choices", "walk_subgraphs", "_sweep", "subgraph_tally", "subgraph_rows", "krushkal", "faces", "face_of"}
    found = sorted(
        f"{name} names {named}"
        for name in oracle
        for node in ast.walk(functions[name])
        for named in (getattr(node, "id", None), getattr(node, "attr", None))
        if named in walk
    )
    assert found == []


def test_the_report_path_substitutes_by_term_maps():
    """P and J_K via P are term maps on int dicts: invariants.py neither
    calls the ring's general substitution nor keeps a second binomial."""
    source = (PACKAGE / "invariants.py").read_text()
    assert [name for name in ("substitute", "_one_plus_y") if name in source] == []


def _names(node: ast.AST) -> set[str]:
    """Every name and attribute that `node` mentions."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_the_state_sum_and_jones_expand_the_binomial_by_horner():
    """_state_sum and jones_specialization, and the poly helpers they call,
    expand powers of the curve binomial by Horner's rule: none of them adds
    term by term through add_entry, computes a binomial by comb or builds a
    curve_binomial_terms list."""
    poly = ast.parse((PACKAGE / "poly.py").read_text())
    helpers = _functions(poly)
    (jk_class,) = [n for n in poly.body if isinstance(n, ast.ClassDef) and n.name == "JKPoly"]
    routes = {
        "_state_sum": _functions(ast.parse((PACKAGE / "invariants.py").read_text()))["_state_sum"],
        "jones_specialization": _functions(jk_class)["jones_specialization"],
    }
    found = []
    for route, node in routes.items():
        called = [helpers[name] for name in sorted(_names(node) & set(helpers))]
        named = set().union(*map(_names, [node, *called]))
        found += [f"{route} names {name}" for name in ("add_entry", "comb", "curve_binomial_terms") if name in named]
    assert found == []


def _module_names(tree: ast.Module):
    """(line, name) of each name bound at the top level of `tree`."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.lineno, top.name
        elif isinstance(top, (ast.Import, ast.ImportFrom)):
            yield from ((top.lineno, alias.asname or alias.name) for alias in top.names)
        elif isinstance(top, ast.Assign):
            yield from ((top.lineno, t.id) for t in top.targets if isinstance(t, ast.Name))


def _root_chases(tree: ast.AST):
    """The `while a[x] != x` loops in `tree`, which walk x up to its
    union-find root."""
    for node in ast.walk(tree):
        if isinstance(node, ast.While) and isinstance(node.test, ast.Compare):
            test = node.test
            sides = [test.left, *test.comparators]
            names = {ast.unparse(side) for side in sides if isinstance(side, ast.Name)}
            slots = {ast.unparse(side.slice) for side in sides if isinstance(side, ast.Subscript)}
            if [type(op) for op in test.ops] == [ast.NotEq] and names & slots:
                yield node


def test_one_union_find():
    """UndoableUnionFind is the package's one union-find: no module binds
    the names of another, and no code outside it chases a root by hand."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        found.extend(
            f"{path.name}:{line} binds {name}"
            for line, name in _module_names(tree)
            if name in ("find_root", "_join", "union_roots")
        )
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
        allowed = {id(loop) for cls in classes if cls.name == "UndoableUnionFind" for loop in _root_chases(cls)}
        found.extend(
            f"{path.name}:{loop.lineno} chases a union-find root"
            for loop in _root_chases(tree)
            if id(loop) not in allowed
        )
    assert found == []


def test_the_public_list_names_no_fast_submodule():
    """`slinv.__all__` lists the public names and the oracle's, and of the
    submodules only `homology`, so `from slinv import *` binds no fast
    module."""
    modules = {name for name in dir(slinv) if type(getattr(slinv, name)) is type(slinv)}
    assert {"diagram", "errors", "invariants", "poly", "ribbon"} <= modules
    assert modules & set(slinv.__all__) <= {"homology"}
    assert {"homology", *slinv._ORACLE, "full_report", "DEFAULT_CAP", "CombinatorialMap"} <= set(slinv.__all__)
    assert slinv.__all__ == sorted(set(slinv.__all__))
    assert all(hasattr(slinv, name) for name in slinv.__all__)


def test_one_function_reads_the_line_formats():
    """Both parsers and the CLI's format detection drop comments through one
    reader: `split("#"` appears in one function of the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and 'split("#"' in ast.get_source_segment(source, node):
                found.append(f"{path.name}:{node.name}")
    assert found == ["ribbon.py:format_lines"]


def test_the_cli_builds_no_verdict_list():
    """A map's verdict rows come from invariants.map_verdicts alone, so a map
    report and a diagram report list them the same way."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    assert "_map_verdicts" not in _functions(tree)
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"_tutte_verdict", "_loop_deletion_verdict"}


def test_one_crossing_cap_check():
    """The crossing cap is refused by diagram.check_crossing_cap alone, in
    one wording: `exceed the cap of` appears once in the package."""
    found = [
        (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, text in enumerate(path.read_text().splitlines(), 1)
        if "exceed the cap of" in text
    ]
    check = _functions(ast.parse((PACKAGE / "diagram.py").read_text()))["check_crossing_cap"]
    assert [(name, check.lineno <= line <= check.end_lineno) for name, line in found] == [("diagram.py", True)]


def test_the_analysis_decides_the_unknot_once():
    """DiagramAnalysis compares `crossings == 0` only in tait, which gives
    the 0-crossing unknot its edgeless Tait graphs, and in colorable."""
    tree = ast.parse((PACKAGE / "invariants.py").read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "DiagramAnalysis"]
    found = sorted(
        name
        for name, method in _functions(cls).items()
        for node in ast.walk(method)
        if isinstance(node, ast.Compare)
        and ast.unparse(node.left).endswith("crossings")
        and [type(op) for op in node.ops] == [ast.Eq]
        and ast.unparse(node.comparators[0]) == "0"
    )
    assert found == ["colorable", "tait"]


def test_the_cli_keeps_no_report_policy():
    """The volume policy and the crossing cap are decided in the library:
    cli.py names neither the formal-bounds note, volume_bounds nor a
    private cap check."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    named = _names(tree) | imported
    assert named & {"FORMAL_BOUNDS_NOTE", "volume_bounds", "_check_crossing_cap"} == set()


def _owners(tree: ast.Module):
    """(qualified name of the function or class member, node) of every node
    below a top-level def or class of `tree`."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for member in top.body:
                for node in ast.walk(member):
                    yield f"{top.name}.{getattr(member, 'name', '')}", node
        elif isinstance(top, ast.FunctionDef):
            for node in ast.walk(top):
                yield top.name, node


def test_one_face_walk_in_the_fast_path():
    """The fast path has one model of a subgraph's curves, the medial walk:
    in ribbon.py only CombinatorialMap.__init__, which finds the faces,
    steps sigma[alpha[...]], and subgraph_numbers keeps no boundary walk of
    its own beside the oracle's."""
    tree = ast.parse((PACKAGE / "ribbon.py").read_text())
    steppers = {
        owner
        for owner, node in _owners(tree)
        if isinstance(node, ast.Subscript)
        and ast.unparse(node.value).endswith("sigma")
        and isinstance(node.slice, ast.Subscript)
        and ast.unparse(node.slice.value).endswith("alpha")
    }
    assert steppers == {"CombinatorialMap.__init__"}


def test_the_reduced_flags_come_from_the_analysis():
    """diagram.reduced_flags reads DiagramAnalysis.flags: diagram.py keeps
    no tait_flags and imports neither edge_kernels nor trivial_loops."""
    tree = ast.parse((PACKAGE / "diagram.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "tait_flags" not in _functions(tree)
    assert imported & {"edge_kernels", "trivial_loops"} == set()


def test_one_expansion_of_the_curve_binomial():
    """Powers of the curve binomial are expanded by curve_binomial_sum
    alone: no module of the package defines curve_binomial_terms."""
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "curve_binomial_terms" in _functions(ast.parse(path.read_text()))
    ]
    assert found == []


def test_cli_writes_json_without_the_indenting_encoder():
    """With indent set, json.dumps takes the pure-Python encoder; cli prints
    --json through its own writer and calls json.dumps with no indent."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith("dumps")
        and any(k.arg == "indent" for k in node.keywords)
    ]
    assert found == []
