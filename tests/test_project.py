"""Checks on the project's own files: the README's library example runs,
the package keeps its invariants out of `assert` statements, which
`python -O` strips, every exported name is used inside the package,
polynomials skip validation only through `MPoly`'s one trusted constructor,
tree nodes skip the NamedTuple constructor only through `wtree` and
`wbtree`, each called with a tuple of its type's arity,
the three error types of `errors.py` are the only ones, the tree invariants
are stated once, the verify checks share one enumeration pass, only the
CLI's `main` writes to stderr and reads --format and --out, and only the
bridge modules import both the tree side and the algebra side."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_block_runs():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["count_trees"](namespace["m"]) == 18
    gamma = namespace["gamma_expand"](namespace["reduced"], namespace["m"].size)
    assert gamma == {(0, 0): 1, (0, 1): 8, (1, 0): 3}


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "witrees").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_exported_name_is_used_inside_the_package():
    """A name in `witrees.__all__` that no other package module reads is a
    helper only the tests call."""
    import witrees

    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in sorted((ROOT / "src" / "witrees").glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert sorted(set(witrees.__all__) - used) == []


def _scopes_where(match):
    """`module.Class.function` of each node of the package that `match`
    accepts, in file order."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if match(node):
            sites.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted((ROOT / "src" / "witrees").glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return sites


def test_mpoly_new_is_called_only_by_the_trusted_constructor():
    """`MPoly.__new__` skips the checks of `MPoly.__init__`, so only
    `MPoly._raw` may call it and every other fast path goes through there."""
    sites = _scopes_where(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == "__new__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "MPoly"
    )
    assert sites == ["mpoly.MPoly._raw"]


def test_tuple_new_builds_nodes_only_through_the_checked_constructors():
    """`tuple.__new__` skips the arity check of `WTree` and `WBTree`, so it
    is named only where `trees.wtree` and `binary.wbtree` are defined, and
    every use of those is a call on one tuple display of the type's arity:
    (label, children) and (label, left, right)."""
    arity = {"wtree": 2, "wbtree": 3}
    defined, named, checked, unchecked = [], 0, 0, []
    for path in sorted((ROOT / "src" / "witrees").glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        named += sum(ast.unparse(n) == "tuple.__new__" for n in nodes if isinstance(n, ast.Attribute))
        defined += [f"{path.stem}.{ast.unparse(n.targets[0])}" for n in nodes
                    if isinstance(n, ast.Assign) and "tuple.__new__" in ast.unparse(n.value)]
        calls = {
            id(n.func) for n in nodes
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in arity
            and not n.keywords and len(n.args) == 1 and isinstance(n.args[0], ast.Tuple)
            and len(n.args[0].elts) == arity[n.func.id]
            and not any(isinstance(e, ast.Starred) for e in n.args[0].elts)
        }
        checked += len(calls)
        unchecked += [f"{path.name}:{n.lineno}" for n in nodes if isinstance(n, ast.Name) and n.id in arity
                      and isinstance(n.ctx, ast.Load) and id(n) not in calls]
    assert sorted(defined) == ["binary.wbtree", "trees.wtree"] and named == 2
    assert checked and unchecked == []


def test_only_the_plane_tree_validator_and_rho_inv_raise_invalid_tree_error():
    """A binary tree is valid exactly when its plane tree under `rho_inv` is,
    so `trees.validate_tree` states the invariants for both tree forms and
    `rho_inv` adds only the one a plane tree cannot break."""
    sites = _scopes_where(
        lambda node: isinstance(node, ast.Raise)
        and node.exc is not None
        and any(isinstance(n, ast.Name) and n.id == "InvalidTreeError" for n in ast.walk(node.exc))
    )
    assert set(sites) == {"trees.validate_tree", "binary.rho_inv"}



def test_verify_enumerates_and_walks_only_in_the_shared_pass():
    """In `verify`, only the pass enumerates a multiset, besides the series
    and closed-form checks over {1^k}, and only `Facts` walks a tree: no
    check keeps a private enumeration loop."""

    def sites(name):
        return {site for site in _scopes_where(lambda node: isinstance(node, ast.Name) and node.id == name)
                if site.startswith("verify.")}

    assert sites("iter_trees") == {"verify._run_shard", "verify.check_series", "verify.check_closed_forms"}
    assert sites("stats") == {"verify.Facts.__init__"}


# every module of the package, by side: a new module must be placed here
ROUTE_MAP = {
    "tree": {"trees", "enumeration", "transforms", "binary"},
    "algebra": {"mpoly", "grammar", "series", "counts", "jacobi", "realroots", "gamma"},
    "neutral": {"errors", "multiset"},
    "bridge": {"census", "verify", "cli"},
    "exports": {"__init__"},
}


def _package_imports():
    """(module, imported module, inside a function) for every `from .x
    import` of the package."""
    found = []

    def visit(node, module, nested):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.append((module, node.module, nested))
        nested = nested or isinstance(node, ast.FunctionDef)
        for child in ast.iter_child_nodes(node):
            visit(child, module, nested)

    for path in sorted((ROOT / "src" / "witrees").glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, False)
    return found


def test_route_map_keeps_trees_and_algebra_apart():
    """The two routes to a polynomial meet only in the bridge: algebra
    modules import no tree module and tree modules no algebra module, so
    the census by trees and the grammar stay independent, and only
    `census`, `verify` and `cli` (and the export list) import both sides.
    No package import sits inside a function."""
    side = {module: name for name, modules in ROUTE_MAP.items() for module in modules}
    imports = _package_imports()
    modules = {path.stem for path in (ROOT / "src" / "witrees").glob("*.py")}
    assert sorted(modules ^ side.keys()) == []
    reads = {module: set() for module in modules}
    for module, target, _ in imports:
        reads[module].add(side[target])
    assert sorted(m for m in ROUTE_MAP["algebra"] if "tree" in reads[m]) == []
    assert sorted(m for m in ROUTE_MAP["tree"] if "algebra" in reads[m]) == []
    both = {m for m, sides in reads.items() if {"tree", "algebra"} <= sides}
    assert both == ROUTE_MAP["bridge"] | ROUTE_MAP["exports"]
    assert [(m, t) for m, t, nested in imports if nested] == []


def test_errors_py_defines_the_only_exception_classes():
    """A bug, malformed tree text and an invalid tree each have one type;
    every other usage error is a plain `ValueError`."""
    found = sorted(
        f"{path.stem}.{node.name}"
        for path in sorted((ROOT / "src" / "witrees").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).endswith(("Error", "Exception")) for base in node.bases)
    )
    assert found == ["errors.InternalError", "errors.InvalidTreeError", "errors.TreeSyntaxError"]


def _cli_functions_using(attribute):
    """The top-level definitions of `cli.py` that mention `attribute`."""
    tree = ast.parse((ROOT / "src" / "witrees" / "cli.py").read_text())
    return {
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and ast.unparse(node) == attribute
    }


def test_only_cli_main_writes_to_stderr():
    """Usage errors leave through the one handler in `main`, which prints
    them after `error:` and exits 2."""
    assert _cli_functions_using("sys.stderr") == {"main"}


def test_only_cli_main_reads_format_and_out():
    """Each subcommand returns its output in both forms, unbuilt, and `main`
    alone renders the one --format asks for and writes it to --out."""
    assert _cli_functions_using("args.format") == _cli_functions_using("args.out") == {"main"}
