"""Every top-level definition of src/quiverforge is reachable from what a
command runs: cli.main and catalog.check_root (the catalog's per-root
worker, which perfbench also calls directly).

The modules are read with ast, not imported.  A definition is a top-level
def, class or assignment; reaching one marks every Name and Attribute in
it (decorators, annotations and class bodies included) as reached, with
`from .module import name` and `from . import module` followed into the
sibling module.  Helpers that only tests use belong in tests/.
"""

import ast
import os

import quiverforge

PACKAGE = os.path.dirname(quiverforge.__file__)
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
ROOTS = [("cli", "main"), ("catalog", "check_root")]

# Definitions no command reaches, kept because perfbench reads them: each
# maps to the perfbench file and the name in it that keeps the definition.
KEPT = {
    # sigma_bar and sigma_under are the only users of functors' hom_dim import
    ("functors", "sigma_bar"): ("tests/test_perfbench.py", "functors.hom_dim"),
    ("functors", "sigma_under"): ("tests/test_perfbench.py", "functors.hom_dim"),
    ("three_vertex", "predicted_end_dim"): ("tests/test_perfbench.py", "predicted_end_dim"),
    # appended to check_root's task
    ("catalog", "DEFAULT_ORACLE_BUDGET"): ("workloads.py", "DEFAULT_ORACLE_BUDGET"),
}


def _modules():
    """{module: (definitions {name: node}, imports {local name: (module, name or None)})}."""
    out = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        with open(os.path.join(PACKAGE, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        defs, imports = {}, {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            defs[n.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (node.module, alias.name) if node.module else (alias.name, None)
                    imports[alias.asname or alias.name] = target
        out[fname[:-3]] = (defs, imports)
    return out


def _definitions_and_reached():
    """Every (module, name) defined, and those reached from ROOTS."""
    mods = _modules()

    def resolve(mod, name):
        """The (module, definition) a name in mod stands for, following
        imports, or ("module", m) for a sibling module m, or None if the
        name is external or local to a function."""
        while True:
            defs, imports = mods[mod]
            if name in defs:
                return mod, name
            if name not in imports:
                return None
            mod, name = imports[name]
            if name is None:
                return "module", mod

    reached, todo = set(), list(ROOTS)
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        mod, name = key
        for n in ast.walk(mods[mod][0][name]):
            hit = None
            if isinstance(n, ast.Name):
                hit = resolve(mod, n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                base = resolve(mod, n.value.id)
                if base and base[0] == "module":
                    hit = resolve(base[1], n.attr)
            if hit and hit[0] != "module":
                todo.append(hit)
    defined = {(mod, name) for mod, (defs, _) in mods.items() for name in defs}
    return defined, reached


def test_every_definition_is_reached_from_a_command():
    defined, reached = _definitions_and_reached()
    assert sorted(defined - reached - KEPT.keys()) == []
    # each exception still names a definition that nothing else reaches
    assert sorted(KEPT.keys() - defined) == [] and sorted(KEPT.keys() & reached) == []


def test_each_exception_is_still_read_by_perfbench():
    # the exceptions leave with the benchmark change that stops reading them
    for (mod, name), (path, read) in KEPT.items():
        with open(os.path.join(PERFBENCH, path)) as fh:
            assert read in fh.read(), f"perfbench/{path} no longer reads {read}, which keeps {mod}.{name}"
