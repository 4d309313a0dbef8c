"""Every import site the benchmark tracer wraps must exist, every
definition of the package, top-level or a class member, must be reachable
from its users, every name a module imports must be used, the label-string
rules and the integer lift each live in one module, only the witness walk
reads every orientation sign, and the package holds no ``assert``
statement.

``bench/tracing.py`` replaces attributes of tverlab modules by name; one that
a refactor removed would otherwise show only in the slow traced bench run.
The reachability walk starts from the CLI entry point, the names the
benchmark imports and the traced sites, and follows names through the
bodies of the definitions it reaches.  A name counts as a use of every
top-level definition that has it, and an attribute read ``x.name`` as a use
of every class member called ``name``; a parameter or local never keeps a
member alive.  The walk can miss dead code; it would flag a live member
that only a computed read reaches (``getattr(x, var)``,
``dataclasses.asdict``), and no member is reached only that way today.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
SITES = sorted(
    {(path, attr) for path, attr, *_ in tracing.SPANS + tracing.COUNTED_CALLS
     + tracing.COUNTED_YIELDS}
)


@pytest.mark.parametrize("path, attr", SITES)
def test_trace_site_resolves(path, attr):
    assert callable(getattr(tracing._resolve(path), attr))


#: what runs the package from outside: the CLI and the benchmark's imports
ROOTS = {"main", "SearchStrategy", "alpha_candidates"} | {attr for _, attr in SITES}


def _member_name(node):
    """Name of a method or annotated field of a class body; None for any
    other statement and for dunders, which Python calls itself and which are
    walked with their class."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        name = node.name
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        name = node.target.id
    else:
        return None
    return None if name.startswith("__") and name.endswith("__") else name


def _definitions():
    """``(name, path, node, owner)`` for every top-level statement of the
    modules (``__init__`` only re-exports) and every member of their classes;
    ``owner`` is the index of a member's class.  ``name`` is None for a
    statement that defines nothing and runs at import, so everything it names
    is used."""
    found = []
    for path in sorted((ROOT / "src" / "tverlab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                owner = len(found)
                body = [m for m in node.body if _member_name(m) is None]
                found.append((node.name, path, ast.ClassDef(**{**vars(node), "body": body}), None))
                found += [(_member_name(m), path, m, owner)
                          for m in node.body if _member_name(m) is not None]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((node.name, path, node, None))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    found.append((getattr(target, "id", None), path, node, None))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                found.append((None, path, node, None))
    return found


def _uses_in(node):
    """``(names, attributes)`` that a statement uses: every name it mentions,
    and those of them it reads as an attribute (``x.name``)."""
    names, attributes = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            attributes.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)  # forward references such as "PointSet"
    return names | attributes, attributes


def test_every_definition_is_reachable():
    # a top-level definition is reached once its name is used; a class
    # member once its class is reached and its name is read as an attribute,
    # so a parameter or local of the same name does not keep it alive
    definitions = _definitions()
    used, attributes, reached = set(ROOTS), set(ROOTS), set()
    grown = True
    while grown:
        grown = False
        for i, (name, _, node, owner) in enumerate(definitions):
            if i in reached or (owner is not None and owner not in reached):
                continue
            if name is None or name in (used if owner is None else attributes):
                reached.add(i)
                names, attrs = _uses_in(node)
                used |= names
                attributes |= attrs
                grown = True
    unreached = [
        f"{path.relative_to(ROOT)}:{node.lineno} {name}"
        for i, (name, path, node, _) in enumerate(definitions)
        if i not in reached
    ]
    assert not unreached, "unreachable from the CLI and the benchmark:\n" + "\n".join(unreached)


def _imports(tree):
    """``(name, lineno)`` for every name an import of the module binds;
    ``from __future__`` features bind none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)


def test_every_import_is_used():
    # no linter runs in CI; a name the tracer wraps where it is imported
    # stays though the module never reads it (``__init__`` only re-exports)
    unused = []
    for path in sorted((ROOT / "src" / "tverlab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.relative_to(ROOT)}:{lineno} {name}"
            for name, lineno in _imports(tree)
            if name not in read and (f"tverlab.{path.stem}", name) not in SITES
        ]
    assert not unused, "imported and never used:\n" + "\n".join(unused)


def test_label_strings_live_in_one_module():
    # labels.py reads strings, not geometry: it imports no other module of
    # the package but errors; no other module defines a run or pair DP; and
    # search and cli turn labels into blocks, and build the alternating
    # labels, through it rather than by slices of their own
    trees = {path.stem: ast.parse(path.read_text())
             for path in (ROOT / "src" / "tverlab").glob("*.py")}

    def imported(tree):
        return {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}

    assert {module for module, _ in imported(trees["labels"])} == {"errors"}
    assert not any(isinstance(node, ast.Import) and node.names[0].name.startswith("tverlab")
                   for node in ast.walk(trees["labels"]))
    dp = ("_run_step", "_read", "_fewest_deletions", "pair_bound", "pair_breaking_set")
    owners = {stem for stem, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name in dp}
    assert owners == {"labels"}
    for stem in ("search", "cli"):
        names = imported(trees[stem])
        assert ("labels", "split") in names, stem
        assert all(module == "labels" for module, name in names
                   if name == "split" or name in ("alternating_labels", "alternating_partition"))
        assert not any(isinstance(node, ast.Slice) and node.step is not None
                       for node in ast.walk(trees[stem])), stem


def test_the_lift_lives_in_one_module():
    # a payload decodes to the rationals it was written from, and each
    # certificate lifts them in its own replay: pointset_io imports no lift
    # or weighting, and only kernel.scale_to_integers splits a rational into
    # its integer pair, so no second, pair-based lift exists
    trees = {path.stem: ast.parse(path.read_text())
             for path in (ROOT / "src" / "tverlab").glob("*.py")}
    imported = {alias.name for node in ast.walk(trees["pointset_io"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"scale_columns", "scale_to_integers", "weigh_multipliers"}
    splitters = {(stem, top.name) for stem, tree in trees.items() for top in tree.body
                 for node in ast.walk(top)
                 if isinstance(node, ast.Attribute) and node.attr == "as_integer_ratio"}
    assert splitters == {("kernel", "scale_to_integers")}


def test_only_the_witness_walk_reads_orientation_signs():
    # the homogeneity verdict is the positivity test's alone: the walk over
    # every subset is named only where homog asks for a witness and where
    # orientation reads its one subset
    trees = {path.stem: ast.parse(path.read_text())
             for path in (ROOT / "src" / "tverlab").glob("*.py")}
    readers = {(stem, top.name) for stem, tree in trees.items() for top in tree.body
               for node in ast.walk(top)
               if getattr(node, "id", getattr(node, "attr", None)) == "orientation_signs"}
    assert readers == {("ordertype", "homogeneity_witness"), ("kernel", "orientation")}


def test_no_assert_statements():
    # python -O strips assert statements, so control flow must not use them
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "tverlab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements in the package:\n" + "\n".join(found)
