"""The layout of the library: no public name in src/fermatarr that only
tests use, and no cache without a bound.

A public function, class or method, or a public module-level name bound
by an assignment, is used when its name occurs outside its own
definition: as a name, an attribute or an imported name anywhere in
src/fermatarr (so every name fermatarr/__init__.py imports is used), or
in perfbench/, where a string holding the name also counts, since the
tracer patches functions by name.  Names match as identifiers only, so a
method is used when any attribute of that name is read.  The check
therefore finds the leaves of the unused code; removing one can leave
another for the next run to find.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import fermatarr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fermatarr"
PERFBENCH = ROOT / "perfbench"

# module.name -> why it stays with no caller in src/ or perfbench/
ALLOWED = {
    "arrange.Arrangement.defining_polynomial":
        "the arrangement's defining form f, whose minimal degree of a "
        "Jacobian syzygy mdr(f) the freeness certificate of ROADMAP item 4 "
        "reads",
}


def _definitions(tree: ast.Module):
    """(qualified name, node) of each public definition of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_")):
                        yield f"{node.name}.{sub.name}", sub
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, node


def _references(tree: ast.Module, strings: bool):
    """(identifier, line) of each name, attribute and imported name, and
    with strings, of each string constant that is an identifier."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()):
            yield node.value, node.lineno


def unused_public_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))}
    uses: dict[str, list] = {}
    for path, tree in trees.items():
        for name, line in _references(tree, strings=path.parent == PERFBENCH):
            uses.setdefault(name, []).append((path, line))
    unused = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for qualname, node in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            name = qualname.rpartition(".")[2]
            if not any(where != path or line not in own
                       for where, line in uses.get(name, ())):
                unused.append(f"{path.stem}.{qualname}")
    return unused


def test_no_public_name_is_used_only_by_tests():
    unused = set(unused_public_names())
    assert sorted(unused - set(ALLOWED)) == []
    # an exception that gains a caller leaves the list
    assert set(ALLOWED) <= unused


def test_every_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(fermatarr.__path__):
        module = importlib.import_module(f"fermatarr.{info.name}")
        for owner in [module] + [v for v in vars(module).values()
                                 if isinstance(v, type)]:
            for value in vars(owner).values():
                if hasattr(value, "cache_info"):
                    caches[value.__qualname__] = value
    assert len(caches) >= 8  # the five in cyclo, one in mpoly, two in scheme
    assert [name for name, fn in caches.items()
            if fn.cache_info().maxsize is None] == []


def test_every_traced_name_exists_where_the_tracer_patches_it():
    # perfbench/tracing.py wraps each function by (owner, attribute name);
    # a rename in src/ would otherwise surface only in a traced run
    spec = importlib.util.spec_from_file_location("tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [site for table in (tracing.SPANS, tracing.COUNTERS)
             for sites in table.values() for site in sites]
    assert len(sites) > 20
    assert [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in sites
            if attr not in owner.__dict__] == []
