"""Every public function of the package has a caller in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "diraclab"
#: public functions with no caller in the package, each with its reason
UNCALLED = {
    ("solver", "load_field"): "the public counterpart of `solve --out`",
}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _references(name, tree):
    """The (module, function) pairs that module `name` refers to, each with
    the top-level definition it sits in (None outside any).

    A bare name refers to the module's own function of that name or to one
    imported from a sibling module; an attribute ``D.f`` refers to function f
    of a sibling module D imported by name.  Import statements themselves are
    not references."""
    functions, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    functions[local] = (node.module, alias.name)
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            functions.setdefault(top.name, (name, top.name))
    out = set()
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in functions:
                out.add((functions[node.id], owner))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                out.add(((modules[node.value.id], node.attr), owner))
    return out


def test_every_public_function_has_a_caller_in_the_package():
    # a public function that only the tests reach belongs in tests/conftest.py;
    # the package's own __init__ re-exports names and calls none of them
    trees = _modules()
    public = {(name, node.name) for name, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for name, tree in trees.items():
        if name != "__init__":
            called |= {target for target, owner in _references(name, tree)
                       if target != (name, owner)}
    assert public, SRC
    assert set(UNCALLED) <= public - called
    uncalled = sorted(f"{mod}.{fn}" for mod, fn in public - called - set(UNCALLED))
    assert not uncalled, f"public functions with no caller in the package: {uncalled}"
