"""The package exercises its own code: every top-level function, public or
private, has a caller in the package, and every defaulted parameter a call
that passes it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "diraclab"
#: what the package itself leaves unexercised, each with its reason: a
#: function (module, function) with no caller, or a defaulted parameter
#: (module, function, parameter) that no call passes
EXEMPT = {
    ("solver", "load_field"): "the public counterpart of `solve --out`",
    ("cli", "main", "argv"): "the console script calls main() without it, to read sys.argv",
}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _functions(trees):
    """The top-level function definitions, by (module, function)."""
    return {(name, node.name): node for name, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def _names(name, tree):
    """How module `name` names package functions: a bare name maps to its
    (module, function), its own functions' and those imported from a sibling
    module; a local module name maps to the sibling module it binds."""
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
    return functions, modules


def _target(node, functions, modules):
    """The (module, function) that expression `node` refers to, or None: a
    bare name, or an attribute ``D.f`` of a sibling module D imported by name."""
    if isinstance(node, ast.Name):
        return functions.get(node.id)
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules):
        return modules[node.value.id], node.attr
    return None


def _references(name, tree):
    """The (module, function) pairs that module `name` refers to, each with
    the top-level definition it sits in (None outside any).  Import
    statements themselves are not references."""
    functions, modules = _names(name, tree)
    out = set()
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            target = _target(node, functions, modules)
            if target is not None:
                out.add((target, owner))
    return out


def _defaulted(fn):
    """Each parameter of definition `fn` that has a default, with its
    position (None for a keyword-only one)."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = {arg.arg: i for i, arg in enumerate(positional[first:], first)}
    out.update({arg.arg: None for arg, default
                in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None})
    return out


def _passes(call, param, position):
    """Whether `call` passes `param`: by keyword, by position, or through
    ``*args`` or ``**kwargs``, which may hold anything."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    return position is not None and position < len(call.args)


def test_every_function_has_a_caller_in_the_package():
    # a function that only the tests reach belongs in tests/conftest.py; the
    # package's own __init__ re-exports names and calls none of them
    trees = _modules()
    functions = set(_functions(trees))
    called = set()
    for name, tree in trees.items():
        if name != "__init__":
            called |= {target for target, owner in _references(name, tree)
                       if target != (name, owner)}
    exempt = {key for key in EXEMPT if len(key) == 2}
    assert functions, SRC
    assert exempt <= functions - called
    uncalled = sorted(f"{mod}.{fn}" for mod, fn in functions - called - exempt)
    assert not uncalled, f"functions with no caller in the package: {uncalled}"


def test_every_default_is_passed_by_a_call_in_the_package():
    # a default that no call overrides is an option no command sets: the
    # parameter goes, and the default becomes the code
    trees = _modules()
    defaulted = {(mod, fn, param): position for (mod, fn), node in _functions(trees).items()
                 for param, position in _defaulted(node).items()}
    passed = set()
    for name, tree in trees.items():
        if name == "__init__":
            continue
        functions, modules = _names(name, tree)
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                target = _target(call.func, functions, modules)
                passed |= {key for key, position in defaulted.items()
                           if key[:2] == target and _passes(call, key[2], position)}
    exempt = {key for key in EXEMPT if len(key) == 3}
    assert defaulted, SRC
    assert exempt <= set(defaulted) - passed
    unpassed = sorted(".".join(key) for key in set(defaulted) - passed - exempt)
    assert not unpassed, f"defaulted parameters no call in the package passes: {unpassed}"
