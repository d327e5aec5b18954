"""The package exercises its own code: every top-level function, public or
private, has a caller in the package, every method and property a use,
every defaulted parameter a call that passes it, and every parameter of a
definition a read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "diraclab"
#: what the package itself leaves unexercised, each with its reason: a
#: function (module, function) with no caller, a method or property
#: (module, "Class.name") with no use, or a defaulted parameter
#: (module, function, parameter) that no call passes
EXEMPT = {
    ("solver", "load_field"): "the public counterpart of `solve --out`",
    ("fields", "PolyField.norm"): "the one-field reference that the bitwise tests of "
                                  "`keyed_norms` and `member_norms` compare against",
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
    exempt = {key for key in EXEMPT if len(key) == 2 and "." not in key[1]}
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


def _methods(trees):
    """The methods and properties of the package's classes, dunders aside,
    by (module, "Class.name")."""
    return {(name, f"{cls.name}.{node.name}"): node
            for name, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")}


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def test_every_method_has_a_use_in_the_package():
    # an attribute `x.name` uses every method or property called name, unless
    # x is a module (np.linalg.norm uses no PolyField.norm) or the use sits in
    # the method itself; one that only the tests reach belongs in
    # tests/conftest.py, as a function
    trees = _modules()
    methods = _methods(trees)
    uses = []  # (module, attribute name, the attribute node's id)
    for name, tree in trees.items():
        if name == "__init__":
            continue
        modules = {alias.asname or alias.name.partition(".")[0] for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
                   if isinstance(node, ast.Import) or node.module is None}
        uses += [(name, attr.attr, id(attr)) for attr in ast.walk(tree)
                 if isinstance(attr, ast.Attribute)
                 and not (isinstance(_root(attr), ast.Name) and _root(attr).id in modules)]
    used = set()
    for (mod, qualified), node in methods.items():
        inside = set(map(id, ast.walk(node)))
        if any(attr == qualified.split(".")[1] and not (name == mod and at in inside)
               for name, attr, at in uses):
            used.add((mod, qualified))
    exempt = {key for key in EXEMPT if len(key) == 2 and "." in key[1]}
    assert methods, SRC
    assert exempt <= set(methods) - used
    unused = sorted(".".join(key) for key in set(methods) - used - exempt)
    assert not unused, f"methods and properties with no use in the package: {unused}"


def test_every_parameter_is_read():
    # a parameter that its definition never reads is one no call needs; a
    # `del` of it counts as a read, since it states that the value is unused
    unread = []
    for name, tree in _modules().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Load, ast.Del))}
            unread += [f"{name}.{fn.name}({p})" for p in params if p not in read]
    assert not unread, f"parameters their definition never reads: {unread}"
