"""Parameter defaults across src/holonsim are a tracked number, and every
function and class there is used there.

Each default is a second way to call a function, so every one must be
used both ways in src/. A change that adds one lists it here and says
why in CHANGES.md. A function or class that nothing in src/ refers to is
API surface no part of the program needs.
"""

import ast
import collections
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "holonsim"

DEFAULTS = {"read_wav.target_rate", "_checked_fields.required", "main.argv"}


def defaulted_parameters(tree: ast.AST, scope: str = "") -> set:
    """'scope.function.param' for each parameter with a default."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = scope + node.name
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [a for a, d in zip(args.kwonlyargs,
                                               args.kw_defaults)
                             if d is not None]
            found |= {f"{name}.{a.arg}" for a in with_default}
            found |= defaulted_parameters(node, name + ".")
        elif isinstance(node, ast.ClassDef):
            found |= defaulted_parameters(node, scope + node.name + ".")
        else:
            found |= defaulted_parameters(node, scope)
    return found


def test_parameter_defaults_are_the_tracked_set():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= defaulted_parameters(ast.parse(path.read_text()))
    assert found == DEFAULTS


def test_defaults_are_found_in_every_form():
    tree = ast.parse(
        "def f(a, b=1, *, c, d=2): pass\n"
        "class K:\n"
        "    def m(self, e=3):\n"
        "        def inner(g, h=4): pass\n"
        "if True:\n"
        "    async def w(i=5): pass\n")
    assert defaulted_parameters(tree) == {"f.b", "f.d", "K.m.e",
                                          "K.m.inner.h", "w.i"}


def loaded_names(tree: ast.AST) -> collections.Counter:
    """How often each name is read under tree, as a variable or as an
    attribute; an import binds a name and reads none."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load))


def unused_definitions(trees: list) -> list:
    """The functions and classes, dunder methods aside, whose name is read
    nowhere in the trees outside their own definition."""
    loads = sum(map(loaded_names, trees), collections.Counter())
    unused = []
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))
                    and loads[node.name] == loaded_names(node)[node.name]):
                unused.append(node.name)
    return unused


def test_every_function_and_class_is_used_in_src():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert unused_definitions(trees) == []


def test_unused_definitions_are_found_in_every_form():
    trees = [ast.parse(
        "import os\n"
        "from x import imported\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def called(): pass\n"
        "class K:\n"
        "    def __init__(self): pass\n"
        "    def method(self): return self.method()\n"
        "    async def used(self): pass\n"
        "    def unused(self): pass\n"),
        ast.parse("import imported\ncalled(); K().used()\n")]
    assert unused_definitions(trees) == ["recursive", "method", "unused"]
