"""Parameter defaults across src/holonsim are a tracked number.

Each default is a second way to call a function, so every one must be
used both ways in src/. A change that adds one lists it here and says
why in CHANGES.md.
"""

import ast
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
