"""Every module-level function and class of dccsim is reached from code that
the package or its benchmark runs, not only from the tests.

A definition is reached when its name appears, as an ast.Name or as an
ast.Attribute, in the module-level code of src/dccsim outside every
definition, anywhere in perfbench/, or inside a definition already reached.
A second route to a result that only the tests call belongs in
tests/oracles.py.

A method or property of a dccsim class is reached when src names it outside
its own body, or when perfbench/ names it as a name, an attribute or a string
constant (its tracer wraps methods by name). Dunder methods, which Python
calls, and the argparse override that argparse calls are exempt.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read_sources() -> tuple[dict[str, str], list[str]]:
    """The dccsim modules by name, and the perfbench sources."""
    modules = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "dccsim").glob("*.py"))}
    bench = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    return modules, bench


def _name_counts(node: ast.AST) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _names(node: ast.AST) -> set[str]:
    return set(_name_counts(node))


def unreached(modules: dict[str, str], bench: list[str]) -> list[str]:
    """The module-level definitions, as "module.name", that nothing reaches."""
    defs = {}
    used = set()
    for stem, text in modules.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[f"{stem}.{node.name}"] = node
            else:
                used |= _names(node)
    for text in bench:
        used |= _names(ast.parse(text))
    while hit := [key for key, node in defs.items() if node.name in used]:
        for key in hit:
            used |= _names(defs.pop(key))
    return sorted(defs)


# Members that their framework calls by name: argparse calls error().
CALLED_BY_FRAMEWORK = {"cli._Parser.error"}


def unreached_members(modules: dict[str, str], bench: list[str]) -> list[str]:
    """The methods and properties of module-level classes, as
    "module.Class.name", that nothing reaches."""
    trees = {stem: ast.parse(text) for stem, text in modules.items()}
    src_names = sum((_name_counts(tree) for tree in trees.values()), Counter())
    bench_names = set()
    for text in bench:
        tree = ast.parse(text)
        bench_names |= _names(tree)
        bench_names |= {n.value for n in ast.walk(tree)
                        if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    out = []
    for stem, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name, key = member.name, f"{stem}.{cls.name}.{member.name}"
                if name.startswith("__") and name.endswith("__") or key in CALLED_BY_FRAMEWORK:
                    continue
                if name in bench_names or src_names[name] > _name_counts(member)[name]:
                    continue
                out.append(key)
    return sorted(out)


def test_every_definition_is_reached():
    assert unreached(*read_sources()) == []


def test_every_member_is_reached():
    assert unreached_members(*read_sources()) == []


def test_a_definition_only_tests_call_is_flagged():
    modules, bench = read_sources()
    # A reference route, a helper only it calls, and a recursive one: none
    # is reached, though each name appears in some node.
    modules["f2"] += "\n\ndef fwht_direct(values):\n    return _pairs(values)\n"
    modules["f2"] += "\n\ndef _pairs(values):\n    return values\n"
    modules["noise"] += "\n\ndef p_f_given_e(prop, alpha):\n    return p_f_given_e(prop, alpha - 1)\n"
    assert unreached(modules, bench) == ["f2._pairs", "f2.fwht_direct", "noise.p_f_given_e"]


def test_a_member_only_tests_call_is_flagged():
    modules, bench = read_sources()
    # A method named nowhere else, a property that names only itself, a
    # method perfbench wraps by string, and one another method calls.
    planted = (
        "\n\nclass Planted:\n"
        "    def only_tests(self):\n        return 0\n\n"
        "    @property\n    def recursive(self):\n        return self.recursive\n\n"
        "    def traced(self):\n        return 0\n\n"
        "    def helper(self):\n        return 0\n\n"
        "    def caller(self):\n        return self.helper()\n\n"
        "    def __repr__(self):\n        return ''\n"
    )
    modules["f2"] += planted
    bench = bench + ["wrap(f2.Planted, 'traced', 'f2.traced')\n"]
    assert unreached_members(modules, bench) == ["f2.Planted.caller", "f2.Planted.only_tests",
                                                 "f2.Planted.recursive"]
