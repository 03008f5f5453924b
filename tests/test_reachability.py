"""Every module-level function and class of dccsim is reached from code that
the package or its benchmark runs, not only from the tests.

A definition is reached when its name appears, as an ast.Name or as an
ast.Attribute, in the module-level code of src/dccsim outside every
definition, anywhere in perfbench/, or inside a definition already reached.
A second route to a result that only the tests call belongs in
tests/oracles.py.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read_sources() -> tuple[dict[str, str], list[str]]:
    """The dccsim modules by name, and the perfbench sources."""
    modules = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "dccsim").glob("*.py"))}
    bench = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    return modules, bench


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


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


def test_every_definition_is_reached():
    assert unreached(*read_sources()) == []


def test_a_definition_only_tests_call_is_flagged():
    modules, bench = read_sources()
    # A reference route, a helper only it calls, and a recursive one: none
    # is reached, though each name appears in some node.
    modules["f2"] += "\n\ndef fwht_direct(values):\n    return _pairs(values)\n"
    modules["f2"] += "\n\ndef _pairs(values):\n    return values\n"
    modules["noise"] += "\n\ndef p_f_given_e(prop, alpha):\n    return p_f_given_e(prop, alpha - 1)\n"
    assert unreached(modules, bench) == ["f2._pairs", "f2.fwht_direct", "noise.p_f_given_e"]
