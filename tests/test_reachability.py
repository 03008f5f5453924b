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
calls, and the argparse override that argparse calls are exempt. A field of a
dataclass is a member too, and is read only as an attribute: it is reached
when src names it as an attribute, or when perfbench/ names it. A local
variable or a keyword argument of the same name is not a read, so a field
that its class is built with but nothing reads fails. A field that only the
tests read is recorded, with its reason, in READ_BY_TESTS.

The member audit goes by name alone, so it cannot tell a member from another
attribute of the same name: a member whose name is also an attribute of
np.ndarray, or a member of another dccsim class, counts as reached wherever
src names that attribute. ndarray.copy hid three copy methods nothing called,
LabelLayout.c hid CosetMap.c, and CosetMap.n hid PauliFrame.n. The colliding
members are therefore recorded in COLLIDING_MEMBERS, and a new collision
fails until a reader has checked that the member is really reached and
added it there.
"""

import ast
import pathlib
from collections import Counter

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read_sources() -> tuple[dict[str, str], list[str]]:
    """The dccsim modules by name, and the perfbench sources."""
    modules = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "dccsim").glob("*.py"))}
    bench = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    return modules, bench


def _name_counts(node: ast.AST) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _attr_counts(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


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

# Fields that only the tests read, each kept for the reason given.
READ_BY_TESTS = {
    "noise.CosetPropagation.radical": "the input of tests/oracles.py's P(f|e), against which "
                                      "the sampler's particular solution and kernel are checked",
    "codefamily.StageCodes.t": "the level count that tests/oracles.py's certificates loop over",
    "codefamily.StageCodes.stage": "names the stage a record holds, which test_codefamily checks",
    "noise.CliffordAction.name": "names a class in its repr and in the tests' tables of classes",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def class_members(trees: dict[str, ast.Module]):
    """("module.Class", name, member) for the methods and properties of
    module-level classes, dunder methods left out, and the fields of their
    dataclasses (member is then the field's annotated assignment)."""
    for stem, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            owner, fields = f"{stem}.{cls.name}", _is_dataclass(cls)
            for member in cls.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (member.name.startswith("__") and member.name.endswith("__")):
                        yield owner, member.name, member
                elif fields and isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    yield owner, member.target.id, member


def unreached_members(modules: dict[str, str], bench: list[str]) -> list[str]:
    """The methods and properties of module-level classes, as
    "module.Class.name", that nothing reaches."""
    trees = {stem: ast.parse(text) for stem, text in modules.items()}
    src_names = sum((_name_counts(tree) for tree in trees.values()), Counter())
    src_attrs = sum((_attr_counts(tree) for tree in trees.values()), Counter())
    bench_names = set()
    for text in bench:
        tree = ast.parse(text)
        bench_names |= _names(tree)
        bench_names |= {n.value for n in ast.walk(tree)
                        if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    out = []
    for owner, name, member in class_members(trees):
        key = f"{owner}.{name}"
        if key in CALLED_BY_FRAMEWORK or key in READ_BY_TESTS or name in bench_names:
            continue
        counts, in_src = ((_attr_counts, src_attrs) if isinstance(member, ast.AnnAssign)
                          else (_name_counts, src_names))
        if in_src[name] > counts(member)[name]:
            continue
        out.append(key)
    return sorted(out)


def colliding_members(modules: dict[str, str]) -> list[str]:
    """The members, as "module.Class.name", whose name is also an attribute
    of np.ndarray or a member of another class: the audit counts them as
    reached wherever src names that attribute."""
    trees = {stem: ast.parse(text) for stem, text in modules.items()}
    members = [(owner, name) for owner, name, _ in class_members(trees)]
    owners: dict[str, set[str]] = {}
    for owner, name in members:
        owners.setdefault(name, set()).add(owner)
    ndarray = set(dir(np.ndarray))
    return sorted(f"{owner}.{name}" for owner, name in members
                  if name in ndarray or owners[name] != {owner})


# Each member here was checked by hand to be reached by code that the package
# or its benchmark runs, or to be a field that READ_BY_TESTS records. The two
# engines share one interface, which run_trial and decode-trace call on either.
COLLIDING_MEMBERS = [
    "codefamily.BlockLayout.embed", "codefamily.BlockLayout.n", "codefamily.Generator.bits",
    "codefamily.Generator.kind", "codefamily.StageCodes.layout", "codefamily.StageCodes.n",
    "codefamily.StageCodes.stage", "codefamily.StageCodes.t",
    "csscode.CleanabilityTable.code", "csscode.CleanabilityTable.gamma_hat",
    "csscode.CosetMap.alpha_bits", "csscode.CosetMap.beta_bits", "csscode.CosetMap.n",
    "csscode.EvennessWitness.embed", "csscode.EvennessWitness.m", "csscode.EvennessWitness.to_json",
    *(f"decoder.{engine}.{name}" for engine in ("DenseLikelihood", "SparseLikelihood")
      for name in ("apply_clifford", "apply_memory", "apply_syndrome", "apply_t_gate",
                   "choose_recovery", "deform", "entropy", "final_coset", "measure",
                   "memory_input", "support_size", "truncate")),
    "decoder.LabelLayout.alpha_bits", "decoder.LabelLayout.beta_bits", "decoder.LabelLayout.size",
    "decoder.SplitSyndromeTables.base", "decoder.SyndromeMap.layout",
    "decoder.TGateUpdate.gamma_hat", "decoder.TGateUpdate.layout",
    "lattice.ColorLattice.m", "lattice.ColorLattice.t", "lattice.Face.bits",
    "noise.CliffordAction.name", "noise.CliffordAction.p",
    "protocol.Estimate.p", "protocol.Estimate.trials", "protocol.Round.kind", "protocol.Round.stage",
    "protocol.StageContext.code", "protocol.StageContext.layout", "protocol.StageContext.name",
    "settings.ProtocolConfig.p", "settings.ProtocolConfig.to_json", "settings.ProtocolConfig.trials",
]


def test_every_definition_is_reached():
    assert unreached(*read_sources()) == []


def test_every_member_is_reached():
    assert unreached_members(*read_sources()) == []


def test_colliding_members_are_recorded():
    assert colliding_members(read_sources()[0]) == sorted(COLLIDING_MEMBERS)


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


def test_a_field_nothing_reads_is_flagged():
    modules, bench = read_sources()
    # A field built by keyword and shadowed by a local variable, one that a
    # method reads, one that module code reads, and one perfbench names.
    modules["f2"] += (
        "\n\n@dataclass(frozen=True)\nclass PlantedRecord:\n"
        "    stored_only: int\n    read_by_method: int\n    read_outside: int\n    traced_field: int\n\n"
        "    def total(self):\n        return self.read_by_method\n\n\n"
        "def planted(stored_only):\n"
        "    record = PlantedRecord(stored_only=stored_only, read_by_method=0, read_outside=0,\n"
        "                           traced_field=0)\n"
        "    return record.total() + record.read_outside\n"
    )
    bench = bench + ["wrap(f2.PlantedRecord, 'traced_field')\n"]
    assert unreached_members(modules, bench) == ["f2.PlantedRecord.stored_only"]
