"""Surface gate: every function, class, method and property of the package is used.

A module-level definition counts as used when code in src/geodlab names it
outside its own body, or tests/test_acceptance.py or perfbench/tracer.py
does.  A method or property of a class counts as used when that code names
it outside the method's own body; dunder and name-mangled methods are
exempt.  A field, an annotated name in a class body as in a dataclass or
NamedTuple, counts as used when that code, or a method of its class,
reads it.
A member counts only where it is read as an attribute (.name),
wherever an attribute of the same name is read; a bare identifier of the
same name, such as a parameter, does not count.  Docstrings, comments and
import lines do not count as naming anything.  ALLOWED holds the test oracles and fixtures kept on purpose,
each with its reason.  perfbench/tracer.py counts because it rebinds and
reads package members by name in every traced benchmark run, so each of
its TARGETS must also resolve, as Tracer.install looks it up.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "geodlab"
TRACER = ROOT / "perfbench" / "tracer.py"
CONSUMERS = (ROOT / "tests" / "test_acceptance.py", TRACER)

ALLOWED = {
    "torus.CurveClass.normalized":
        "builds the curve classes test_systole_is_min_over_curves minimises over",
    "words.min_systole_along_axis":
        "per-class loop reference that min_systole_batch is compared against",
    "words.is_primitive":
        "primitivity test of criterion 02's entry-search oracle in "
        "tests/entry_search.py and of the enumeration tests",
    "halfplane.teich_dist":
        "scalar model metric the lattice and ball-sampling tests check against",
    "halfplane.MappingClass.apply":
        "scalar Mobius action of the matrix-loop lattice oracle and the "
        "reduction tests",
}


def _names(nodes, attributes_only=False) -> set:
    """Attribute names read anywhere under the nodes and, unless
    attributes_only, the identifiers loaded there too."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and not attributes_only:
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _unused() -> list:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    consumers = [ast.parse(p.read_text()) for p in CONSUMERS]
    named = _names(consumers)
    read = _names(consumers, attributes_only=True)
    per_module = {mod: _names(tree.body) for mod, tree in trees.items()}
    read_per_module = {mod: _names(tree.body, attributes_only=True)
                       for mod, tree in trees.items()}
    unused = []
    for mod, tree in trees.items():
        elsewhere = named.union(*(n for m, n in per_module.items() if m != mod))
        read_elsewhere = read.union(*(n for m, n in read_per_module.items()
                                      if m != mod))
        defs = [node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in defs:
            others = [other for other in tree.body if other is not node]
            if node.name not in elsewhere | _names(others):
                unused.append(f"{mod}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            read_rest = read_elsewhere | _names(others, attributes_only=True)
            for member in node.body:
                if (not isinstance(member, ast.FunctionDef)
                        or member.name.startswith("__")):
                    continue
                siblings = _names((m for m in node.body if m is not member),
                                  attributes_only=True)
                if member.name not in read_rest | siblings:
                    unused.append(f"{mod}.{node.name}.{member.name}")
            methods = _names((m for m in node.body
                              if isinstance(m, ast.FunctionDef)),
                             attributes_only=True)
            for member in node.body:
                if (isinstance(member, ast.AnnAssign)
                        and isinstance(member.target, ast.Name)
                        and member.target.id not in read_rest | methods):
                    unused.append(f"{mod}.{node.name}.{member.target.id}")
    return unused


def test_every_definition_is_used_or_allowed():
    unused = _unused()
    assert sorted(set(unused) - set(ALLOWED)) == []
    # an allowlist entry that is gone, or now used, leaves the list
    assert sorted(set(ALLOWED) - set(unused)) == []


def _tracer_targets() -> list:
    """The (layer, attribute path) of each entry of perfbench/tracer.py's
    TARGETS, read from its source."""
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TARGETS"]):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_tracer_target_resolves():
    # Tracer.install rebinds each target in every traced benchmark run: a
    # module function by getattr, a method from its class's own __dict__
    targets = _tracer_targets()
    assert targets
    missing = []
    for layer, path in targets:
        owner = importlib.import_module(f"geodlab.{layer}")
        *cls, name = path.split(".")
        for part in cls:
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, "__dict__", {}).get(name) if cls
                        else getattr(owner, name, None)):
            missing.append(f"{layer}.{path}")
    assert missing == []
