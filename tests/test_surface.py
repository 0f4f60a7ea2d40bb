"""Surface gate: every module-level function and class of the package is used.

A definition counts as used when code in src/geodlab names it outside its
own body, or tests/test_acceptance.py does.  Docstrings, comments and
import lines do not count as naming it.  ALLOWED holds the test oracles
and fixtures kept on purpose, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "geodlab"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

ALLOWED = {
    "torus.extremal_length":
        "brute-force oracle of test_systole_is_min_over_curves",
    "words.min_systole_along_axis":
        "per-class loop reference that min_systole_batch is compared against",
    "flow.default_box": "the box the flow tests share",
    "halfplane.teich_dist":
        "scalar model metric the lattice and ball-sampling tests check against",
}


def _names(nodes) -> set:
    """Identifiers loaded or attribute names read anywhere under the nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _unused() -> list:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    named = _names([ast.parse(ACCEPTANCE.read_text())])
    per_module = {mod: _names(tree.body) for mod, tree in trees.items()}
    unused = []
    for mod, tree in trees.items():
        elsewhere = named.union(*(n for m, n in per_module.items() if m != mod))
        defs = [node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in defs:
            rest = _names(other for other in tree.body if other is not node)
            if node.name not in elsewhere | rest:
                unused.append(f"{mod}.{node.name}")
    return unused


def test_every_definition_is_used_or_allowed():
    unused = _unused()
    assert sorted(set(unused) - set(ALLOWED)) == []
    # an allowlist entry that is gone, or now used, leaves the list
    assert sorted(set(ALLOWED) - set(unused)) == []
