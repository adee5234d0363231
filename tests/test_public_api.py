"""The package's public API holds only what the program uses: every public
module-level function and class of src/transmission is named by the code of
src/ outside its own definition, or by the benchmark in perfbench/.  Checks
that only the tests call live in tests/paper_checks.py."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# replay_certificate re-checks a verdict's inequalities; classify is to call
# it on every certificate it emits (ROADMAP item 3)
ALLOWED = {"replay_certificate"}


def _names(node) -> set[str]:
    """Every name and attribute that the code under node refers to."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_name_is_used_outside_the_tests():
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "transmission").glob("*.py"))}
    # one set of names per top-level statement, so that a definition's own
    # body does not count as a use of it
    statements = [(node, _names(node)) for tree in modules.values() for node in tree.body]
    bench = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    unused = [
        f"{module}.{node.name}"
        for module, tree in modules.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in ALLOWED
        and not any(node.name in names for other, names in statements if other is not node)
        and not re.search(rf"\b{node.name}\b", bench)
    ]
    assert unused == []
