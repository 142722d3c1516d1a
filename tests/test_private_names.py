"""Every private name in ``src/repkit`` is used somewhere.

A ``_``-prefixed function, method, class or module-level assignment whose
name occurs only at its definition is dead code.  The search is textual, over
the library, the tests and the benchmark harness, so a name the tracer looks
up as a string counts as used.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _private_names(tree: ast.Module) -> set[str]:
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_every_private_name_is_used():
    library = sorted((ROOT / "src" / "repkit").glob("*.py"))
    sources = library + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    text = "\n".join(path.read_text() for path in sources)
    defined = set().union(*(_private_names(ast.parse(path.read_text())) for path in library))
    assert defined
    unused = sorted(n for n in defined if len(re.findall(rf"\b{re.escape(n)}\b", text)) <= 1)
    assert not unused, f"private names used nowhere but their definition: {unused}"
