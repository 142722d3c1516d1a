"""Every public name of ``repkit`` has a caller or is a paper object.

A name ``repkit/__init__.py`` imports is public.  It must be read somewhere
in the code of ``src/repkit`` outside its own definition, as a name or as
an attribute of a library module in the syntax tree (a docstring, a comment,
or a method or local of the same spelling does not count), or be listed
under "Paper objects" in the README: the entry points the paper describes
that no library code calls.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "repkit"


def _exported_names() -> set[str]:
    tree = ast.parse((LIBRARY / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


MODULES = {path.stem for path in LIBRARY.glob("*.py")}


class _Reads(ast.NodeVisitor):
    """The library names a module reads: a name read where no enclosing
    function or class defines or binds (as an argument or a local) the same
    spelling, and an attribute read off a library module, as in
    ``linalg.invert``; a method or local of the same spelling is no caller."""

    def __init__(self):
        self.names: set[str] = set()
        self.shadowed: list[set[str]] = []

    def visit_ClassDef(self, node):
        self.shadowed.append({node.name})
        self.generic_visit(node)
        self.shadowed.pop()

    def visit_FunctionDef(self, node):
        local = {node.name} | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        local |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        self.shadowed.append(local)
        self.generic_visit(node)
        self.shadowed.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and not any(node.id in s for s in self.shadowed):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id in MODULES:
            self.names.add(node.attr)
        self.generic_visit(node)


def _library_reads() -> set[str]:
    reads = _Reads()
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name != "__init__.py":
            reads.visit(ast.parse(path.read_text()))
    return reads.names


def _paper_objects() -> set[str]:
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"^## Paper objects\n(.*?)(?=^## )", readme, re.S | re.M)
    assert section, "README has no 'Paper objects' section"
    return set(re.findall(r"`(\w+)`", section.group(1)))


def test_every_public_name_has_a_caller_or_is_a_paper_object():
    exported = _exported_names()
    assert exported
    uncalled = sorted(exported - _library_reads() - _paper_objects())
    assert not uncalled, f"public names with no library caller and not listed as paper objects: {uncalled}"


def test_paper_objects_are_public_and_uncalled():
    # the list names exactly the public entry points that have no caller
    paper = _paper_objects()
    assert sorted(paper - _exported_names()) == []
    assert sorted(paper & _library_reads()) == []
