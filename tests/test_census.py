"""Every definition in the package is on a path: its name is read somewhere in
``src/`` outside its own body, or it is library and benchmark API that the
README names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zptoolkit"

# read by nothing in src/, kept for library users, perfbench and tools/
API = {
    "analytics.remediation_summary",
    "analytics.survival_by_group",
    "analytics.SurvivalCurve.survival_at",
    "authsim.parse_zone_text",
    "transport.DatagramBus.detach",
    "transport.DatagramBus.updates_seen",
    "wire.DnsName.to_wire",
    "tsig.sign_message",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(node, prefix):
    """(qualified name, node) of every function and class under ``node``, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFINITIONS):
            name = f"{prefix}.{child.name}"
            yield name, child
            yield from definitions(child, name)
        else:
            yield from definitions(child, prefix)


def read_name(node):
    """The name ``node`` reads: a loaded name or attribute, or an imported name."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def unread_definitions(package):
    """Qualified names of the non-dunder definitions whose name nothing reads outside them."""
    found, reads = [], {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += definitions(tree, path.stem)
        for node in ast.walk(tree):
            name = read_name(node)
            if name is not None:
                reads.setdefault(name, []).append(node)
    unread = set()
    for qualname, node in found:
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        inside = set(map(id, ast.walk(node)))
        if all(id(read) in inside for read in reads.get(node.name, ())):
            unread.add(qualname)
    return unread


def test_every_definition_is_read_or_listed_api():
    unread = unread_definitions(PACKAGE)
    assert sorted(unread - API) == [], "read by nothing in src/: delete, or list as API"
    assert sorted(API - unread) == [], "read in src/ now: drop from API"


def test_readme_names_the_listed_api():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in sorted(API) if f"`{name}`" not in readme] == []
