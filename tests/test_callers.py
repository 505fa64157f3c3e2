"""The public API that only the tests call, pinned as an exact set.

A public function or method of ``src/triality`` (neither it nor its class
starts with ``_``) counts as called when its name occurs in ``src``,
``demos`` or ``bench``: a module-level function as a name or import, or
as an attribute of its own module's name or of ``triality``; a property
as an attribute of anything; and a plain method as an attribute that is
called, or that is passed as a call argument (``f(report.to_json_text)``),
so a bare attribute load such as ``args.trace`` does not count.  Matching
is by name, so a homonym still hides an unused method (and a bare name an
unused function); the set errs towards fewer entries.  Every entry says
why it stays.  A new function that nothing but a test calls shows up here
as a diff: give it a caller, delete it, or add it with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TEST_ONLY = {
    "emit.scalar_from_json":
        "reads back the scalar objects that `emit` and `map` write as JSON",
    "field.ExactScalar.coords":
        "the dense 8-tuple that the scalar oracles compare against",
    "linalg.kernel_basis":
        "exported; tests/oracles.py takes intertwiner kernels from it",
}

_PROPERTIES = {"property", "cached_property"}


def _is_property(node):
    return any(getattr(d, "id", getattr(d, "attr", None)) in _PROPERTIES
               for d in node.decorator_list)


def _public_defs():
    """{qualified name: (module, name, kind)} over ``src/triality``, the
    kind being "function", "property" or "method"."""
    out = {}
    for path in sorted((ROOT / "src" / "triality").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                members, prefix, method = [node], path.stem, False
            elif isinstance(node, ast.ClassDef) and node.name[0] != "_":
                members, method = node.body, True
                prefix = f"{path.stem}.{node.name}"
            else:
                continue
            for sub in members:
                if isinstance(sub, ast.FunctionDef) and sub.name[0] != "_":
                    kind = ("function" if not method else
                            "property" if _is_property(sub) else "method")
                    out[f"{prefix}.{sub.name}"] = (path.stem, sub.name, kind)
    return out


def _references(paths):
    """(names and imported names, attribute names, names of attributes
    that are called or passed as call arguments, (owner, attribute name)
    pairs) occurring in ``paths``; the owner of ``a.f`` and of ``x.a.f``
    is ``a``."""
    names, attrs, called, owned = set(), set(), set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                owned.add((owner, node.attr))
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Call):
                called.update(x.attr for x in (node.func, *node.args,
                                               *(k.value for k in node.keywords))
                              if isinstance(x, ast.Attribute))
    return names, attrs, called, owned


def test_only_the_pinned_api_lacks_a_caller_outside_the_tests():
    names, attrs, called, owned = _references([*ROOT.glob("src/triality/*.py"),
                                               *ROOT.glob("demos/*.py"),
                                               *ROOT.glob("bench/*.py")])
    uncalled = {qual for qual, (module, name, kind) in _public_defs().items()
                if (name not in called if kind == "method" else
                    name not in attrs if kind == "property" else
                    name not in names and (module, name) not in owned
                    and ("triality", name) not in owned)}
    assert uncalled == set(TEST_ONLY)
    tests = "".join(p.read_text() for p in ROOT.glob("tests/*.py")
                    if p.name != Path(__file__).name)
    assert all(qual.rpartition(".")[2] in tests for qual in TEST_ONLY)
