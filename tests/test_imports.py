"""Every import in the package and the tests is used.

No lint tool is part of the tier-1 toolchain, so this walks the syntax
tree of each module with `ast`: a name that an import binds must be read
somewhere in the module, or named in its `__all__`.  The two package
`__init__` modules that re-export the public API are left out.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RE_EXPORTS = {ROOT / "src" / "swarmlang" / "__init__.py",
              ROOT / "src" / "swarmlang" / "sim" / "__init__.py"}


def _modules():
    for top in (ROOT / "src" / "swarmlang", ROOT / "tests"):
        for path in sorted(top.rglob("*.py")):
            if path not in RE_EXPORTS:
                yield path


def unused_imports(source):
    """(line, name) of each name an import binds that the module never
    reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name)
                      for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nimport sys as s\nfrom a.b import c, d\n"
                          "import e.f\n__all__ = ['d']\nprint(s, e)\n") == \
        [(1, "os"), (3, "c")]


def test_no_module_has_an_unused_import():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in _modules()
             for line, name in unused_imports(path.read_text())]
    assert found == []
