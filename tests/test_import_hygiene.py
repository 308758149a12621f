"""Every imported name is read somewhere in the module that imports it, and
every module-level function and class of the package is read somewhere in
it or re-exported by its ``__init__``."""

import ast
import glob
import os

HERE = os.path.dirname(__file__)
SRC = os.path.join(HERE, "..", "src", "qsheaf")


def unread_imports(path):
    """Names bound by an import in the file and never loaded in it."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def orphans(paths, exported):
    """Module-level functions and classes of the files that no top-level
    statement other than their own definition reads, as a name or an
    attribute, and that are not among the exported names."""
    defined, read = [], set()
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for top in tree.body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(own)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name and name != own:
                    read.add(name)
    return sorted(set(defined) - read - exported)


def test_no_module_imports_a_name_it_never_reads():
    # the package's __init__ imports only to re-export
    files = [path for path in sorted(glob.glob(os.path.join(SRC, "*.py")))
             if os.path.basename(path) != "__init__.py"]
    files += sorted(glob.glob(os.path.join(HERE, "*.py")))
    assert len(files) > 20
    unread = {path: unread_imports(path) for path in files}
    assert {path: names for path, names in unread.items() if names} == {}


def test_an_unread_import_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\nimport math as m\nfrom fractions import Fraction, gcd\n"
                    "print(os.sep, Fraction(1))\n")
    assert unread_imports(str(path)) == ["gcd", "m"]


def test_every_definition_is_read_or_exported():
    init = os.path.join(SRC, "__init__.py")
    with open(init) as fh:
        exported = {alias.asname or alias.name for node in ast.parse(fh.read()).body
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
    paths = [path for path in sorted(glob.glob(os.path.join(SRC, "*.py"))) if path != init]
    assert len(exported) > 50 and len(paths) > 5
    assert orphans(paths, exported) == []


def test_an_orphan_definition_is_found(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("def used():\n    return 1\n\n\ndef orphan(n):\n    return orphan(n - 1)\n\n\n"
                 "class Shown:\n    pass\n\n\nclass Hidden:\n    pass\n")
    b.write_text("from a import used\nimport a\n\n\ndef run():\n    return used() + a.Hidden\n")
    assert orphans([str(a), str(b)], {"Shown"}) == ["orphan", "run"]
