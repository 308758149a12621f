"""Every imported name is read somewhere in the module that imports it."""

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
