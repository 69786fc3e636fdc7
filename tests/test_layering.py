"""Module boundaries inside the package: no module imports another
module's underscore (private) names."""

import ast
from pathlib import Path

import cpdsplit

SRC = Path(cpdsplit.__file__).parent


def test_no_module_imports_private_names():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith("cpdsplit")
            for alias in node.names:
                if internal and alias.name.startswith("_"):
                    offenders.append("%s:%d imports %s" % (path.name, node.lineno, alias.name))
    assert not offenders, offenders
