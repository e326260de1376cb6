import ast
import glob
import os

import heckekit


def test_no_assert_in_src():
    # python -O strips assert, so a check in the package must raise instead
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(heckekit.__file__), "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
