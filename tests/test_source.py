import ast
import glob
import importlib
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


def probes():
    """PROBES of perfbench/tracer.py, read from its source, not imported."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracer.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PROBES"]:
            return ast.literal_eval(node.value)
    raise LookupError("no PROBES in %s" % path)


def test_every_probe_resolves():
    # the traced benchmark wraps these by name; a rename fails here first
    missing = []
    for module, path, _prefix, _kind in probes():
        owner = importlib.import_module("heckekit." + module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append("%s.%s" % (module, path))
    assert missing == []


def test_fresh_engine_has_a_memo_dict():
    # the tracer counts symbol_product misses as the growth of each _memo
    from heckekit.heckealg import FreeCoefficients, HeckeEngine

    assert type(HeckeEngine(FreeCoefficients({"a": 0}, 5, 4))._memo) is dict
