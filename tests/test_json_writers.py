"""Every JSON writer of the package refuses NaN and infinity, so a
non-finite number ends in a ValueError instead of a file that strict JSON
readers reject."""

import ast
import glob
import os

import riskcast

SRC = os.path.dirname(os.path.abspath(riskcast.__file__))


def _strict(call: ast.Call) -> bool:
    return any(k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
               and k.value.value is False for k in call.keywords)


def test_every_json_writer_passes_allow_nan_false():
    loose = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        # json.dump/json.dumps anywhere but as the callee of a strict call,
        # such as passed on as a function, counts as loose
        strict_callees = {id(node.func) for node in ast.walk(tree)
                          if isinstance(node, ast.Call) and _strict(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("dump", "dumps")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json"
                    and id(node) not in strict_callees):
                loose.append(f"{os.path.basename(path)}:{node.lineno}")
    assert loose == []
