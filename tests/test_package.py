import ast
import inspect
import sys
from pathlib import Path

import votestack


def test_star_import_matches_all():
    namespace = {}
    exec("from votestack import *", namespace)
    assert set(votestack.__all__) <= namespace.keys()
    bound = {name for name, obj in vars(votestack).items()
             if (inspect.isclass(obj) or inspect.isfunction(obj))
             and not name.startswith("_")}
    assert bound <= set(votestack.__all__)


def test_numpy_is_the_only_runtime_dependency():
    allowed = sys.stdlib_module_names | {"numpy"}
    outside = []
    for path in sorted(Path(votestack.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []
