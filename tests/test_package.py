import ast
import importlib
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


def test_every_public_definition_has_a_caller_outside_the_tests():
    src = Path(votestack.__file__).parent
    paths = [*sorted(src.glob("*.py")), *sorted((src.parents[1] / "bench").glob("*.py"))]
    defined, uses = set(), []
    for path in paths:
        if path == src / "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if (path.parent == src and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                owner = (path, stmt.name)
                defined.add(owner)
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
            uses.append((owner, names))
    unused = sorted(f"{path.name}: {name}" for path, name in defined
                    if not any(name in names and owner != (path, name) for owner, names in uses))
    assert unused == []


def test_every_public_class_member_has_a_caller_outside_the_tests():
    # The rule above for the methods and properties of src/ classes: each is
    # read as an attribute in src/ or bench/, outside its own body.
    src = Path(votestack.__file__).parent
    paths = [*sorted(src.glob("*.py")), *sorted((src.parents[1] / "bench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    attributes = [node for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)]
    unused = []
    for path, tree in trees.items():
        if path.parent != src:
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    own = set(ast.walk(member))
                    if not any(node.attr == member.name and node not in own
                               for node in attributes):
                        unused.append(f"{path.name}: {cls.name}.{member.name}")
    assert unused == []


def test_only_numerics_converts_model_inputs():
    # One input check: an entry point takes features and labels through
    # numerics.as_features and as_labels, never through its own conversion.
    src = Path(votestack.__file__).parent
    inputs = {"features", "labels", "train_labels"}
    calls = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             if path.name != "numerics.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) in ("asarray", "ascontiguousarray")
             and any(isinstance(arg, ast.Name) and arg.id in inputs for arg in node.args)]
    assert calls == []


def test_only_numerics_checks_config_types():
    # One type rule: only numerics calls operator.index, and each config's
    # __post_init__ starts with numerics.conform_fields, before any range check.
    src = Path(votestack.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    calls = [f"{name}:{node.lineno}" for name, tree in trees.items() if name != "numerics.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "index"
             and getattr(node.value, "id", None) == "operator"
             or isinstance(node, ast.ImportFrom) and node.module == "operator"]
    assert calls == []
    # Model headers too: no int(header[...]) or float(header[...]) outside numerics.
    casts = [f"{name}:{node.lineno}" for name, tree in trees.items() if name != "numerics.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("int", "float")
             and node.args and isinstance(node.args[0], ast.Subscript)
             and getattr(node.args[0].value, "id", None) == "header"]
    assert casts == []
    configs = {"harness.py": "ExperimentConfig", "mlp.py": "MlpConfig",
               "boosting.py": "BoostConfig", "diversify.py": "ResamplePlan"}
    first = {}
    for name, cls_name in configs.items():
        cls = next(node for node in trees[name].body
                   if isinstance(node, ast.ClassDef) and node.name == cls_name)
        post_init = next(node for node in cls.body
                         if isinstance(node, ast.FunctionDef) and node.name == "__post_init__")
        call = getattr(post_init.body[0], "value", None)
        first[cls_name] = getattr(getattr(call, "func", None), "id", None)
    assert first == dict.fromkeys(configs.values(), "conform_fields")


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


def test_benchmark_modules_import_and_every_traced_name_resolves(monkeypatch):
    # A package change that breaks the benchmark fails here, not in a benchmark run.
    monkeypatch.syspath_prepend(str(Path(votestack.__file__).parents[2] / "bench"))
    for name in ("checks", "micro", "workloads"):
        importlib.import_module(name)
    targets = list(importlib.import_module("spans")._targets())
    assert targets and all(callable(fn) for fn, _, _ in targets)
