import ast
import importlib
import inspect
import os
import re
import subprocess
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


def test_only_numerics_checks_number_ranges():
    # One range rule: a number setting's bounds are declared in its type hint
    # and checked by numerics.conform. No config's __post_init__ compares one
    # of its fields with constants alone, or builds a config to check its own.
    src = Path(votestack.__file__).parent
    configs = {"harness.py": "ExperimentConfig", "mlp.py": "MlpConfig",
               "boosting.py": "BoostConfig", "diversify.py": "ResamplePlan"}

    def is_field(node):
        return isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self"

    found = []
    for name, cls_name in configs.items():
        cls = next(node for node in ast.parse((src / name).read_text(encoding="utf-8")).body
                   if isinstance(node, ast.ClassDef) and node.name == cls_name)
        post_init = next(node for node in cls.body
                         if isinstance(node, ast.FunctionDef) and node.name == "__post_init__")
        for node in ast.walk(post_init):
            if isinstance(node, ast.Compare) and all(
                    isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq))
                    for op in node.ops):
                operands = [node.left, *node.comparators]
                fields = [op for op in operands if is_field(op)]
                others = [op for op in operands if not is_field(op)]
                if len(fields) == 1 and not any(
                        is_field(inner) for op in others for inner in ast.walk(op)):
                    found.append(f"{name}:{node.lineno} {cls_name}.{fields[0].attr}")
            elif isinstance(node, ast.Call):
                called = getattr(node.func, "id", getattr(node.func, "attr", None))
                if called in (*configs.values(), "mlp_config"):
                    found.append(f"{name}:{node.lineno} {called}(...)")
    assert found == []


def test_only_seeding_builds_generators():
    # One random-stream rule: no src/ module but seeding.py names np.random,
    # so every generator is child_rng's and every seed passes derive_seed.
    def names_numpy_random(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "random" and getattr(node.value, "id", None) in ("np", "numpy")
        if isinstance(node, ast.ImportFrom):
            return (node.module == "numpy" and any(a.name == "random" for a in node.names)
                    or (node.module or "").startswith("numpy.random"))
        return isinstance(node, ast.Import) and any(
            a.name.startswith("numpy.random") for a in node.names)

    src = Path(votestack.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             if path.name != "seeding.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if names_numpy_random(node)]
    assert found == []


def test_a_run_never_imports_numpy_ma():
    # numpy.ma holds about 1.3 MB of a process's memory, and np.unique imports it.
    src = str(Path(votestack.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = """
import sys
from votestack import BoostConfig, ExperimentConfig, boosting, gaussian_blobs, run_experiment
data = gaussian_blobs(150, 4, 3, seed=5)
boosting.fit(data.features, data.labels, BoostConfig(rounds=2))
assert "numpy.ma" not in sys.modules, "boosting.fit imported numpy.ma"
run_experiment(ExperimentConfig(n_learners=3, hidden_sizes=(8,), epochs=2,
                                boost=BoostConfig(rounds=2)), dataset=data)
assert "numpy.ma" not in sys.modules, "run_experiment imported numpy.ma"
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr


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


def test_readme_quick_start_runs():
    # The README's one Python block, run as written: a renamed name or a
    # changed signature fails here rather than leaving the README wrong.
    readme = (Path(votestack.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    report = namespace["report"]
    assert sum(report.route_counts.values()) == report.n_test
