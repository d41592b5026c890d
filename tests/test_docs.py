"""The README's examples run, every exported name resolves, every layer the
benchmark traces is a module, and every top-level name of the package is used."""

import ast
import dataclasses
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import diracgeo
from diracgeo.bundles import SUPERCONNECTION_CONFIG_KEYS
from diracgeo.seiberg_witten import SW_CONFIG_KEYS

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 4
    namespace = {"__name__": "readme"}
    for k, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {k + 1}", "exec"), namespace)


def test_every_exported_name_resolves():
    missing = [name for name in diracgeo.__all__ if not hasattr(diracgeo, name)]
    assert not missing
    assert len(set(diracgeo.__all__)) == len(diracgeo.__all__)


def test_every_traced_layer_is_a_module():
    # the benchmark's tracer looks each layer up in sys.modules, so deleting
    # a module it lists would crash a traced run
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    layers, = (ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])
    assert "curvature" in layers
    for layer in layers:
        importlib.import_module(f"diracgeo.{layer}")


# traced names that no longer resolve: the benchmark records them as 0
STALE_ENTRY_POINTS = {
    "curvature.christoffel", "curvature.dchristoffel", "curvature.curvature_data",
    "jets.SJet.__mul__", "jets.SJet.__add__", "clifford.clifford_action_dict",
    "clifford.action_matrix", "forms.PolyScalar.eval_jet", "forms.PolyScalar.derivative",
    "forms.random_poly_scalar", "bundles.PolyMatrix.eval"}


def test_benchmark_entry_points_resolve():
    # a ratchet: deleting or renaming a function the benchmark traces would
    # silently zero its per-layer metrics, so every other name must resolve
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    names, = (ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["ENTRY_POINTS"])

    def resolves(name):
        head, *attrs = name.split(".")
        obj = importlib.import_module(f"diracgeo.{head}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        return obj is not None

    assert STALE_ENTRY_POINTS <= set(names)
    assert {name for name in names if not resolves(name)} <= STALE_ENTRY_POINTS


def test_readme_module_names_resolve():
    # every backticked `module.name` or `Class.attr`, or call of one, of a
    # diracgeo module or class names a live object, so a deleted name cannot
    # stay; a dataclass field without a default is no class attribute
    modules = {m.name: importlib.import_module(f"diracgeo.{m.name}")
               for m in pkgutil.iter_modules(diracgeo.__path__)}
    classes = {name: obj for module in modules.values() for name, obj in vars(module).items()
               if isinstance(obj, type) and obj.__module__.startswith("diracgeo.")}
    dotted = [name.removeprefix("diracgeo.").split(".") for name in
              re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*?\))?`",
                         README.read_text())]
    dotted = [parts for parts in dotted if parts[0] in modules or parts[0] in classes]
    assert len(dotted) >= 10
    assert sum(parts[0] in classes for parts in dotted) >= 10
    for head, *attrs in dotted:
        obj = modules.get(head) or classes[head]
        for attr in attrs:
            fields = {f.name for f in dataclasses.fields(obj)} if (
                isinstance(obj, type) and dataclasses.is_dataclass(obj)) else set()
            assert hasattr(obj, attr) or attr in fields, ".".join([head, *attrs])
            obj = getattr(obj, attr, None)


def test_readme_lists_the_accepted_config_keys():
    text = README.read_text()
    for kind, keys in (("superconnection", SUPERCONNECTION_CONFIG_KEYS),
                       ("monopole", SW_CONFIG_KEYS)):
        listed = re.search(rf"Accepted {kind} config keys: (.*?)\.\s", text, re.S)
        assert listed, kind
        assert sorted(re.findall(r"`(\w+)`", listed.group(1))) == sorted(keys), kind


# top-level names that nothing in src/ or README names yet, each waiting on
# a ROADMAP item to make it a check or a CLI path, or to delete it
UNUSED_ALLOWED = {"special_identity_residual", "load_chart_config"}


def test_every_top_level_name_is_used():
    # a ratchet against orphan code: every top-level function and class of a
    # module is named outside its own definition, in a module of src/ (the
    # re-exports of __init__ aside) or in README
    def names(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    trees = [ast.parse(path.read_text()) for path in (ROOT / "src" / "diracgeo").glob("*.py")
             if path.stem != "__init__"]
    used = sum(map(names, trees), Counter())
    readme = set(re.findall(r"\w+", README.read_text()))
    defined = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unused = {node.name for node in defined
              if used[node.name] == names(node)[node.name] and node.name not in readme}
    assert UNUSED_ALLOWED <= {node.name for node in defined}
    assert unused <= UNUSED_ALLOWED


def test_every_public_method_is_read():
    # the same ratchet one level down: every public method or property of a
    # class of src/ is read as `.name` in a module of src/ or in README
    trees = [ast.parse(path.read_text()) for path in (ROOT / "src" / "diracgeo").glob("*.py")]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    read |= set(re.findall(r"\.(\w+)", README.read_text()))
    methods = [f"{cls.name}.{node.name}" for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert len(methods) >= 40
    assert [name for name in methods if name.split(".")[1] not in read] == []
