"""Names that code and documents outside the package look up by string.

jobbench's tracer finds the layers it times by module and attribute name,
so a renamed or removed layer would only show as a traced run that
crashes or reads zero calls.  README names every bound as ``module.NAME``.
The oracle is a cross-check only while it shares no code with the rank
path beyond polynomial division, which its imports show.
"""

import ast
import importlib
import inspect
import re
import runpy
from pathlib import Path

import regulus

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_layer_resolves():
    # run_path executes tracer.py from source and writes nothing
    wrapped = runpy.run_path(str(ROOT / "jobbench" / "tracer.py"))["WRAPPED"]
    assert wrapped
    for module_name, path, _ in wrapped:
        module = importlib.import_module("regulus." + module_name)
        if "." in path:
            # Tracer.install patches a method in its class's own __dict__
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(module, cls_name)), path
        else:
            assert callable(getattr(module, path, None)), path


def test_every_exported_name_resolves():
    assert len(set(regulus.__all__)) == len(regulus.__all__)
    for name in regulus.__all__:
        assert hasattr(regulus, name), name


def test_the_oracle_borrows_only_division_from_poly():
    tree = ast.parse((ROOT / "src" / "regulus" / "oracle.py").read_text(encoding="utf-8"))
    borrowed = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "poly" and node.level == 1
        for alias in node.names
    }
    assert borrowed <= {"_divide", "_level", "TriangularPoint"}
    # no other route to the module
    assert not any(
        alias.name.endswith("poly")
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    )


def test_every_bound_is_named_in_the_readme():
    # both ways: a bound the README does not name is undocumented, and a
    # name the README keeps after its bound is gone is stale
    bound = re.compile(r"MAX_\w+|PAIR_BUDGET|CERTIFICATE_PRIMES")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`(\w+\.(?:%s))`" % bound.pattern, readme))
    bounds = set()
    for path in sorted((ROOT / "src" / "regulus").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    name = getattr(target, "id", "")
                    if bound.fullmatch(name):
                        bounds.add("%s.%s" % (path.stem, name))
    assert {"groebner.PAIR_BUDGET", "tower.MAX_RESIDUE_DEGREE", "tower.CERTIFICATE_PRIMES"} <= bounds
    assert sorted(bounds - named) == []
    assert sorted(named - bounds) == []


def test_every_default_is_overridden_somewhere():
    """Every defaulted parameter of every function in ``regulus.__all__``,
    and of every method and constructor of every class the package defines
    there, is passed, by position or keyword, by at least one call in the
    package.

    An option that the package never sets has one value in use, and its
    other values are code only tests reach.  Calls are matched by name, as
    ``name(...)`` or ``obj.name(...)``: a function or method by its own
    name, a constructor by its class's.  A method's parameters are counted
    after ``self`` or ``cls``.
    """
    calls = [
        node
        for path in sorted((ROOT / "src" / "regulus").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
    ]

    def called_name(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    def passes(call, index, param):
        if param.kind is not param.KEYWORD_ONLY and (
            len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
        ):
            return True
        return any(k.arg in (param.name, None) for k in call.keywords)

    # (label, name its calls use, the parameters a call passes)
    callables = []
    for name in regulus.__all__:
        obj = getattr(regulus, name)
        if inspect.isfunction(obj):
            callables.append((name, obj.__name__, inspect.signature(obj).parameters))
        elif inspect.isclass(obj) and obj.__module__.startswith("regulus."):
            for attr, member in vars(obj).items():
                func = getattr(member, "__func__", member)
                if not inspect.isfunction(func):
                    continue
                params = list(inspect.signature(func).parameters.values())
                if not isinstance(member, staticmethod):
                    params = params[1:]
                called = obj.__name__ if attr in ("__init__", "__new__") else attr
                callables.append(
                    ("%s.%s" % (name, attr), called, {p.name: p for p in params})
                )

    unused = []
    for label, called, params in callables:
        mine = [c for c in calls if called_name(c) == called]
        for index, param in enumerate(params.values()):
            if param.default is not param.empty and not any(passes(c, index, param) for c in mine):
                unused.append("%s(%s=)" % (label, param.name))
    assert unused == []
