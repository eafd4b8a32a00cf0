"""Names that code outside the package looks up by string.

jobbench's tracer finds the layers it times by module and attribute name,
so a renamed or removed layer would only show as a traced run that
crashes or reads zero calls.
"""

import importlib
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
