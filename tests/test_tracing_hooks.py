"""The benchmark's tracer (perfbench/tracing.py) wraps package callables by
name, so renaming or deleting one breaks only the traced benchmark run.
This test loads the tracer by path, without importing the rest of the
benchmark, and checks that every name it binds still resolves."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_callable_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    for name, module, path in tracing.SPANS:
        owner = importlib.import_module(module)
        if "." in path:
            # Methods are wrapped through the class __dict__, so they must be
            # defined on the class itself.
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(owner, cls_name)), f"{name}: {module}.{path} is gone"
        else:
            assert callable(getattr(owner, path, None)), f"{name}: {module}.{path} is gone"
