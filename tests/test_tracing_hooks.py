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


def test_cochain_contracts_of_the_benchmark():
    """The tracer counts ``cochain.Cochain.created`` by wrapping the class's
    own ``__init__``, and the cochain-identities workload renders each
    result as ``repr(result.values)``, a tuple of int tuples."""
    from gerbes.cochain import Cochain, differential
    from gerbes.groups import klein_four_group
    from gerbes.modules import trivial_module

    assert "__init__" in vars(Cochain)
    module = trivial_module(klein_four_group(), (2, 4))
    c = differential(Cochain(module, 1, [(1, 3), (0, 1), (1, 2)]))
    values = c.values
    assert type(values) is tuple and len(values) == 9
    assert all(type(v) is tuple and len(v) == 2 for v in values)
    assert all(type(x) is int for v in values for x in v)
