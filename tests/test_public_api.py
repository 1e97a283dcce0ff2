import ast
import inspect
import pathlib

import pytest

import povmlab
from povmlab import kerrqnd, linalg, models, mzi, povm, spin


@pytest.mark.parametrize("module", [linalg, povm, spin, mzi, kerrqnd, models],
                         ids=lambda m: m.__name__)
def test_all_lists_the_public_functions_and_classes(module):
    # __all__ may also list constants, but its functions and classes are
    # exactly the public ones the module defines
    defined = {
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    listed = {
        name for name in module.__all__
        if inspect.isfunction(getattr(module, name)) or inspect.isclass(getattr(module, name))
    }
    assert listed == defined
    # every other listed name is a constant: a decorated function (a memo, a
    # partial) would drop out of this test and out of benchmarks/tracing.py,
    # which wraps plain functions only, so decorators go on private helpers
    others = {name for name in module.__all__ if callable(getattr(module, name))} - listed
    assert others == set()


# the thresholds callers set: is_hermitian is called at 1e-10 and 1e-8, and
# tests pass 1e-10 to is_projection_valued (default 1e-8). Every other
# tolerance is fixed in the body of the function that applies it.
KEPT_TOLERANCE_KEYWORDS = {
    "linalg.Operator.is_hermitian",
    "povm.DiscreteObservable.is_projection_valued",
}


def test_no_module_reads_the_environment():
    # a tolerance or any other setting comes in through an argument, never
    # through os.environ or os.getenv
    readers = []
    for path in sorted(pathlib.Path(povmlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in {"environ", "getenv"}:
                readers.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os" and {
                    alias.name for alias in node.names} & {"environ", "getenv"}:
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def _public_callables(module):
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{name}", obj
        elif inspect.isclass(obj):
            yield f"{short}.{name}", obj
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{short}.{name}.{attr}", member


def test_only_the_kept_tolerance_keywords_are_settable():
    found = {
        qualname
        for module in (linalg, povm, spin, mzi, kerrqnd, models)
        for qualname, obj in _public_callables(module)
        if {"atol", "tol"} & set(inspect.signature(obj).parameters)
    }
    assert found == KEPT_TOLERANCE_KEYWORDS
