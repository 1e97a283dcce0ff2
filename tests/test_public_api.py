import inspect

import pytest

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
