"""Every public name has one owner: the module whose ``__all__`` lists it.

A class or function listed in a module's ``__all__`` must be defined in that
module, so that a name imported from elsewhere is not exported twice.
"""

import importlib
import inspect
import pkgutil

import pytest

import hmm_frontier

MODULES = [
    importlib.import_module(f"hmm_frontier.{info.name}")
    for info in pkgutil.iter_modules(hmm_frontier.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_lists_only_names_the_module_defines(module):
    values = {name: getattr(module, name) for name in module.__all__}
    borrowed = [
        name
        for name, value in values.items()
        if (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ != module.__name__
    ]
    assert borrowed == []
