"""Every name a module exports is bound in it.

A name left in `__all__` after its definition is deleted still passes a
plain import; only `from module import *` trips over it.
"""

import importlib
import pkgutil

import pytest

import aggroupoids

MODULES = ["aggroupoids"] + [
    f"aggroupoids.{info.name}" for info in pkgutil.iter_modules(aggroupoids.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_bound(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(module, x)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
