import importlib
import pkgutil

import pytest

import resbvp

# resbvp.__main__ runs the command line on import.
MODULES = [m.name for m in pkgutil.iter_modules(resbvp.__path__, "resbvp.") if m.name != "resbvp.__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
