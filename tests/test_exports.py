"""Every exported name resolves, so a deletion cannot leave a stale export,
and the package exports exactly its library modules' names."""

import importlib
import pkgutil

import pytest

import togglegroup

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(togglegroup.__path__))


@pytest.mark.parametrize("module_name", ["togglegroup"] + [f"togglegroup.{m}" for m in SUBMODULES])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_star_import_binds_every_package_name():
    namespace: dict = {}
    exec("from togglegroup import *", namespace)
    assert set(togglegroup.__all__) <= set(namespace)


def test_package_names_are_the_library_modules_names():
    # every module but the command line exports through the package, and
    # its __all__ is the one list of its public names; sorted lists also
    # tell a name exported twice
    library = [m for m in SUBMODULES if m != "cli"]
    names = [
        name for m in library for name in importlib.import_module(f"togglegroup.{m}").__all__
    ]
    assert sorted(togglegroup.__all__) == sorted(names)
