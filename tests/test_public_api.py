"""Every name a hilbertmod module lists in ``__all__`` resolves on it."""

import importlib
import pkgutil

import pytest

import hilbertmod

MODULES = sorted(
    f"hilbertmod.{info.name}" for info in pkgutil.iter_modules(hilbertmod.__path__)
)


def test_every_module_is_checked():
    assert "hilbertmod.quadfield" in MODULES and "hilbertmod.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], (name, missing)
