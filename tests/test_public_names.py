"""Every name a public ``__all__`` lists exists, so a deletion that forgets
``__all__`` fails here rather than passing unnoticed."""

import importlib

import pytest

MODULES = ("dahalink", "dahalink.exactfield", "dahalink.exactlinalg",
           "dahalink.leonard", "dahalink.daha")


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing and len(set(module.__all__)) == len(module.__all__)


def test_star_import_works():
    namespace: dict = {}
    exec("from dahalink import *", namespace)
    import dahalink

    assert set(dahalink.__all__) <= set(namespace)
