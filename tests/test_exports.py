"""The package's export list."""

import luorbit


def test_every_exported_name_resolves():
    missing = [name for name in luorbit.__all__ if not hasattr(luorbit, name)]
    assert missing == []
    assert len(set(luorbit.__all__)) == len(luorbit.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from luorbit import *", namespace)
    assert set(luorbit.__all__) <= set(namespace)
