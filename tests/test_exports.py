"""The package's export list names only what the package defines."""

from __future__ import annotations

import shadowscan


def test_every_exported_name_resolves():
    missing = [name for name in shadowscan.__all__ if not hasattr(shadowscan, name)]
    assert not missing
    assert len(set(shadowscan.__all__)) == len(shadowscan.__all__)


def test_star_import_succeeds():
    namespace: dict[str, object] = {}
    exec("from shadowscan import *", namespace)
    assert set(shadowscan.__all__) <= namespace.keys()
