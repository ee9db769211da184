"""The package's export list names only what the package defines."""

from __future__ import annotations

import importlib

import pytest

import shadowscan


def test_every_exported_name_resolves():
    missing = [name for name in shadowscan.__all__ if not hasattr(shadowscan, name)]
    assert not missing
    assert len(set(shadowscan.__all__)) == len(shadowscan.__all__)


def test_star_import_succeeds():
    namespace: dict[str, object] = {}
    exec("from shadowscan import *", namespace)
    assert set(shadowscan.__all__) <= namespace.keys()


def test_every_exported_name_is_its_defining_modules_object():
    for name in shadowscan.__all__:
        value = getattr(shadowscan, name)
        defining = importlib.import_module(value.__module__)
        assert defining.__name__.startswith("shadowscan.")
        assert getattr(defining, name) is value, name


def test_dir_lists_every_exported_name():
    assert set(shadowscan.__all__) <= set(dir(shadowscan))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        shadowscan.nothing
