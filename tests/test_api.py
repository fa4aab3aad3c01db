"""The package's public name lists."""

import types

import pytest

import wfaug
import wfaug.nn


@pytest.mark.parametrize("package", [wfaug, wfaug.nn])
def test_all_names_public_objects_that_resolve(package):
    assert package.__all__
    assert len(set(package.__all__)) == len(package.__all__)
    for name in package.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(package, name), types.ModuleType)


@pytest.mark.parametrize("package", ["wfaug", "wfaug.nn"])
def test_star_import_binds_every_listed_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(
        __import__(package, fromlist=["__all__"]).__all__)


def test_top_level_reexports_nn_api():
    assert set(wfaug.nn.__all__) <= set(wfaug.__all__)
