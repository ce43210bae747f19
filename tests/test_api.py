"""Tests of the package's public namespace."""

import inspect

import reprobound


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from reprobound import *", namespace)
    assert set(reprobound.__all__) <= set(namespace)


def test_every_public_name_is_exported():
    public = {
        name
        for name, value in vars(reprobound).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(reprobound.__all__) - {"__version__"}
