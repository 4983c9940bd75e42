"""The package namespace: each module's ``__all__`` is its public list, and
``geomseq.__all__`` is their concatenation."""

import geomseq
from geomseq import catalog, duals, errors, exprdsl, garith, gdiff, gseq, spaces

MODULES = (errors, garith, exprdsl, gseq, gdiff, spaces, duals, catalog)


def test_every_module_name_is_exported():
    for module in MODULES:
        for name in module.__all__:
            assert name in geomseq.__all__, f"{module.__name__}.{name}"
            assert getattr(geomseq, name) is getattr(module, name)


def test_names_are_unique_and_resolve():
    assert len(geomseq.__all__) == len(set(geomseq.__all__))
    for name in geomseq.__all__:
        assert hasattr(geomseq, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from geomseq import *", namespace)
    assert namespace["gamma_dual_test"] is duals.gamma_dual_test
    assert set(namespace) - {"__builtins__"} == set(geomseq.__all__)
