"""The public API: ``delsim.__all__`` names exactly what the package exports."""

import delsim


def test_all_names_resolve():
    missing = [name for name in delsim.__all__ if not hasattr(delsim, name)]
    assert missing == []
    assert len(set(delsim.__all__)) == len(delsim.__all__)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from delsim import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(delsim.__all__)
