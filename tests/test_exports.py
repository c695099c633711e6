"""The package's public names: everything in __all__ is bound, and a star
import binds exactly __all__."""

import tinytsfm


def test_every_exported_name_is_a_package_attribute():
    assert len(set(tinytsfm.__all__)) == len(tinytsfm.__all__)
    assert [name for name in tinytsfm.__all__ if not hasattr(tinytsfm, name)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from tinytsfm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tinytsfm.__all__)
