"""The package's public names: hypertheta.__all__ against what it binds."""

import hypertheta


def test_star_import_binds_every_name_in_all_once():
    """A name left in __all__ after its definition is gone fails only a
    star-import, which no other test makes."""
    namespace: dict = {}
    exec("from hypertheta import *", namespace)
    assert len(hypertheta.__all__) == len(set(hypertheta.__all__))
    assert set(hypertheta.__all__) <= namespace.keys()
