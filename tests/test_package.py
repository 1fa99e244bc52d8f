"""The package's export list: every name resolves, once."""

import dispo


def test_every_exported_name_exists_once_and_star_import_binds_it():
    names = dispo.__all__
    assert len(names) == len(set(names)), "a name is listed twice"
    missing = [name for name in names if not hasattr(dispo, name)]
    assert missing == []
    scope: dict = {}
    exec("from dispo import *", scope)
    assert set(names) <= set(scope)
    for name in names:
        assert scope[name] is getattr(dispo, name)
