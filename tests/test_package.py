import kuramoto_rc


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from kuramoto_rc import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(kuramoto_rc.__all__)
    assert len(set(kuramoto_rc.__all__)) == len(kuramoto_rc.__all__)


def test_every_public_name_resolves():
    for name in kuramoto_rc.__all__:
        assert getattr(kuramoto_rc, name) is not None
