import ast
from pathlib import Path

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


def test_no_module_imports_a_private_name_of_another():
    package = Path(kuramoto_rc.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level > 0 or (node.module or "").startswith("kuramoto_rc"):
                private += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert private == []


def test_only_trial_records_runs_jobs():
    source = Path(kuramoto_rc.__file__).parent / "experiments.py"
    runners = [
        node.name
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(name, ast.Name)
            and name.id in ("ProcessPoolExecutor", "_guarded")
            for name in ast.walk(node)
        )
    ]
    assert runners == ["_trial_records"]
