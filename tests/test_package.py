import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import kuramoto_rc
from kuramoto_rc import ReservoirConfig


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


def test_only_run_runs_jobs():
    # _plan lists a study's jobs and _run alone guards and runs them.
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
    assert runners == ["_run"]


def test_only_run_config_reads_the_default_rows():
    # RunConfig.__post_init__ alone resolves the task and command rows; the
    # command list is drawn from the command rows.
    source = Path(kuramoto_rc.__file__).parent / "cli.py"
    readers = []
    for node in ast.parse(source.read_text(encoding="utf-8")).body:
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for scope in node.body if prefix else [node]:
            if any(
                isinstance(name, ast.Name)
                and isinstance(name.ctx, ast.Load)
                and name.id in ("TASK_DEFAULTS", "COMMAND_DEFAULTS")
                for name in ast.walk(scope)
            ):
                readers.append(
                    prefix + scope.name if hasattr(scope, "name") else ast.unparse(scope)
                )
    assert readers == ["COMMANDS = tuple(COMMAND_DEFAULTS)", "RunConfig.__post_init__"]


def test_only_make_result_builds_tables():
    # Jobs return their tables' columns as arrays; one function keys and
    # stores them. Methods of _BlockRows itself are not module-level.
    source = Path(kuramoto_rc.__file__).parent / "experiments.py"
    builders = [
        node.name
        for node in ast.parse(source.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(name, ast.Name) and name.id == "_BlockRows"
            for name in ast.walk(node)
        )
    ]
    assert builders == ["_make_result"]


def experiments_functions() -> list[ast.FunctionDef]:
    source = Path(kuramoto_rc.__file__).parent / "experiments.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    return [node for node in tree.body if isinstance(node, ast.FunctionDef)]


def test_no_study_takes_a_reservoir_setting_as_a_parameter():
    # A study reads every reservoir setting from its spec's base or axes.
    settings = {f.name for f in fields(ReservoirConfig)}
    shadowed = [
        f"{node.name}({arg.arg})"
        for node in experiments_functions()
        if node.name.startswith("run_")
        for arg in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
        if arg.arg in settings
    ]
    assert shadowed == []


def test_only_the_trial_0_reader_and_the_pipeline_job_make_tasks():
    callers = [
        node.name
        for node in experiments_functions()
        if any(
            isinstance(name, ast.Name) and name.id == "make_task"
            for name in ast.walk(node)
        )
    ]
    assert sorted(callers) == ["_pipeline_job", "_trial0_inputs"]


def test_runtime_loads_no_scipy(tmp_path):
    # numpy is the one BLAS/LAPACK of a run; scipy is a test oracle only.
    code = (
        "import sys\n"
        "import kuramoto_rc\n"
        "from kuramoto_rc import cli\n"
        "flags = ['--n', '20', '--len-adev', '8', '--len-train', '40',\n"
        "         '--len-test', '10', '--weight-inits', '1,1', '--bins', '5']\n"
        "for command in ('run', 'weights'):\n"
        "    outdir = sys.argv[1] + '/' + command\n"
        "    assert cli.main([command, *flags, '--outdir', outdir]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(kuramoto_rc.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
