"""The docs stay live: every cross-reference in the package docstrings and
README resolves, and README's examples run."""

import ast
import importlib
import pathlib
import re
import shlex

import pytest

from zsadjust.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zsadjust"
README = (ROOT / "README.md").read_text(encoding="utf-8")

ROLE = re.compile(r":(?:func|class|attr|meth|mod):`~?([\w.]+)`")


def _resolves(module, target):
    """Whether ``target`` names an attribute of ``module``, or, by its full
    dotted name, a module of the package or an attribute of one."""
    obj, names = module, target.split(".")
    if not hasattr(module, names[0]):
        for cut in range(len(names), 0, -1):
            try:
                obj = importlib.import_module(".".join(names[:cut]))
            except ImportError:
                continue
            names = names[cut:]
            break
        else:
            return False
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def _docstring_references():
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"zsadjust.{path.stem}".replace(
            ".__init__", ""))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node, clean=False) or ""
                for target in ROLE.findall(doc):
                    yield module, target


def test_docstring_references_resolve():
    refs = list(_docstring_references())
    assert refs
    dangling = [f"{module.__name__}: {target}" for module, target in refs
                if not _resolves(module, target)]
    assert not dangling


def test_readme_package_names_resolve():
    names = re.findall(r"`(zsadjust\.[\w.]+)`", README)
    assert names
    package = importlib.import_module("zsadjust")
    dangling = [name for name in names if not _resolves(package, name)]
    assert not dangling


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, re.S)


def test_readme_python_example_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_cli_example_runs(tmp_path, monkeypatch, capsys):
    (block,) = [b for b in _blocks("bash") if "zsadjust synth" in b]
    commands = [shlex.split(line) for line in
                block.replace("\\\n", " ").splitlines() if line.strip()]
    runnable = [argv[1:] for argv in commands
                if argv[1] in ("synth", "train", "eval")]
    assert [argv[0] for argv in runnable] == ["synth", "train", "eval"]
    monkeypatch.chdir(tmp_path)
    for argv in runnable:
        assert main(argv) == 0, capsys.readouterr().err
    assert (tmp_path / "eval" / "report.txt").is_file()


@pytest.mark.parametrize("module, target, ok", [
    ("zsadjust.mapping", "ClassStats.gram_eig", True),
    ("zsadjust.data", "zsadjust.mapping.class_stats", True),
    ("zsadjust.trainer", "no_such_name", False),
    ("zsadjust.data", "zsadjust.mapping.no_such_name", False),
])
def test_resolver_tells_live_from_dangling(module, target, ok):
    assert _resolves(importlib.import_module(module), target) is ok
