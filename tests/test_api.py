"""The package's public name lists, and no import without a use."""

import ast
import re
import types
from pathlib import Path

import pytest

import wfaug
import wfaug.nn
from wfaug import cli
from wfaug.manifest import KNOWN_KEYS


@pytest.mark.parametrize("package", [wfaug, wfaug.nn])
def test_all_names_public_objects_that_resolve(package):
    assert package.__all__
    assert len(set(package.__all__)) == len(package.__all__)
    for name in package.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(package, name), types.ModuleType)


@pytest.mark.parametrize("package", ["wfaug", "wfaug.nn"])
def test_star_import_binds_every_listed_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(
        __import__(package, fromlist=["__all__"]).__all__)


def test_top_level_reexports_nn_api():
    assert set(wfaug.nn.__all__) <= set(wfaug.__all__)


def imported_but_unused(source: str) -> set:
    """Names a module binds by import and never reads."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_import_is_found():
    assert imported_but_unused(
        "import os, os.path as p\nfrom __future__ import annotations\n"
        "from x import y, z as w\nimport a.b\nw(a.b)\n") == {"os", "p", "y"}


# an __init__.py imports to re-export, so only the other modules are checked
@pytest.mark.parametrize("path", sorted(
    p.relative_to(Path(wfaug.__file__).parent).as_posix()
    for p in Path(wfaug.__file__).parent.rglob("*.py")
    if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(path):
    source = (Path(wfaug.__file__).parent / path).read_text(encoding="utf-8")
    assert imported_but_unused(source) == set()


def numpy_random_calls(source: str) -> set:
    """Dotted names, from ``numpy.random`` on, of the calls a module makes
    into ``numpy.random`` under whatever name it imported."""
    tree = ast.parse(source)
    alias = {}  # a bound name -> the dotted name it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                alias[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                alias[a.asname or a.name] = f"{node.module}.{a.name}"
    calls = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id in alias:
            name = ".".join([alias[func.id], *reversed(parts)])
            if name.startswith("numpy.random."):
                calls.add(name)
    return calls


def test_numpy_random_call_is_found():
    assert numpy_random_calls(
        "import numpy as np\nimport numpy.random as npr\n"
        "from numpy.random import default_rng as d\nfrom numpy import random\n"
        "def f(rng: np.random.Generator) -> np.random.Generator:\n"
        "    np.random.PCG64(1); npr.SeedSequence(2); d(3)\n"
        "    random.Generator(4); rng.random(5); np.zeros(6)\n") == {
        "numpy.random.PCG64", "numpy.random.SeedSequence",
        "numpy.random.default_rng", "numpy.random.Generator"}


# every stream comes from seeding.derive_rng; annotations are not calls
@pytest.mark.parametrize("path", sorted(
    p.relative_to(Path(wfaug.__file__).parent).as_posix()
    for p in Path(wfaug.__file__).parent.rglob("*.py")))
def test_only_seeding_calls_numpy_random(path):
    source = (Path(wfaug.__file__).parent / path).read_text(encoding="utf-8")
    calls = numpy_random_calls(source)
    if path == "seeding.py":
        assert calls == {"numpy.random.Generator", "numpy.random.PCG64",
                         "numpy.random.SeedSequence"}
    else:
        assert calls == set()


def readme_text() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")


def test_subcommand_lists_name_the_command_table():
    # both lists are written by hand: cli's docstring and README's row
    readme = readme_text()
    listed = [re.search(r"^Subcommands: ([a-z, ]+)\.", cli.__doc__, re.M),
              re.search(r"^\| `wfaug\.cli` \| `wfaug` command: ([a-z, ]+) \|$",
                        readme, re.M)]
    for match in listed:
        assert match and match.group(1).split(", ") == list(cli.COMMANDS)
    # README's flag table, by hand too: the common flags, then cli.COMMANDS
    table = readme.split("| flag | key |\n| --- | --- |\n", 1)[1]
    flags = [("--seed", "run.seed"), ("--out", "out.dir")] + [
        (f"{name} {flag}", key) for name, (_, _, given) in cli.COMMANDS.items()
        for flag, key in given.items()]
    assert table.split("\n\n", 1)[0].splitlines() == [
        f"| `{flag}` | `{key}` |" for flag, key in flags]


def test_key_table_names_the_registry():
    # README's key table is written by hand: every key and kind, in order
    table = readme_text().split("| key | kind |\n| --- | --- |\n", 1)[1]
    assert table.split("\n\n", 1)[0].splitlines() == [
        f"| `{key}` | {kind} |" for key, kind in KNOWN_KEYS.items()]
