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
