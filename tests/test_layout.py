"""Every public name in src/sfw is reached inside the package or is API.

A public module-level function or class that no command, verify suite or
other package code refers to is either dead or a test oracle, and
belongs in tests/.  The only exceptions are the file-format functions
that README's *Library entry points* names for callers of the library.
The same holds for the public methods of every class in src/sfw.  And
cli registers every other module by name, so that table must name
exactly the modules of the package.  Finally, no module imports
dataclasses, and only verify imports fractions at the top: each costs
every command that runs the module its start-up time.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FORMAT_API = {"group_to_json", "graph_from_json"}


def package_trees() -> list:
    """(module name, parsed tree) for every module of src/sfw."""
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted((ROOT / "src" / "sfw").glob("*.py"))]


def unreached_public_names() -> dict:
    """{name: module} for public definitions no Name or Attribute uses."""
    defined, used = {}, set()
    for stem, tree in package_trees():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {name: module for name, module in defined.items()
            if name not in used}


def unreferenced_public_methods() -> list:
    """Class.method for public methods that no attribute access names.

    A method is reached only through an attribute, so a name that no
    `x.name` in src/sfw spells is called from tests alone, or not at all.
    """
    methods, attributes = [], set()
    for _, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods.extend((node.name, item.name) for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return sorted("%s.%s" % (cls, name) for cls, name in methods
                  if name not in attributes)


def importers(module: str, top_level_only: bool = False) -> list:
    """The modules of src/sfw with an import statement naming `module`."""
    found = []
    for stem, tree in package_trees():
        nodes = tree.body if top_level_only else ast.walk(tree)
        for node in nodes:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == module for name in names):
                found.append(stem)
                break
    return found


def test_no_module_imports_dataclasses():
    # record classes are NamedTuples; dataclasses costs every command
    # its import and the code it generates per class
    assert importers("dataclasses") == []


def test_only_verify_imports_fractions_at_the_top():
    # elsewhere only the oracle functions use Fraction, and import it
    assert importers("fractions", top_level_only=True) == ["verify"]


def test_every_public_method_is_referenced_in_the_package():
    assert unreferenced_public_methods() == []


def test_every_public_name_is_reached_or_format_api():
    # equality, so an allowlist entry the package starts to use fails too
    unreached = unreached_public_names()
    assert set(unreached) == FORMAT_API, sorted(
        "%s.%s" % (module, name) for name, module in unreached.items())


def test_format_api_is_named_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library entry points", 1)[1].split("\n## ")[0]
    for name in sorted(FORMAT_API):
        assert "`%s`" % name in section, name


def test_cli_registers_every_other_module_lazily():
    # a misspelt entry would otherwise fail only at its first use
    from sfw import cli
    stems = {stem for stem, _ in package_trees()}
    assert sorted(cli.LAZY_MODULES) == sorted(
        stems - {"__init__", "cli", "config", "errors"})
