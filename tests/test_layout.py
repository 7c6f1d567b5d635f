"""Every public name in src/sfw is reached inside the package or is API.

A public module-level function or class that no command, verify suite or
other package code refers to is either dead or a test oracle, and
belongs in tests/.  The only exceptions are the file-format functions
that README's *Library entry points* names for callers of the library.
The same holds for the public methods of every class in src/sfw.  And
cli registers every other module by name, except the subcommand modules
of sfw.commands, so that table must name exactly the other modules of
the package.  No module imports cli: under `python -m sfw.cli` it runs
as __main__, and an import by name would run it again.  Finally, no
module imports dataclasses, and only verify imports fractions at the
top: each costs every command that runs the module its start-up time.
And only permgroup reads the coset labels `coset_of`; every other module
moves cosets by CosetData.action.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FORMAT_API = {"group_to_json", "graph_from_json"}


def module_name(path: Path) -> str:
    """The dotted name of a module of src/sfw below sfw, as "commands.index".

    A package's __init__ keeps that stem: "__init__", "commands.__init__".
    """
    relative = path.relative_to(ROOT / "src" / "sfw").with_suffix("")
    return ".".join(relative.parts)


def package_trees() -> list:
    """(module name, parsed tree) for every module of src/sfw."""
    return [(module_name(path), ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted((ROOT / "src" / "sfw").rglob("*.py"))]


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


def is_property(function: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property"
               for d in function.decorator_list)


def unreferenced_public_methods() -> list:
    """Class.method for public methods that the package never names.

    A property is reached by any `x.name`.  A method counts as reached
    only when some call `x.name(...)` spells it: a plain attribute of
    that name may be a field of another class (several NamedTuples have
    a `subgroup` field), which would hide a method called from tests
    alone, or not at all.
    """
    methods, attributes, calls = [], set(), set()
    for _, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods.extend((node.name, item.name, is_property(item))
                               for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                calls.add(node.func.attr)
    return sorted("%s.%s" % (cls, name) for cls, name, prop in methods
                  if name not in (attributes if prop else calls))


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


def test_no_module_imports_fractions_at_the_top():
    # only local_index_combine and the verify case that calls it use
    # Fraction, and they import it when they run
    assert importers("fractions", top_level_only=True) == []
    assert sorted(importers("fractions")) == ["indexarith", "verify"]


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
    # a misspelt entry would otherwise fail only at its first use; the
    # subcommand modules are imported when one is dispatched instead
    from sfw import cli
    stems = {stem for stem, _ in package_trees() if "." not in stem}
    assert "commutant" in stems
    assert sorted(cli.LAZY_MODULES) == sorted(
        stems - {"__init__", "cli", "config", "errors"})
    commands = {stem for stem, _ in package_trees()
                if stem.startswith("commands.")}
    assert commands == {"commands.__init__"} | {
        "commands." + name for name, _ in cli.SUBCOMMANDS}


def imported_modules(stem: str, tree) -> set:
    """The absolute names below sfw that a module's imports name.

    `from . import x` names x itself, and `from .x import y` names x.
    """
    package = stem.split(".")[:-1]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[:len(package) - node.level + 1]
                base = ".".join(["sfw"] + base)
            else:
                base = ""
            module = ".".join(filter(None, [base, node.module]))
            found.add(module)
            found.update("%s.%s" % (module, alias.name)
                         for alias in node.names)
    return {name[len("sfw."):] for name in found
            if name.startswith("sfw.")}


def test_no_module_imports_cli():
    importing = sorted(stem for stem, tree in package_trees()
                       if "cli" in imported_modules(stem, tree))
    assert importing == []
    # the check reads every spelling that names the module
    for text in ("from . import cli", "from .cli import main",
                 "import sfw.cli", "from sfw import cli"):
        assert "cli" in imported_modules("verify", ast.parse(text))
    for text in ("from .. import cli", "from ..cli import main"):
        assert "cli" in imported_modules("commands.index", ast.parse(text))
    assert "cli" not in imported_modules(
        "commands.index", ast.parse("from . import cli"))


def reads_attribute(tree, attribute: str) -> bool:
    """Whether a parsed module reads `x.attribute` anywhere."""
    return any(isinstance(node, ast.Attribute) and node.attr == attribute
               for node in ast.walk(tree))


def test_only_permgroup_reads_the_coset_labels():
    # every other module moves cosets by CosetData.action, so how the
    # cosets are found and labelled can change inside permgroup alone
    reading = sorted(stem for stem, tree in package_trees()
                     if reads_attribute(tree, "coset_of"))
    assert reading == ["permgroup"]
    for text in ("cosets.coset_of[g]", "c = data.coset_of",
                 "f(x.coset_of.get)"):
        assert reads_attribute(ast.parse(text), "coset_of")
    assert not reads_attribute(ast.parse("cosets.coset_index(g)"),
                               "coset_of")
