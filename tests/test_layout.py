"""Every public name in src/sfw is reached inside the package or is API.

A public module-level function or class that no command, verify suite or
other package code refers to is either dead or a test oracle, and
belongs in tests/.  The only exceptions are the file-format functions
that README's *Library entry points* names for callers of the library.
The same holds for the public methods of every class in src/sfw, and a
method whose name another class also defines is listed, with where it
is read, in a map reviewed by hand.  Every field of a public record is
read by name in the package, but for one that only the test oracles
read.  And
cli registers every other module by name, except the subcommand modules
of sfw.commands, so that table must name exactly the other modules of
the package.  No module imports cli: under `python -m sfw.cli` it runs
as __main__, and an import by name would run it again.  Finally, no
module imports dataclasses, and only verify imports fractions at the
top: each costs every command that runs the module its start-up time.
And only permgroup reads the coset labels `coset_of`; every other module
moves cosets by CosetData.action.  Every check raises at its first
failure, so no class outside verify's outcome records has an `ok`.  And
one function of sfw.cocycle checks the crossed-product law, for both
the extensions and the crossed products, and none re-checks the cocycle
axioms that the law implies; one function of sfw.verify
checks the theta law, which `induce` does not re-check.  Every cap is
met by a CapExceededError that names the Config field it reads, but for
the two limits fixed in the code and mulclose, which passes its
caller's field.
"""

from __future__ import annotations

import ast
from pathlib import Path

from sfw.config import config_fields

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
    only when some call `x.name(...)` spells it, or its own class names
    it, as `key=Perm.sort_key` does: a plain attribute of that name may
    be a field of another class (several NamedTuples have a `subgroup`
    field), which would hide a method called from tests alone, or not
    at all.
    """
    methods, attributes, calls, named = [], set(), set(), set()
    for _, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods.extend((node.name, item.name, is_property(item))
                               for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name):
                    named.add("%s.%s" % (node.value.id, node.attr))
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                calls.add(node.func.attr)
    return sorted("%s.%s" % (cls, name) for cls, name, prop in methods
                  if name not in (attributes if prop else calls)
                  and "%s.%s" % (cls, name) not in named)


def unread_record_fields(trees=None) -> set:
    """Class.field for fields of public NamedTuples that no `x.field` reads.

    A record field is read by name, so one that no attribute of the
    package spells is carried for nothing, or for tests alone.  A read
    of the name counts for every class with a member of that name, so a
    field whose name another class also uses (`group`, `sizes`,
    `subgroup`, ...) may be unread and pass; such fields are checked by
    review, not by this scan.  trees defaults to package_trees().
    """
    fields, read = [], set()
    for _, tree in trees or package_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef)
                    and not node.name.startswith("_")
                    and any(getattr(base, "id", None) == "NamedTuple"
                            for base in node.bases)):
                fields.extend((node.name, item.target.id)
                              for item in node.body
                              if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name))
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {"%s.%s" % (cls, name) for cls, name in fields
            if name not in read}


# Each public method or property whose name another class of src/sfw
# defines too, as a method, property or field, with where the package
# reads it.  A read of the name counts for every class that defines it,
# so unreferenced_public_methods cannot tell these apart; they are
# checked by hand instead.
SHARED_MEMBERS = {
    "ConjClassData.count": "chartab.character_table, commands.chartab",
    # dropping it waits for a benchmark change (ROADMAP item 1)
    "DoubleCosetData.count": "perfbench/tests/test_perfbench.py alone",
    "Perm.degree": "permgroup.mulclose, permgroup.homomorphism_from_images",
    "Perm.identity": "permgroup.parse_cycle_string, "
                     "cocycle._check_crossed_law",
    "PermGroup.identity": "verify._suite_theta, theta, cocycle, wreath",
    "PermGroup.subgroup": "corpus._case_by_name",
    "VerifyReport.ok": "commands.verify.run",
    "VerifyReport.skipped": "commands.verify.run",
}


def shared_public_members() -> list:
    """Class.member for public methods whose name another class defines.

    A class defines a name by a method, a property or an annotated
    field, as NamedTuples declare theirs.
    """
    methods, owners = [], {}
    for _, tree in package_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                    methods.append((node.name, name))
                elif (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    name = item.target.id
                else:
                    continue
                owners.setdefault(name, set()).add(node.name)
    return sorted("%s.%s" % (cls, name) for cls, name in methods
                  if not name.startswith("_") and len(owners[name]) > 1)


def importers(module: str) -> list:
    """The modules of src/sfw with an import statement naming `module`."""
    found = []
    for stem, tree in package_trees():
        for node in ast.walk(tree):
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


def test_no_module_imports_random():
    # the verify suites check exhaustively at the size of the generators;
    # a seeded sample would pass faults at the elements it never draws
    assert importers("random") == []


def test_no_module_imports_fractions_at_the_top():
    # no module imports it anywhere: integer counting and group products
    # leave no exact rationals to compute, and the test-only references
    # that use Fraction live in tests/oracles.py
    assert importers("fractions") == []


def test_every_public_method_is_referenced_in_the_package():
    assert unreferenced_public_methods() == []


def test_every_record_field_is_read_in_the_package():
    # is_character is read only by the float inner product of
    # tests/oracles.py, which trusts a multiplicity only between two
    # genuine characters; the exact table never needs to ask
    assert unread_record_fields() == {"ClassFunction.is_character"}
    # the scan sees a field that nothing reads
    spare = ast.parse("class Spare(NamedTuple):\n    spare_field: int\n")
    assert unread_record_fields(package_trees() + [("spare", spare)]) == {
        "ClassFunction.is_character", "Spare.spare_field"}


def test_every_shared_member_name_is_reviewed():
    # equality, so a member that stops sharing its name leaves the map too
    assert shared_public_members() == sorted(SHARED_MEMBERS)


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


def test_checks_raise_instead_of_returning_verdicts():
    # a check raises at its first failure; only verify's records, which
    # collect the outcomes of many checks, carry an `ok`
    verdicts = []
    for stem, tree in package_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, ast.AnnAssign):
                    names = [getattr(item.target, "id", None)]
                elif isinstance(item, ast.Assign):
                    names = [getattr(t, "id", None) for t in item.targets]
                else:
                    continue
                if "ok" in names:
                    verdicts.append("%s.%s" % (stem, node.name))
    assert sorted(verdicts) == ["verify.CaseResult", "verify.VerifyReport"]


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


CROSSED_LAW = ("lift of the identity is not 1", "multiplication law fails",
               "twisted product relation fails", "conjugation relation fails")
# the textbook cocycle axioms, which the crossed law implies
COCYCLE_AXIOMS = ("identity does not act trivially", "composition law fails",
                  "twisted associativity fails",
                  "value is not an automorphism")
THETA_LAW = ("theta is not multiplicative",)


def law_raisers(tree, messages: tuple) -> list:
    """The module-level functions that raise a message led by one of these."""
    found = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for raised in ast.walk(node):
            if isinstance(raised, ast.Raise) and any(
                    isinstance(c, ast.Constant) and isinstance(c.value, str)
                    and c.value.startswith(messages)
                    for c in ast.walk(raised)):
                found.append(node.name)
                break
    return found


def package_law_raisers(messages: tuple) -> list:
    return ["%s.%s" % (stem, name) for stem, tree in package_trees()
            for name in law_raisers(tree, messages)]


def test_one_function_checks_the_crossed_product_law():
    # extension_from_out and crossed_product_check share one loop over
    # the law, so a second hand-written copy fails here
    assert package_law_raisers(CROSSED_LAW) == ["cocycle._check_crossed_law"]
    copy = ast.parse(
        "def f(r):\n"
        "    for x in r:\n"
        "        if x:\n"
        "            raise E('conjugation relation fails', (x,))\n")
    assert law_raisers(copy, CROSSED_LAW) == ["f"]


def test_no_function_checks_the_cocycle_axioms_again():
    # the crossed law on every base element gives them (the proof is in
    # the docstring of cocycle._check_crossed_law), so a second loop
    # over the axioms fails here
    assert package_law_raisers(COCYCLE_AXIOMS) == []
    copy = ast.parse(
        "def f(q):\n"
        "    for g in q:\n"
        "        raise E('twisted associativity fails', (g, g, g))\n")
    assert law_raisers(copy, COCYCLE_AXIOMS) == ["f"]


def calls_in(tree, function: str) -> set:
    """The names that the module-level `function` calls, bare or as x.name."""
    node = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return {getattr(call.func, "id", getattr(call.func, "attr", None))
            for call in ast.walk(node) if isinstance(call, ast.Call)}


def test_one_function_checks_the_theta_law():
    # theta is a homomorphism by construction (ThetaMap.matrix); verify
    # checks the law on both transversals with one function, and the
    # map `induce` prints is built without computing a matrix
    assert package_law_raisers(THETA_LAW) == ["verify._check_theta_law"]
    trees = dict(package_trees())
    called = calls_in(trees["theta"], "induced_theta")
    assert not called & {"matrix", "theta_matrix_product",
                         "_check_theta_law"}
    assert not any(name.startswith(("_check", "verify")) for name in called)
    # the scan sees a call of a law check
    copy = ast.parse("def induced_theta(G, K):\n"
                     "    theta = ThetaMap(c, 1)\n"
                     "    _check_on_generators(theta)\n"
                     "    return theta\n")
    assert "_check_on_generators" in calls_in(copy, "induced_theta")


# (function, cap, field) of the CapExceededError calls that name no
# Config field: the two limits fixed in the code, and mulclose, which
# passes on the field its caller names
CAP_EXCEPTIONS = {
    ("automorphisms.automorphism_group", "CANDIDATE_CAP", None),
    ("chartab._character_table", "CLASS_CAP", None),
    ("permgroup.mulclose", "cap", "field"),
}


def cap_raise_sites() -> list:
    """(module.function, cap, field) per CapExceededError call, as source.

    cap and field are the source of those arguments, None where one is
    left out.  A call is credited to its innermost enclosing function.
    """
    sites = {}
    for stem, tree in package_trees():
        # ast.walk visits an outer function before the ones inside it
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "CapExceededError"):
                    continue
                args = dict(zip(("measure", "value", "cap", "field"),
                                node.args))
                args.update((kw.arg, kw.value) for kw in node.keywords)
                cap, field = (args.get(name) for name in ("cap", "field"))
                sites[id(node)] = ("%s.%s" % (stem, function.name),
                                   *(None if arg is None else ast.unparse(arg)
                                     for arg in (cap, field)))
    return sorted(sites.values(), key=str)


def test_every_cap_names_the_config_field_it_reads():
    # each exit 4 names its flag, so a cap outside Config has to be
    # listed here by hand
    caps = {repr(name) for name, kind in config_fields() if kind is int}
    sites = cap_raise_sites()
    named = [(where, cap, field) for where, cap, field in sites
             if (where, cap, field) not in CAP_EXCEPTIONS]
    assert set(sites) >= CAP_EXCEPTIONS
    for where, cap, field in named:
        assert field in caps and cap == "config." + field[1:-1], where
    # and every cap of Config is met somewhere
    assert {field for _, _, field in named} == caps
