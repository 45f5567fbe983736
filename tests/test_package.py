"""The package's export rule: ``ribbonminor`` exports each module's
``__all__`` and nothing else, and the README's API list names only what it
exports."""

import importlib
import pkgutil
import re
from functools import reduce
from pathlib import Path

import ribbonminor

EXPORTING = ("arrow_core", "duality", "minor_ops", "minor_search", "predicates", "verify")

# backticked words of the README's API list that name no package attribute:
# a character, a parameter name, builtins, and methods or properties of the
# classes listed
NOT_NAMES = {"_", "edge", "len", "tuple", "apply", "parse", "labels", "n_edges"}


def _module(name):
    return importlib.import_module(f"ribbonminor.{name}")


def test_every_name_in_all_exists():
    for info in pkgutil.iter_modules(ribbonminor.__path__):
        module = _module(info.name)
        for name in module.__all__:
            assert hasattr(module, name), (info.name, name)


def test_package_exports_the_union_of_the_modules_all():
    submodules = {info.name for info in pkgutil.iter_modules(ribbonminor.__path__)}
    public = {name for name in vars(ribbonminor) if not name.startswith("_")}
    declared = set().union(*(_module(name).__all__ for name in EXPORTING))
    assert public - submodules == declared
    assert "ReportRow" in declared
    assert isinstance(ribbonminor.__version__, str)
    for name in EXPORTING:
        module = _module(name)
        for attr in module.__all__:
            assert getattr(ribbonminor, attr) is getattr(module, attr), (name, attr)


def test_readme_api_list_names_only_exports():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets = next(p for p in section.split("\n\n") if p.startswith("* "))
    for bullet in bullets.split("\n* "):
        module, rest = re.match(r"\*? ?`(\w+)`: (.*)", bullet, re.S).groups()
        assert module in EXPORTING, module
        for token in re.findall(r"`([^`]+)`", rest):
            name = re.sub(r"\(.*\)$", "", token)
            if name.isidentifier():
                assert name in NOT_NAMES or name in vars(ribbonminor), (module, name)
            elif re.fullmatch(r"\w+(\.\w+)+", name):
                # Class.attribute: the class is exported and has it
                head, *attrs = name.split(".")
                reduce(getattr, attrs, vars(ribbonminor)[head])
