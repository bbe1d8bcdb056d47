"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import drope

MODULES = sorted(info.name for info in pkgutil.iter_modules(drope.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"drope.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"drope.{name}.__all__ names missing attributes: {missing}"


def test_package_root_binds_only_its_submodules():
    """Each public name has one import path, its module."""
    public = {name for name in vars(drope) if not name.startswith("_")}
    assert public <= set(MODULES), sorted(public - set(MODULES))


#: The defaulted public settings of the package; lower it when one goes.
SETTINGS_PINNED = 37


def defaulted_settings():
    """(name, count) for each dataclass field with a default and each function
    or method with keyword defaults, among the names of each module's ``__all__``.

    A class counts its members whose names do not start with an underscore
    (so not ``__init__``), and ``ClassVar`` annotations are not fields.
    """
    found = []
    for module in MODULES:
        public = set(getattr(importlib.import_module(f"drope.{module}"), "__all__", ()))
        tree = ast.parse(Path(drope.__file__).with_name(f"{module}.py").read_text())
        for node in tree.body:
            if getattr(node, "name", None) not in public:
                continue
            is_class = isinstance(node, ast.ClassDef)
            is_dataclass = is_class and any(
                "dataclass" in ast.unparse(decorator) for decorator in node.decorator_list
            )
            for member in node.body if is_class else [node]:
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                    count = len(member.args.defaults) + sum(
                        default is not None for default in member.args.kw_defaults
                    )
                elif (is_dataclass and isinstance(member, ast.AnnAssign)
                      and member.value is not None
                      and "ClassVar" not in ast.unparse(member.annotation)):
                    name, count = member.target.id, 1
                else:
                    continue
                if count and not (is_class and name.startswith("_")):
                    found.append((f"{module}.{node.name}.{name}" if is_class
                                  else f"{module}.{name}", count))
    return found


def test_defaulted_public_settings_do_not_grow():
    found = defaulted_settings()
    # the walk sees fields, keyword-only defaults and classmethods
    assert {("pipeline.PipelineConfig.d_model", 1), ("attention.mhsa", 3),
            ("pipeline.PipelineWeights.seeded", 1)} <= set(found)
    assert sum(count for _, count in found) <= SETTINGS_PINNED, found
