"""Every exported name resolves, so a deletion cannot leave a dangling export;
the public settings do not grow; and types that hold arrays compare by identity."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import drope
from drope.attention import AttentionOutput, AttentionRecord, PoseSet, QKVSet, RPEEncoders
from drope.pipeline import (
    ActionDistribution,
    PipelineConfig,
    PipelineWeights,
    RolloutResult,
    tokenize_scene,
)
from drope.rotary import FrequencySchedule
from drope.scene import MapSegment, make_scene

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
SETTINGS_PINNED = 27


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
    assert {("pipeline.PipelineConfig.d_model", 1), ("attention.mhsa", 2),
            ("pipeline.PipelineWeights.seeded", 1)} <= set(found)
    assert sum(count for _, count in found) <= SETTINGS_PINNED, found


CONFIG = PipelineConfig(d_model=8, n_heads=2, d_k=2, d_v=2, n_blocks=1)

#: A builder per dataclass that holds arrays; each call gives a new instance
#: of equal contents.
ARRAY_HOLDERS = {
    "Scene": lambda: make_scene(seed=1),
    "MapSegment": lambda: MapSegment.from_points(np.zeros((2, 2))),
    "QKVSet": lambda: QKVSet.random(3, 2, 2, 2, np.random.default_rng(0)),
    "PoseSet": lambda: PoseSet(np.zeros((3, 2)), np.zeros(3)),
    "RPEEncoders": lambda: RPEEncoders.seeded(2, 2),
    "AttentionOutput": lambda: AttentionOutput(np.zeros((3, 2, 2)), np.zeros((3, 4))),
    "AttentionRecord": lambda: AttentionRecord({"qkv": 4}, np.zeros((3, 2, 3))),
    "FrequencySchedule": lambda: FrequencySchedule(4, np.ones(4)),
    "BlockWeights": lambda: PipelineWeights.seeded(CONFIG).temporal,
    "PipelineWeights": lambda: PipelineWeights.seeded(CONFIG),
    "SceneTokens": lambda: tokenize_scene(make_scene(seed=1), PipelineWeights.seeded(CONFIG),
                                          CONFIG),
    "ActionDistribution": lambda: ActionDistribution(np.zeros((2, 1, 81))),
    "RolloutResult": lambda: RolloutResult(np.zeros((2, 3, 4)), [], 0.5),
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS)
def test_array_holders_compare_and_hash_by_identity(build):
    one, twin = build(), build()
    assert one == one and one != twin
    assert one in [twin, one] and twin not in [one]
    assert len({one, twin, one}) == 2


def test_every_array_holder_is_listed():
    """Each dataclass of the package with an ndarray field opts out of the
    field-wise ``__eq__``, and is listed above."""
    holders = set()
    for module in MODULES:
        tree = ast.parse(Path(drope.__file__).with_name(f"{module}.py").read_text())
        for node in tree.body:
            decorators = [ast.unparse(d) for d in getattr(node, "decorator_list", ())]
            fields = [ast.unparse(member.annotation) for member in getattr(node, "body", ())
                      if isinstance(member, ast.AnnAssign)]
            if any("dataclass" in d for d in decorators) and "np.ndarray" in fields:
                assert any("eq=False" in d for d in decorators), node.name
                holders.add(node.name)
    assert holders <= set(ARRAY_HOLDERS), sorted(holders - set(ARRAY_HOLDERS))
