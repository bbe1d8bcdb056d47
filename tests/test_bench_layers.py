"""The benchmark's span tracer finds every layer name it rebinds in the program.

perfbench reports per-layer numbers by rebinding public names of the
``drope`` modules; a name that a refactor removes or renames would leave
its metric silently blank, so this checks that none is missing.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import drope.attention
import drope.cli
import drope.pipeline
import drope.profiling
import drope.rotary
import drope.scene
import drope.verification

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_layer_is_present():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    mods = SimpleNamespace(
        attention=drope.attention, cli=drope.cli, pipeline=drope.pipeline,
        profiling=drope.profiling, rotary=drope.rotary, scene=drope.scene,
        verification=drope.verification,
    )
    before = drope.pipeline.interaction_step
    tracer = spans.Tracer()
    try:
        spans.install_program_spans(tracer, mods)
        assert drope.pipeline.interaction_step is not before
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert drope.pipeline.interaction_step is before
