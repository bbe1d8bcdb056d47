"""In-memory span tracer that times the program through its public names.

The tracer rebinds public functions in the program's module namespaces (and
methods on its classes) with timing wrappers, so the program's own calls go
through them. Each span records a name, a start, an end and the index of the
span that was open when it began. Spans stay in memory until the run ends.
A layer's self time is its span durations minus the time its child spans
cover; the program is single-threaded, so child spans nest inside parents.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent index or -1]
        self.counters: Counter = Counter()
        self.absent: list[str] = []      # layers whose public name was not found
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._origin = time.perf_counter_ns()

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around harness code, such as one benchmark operation."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                try:
                    key, amount = count(*args, **kwargs)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # the call's arguments no longer have the counted shape
                    if f"{name} (count)" not in self.absent:
                        self.absent.append(f"{name} (count)")
                else:
                    self.counters[key] += amount
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def install(self, owner, attr: str, name: str, count=None) -> None:
        """Rebind ``owner.attr`` (a module or a class) to a timing wrapper.

        ``count(*args, **kwargs)`` may return a ``(counter, amount)`` pair to
        add on every call. A missing or non-callable name is recorded as an
        absent layer rather than raised, so a refactor that renames a public
        function loses that layer's numbers and nothing else.
        """
        if isinstance(owner, type):
            raw = vars(owner).get(attr)
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        else:
            raw = fn = getattr(owner, attr, None)
        if not callable(fn):
            if name not in self.absent:
                self.absent.append(name)
            return
        wrapped = self._wrap(name, fn, count)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(wrapped)
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: number of calls, total and self milliseconds."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["total_ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child_ns[index]) / 1e6
        return out

    def span_records(self) -> list[dict]:
        """Spans with times in nanoseconds since the tracer was created."""
        return [
            {"name": name, "start_ns": start - self._origin, "end_ns": end - self._origin,
             "parent": parent}
            for name, start, end, parent in self.spans
        ]


def install_program_spans(tracer: Tracer, mods) -> None:
    """Rebind the public names of every layer the benchmark reports.

    Names are rebound in the namespace the program looks them up in, so, for
    example, the pipeline's attention calls are traced through
    ``drope.pipeline.mhsa`` and the engine's rotations through
    ``drope.attention.rotate_pairs``.
    """
    p, a, r = mods.pipeline, mods.attention, mods.rotary
    for stage in ("tokenize_scene", "temporal_step", "decode_actions"):
        tracer.install(p, stage, f"pipeline.{stage}")
    tracer.install(p, "interaction_step", "pipeline.interaction_step",
                   count=_agent_tokens)
    for kind in ("mhsa", "mhca", "mhsa_causal"):
        tracer.install(p, kind, f"attention.{kind}")
        tracer.install(a, kind, f"attention.{kind}")
    tracer.install(mods.profiling, "mhsa", "attention.mhsa")
    tracer.install(a, "rotate_pairs", "rotary.rotate_pairs")
    tracer.install(r, "rotate_pairs", "rotary.rotate_pairs")
    tracer.install(r.FrequencySchedule, "default", "rotary.FrequencySchedule.default")
    tracer.install(p, "kinematic_step", "kinematics.kinematic_step")
    tracer.install(mods.scene, "make_scene", "scene.make_scene")
    tracer.install(mods.scene.Scene, "with_appended_states", "scene.with_appended_states")
    v = mods.verification
    tracer.install(mods.cli, "run_verification", "verification.run_verification")
    tracer.install(v, "mhsa", "verification.engine")
    for scalar in ("rope_embed", "drope_embed", "rotate2d"):
        tracer.install(v, scalar, "verification.rotary_scalar")
    tracer.install(mods.cli, "sweep", "profiling.sweep")
    tracer.install(mods.profiling, "verify_memory_ledger", "profiling.verify_memory_ledger")
    tracer.install(mods.cli, "main", "cli.main")


def _agent_tokens(tokens, *_args, **_kwargs):
    n_agents, n_steps = tokens.agent_tokens.shape[:2]
    return "pipeline.agent_tokens_encoded", n_agents * n_steps


#: Span names reported as layers, in report order.
LAYER_SPANS = (
    "pipeline.tokenize_scene",
    "pipeline.interaction_step",
    "pipeline.temporal_step",
    "pipeline.decode_actions",
    "attention.mhsa",
    "attention.mhca",
    "attention.mhsa_causal",
    "rotary.rotate_pairs",
    "rotary.FrequencySchedule.default",
    "kinematics.kinematic_step",
    "scene.make_scene",
    "scene.with_appended_states",
    "verification.run_verification",
    "verification.engine",
    "verification.rotary_scalar",
    "profiling.sweep",
    "profiling.verify_memory_ledger",
    "cli.main",
)
