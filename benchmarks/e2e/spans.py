"""In-memory span tracer that wraps the program's public functions.

The end-to-end benchmark measures the program untraced; a separate traced
pass installs a :class:`Tracer`, which swaps each function or method
named in :data:`LAYERS` for a wrapper that records one span per call:
name, start, end, parent span, operation id and a few counters read from
the call's arguments or result.  Nothing under ``src/`` is modified.

A function is patched *where it is looked up*: every loaded ``repro``
module attribute that is the same object as the target is replaced, so
``repro.sim.parallel.run`` (a ``from .engine import run`` alias) and
lazy ``from ..registry import build_instance`` lookups both see the
wrapper.  A method is patched on its class and on every subclass that
defines its own copy.  Spans recorded in forked pool children are not
collected: the wrapper calls straight through in any process other than
the one that installed it.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = ["LAYERS", "Span", "Tracer", "self_times", "union_length"]


# -- counters read at the layer boundaries ----------------------------------


def _protocol_family(protocol: Any) -> str:
    from repro.core.protocols import (
        MultiProbeProtocol,
        NeighborhoodSamplingProtocol,
        PermitProtocol,
        QoSSamplingProtocol,
    )

    families = {
        QoSSamplingProtocol: "qos-sampling",
        MultiProbeProtocol: "multi-probe",
        PermitProtocol: "permit",
        NeighborhoodSamplingProtocol: "neighborhood",
    }
    return families.get(type(protocol), "other")


def _step_attrs(args, kwargs, result) -> dict[str, Any]:
    return {
        "label": _protocol_family(args[0]),
        "moves": int(result.n_moved),
        "attempts": int(result.n_attempted),
    }


def _batched_attrs(args, kwargs, result) -> dict[str, Any]:
    return {
        "rounds": sum(r.rounds for r in result),
        "user_rounds": sum(r.rounds * r.n_users for r in result),
    }


def _render_attrs(args, kwargs, result) -> dict[str, Any]:
    return {"label": args[0].experiment_id}


def _run_cells_attrs(args, kwargs, result) -> dict[str, Any]:
    return {"cells_run": int(result["run"]), "cells_cached": int(result["cached"])}


def _put_attrs(args, kwargs, result) -> dict[str, Any]:
    return {"bytes": Path(result).stat().st_size}


def _merge_attrs(args, kwargs, result) -> dict[str, Any]:
    return {"records": int(result["records"]), "bad_lines": int(result["bad_lines"])}


def _serve_attrs(args, kwargs, result) -> dict[str, Any]:
    return {
        "workers": int(result["workers"]),
        "lease_expiries": int(result["lease_expiries"]),
        "bad_frames": int(result["bad_frames"]),
    }


@dataclass(frozen=True)
class Layer:
    """One wrapped boundary: ``target`` is ``module:function`` or
    ``module:Class.method``."""

    span: str
    target: str
    attrs: Callable[..., dict[str, Any]] | None = None


#: Every boundary the traced run records, named ``<module>.<function>``.
LAYERS: tuple[Layer, ...] = (
    Layer("workloads.build_instance", "repro.registry:build_instance"),
    Layer("sim.schedule.active_mask", "repro.sim.schedule:Schedule.active_mask"),
    Layer("core.protocols.step", "repro.core.protocols.base:Protocol.step", _step_attrs),
    Layer("core.protocols.is_quiescent", "repro.core.protocols.base:Protocol.is_quiescent"),
    Layer("core.state.satisfied_mask", "repro.core.state:State.satisfied_mask"),
    Layer("sim.engine.run", "repro.sim.engine:run"),
    Layer("sim.batch.replicate_batched", "repro.sim.batch:replicate_batched", _batched_attrs),
    Layer("sim.batch.batch_support", "repro.sim.batch:batch_support"),
    Layer("sim.parallel.replicate", "repro.sim.parallel:replicate"),
    Layer("experiments.enumerate", "repro.runs.sweep:enumerate_sweep"),
    Layer("experiments.render", "repro.experiments:ExperimentDef.run", _render_attrs),
    Layer("core.feasibility.max_satisfied", "repro.core.feasibility:max_satisfied"),
    Layer("runs.scheduler.run_cells", "repro.runs.scheduler:run_cells", _run_cells_attrs),
    Layer("runs.store.put", "repro.runs.store:ResultStore.put", _put_attrs),
    Layer("runs.store.has", "repro.runs.store:ResultStore.has"),
    Layer("runs.store.load", "repro.runs.store:ResultStore.load_results"),
    Layer("runs.journal.append", "repro.runs.journal:Journal.append"),
    Layer("obs.aggregate.merge", "repro.obs.aggregate:merge_events", _merge_attrs),
    Layer("runs.net.serve", "repro.runs.net:serve_sweep", _serve_attrs),
)


# -- spans and self time ----------------------------------------------------


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    attrs: dict[str, Any] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - union_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


# -- the tracer -------------------------------------------------------------


def _program_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


@dataclass
class _Patch:
    owner: Any
    attr: str
    original: Any


@dataclass
class Tracer:
    """Records spans around :data:`LAYERS` while installed.

    ``op`` is the current operation id; the runner sets it around each
    operation it issues, and every span recorded meanwhile (in any
    thread) carries it.
    """

    spans: list[Span] = field(default_factory=list)
    op: str | None = None
    _patches: list[_Patch] = field(default_factory=list)
    _ids: Any = field(default_factory=itertools.count)
    _local: threading.local = field(default_factory=threading.local)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(
        self, name: str, start: float, end: float, span_id: int, parent: int | None, attrs
    ) -> None:
        self.spans.append(Span(span_id, name, start, end, parent, self.op, attrs))

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        tracer, pid, clock = self, os.getpid(), time.perf_counter

        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                tracer._record(name, start, clock(), span_id, parent, None)
                raise
            end = clock()
            stack.pop()
            tracer._record(
                name, start, end, span_id, parent,
                attrs(args, kwargs, result) if attrs is not None else None,
            )
            return result

        traced.__wrapped__ = fn
        traced.__traced__ = self
        return traced

    def span(self, name: str) -> "_ManualSpan":
        """A span the runner opens itself (one per operation)."""
        return _ManualSpan(self, name)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            module_name, _, qualname = layer.target.partition(":")
            owner = importlib.import_module(module_name)
            if "." in qualname:
                class_name, method = qualname.split(".")
                self._patch_method(getattr(owner, class_name), method, layer)
            else:
                self._patch_function(getattr(owner, qualname), layer)

    def _patch_function(self, fn: Callable, layer: Layer) -> None:
        wrapper = self.wrap(layer.span, fn, layer.attrs)
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append(_Patch(module, attr, fn))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls: type, method: str, layer: Layer) -> None:
        todo, seen = [cls], set()
        while todo:
            klass = todo.pop()
            if klass in seen:  # reachable twice under multiple inheritance
                continue
            seen.add(klass)
            todo.extend(klass.__subclasses__())
            original = klass.__dict__.get(method)
            if original is None:
                continue
            self._patches.append(_Patch(klass, method, original))
            setattr(klass, method, self.wrap(layer.span, original, layer.attrs))

    def uninstall(self) -> None:
        for patch in reversed(self._patches):
            setattr(patch.owner, patch.attr, patch.original)
        self._patches.clear()
        # A module imported while installed copied wrappers with its
        # ``from x import f``; put the originals back there too.
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                if getattr(value, "__traced__", None) is self:
                    setattr(module, attr, value.__wrapped__)

    # -- output -------------------------------------------------------------

    def write(self, path: str | Path) -> None:
        """Spans as JSON lines, in the order they ended."""
        with Path(path).open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


class _ManualSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_ManualSpan":
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        self.id = next(self.tracer._ids)
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer._record(self.name, self.start, end, self.id, self.parent, None)
        return False
