"""A span tracer that times the program's layers from outside.

The tracer replaces public callables at the module or class attribute
their callers resolve (for example ``repro.core.monitor.progress``, which
``IntegrityMonitor`` calls, rather than ``repro.ptl.progression.progress``,
which also recurses into itself).  Each call records one span: name,
layer, start, end, parent span and the request id the benchmark set
before the call.  Spans stay in memory until :meth:`Tracer.dump`.

A target that no longer exists is skipped and listed in
:attr:`Tracer.missing`, so a refactor that moves a callable costs that
layer its numbers, never the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable

#: (module, attribute path, layer).  The attribute path is resolved from
#: the module; a path through another module (``json.dumps`` as seen by
#: the service) is patched on a proxy, so the real module stays untouched.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.monitor", "reduce_universal", "reduction"),
    ("repro.core.monitor", "state_to_props", "reduction"),
    ("repro.core.monitor", "progress", "progression"),
    ("repro.ptl.progkernel", "ProgressionKernel.progress_formula",
     "progression"),
    ("repro.ptl.progkernel", "ProgressionKernel.progress_id",
     "progression"),
    ("repro.ptl.progkernel", "ProgressionKernel.progress_replay",
     "progression"),
    ("repro.core.monitor", "quick_model_check", "sat"),
    ("repro.core.monitor", "is_satisfiable", "sat"),
    ("repro.ptl.bitset", "BuchiKernel.is_satisfiable", "sat"),
    ("repro.core.monitor", "diff_states", "analysis"),
    ("repro.analysis.affect", "UpdateDependencyIndex.touched_by_update",
     "analysis"),
    ("repro.core.monitor", "IntegrityMonitor.__init__", "monitor"),
    ("repro.core.monitor", "IntegrityMonitor.append_state", "monitor"),
    ("repro.pasteval.monitor", "PastMonitor.__init__", "pasteval"),
    ("repro.pasteval.monitor", "PastMonitor.append_state", "pasteval"),
    ("repro.database.history", "History.extended", "history"),
    ("repro.core.plan", "plan_constraints", "plan"),
    ("repro.service.streaming", "partition_constraints", "plan"),
    ("repro.core.plan", "PlannedMonitor.__init__", "plan"),
    ("repro.core.plan", "PlannedMonitor.append_state", "plan"),
    ("repro.service.streaming", "MonitorService.__init__", "service"),
    ("repro.service.streaming", "MonitorService.apply_state", "service"),
    ("repro.service.streaming", "MonitorService.save", "service"),
    ("repro.service.streaming", "MonitorService.load", "service"),
    ("repro.database.serialize", "monitor_to_dict", "serialize"),
    ("repro.database.serialize", "monitor_from_dict", "serialize"),
    ("repro.database.serialize", "history_to_dict", "serialize"),
    ("repro.database.serialize", "history_from_dict", "serialize"),
    ("repro.service.streaming", "history_to_dict", "serialize"),
    ("repro.service.streaming", "history_from_dict", "serialize"),
    ("repro.service.streaming", "json.dumps", "serialize"),
    ("repro.service.streaming", "json.loads", "serialize"),
    ("repro.core.monitor", "validate_constraint", "checker"),
)

#: Span field order in :attr:`Tracer.spans`.
NAME, LAYER, START, END, PARENT, REQUEST, NOTE = range(7)

#: Per-target annotation of the return value, kept in the span's NOTE;
#: keyed by the attribute path, which is also the span name.
NOTES: dict[str, Callable[[Any], Any]] = {
    "reduce_universal": lambda reduction: reduction.assignment_count,
}


class _ModuleProxy:
    """Stands in for a module imported by the traced module, so wrapping
    one of its functions leaves the module itself untouched."""

    def __init__(self, module: Any) -> None:
        self.__dict__["_module"] = module

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


class Tracer:
    """Records one span per call of every installed target."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.request: str | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for module_name, path, layer in TARGETS:
            label = f"{module_name}.{path}"
            try:
                self._install_one(module_name, path, layer)
            except (ImportError, AttributeError):
                self.missing.append(label)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _install_one(self, module_name: str, path: str, layer: str) -> None:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            child = getattr(owner, part)
            if inspect.ismodule(child):
                proxy = _ModuleProxy(child)
                self._patch(owner, part, proxy)
                child = proxy
            owner = child
        if isinstance(owner, _ModuleProxy):
            raw = getattr(owner, attr)
        else:
            raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._wrap(raw.__func__, path, layer))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, path, layer))
        elif callable(raw):
            wrapped = self._wrap(raw, path, layer)
        else:
            raise AttributeError(path)
        self._patch(owner, attr, wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(owner)
        original = vars(owner).get(attr)
        setattr(owner, attr, value)

        def undo() -> None:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def _wrap(
        self, function: Callable[..., Any], name: str, layer: str
    ) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        note = NOTES.get(name)
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else None,
                    self.request, None]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(result)
            return result

        return traced

    # -- output ----------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            parent = span[PARENT]
            if parent is not None:
                child[parent] += span[END] - span[START]
        return [
            span[END] - span[START] - child[index]
            for index, span in enumerate(self.spans)
        ]

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span[NAME],
                    "layer": span[LAYER],
                    "start": span[START],
                    "end": span[END],
                    "parent": span[PARENT],
                    "request": span[REQUEST],
                }) + "\n")
