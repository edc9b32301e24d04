"""In-memory span tracing installed from outside the program.

A :class:`Tracer` patches public functions and methods of the measured
modules with thin wrappers.  Each call becomes a span: name, start, end,
parent span, request id and benchmark phase.  Spans live in flat
``array`` columns (about 30 bytes a span, so a serve run's per-event
``observe`` spans fit in memory) until the run ends, then
:meth:`Tracer.summary` derives per-name self time, total time and call
counts, per phase, and :meth:`Tracer.dump` writes the raw columns out.

Self time is a span's duration minus the durations of its direct
children.  Sync wrappers nest through an explicit stack.  Coroutine
wrappers (``wait_writable``, ``shard_for``) record a top-level span
that is never a parent: on an event loop the time between their start
and end belongs to other tasks, so it counts as waiting, not as busy.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

perf_counter = time.perf_counter


class Tracer:
    """Span store plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.labels: List[str] = [""]
        self._label_ids: Dict[str, int] = {"": 0}
        self.phases: List[str] = ["setup"]
        self.request = 0
        self.phase = 0
        self.starts = array("d")
        self.ends = array("d")
        self.name_col = array("i")
        self.parents = array("i")
        self.requests = array("i")
        self.phase_col = array("i")
        self._stack: List[int] = []
        #: Boundary counters (events per call, bytes read, ...), by phase.
        self.counters: Dict[str, Dict[str, float]] = {}
        self.peaks: Dict[str, Dict[str, float]] = {}
        self._undo: List[Callable] = []

    # -- identifiers -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def set_request(self, label: str) -> None:
        """Tag the spans that follow with ``label`` (a run name, or a
        device and check index)."""
        ident = self._label_ids.get(label)
        if ident is None:
            ident = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        self.request = ident

    @contextmanager
    def in_phase(self, phase: str):
        """Attribute spans and counters to a benchmark phase."""
        if phase not in self.phases:
            self.phases.append(phase)
        previous, self.phase = self.phase, self.phases.index(phase)
        try:
            with self.span("phase." + phase):
                yield
        finally:
            self.phase = previous

    def add(self, counter: str, value: float = 1) -> None:
        bucket = self.counters.setdefault(self.phases[self.phase], {})
        bucket[counter] = bucket.get(counter, 0) + value

    def peak(self, counter: str, value: float) -> None:
        """Keep the largest ``value`` seen (a high-water counter)."""
        bucket = self.peaks.setdefault(self.phases[self.phase], {})
        bucket[counter] = max(bucket.get(counter, value), value)

    # -- span recording --------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.name_col)
        stack = self._stack
        self.name_col.append(name_id)
        self.parents.append(stack[-1] if stack else -1)
        self.requests.append(self.request)
        self.phase_col.append(self.phase)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def _record(self, name_id: int, start: float, end: float) -> None:
        """A finished top-level span that is nobody's parent."""
        self.name_col.append(name_id)
        self.parents.append(-1)
        self.requests.append(self.request)
        self.phase_col.append(self.phase)
        self.starts.append(start)
        self.ends.append(end)

    @contextmanager
    def span(self, name: str):
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(index)

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`uninstall`."""
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_item(self, items: list, index: int, replacement) -> None:
        """Replace ``items[index]`` until :meth:`uninstall`."""
        original = items[index]
        items[index] = replacement
        self._undo.append(lambda: items.__setitem__(index, original))

    def traced(self, original: Callable, name: str,
               after: Optional[Callable] = None,
               request: Optional[Callable] = None) -> Callable:
        """``original`` wrapped so every call is a span named ``name``.

        ``request(args)`` may return a label for the call's spans;
        ``after(args, kwargs, result)`` runs outside the span and may
        update counters from the call's arguments or result.
        """
        name_id = self._name_id(name)
        open_, close = self._open, self._close
        set_request = self.set_request

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if request is not None:
                set_request(request(args))
            index = open_(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None,
             request: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` (a module function or a
        method defined on class ``owner``) as span ``name``."""
        self.patch(owner, attr, self.traced(
            owner.__dict__[attr], name, after=after, request=request
        ))

    def wrap_async(self, owner, attr: str, name: str,
                   before: Optional[Callable] = None) -> None:
        """Time a coroutine method from call to completion (a wait span)."""
        original = owner.__dict__[attr]
        name_id = self._name_id(name)
        record = self._record

        @functools.wraps(original)
        async def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            start = perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                record(name_id, start, perf_counter())

        self.patch(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str,
                       after: Optional[Callable] = None) -> None:
        """Time a generator only while it produces items.

        One span per call whose duration is the summed time spent inside
        the generator; the consumer's work between items is excluded.
        """
        original = owner.__dict__[attr]
        name_id = self._name_id(name)
        record = self._record

        @functools.wraps(original)
        def traced(*args, **kwargs):
            busy = 0.0
            items = 0
            first = perf_counter()
            iterator = original(*args, **kwargs)
            try:
                while True:
                    start = perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        busy += perf_counter() - start
                        return
                    busy += perf_counter() - start
                    items += 1
                    yield item
            finally:
                record(name_id, first, first + busy)
                if after is not None:
                    after(args, kwargs, items)

        self.patch(owner, attr, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute (latest patch first)."""
        while self._undo:
            self._undo.pop()()

    # -- results ---------------------------------------------------------

    def _columns(self):
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        names = np.frombuffer(self.name_col, dtype=np.int32)
        phases = np.frombuffer(self.phase_col, dtype=np.int32)
        return starts, ends, parents, names, phases

    def summary(self) -> dict:
        """``{phase: {name: {"self_s", "total_s", "calls"}}}`` plus
        ``"counters"``; the ``"all"`` phase sums every phase."""
        starts, ends, parents, names, phases = self._columns()
        count = len(starts)
        duration = ends - starts
        nested = parents >= 0
        child = np.bincount(
            parents[nested], weights=duration[nested], minlength=count
        )
        self_time = duration - child
        out: dict = {}
        groups = [("all", np.ones(count, dtype=bool))] + [
            (phase, phases == index) for index, phase in enumerate(self.phases)
        ]
        width = len(self.names)
        for phase, mask in groups:
            if not mask.any():
                continue
            calls = np.bincount(names[mask], minlength=width)
            totals = np.bincount(names[mask], weights=duration[mask],
                                 minlength=width)
            selfs = np.bincount(names[mask], weights=self_time[mask],
                                minlength=width)
            out[phase] = {
                name: {
                    "self_s": float(selfs[i]),
                    "total_s": float(totals[i]),
                    "calls": int(calls[i]),
                }
                for i, name in enumerate(self.names) if calls[i]
            }
        counters: Dict[str, Dict[str, float]] = {"all": {}}
        for phase, bucket in self.counters.items():
            counters[phase] = dict(bucket)
            for key, value in bucket.items():
                counters["all"][key] = counters["all"].get(key, 0) + value
        for phase, bucket in self.peaks.items():
            for key, value in bucket.items():
                for target in (counters.setdefault(phase, {}),
                               counters["all"]):
                    target[key] = max(target.get(key, value), value)
        out["counters"] = counters
        return out

    def dump(self, path: Path) -> None:
        """Write the raw spans (``.npz``) plus their name tables."""
        starts, ends, parents, names, phases = self._columns()
        np.savez_compressed(
            path, start=starts, end=ends, parent=parents, name=names,
            phase=phases,
            request=np.frombuffer(self.requests, dtype=np.int32),
        )
        Path(str(path) + ".names.json").write_text(json.dumps({
            "names": self.names, "phases": self.phases,
            "requests": self.labels,
        }))
