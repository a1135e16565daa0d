"""Outside-in tracing: spans around the library's public entry points.

Nothing under ``src/`` knows about this file.  With ``--trace 1`` — and
only then — :meth:`Tracer.install` replaces each entry point of
:data:`TABLE` by a wrapper that records one span per call; the daemon
launcher installs the same table in its process.  Spans stay in memory
(``id, name, start, end, parent, op_id``) and are written out once, when
the run ends.  ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, so the
spans of the two processes share one time base and are joined by the op
id the client puts on the wire.

A wrapper is gated by :attr:`Tracer.enabled`, so one traced run holds an
untraced phase and a traced phase over the same warmed processes; their
difference is ``trace.overhead_share``.  The client steers the daemon's
tracer with a control field on an ordinary ``ping`` (on, off, dump): a
daemon that is about to be SIGKILLed cannot dump on the way out.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from typing import (Any, Callable, Dict, Iterable, List, Optional, Set,
                    Tuple)

#: public entry point -> span name, as ``(module, "Class.attr" | "func",
#: span)``.  A function imported by name into another module is listed
#: where it is *looked up* (``daemon.run_checkpoint``), not where it is
#: defined.  ``ReadTransaction.answers/holds`` is the one door both
#: ``QuerySession.answers/holds`` and the daemon's read ops go through.
#: ``serving.call`` is the client method the bench calls (it decodes the
#: rows), ``serving.client`` the request/response exchange inside it.
TABLE: Tuple[Tuple[str, str, str], ...] = (
    ("repro.scenarios", "build_scenario", "scenarios.build"),
    ("repro.ontology.compiler", "OntologyCompiler.compile", "ontology.compile"),
    ("repro.quality.context", "Context.assemble", "quality.assemble"),
    ("repro.datalog.chase", "ChaseEngine.run", "datalog.chase"),
    ("repro.engine.session", "MaterializedProgram.add_facts", "engine.add"),
    ("repro.engine.session", "MaterializedProgram.retract_facts",
     "engine.retract"),
    ("repro.engine.versioning", "ReadTransaction.answers", "engine.answers"),
    ("repro.engine.versioning", "ReadTransaction.holds", "engine.holds"),
    ("repro.quality.session", "QualitySession.add_facts", "quality.add"),
    ("repro.quality.session", "QualitySession.retract_facts",
     "quality.retract"),
    ("repro.quality.session", "QualitySession.quality_version",
     "quality.version"),
    ("repro.quality.session", "QualitySession.assess", "quality.assess"),
    ("repro.quality.session", "QualitySession.quality_answers",
     "quality.answers"),
    ("repro.quality.session", "rewrite_query_to_quality", "quality.rewrite"),
    ("repro.engine.snapshot", "save_program", "engine.snapshot_save"),
    ("repro.engine.snapshot", "load_program", "engine.snapshot_load"),
    ("repro.serving.client", "ServingClient.answers", "serving.call"),
    ("repro.serving.client", "ServingClient.quality_answers", "serving.call"),
    ("repro.serving.client", "ServingClient.holds", "serving.call"),
    ("repro.serving.client", "ServingClient.add_facts", "serving.call"),
    ("repro.serving.client", "ServingClient.retract_facts", "serving.call"),
    ("repro.serving.client", "ServingClient.assess", "serving.call"),
    ("repro.serving.client", "ServingClient.request", "serving.client"),
    ("repro.serving.daemon", "ServingDaemon.handle", "serving.handle"),
    ("repro.serving.daemon", "ServingDaemon.apply_write",
     "serving.apply_write"),
    ("repro.serving.daemon", "ServingDaemon.recover", "serving.recover"),
    ("repro.serving.wal", "WriteAheadLog.append_batch", "serving.wal_append"),
    ("repro.serving.daemon", "QualityBackend.apply", "serving.apply"),
    ("repro.serving.daemon", "QualityBackend.apply_many", "serving.apply"),
    ("repro.serving.daemon", "run_checkpoint", "serving.checkpoint"),
)

#: request fields the bench adds on the wire; the daemon ignores fields it
#: does not know, so they reach only the launcher's ``handle`` wrapper
OP_FIELD = "bench_op"
CONTROL_FIELD = "bench_trace"
TRACE_ON, TRACE_OFF, TRACE_DUMP = "on", "off", "dump"

Span = Dict[str, Any]


class Tracer:
    """One process's span recorder and the wrappers that feed it."""

    def __init__(self, process: str):
        self.process = process
        self.enabled = False
        self.spans: List[Tuple[int, str, float, float, Optional[int],
                               Optional[int]]] = []
        #: what the daemon-side ``dump`` control runs (set by the launcher)
        self.on_dump: Optional[Callable[[], None]] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def set_op(self, op_id: Optional[int]) -> None:
        """The op the calling thread is working for (until changed)."""
        self._local.op = op_id

    def _record(self, name: str, call: Callable, args, kwargs):
        local = self._local
        stack = local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent,
                               getattr(local, "op", None)))

    def _wrapper(self, name: str, original: Callable) -> Callable:
        if name == "serving.client":
            def wrapped(*args, **kwargs):
                if not self.enabled:
                    return original(*args, **kwargs)
                kwargs[OP_FIELD] = getattr(self._local, "op", None)
                return self._record(name, original, args, kwargs)
        elif name == "serving.handle":
            def wrapped(daemon, request, *rest, **kwargs):
                if isinstance(request, dict):
                    control = request.get(CONTROL_FIELD)
                    if control == TRACE_DUMP and self.on_dump is not None:
                        self.on_dump()
                    elif control is not None:
                        self.enabled = control == TRACE_ON
                    self.set_op(request.get(OP_FIELD))
                if not self.enabled:
                    return original(daemon, request, *rest, **kwargs)
                return self._record(name, original,
                                    (daemon, request, *rest), kwargs)
        else:
            def wrapped(*args, **kwargs):
                if not self.enabled:
                    return original(*args, **kwargs)
                return self._record(name, original, args, kwargs)
        wrapped.__wrapped__ = original
        return wrapped

    # -- installation --------------------------------------------------------

    def install(self, table: Iterable[Tuple[str, str, str]] = TABLE) -> None:
        for module_name, qualname, span_name in table:
            owner: Any = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            # vars(): a staticmethod/classmethod descriptor must be put
            # back as it was, not as the function getattr resolves it to
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(span_name, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def export(self) -> List[Span]:
        """Spans as dictionaries with process-qualified ids."""
        tag = self.process

        def qualified(span_id: Optional[int]) -> Optional[str]:
            return None if span_id is None else f"{tag}:{span_id}"

        return [{"id": qualified(span_id), "name": name, "start": start,
                 "end": end, "parent": qualified(parent), "op": op}
                for span_id, name, start, end, parent, op in list(self.spans)]

    def dump(self, path, **extra: Any) -> None:
        """Write ``{"spans": [...], **extra}`` to ``path`` atomically."""
        document = dict(extra, spans=self.export())
        with open(f"{path}.tmp", "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(f"{path}.tmp", path)


# ---------------------------------------------------------------------------
# Span arithmetic (pure functions; the smoke test feeds them synthetic data)
# ---------------------------------------------------------------------------


def join_processes(client: List[Span], daemon: List[Span]) -> List[Span]:
    """One span list: a daemon ``serving.handle`` span becomes the child
    of the client ``serving.client`` span that carries the same op id."""
    requests = {span["op"]: span["id"] for span in client
                if span["name"] == "serving.client" and span["op"] is not None}
    joined = list(client)
    for span in daemon:
        if span["name"] == "serving.handle" and span["parent"] is None \
                and span["op"] in requests:
            span = dict(span, parent=requests[span["op"]])
        joined.append(span)
    return joined


def covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    result = {}
    for span in spans:
        inside = [(max(start, span["start"]), min(end, span["end"]))
                  for start, end in children.get(span["id"], ())]
        result[span["id"]] = (span["end"] - span["start"]) - covered(
            [(start, end) for start, end in inside if end > start])
    return result


class Layers:
    """Per-name totals over one span list: count, total and self seconds."""

    def __init__(self, spans: List[Span]):
        self.spans = spans
        self.own = self_times(spans)

    def select(self, name: str, ops: Optional[Set[int]] = None) -> List[Span]:
        return [span for span in self.spans if span["name"] == name
                and (ops is None or span["op"] in ops)]

    def count(self, name: str) -> int:
        return len(self.select(name))

    def seconds(self, name: str, self_time: bool = False,
                ops: Optional[Set[int]] = None) -> float:
        """Total span (or self) seconds of ``name``; 0.0 if never seen."""
        chosen = self.select(name, ops)
        if self_time:
            return sum(self.own[span["id"]] for span in chosen)
        return sum(span["end"] - span["start"] for span in chosen)

    def mean_ms(self, name: str, self_time: bool = False,
                ops: Optional[Set[int]] = None) -> float:
        """Mean span (or self) time of ``name`` in ms; 0.0 if never seen."""
        chosen = len(self.select(name, ops))
        if not chosen:
            return 0.0
        return 1000.0 * self.seconds(name, self_time, ops) / chosen

    def root_seconds(self, process: str = "c") -> float:
        """Seconds inside the parentless spans of one process.  Measured
        against the wall time of the loop that made the calls, the rest is
        time the trace attributes to no layer."""
        return sum(span["end"] - span["start"] for span in self.spans
                   if span["parent"] is None
                   and span["id"].startswith(f"{process}:"))
