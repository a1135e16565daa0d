"""Per-layer metrics from spans and from counters read at the same
boundaries (``EngineStats`` in process, the ``stats`` op over the wire).

Layers are the ``src/repro`` packages.  A metric a workload does not
exercise keeps the value 0 it is given in ``run.py``.
"""

from __future__ import annotations

import statistics
from statistics import median
from typing import Any, Dict, Sequence

from . import stats
from .harness import Run, Window
from .ops import READ_CLASSES
from .trace import Layers

def bootstrap(run: Run, layers: Layers, counts: Dict[str, Any]) -> None:
    """build -> chase -> first assessment -> first answers, in the process
    that holds the materialization."""
    out = run.layers
    out["scenarios.build_s"] = layers.seconds("scenarios.build")
    out["ontology.compile_s"] = layers.seconds("ontology.compile")
    out["quality.assemble_s"] = layers.seconds("quality.assemble")
    chase_s = layers.seconds("datalog.chase")
    out["datalog.chase_s"] = chase_s
    engine, facts = counts["stats"], counts["facts"]
    out["engine.chase_facts_per_s"] = facts / chase_s if chase_s else 0.0
    out["engine.triggers_fired"] = engine["triggers_fired"]
    out["engine.triggers_batched_share"] = \
        engine["triggers_batched"] / max(1, engine["triggers_fired"])
    out["engine.rows_scanned_per_fact"] = \
        (engine["rows_scanned"] + engine["rows_batch_scanned"]) / max(1, facts)
    out["engine.index_probes"] = engine["index_probes"]
    out["engine.answers_cold_ms"] = layers.mean_ms("engine.answers")
    out["quality.version_s"] = layers.seconds("quality.version")
    out["quality.assess_cold_ms"] = layers.mean_ms("quality.assess")
    out["quality.rewrite_ms"] = layers.mean_ms("quality.rewrite")
    load_s = out["scenarios.build_s"] + out["quality.assemble_s"]
    out["relational.load_rows_per_s"] = \
        counts["edb_rows"] / load_s if load_s else 0.0
    out["relational.catalog_values"] = counts["catalog_values"]


def updates(run: Run, layers: Layers, program: Dict[str, int],
            answers: Dict[str, int], versions_live: int) -> None:
    """Delta chase, answer maintenance and dirty tracking; ``program`` and
    ``answers`` are counter deltas over the traced windows."""
    out = run.layers
    out["engine.add_ms"] = layers.mean_ms("engine.add")
    out["engine.retract_ms"] = layers.mean_ms("engine.retract")
    maintained = answers["answers_maintained"]
    out["engine.maintain_share"] = maintained / max(
        1, maintained + answers["maintenance_fallbacks"])
    out["engine.full_rechases"] = program["full_rechases"]
    out["engine.incremental_updates"] = program["incremental_updates"]
    out["engine.versions_live"] = versions_live
    calls = layers.count("quality.add") + layers.count("quality.retract")
    out["quality.update_overhead_ms"] = 1000.0 * (
        layers.seconds("quality.add", self_time=True)
        + layers.seconds("quality.retract", self_time=True)) / max(1, calls)
    out["quality.assess_incr_ms"] = layers.mean_ms("quality.assess")
    hot_answers(run, layers)


def hot_answers(run: Run, layers: Layers) -> None:
    run.layers["quality.answers_hot_ms"] = layers.mean_ms("quality.answers")
    run.layers["engine.answers_hot_ms"] = layers.mean_ms("engine.answers")


def wire(run: Run, layers: Layers, classes: Dict[int, str],
         rows_of: Dict[int, int]) -> None:
    """Wire, JSON and dispatch cost from the joined client + daemon spans.
    ``classes`` maps a traced op id to its cost class, ``rows_of`` a heavy
    read's op id to the rows it returned.  The client's own share of an op
    is its ``serving.call`` span minus the daemon's ``serving.handle`` span
    of the same op: the wire, JSON on the client and row decoding."""
    out = run.layers
    handles = {span["op"]: span for span in layers.select("serving.handle")
               if span["op"] is not None}
    gaps = [(span["end"] - span["start"])
            - (handles[span["op"]]["end"] - handles[span["op"]]["start"])
            for span in layers.select("serving.call")
            if span["op"] in handles]
    out["serving.client_self_ms"] = \
        1000.0 * statistics.mean(gaps) if gaps else 0.0
    for cls in READ_CLASSES:
        chosen = {op for op, name in classes.items() if name == cls}
        out[f"serving.handle_self_ms.{cls}"] = layers.mean_ms(
            "serving.handle", self_time=True, ops=chosen)
    heavy_self = layers.seconds("serving.handle", self_time=True,
                                ops=set(rows_of))
    out["serving.encode_rows_per_s"] = \
        sum(rows_of.values()) / heavy_self if heavy_self else 0.0
    hot_answers(run, layers)


def write_path(run: Run, layers: Layers, before: Dict[str, Any],
               after: Dict[str, Any]) -> None:
    """Commit queue, WAL, apply and checkpoints; ``before``/``after`` are
    ``stats`` responses around the traced windows."""
    out = run.layers
    out["serving.commit_wait_ms"] = layers.mean_ms("serving.apply_write",
                                                   self_time=True)
    out["serving.wal_append_ms"] = layers.mean_ms("serving.wal_append")
    out["serving.apply_ms"] = layers.mean_ms("serving.apply")

    def delta(section: str, names: Sequence[str]) -> Dict[str, int]:
        def pick(document):
            for part in section.split("."):
                document = document[part]
            return document
        return {name: pick(after)[name] - pick(before)[name]
                for name in names}

    commits = delta("serving.group_commit",
                    ("wal_records", "wal_fsyncs", "commit_batches",
                     "busy_rejections"))
    records = max(1, commits["wal_records"])
    out["serving.wal_fsyncs_per_write"] = commits["wal_fsyncs"] / records
    out["serving.records_per_batch"] = \
        records / max(1, commits["commit_batches"])
    out["serving.busy_rejections"] = commits["busy_rejections"]
    tail = after["serving"]
    out["serving.wal_bytes_per_write"] = \
        tail["wal_bytes"] / max(1, tail["records_since_checkpoint"])
    updates(run, layers,
            delta("program", ("full_rechases", "incremental_updates")),
            delta("session", ("answers_maintained", "maintenance_fallbacks")),
            len(tail["live_versions"]))
    out["serving.checkpoints"] = layers.count("serving.checkpoint")
    out["serving.checkpoint_s"] = layers.mean_ms("serving.checkpoint") / 1e3
    out["engine.snapshot_save_s"] = \
        layers.mean_ms("engine.snapshot_save") / 1e3


def recovery(run: Run, dumps: Sequence[Dict[str, Any]],
             reports: Sequence[Dict[str, Any]]) -> None:
    """Respawn on a used data dir: snapshot load + WAL replay, from the
    respawned daemons' own spans and recovery reports."""
    out = run.layers
    out["serving.recover_s"] = median(
        Layers(dump["spans"]).seconds("serving.recover") for dump in dumps)
    out["engine.snapshot_load_s"] = median(
        Layers(dump["spans"]).seconds("engine.snapshot_load")
        for dump in dumps)
    out["serving.replayed_records"] = median(
        report["replayed_records"] for report in reports)


def trace_quality(run: Run, layers: Layers,
                  untraced: Sequence[Sequence[Window]],
                  traced: Sequence[Sequence[Window]]) -> None:
    """What tracing cost — the median op of the traced windows against the
    median op of the untraced ones, the windows being of identical
    composition — and how much of the traced loops' wall time lies outside
    every client-side root span."""
    def typical(groups: Sequence[Sequence[Window]]) -> float:
        return median(stats.percentile(
            [latency for window in group for latency in window.latency], 50)
            for group in groups)

    run.layers["trace.overhead_share"] = \
        typical(traced) / typical(untraced) - 1.0
    # connections run side by side: each one's loop counts on its own
    loops = sum(window.wall for group in traced for window in group)
    run.layers["trace.unattributed_share"] = \
        max(0.0, 1.0 - layers.root_seconds() / loops)
