"""The bench's own daemon launcher (``python -m bench.daemon_launcher``).

Serves the pinned sensornet tier through the public serving API with the
shipped durability settings — ``sync=True`` and the default
:class:`CompactionPolicy` (checkpoint every 256 records), stated here
because they set ``stall_ms`` and ``write_p50_ms``.  With ``--trace-out``
the span table of :mod:`bench.trace` is installed before the scenario is
built, so bootstrap and recovery are traced too; the spans and the counts
taken at the same boundaries are written when the client asks for them.
A daemon that is shut down cleanly leaves its final counts in
``exit-counts.json`` in the data directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from typing import List, Optional

from . import common
from .trace import Tracer


EXIT_COUNTS = "exit-counts.json"


def exit_with_parent(parent: int) -> None:
    """The bench reaps every daemon it launches — unless it is killed
    outright itself; then the daemon must not outlive it."""
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(1)


def main(argv: Optional[List[str]] = None) -> int:
    threading.Thread(target=exit_with_parent, args=(os.getppid(),),
                     daemon=True).start()
    parser = argparse.ArgumentParser(prog="python -m bench.daemon_launcher")
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--tier", required=True, choices=sorted(common.TIERS))
    parser.add_argument("--trace-out", metavar="FILE")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        tracer = Tracer("d")
        tracer.install()
        tracer.enabled = True   # bootstrap / recovery happen before any request

    from repro.serving import CompactionPolicy, ServingDaemon
    started = time.perf_counter()
    scenario = common.build_tier(args.tier)
    daemon = ServingDaemon(scenario.serving_backend(engine=common.ENGINE),
                           args.data_dir, sync=True,
                           policy=CompactionPolicy())
    daemon.recover()
    if tracer is not None:
        tracer.enabled = False  # the client switches request tracing on
        ready_s = time.perf_counter() - started
        boot_counts = _counts(daemon, args.data_dir)
        tracer.on_dump = lambda: tracer.dump(
            args.trace_out, ready_s=ready_s, boot_counts=boot_counts)
    daemon.start()

    def _stop(_signum, _frame):
        # stop() joins the serving thread, so it cannot run in the handler
        threading.Thread(target=daemon.stop, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    try:
        daemon.wait()
        with open(os.path.join(args.data_dir, EXIT_COUNTS), "w",
                  encoding="utf-8") as handle:
            json.dump(_counts(daemon, args.data_dir), handle)
    finally:
        daemon.stop()
    return 0


def _counts(daemon, data_dir: str) -> dict:
    """Engine and storage counts of the serving process."""
    from repro.relational.values import value_catalog
    from repro.serving import latest_snapshot
    materialized = daemon.backend.materialized
    snapshot = latest_snapshot(data_dir)
    return {"stats": materialized.stats.as_dict(),
            "facts": sum(len(r) for r in materialized.instance),
            "edb_rows": sum(len(r) for r in materialized.edb),
            "catalog_values": len(value_catalog()),
            "snapshot_bytes": snapshot[1].stat().st_size if snapshot else 0}


if __name__ == "__main__":
    sys.exit(main())
