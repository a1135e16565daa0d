"""serve-read and serve-mixed: a daemon subprocess driven over the wire.

Both are one function with different arguments: the op mix, how many
connections share the daemon, and how many SIGKILL -> respawn cycles end
the run.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence

from . import common, derive
from .cold import reap
from .daemon_launcher import EXIT_COUNTS
from .harness import (Calibration, Run, Sizing, Window,
                      client_executor, latency_metrics, run_together,
                      throughput, timed, verify)
from .ops import (MIXED_MIX, READ_CLASSES, READ_MIX, WRITE_CLASSES,
                  OpGenerator, split_sensors)
from .oracle import (FULL_QUERY, STATIC_QUERIES, SensorOracle, audit_query,
                     audited_query, sensor_query)
from .trace import (CONTROL_FIELD, TRACE_DUMP, TRACE_OFF, TRACE_ON, Layers,
                    Tracer, join_processes)

#: 40 heavy reads per window carry most of its ~0.8 s
READ_SIZING = Sizing("M", 500, 8)
#: ops per window *per connection*: 113 writes each, 226 per window (11
#: samples beyond p95), so eight windows log 1 808 records = 7 checkpoints
#: (every 256) + 16 left in the WAL for the restarts to replay.
#: A window takes ~2.8 s: the floor of eight windows is ~22 s
MIXED_SIZING = Sizing("M", 375, 4)
#: serve-mixed connections: one generator process, never more than nproc
CONNECTIONS = 2
PINGS = 200


def place(connections: int):
    """(generator CPUs, daemon CPUs).  Where the scheduler puts the two
    processes decides what a round trip costs: waking the other, idle vCPU
    of a shared host adds ~0.04 ms per message (a cheap read takes 0.12 ms
    with client and daemon on one CPU and 0.19 ms on two, heavy reads the
    same either way), and left alone the placement changes from run to
    run.  One connection and its daemon alternate, so they share a CPU;
    with more connections both sides work at once and the daemon gets a
    CPU of its own."""
    cpus = sorted(os.sched_getaffinity(0))
    if connections == 1 or len(cpus) == 1:
        return {cpus[0]}, {cpus[0]}
    return {cpus[0]}, {cpus[1]}


class Daemon:
    """A bench-launched serving daemon over one data directory."""

    def __init__(self, tier: str, data_dir: str, traced: bool, cpus: set):
        self.tier = tier
        self.data_dir = data_dir
        self.traced = traced
        self.cpus = cpus
        self.process: Optional[subprocess.Popen] = None
        self.spawns = 0
        self.retries = 0

    @property
    def trace_path(self) -> str:
        return os.path.join(self.data_dir, f"spans-{self.spawns}.json")

    def spawn(self):
        """Start the daemon (bootstrapping an empty data dir, recovering a
        used one); returns a connected client once it answers."""
        self.spawns += 1
        command = common.child_command("daemon_launcher", "--data-dir",
                                       self.data_dir, "--tier", self.tier)
        if self.traced:
            command += ["--trace-out", self.trace_path]
        self.process = subprocess.Popen(command, env=common.child_env())
        os.sched_setaffinity(self.process.pid, self.cpus)
        client = self.connect(wait=120.0)
        client.ping()
        return client

    def connect(self, wait: float = 10.0):
        from repro.serving import ServingClient
        return ServingClient.connect(self.data_dir, wait=wait,
                                     on_retry=self._count_retry)

    def _count_retry(self, _kind: str, _attempt: int, _floor: float) -> None:
        self.retries += 1

    def control(self, client, verb: str) -> None:
        """Steer the daemon-side tracer (see :mod:`bench.trace`)."""
        client.request("ping", **{CONTROL_FIELD: verb})

    def dump(self, client) -> Dict[str, Any]:
        """The daemon's spans and counts so far."""
        self.control(client, TRACE_DUMP)
        with open(self.trace_path, encoding="utf-8") as handle:
            return json.load(handle)

    def rss_mb(self) -> float:
        return common.peak_rss_mb(self.process.pid)

    def kill(self) -> None:
        """SIGKILL: nothing is flushed, nothing is cleaned up."""
        self.process.send_signal(signal.SIGKILL)
        reap(self.process)
        # a dead daemon's address file would send connect() to a closed
        # port before it reads the respawned daemon's
        try:
            os.unlink(os.path.join(self.data_dir, "daemon.json"))
        except OSError:
            pass

    def shutdown(self, client) -> Dict[str, Any]:
        """Clean stop through the protocol; the hard stop is the fallback.
        Returns the counts the daemon left behind (``{}`` after a hard
        stop)."""
        try:
            client.shutdown()
            self.process.wait(timeout=60)
        except Exception:  # noqa: BLE001 - whatever failed, still reap it
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        finally:
            client.close()
            reap(self.process)
        try:
            with open(os.path.join(self.data_dir, EXIT_COUNTS),
                      encoding="utf-8") as handle:
                return json.load(handle)
        except OSError:
            return {}


def warm(client, generators: Sequence[OpGenerator]) -> None:
    """First assessment, then every distinct query of the run once."""
    client.assess()
    client.quality_answers(FULL_QUERY)
    for query in STATIC_QUERIES:
        client.answers(query)
    for generator in generators:
        for sensor in generator.probed:
            client.answers(audit_query(sensor))
            client.holds(audited_query(sensor))
            client.quality_answers(sensor_query(sensor))


def ping_ms(client) -> float:
    samples = []
    for _ in range(PINGS):
        began = time.perf_counter()
        client.ping()
        samples.append(1000.0 * (time.perf_counter() - began))
    return median(samples)


def stall_cycles(groups: Sequence[Sequence[Window]]) -> List[float]:
    """Per checkpoint cycle, the slowest op (ms) on any connection.  A
    cycle ends with the write that comes back ``checkpointed``."""
    events = []
    for group in groups:
        for window in group:
            clock = window.start
            for latency, result in zip(window.latency, window.results):
                clock += latency    # ops run back to back
                events.append((clock, latency, isinstance(result, dict)
                               and bool(result.get("checkpointed"))))
    events.sort()
    cycles, worst = [], 0.0
    for _end, latency, checkpointed in events:
        worst = max(worst, latency)
        if checkpointed:
            cycles.append(1000.0 * worst)
            worst = 0.0
    return cycles


def disk_bytes(data_dir: str) -> int:
    """Snapshot + WAL bytes in the data directory."""
    return sum(entry.stat().st_size for entry in Path(data_dir).iterdir()
               if entry.suffix in (".snap", ".log"))


def serve_read(run: Run) -> None:
    serve(run, run.sized(READ_SIZING), READ_MIX, connections=1, restarts=0)


def serve_mixed(run: Run) -> None:
    serve(run, run.sized(MIXED_SIZING), MIXED_MIX, connections=CONNECTIONS,
          restarts=run.repeats)


def serve(run: Run, sizing: Sizing, mix, connections: int,
          restarts: int) -> None:
    scenario = common.build_tier(sizing.tier)
    oracle = SensorOracle(scenario)
    # disjoint sensor slices: what a connection reads depends on its own
    # op list only, however the daemon interleaves the connections
    generators = [OpGenerator(scenario, oracle, run.seed,
                              f"{run.workload}:{slot}", sensors)
                  for slot, sensors in enumerate(
                      split_sensors(scenario, connections))]
    has_writes = any(cls in WRITE_CLASSES for _name, cls, _share in mix)
    daemon = None
    clients: List[Any] = []
    tracer = None
    unplaced = os.sched_getaffinity(0)
    own_cpus, daemon_cpus = place(connections)
    try:
        os.sched_setaffinity(0, own_cpus)
        # -- set-up: spawn -> chase -> warm-up, on fresh data dirs ---------
        calibration = Calibration()
        setups = []

        def set_up():
            started = time.perf_counter()
            clients.append(daemon.spawn())
            run.layers["serving.spawn_s"] = time.perf_counter() - started
            if run.trace:
                daemon.control(clients[0], TRACE_ON)
            warm(clients[0], generators)

        for _ in range(1 if run.trace else run.repeats):
            if daemon is not None:
                clients.pop().close()
                daemon.kill()
                shutil.rmtree(daemon.data_dir, ignore_errors=True)
            daemon = Daemon(sizing.tier, tempfile.mkdtemp(
                prefix="data-", dir=run.work_dir), run.trace, daemon_cpus)
            calibration.tick()
            setups.append(timed(set_up)[1])
        client = clients[0]
        if run.trace:
            daemon.control(client, TRACE_OFF)
            tracer = Tracer("c")
            tracer.install()
        served = client.stats()
        run.check_pinned(sizing.tier,
                         {"triggers": served["program"]["triggers_fired"]})
        clients += [daemon.connect() for _ in range(connections - 1)]
        run.layers["serving.ping_ms"] = ping_ms(client)

        # -- timed windows ---------------------------------------------------
        untraced, traced = run.phases(sizing.windows(run.seconds))
        plans = [generator.windows(mix, sizing.window_ops, untraced + traced)
                 for generator in generators]
        owns = [set(generator.sensors) if connections > 1 else None
                for generator in generators]
        executors = [client_executor(each) for each in clients]
        stride = sizing.window_ops * connections
        done: List[List[Window]] = []
        classes: Dict[int, str] = {}
        rows_of: Dict[int, int] = {}
        traced_from = phase_start = None
        calibration.tick()
        for index in range(untraced + traced):
            if tracer is not None and index == untraced:
                traced_from = client.stats()
                daemon.control(client, TRACE_ON)
                phase_start = time.perf_counter()
                tracer.enabled = True
            group = run_together(executors,
                                 [plan[index] for plan in plans],
                                 tracer, index * stride)
            calibration.tick()
            for slot, (window, own) in enumerate(zip(group, owns)):
                verify(run, window, served=True, own=own)
                if index >= untraced:
                    base = index * stride + slot * sizing.window_ops
                    for offset, (op, result) in enumerate(
                            zip(window.ops, window.results)):
                        classes[base + offset] = op[1]
                        if op[1] == "heavy" and isinstance(result, tuple):
                            rows_of[base + offset] = len(result)
            done.append(group)
        if tracer is not None:
            tracer.enabled = False
            daemon.control(client, TRACE_OFF)
        after = client.stats()
        stalls = stall_cycles(done[:untraced])
        for group in done:
            for window in group:
                window.results = []

        # -- every acknowledged write must be in the served state ----------
        final = frozenset().union(*(generator.quality_rows()
                                    for generator in generators))
        run.check(frozenset(client.quality_answers(FULL_QUERY)) == final,
                  "final served quality answers differ from the oracle")
        rss = daemon.rss_mb()
        disk = disk_bytes(daemon.data_dir)
        dumped = daemon.dump(client) if run.trace else None

        # -- SIGKILL -> respawn on the same data dir -> first correct answer --
        restart_s, reports, respawn_dumps = [], [], []

        def restart():
            clients.append(daemon.spawn())
            return clients[0].quality_answers(FULL_QUERY)

        for _ in range(restarts):
            while clients:
                clients.pop().close()
            daemon.kill()
            calibration.tick()
            rows, seconds = timed(restart)
            restart_s.append(seconds)
            client = clients[0]
            run.check(frozenset(rows) == final,
                      "after a restart the answers differ from the pre-kill "
                      "ones (an acknowledged write is missing)")
            reports.append(client.recovery())
            rss = max(rss, daemon.rss_mb())
            if run.trace:
                respawn_dumps.append(daemon.dump(client))
        calibration.record(run)
        counts = daemon.shutdown(clients.pop())
    finally:
        os.sched_setaffinity(0, unplaced)
        for each in clients:
            each.close()
        if tracer is not None:
            tracer.uninstall()
        if daemon is not None:
            reap(daemon.process)

    # -- metrics -------------------------------------------------------------
    measured_windows = done[:untraced]
    reads = latency_metrics(run, measured_windows, READ_CLASSES, "read")
    run.named = {"read_p50_ms": reads["p50"], "read_p95_ms": reads["p95"]}
    if has_writes:
        writes = latency_metrics(run, measured_windows, WRITE_CLASSES,
                                 "write")
        run.check("facts" in counts, "the daemon left no exit counts")
        run.named.update({
            "write_p50_ms": writes["p50"], "write_p95_ms": writes["p95"],
            "stall_ms": median(stalls) if stalls else 0.0,
            "restart_s": median(restart_s),
            "disk_bytes_per_fact": disk / max(1, counts.get("facts", 0)),
        })
        primary, second = writes, reads["p95"]
    else:
        # neither percentile of the reads shows the mid class
        primary, second = reads, latency_metrics(
            run, measured_windows, ("mid",), "mid")["p50"]
    run.e2e = {
        "setup_s": median(setups), "typical_ms": primary["p50"],
        "tail_ms": primary["p95"], "second_ms": second,
        # serve-mixed's seven checkpoints fall unevenly over its windows
        "ops_per_s": throughput(run, measured_windows, pooled=has_writes),
        "peak_rss_mb": rss,
    }
    run.detail.update({"restart_s": restart_s, "stall_cycles_ms": stalls,
                       "recoveries": reports, "disk_bytes": disk})
    if tracer is None:
        return
    run.layers.update(run.named)
    boot = [span for span in dumped["spans"] if span["start"] < phase_start]
    live = [span for span in dumped["spans"] if span["start"] >= phase_start]
    derive.bootstrap(run, Layers(boot), dumped["boot_counts"])
    run.spans = join_processes(tracer.export(), live)
    layers = Layers(run.spans)
    derive.wire(run, layers, classes, rows_of)
    derive.trace_quality(run, layers, measured_windows, done[untraced:])
    if has_writes:
        derive.write_path(run, layers, traced_from, after)
        derive.recovery(run, respawn_dumps, reports)
        run.layers.update({
            "engine.snapshot_bytes_per_fact":
                counts.get("snapshot_bytes", 0) / max(1, counts.get("facts", 0)),
            "serving.client_retries": daemon.retries,
        })
