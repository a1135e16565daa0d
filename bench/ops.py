"""Seeded op lists: fixed work, generated before any timing starts.

An op is ``(kind, cls, arg, expected)``: ``kind`` names the public call
(``answers``, ``quality_answers``, ``holds``, ``add``, ``retract``,
``assess``), ``cls`` its cost class, ``arg`` a query text or a row list,
``expected`` what :mod:`bench.oracle` says the call must return (for a
write: the size of the quality answer once it is applied).  Every window holds exactly the class counts its
mix prescribes, shuffled by the seed — so windows differ in order, never
in composition — and the same seed gives byte-identical lists
(:func:`encode`).

Mixes are built from cost classes so that percentiles sit inside a class,
not on a boundary (measured over the wire at tier M: cheap ~0.08-0.2 ms,
mid ~0.2-1.8 ms, heavy ~15 ms; writes: add ~4.5 ms, retract ~5.3 ms).
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

from .oracle import (FULL_QUERY, STATIC_QUERIES, SensorOracle, audit_query,
                     audited_query, sensor_query)

Op = Tuple[str, str, object, object]

RELATION = "SensorReadings"

#: share of each op in a mix, in percent, in ascending cost order; the
#: second field is the cost class
READ_MIX = (("holds", "cheap", 10.0), ("answers", "cheap", 45.0),
            ("quality_answers", "cheap", 25.0), ("static", "mid", 12.0),
            ("full", "heavy", 8.0))
WRITE_SHARE = 30.0
MIXED_MIX = tuple((name, cls, share * (100.0 - WRITE_SHARE) / 100.0)
                  for name, cls, share in READ_MIX) + \
    (("add", "add", 17.0), ("retract", "retract", 13.0))
UPDATE_MIX = (("add", "add", 50.0), ("retract", "retract", 40.0),
              ("assess", "assess", 10.0))

READ_CLASSES = ("cheap", "mid", "heavy")
WRITE_CLASSES = ("add", "retract")

ADD_ROWS = 2
PROBED_SENSORS = 50


def class_shares(mix, classes: Sequence[str]) -> List[Tuple[str, float]]:
    """Cumulative shares (percent) of ``classes`` among themselves, in mix
    order — where the class boundaries of a measured population lie."""
    chosen = [(cls, share) for _name, cls, share in mix if cls in classes]
    total = sum(share for _cls, share in chosen)
    boundaries: List[Tuple[str, float]] = []
    running = 0.0
    for cls, share in chosen:
        running += 100.0 * share / total
        if boundaries and boundaries[-1][0] == cls:
            boundaries[-1] = (cls, running)
        else:
            boundaries.append((cls, running))
    return boundaries


def counts_for(mix, total: int) -> Dict[str, int]:
    """Exact per-window op counts (largest-remainder rounding)."""
    exact = [(name, share * total / 100.0) for name, _cls, share in mix]
    counts = {name: int(value) for name, value in exact}
    by_remainder = sorted(exact, key=lambda item: item[1] - int(item[1]),
                          reverse=True)
    for name, _value in by_remainder[:total - sum(counts.values())]:
        counts[name] += 1
    return counts


def encode(ops: Sequence[Op]) -> bytes:
    """The op list as bytes (what "byte-identical per seed" compares)."""
    return json.dumps([[kind, cls, arg] for kind, cls, arg, _ in ops],
                      separators=(",", ":")).encode("utf-8")


class OpGenerator:
    """Generates one connection's windows and replays their effect on an
    oracle-side copy of the readings, so every read carries its answer.

    ``sensors`` is the slice of the network this connection reads and
    writes; two connections with disjoint slices have answers that do not
    depend on how their requests interleave.
    """

    def __init__(self, scenario, oracle: SensorOracle, seed: int,
                 stream: str, sensors: Sequence[str]):
        from repro.sensornet.data import spec_days
        self.oracle = oracle
        self.rng = random.Random(f"bench:{stream}:{seed}")
        self.sensors = list(sensors)
        self.days = spec_days(scenario.spec)
        own = set(self.sensors)
        #: the readings of this slice, as the ops so far leave them
        self.live = {row for row in
                     scenario.instance.relation(RELATION).rows()
                     if row[0] in own}
        self.pool = sorted(self.live)
        #: sensor -> the (day, value) pairs of its quality readings
        self.quality: Dict[str, set] = {}
        self.quality_size = 0
        self._rows: Optional[frozenset] = None
        for row in oracle.quality(self.live):
            self._note_quality(row, present=True)
        # the same sensors whatever the seed: point answers differ in size
        # from sensor to sensor, and a seed must not move the metrics
        self.probed = random.Random("bench:probed").sample(
            self.sensors, min(PROBED_SENSORS, len(self.sensors)))

    def _note_quality(self, row, present: bool) -> None:
        sensor, day, value = row
        pairs = self.quality.setdefault(sensor, set())
        before = len(pairs)
        (pairs.add if present else pairs.discard)((day, value))
        if len(pairs) != before:
            self.quality_size += len(pairs) - before
            self._rows = None

    def quality_rows(self) -> frozenset:
        """The quality answer over this slice, as the ops so far leave it
        (one shared object until a write changes it)."""
        if self._rows is None:
            self._rows = frozenset((sensor, day, value)
                                   for sensor, pairs in self.quality.items()
                                   for day, value in pairs)
        return self._rows

    # -- single ops ----------------------------------------------------------

    def _read(self, name: str) -> Op:
        sensor = self.rng.choice(self.probed)
        if name == "holds":
            return ("holds", "cheap", audited_query(sensor),
                    bool(self.oracle.audit_days(sensor)))
        if name == "answers":
            return ("answers", "cheap", audit_query(sensor),
                    self.oracle.audit_days(sensor))
        if name == "quality_answers":
            return ("quality_answers", "cheap", sensor_query(sensor),
                    frozenset(self.quality.get(sensor, ())))
        if name == "static":
            query = self.rng.choice(STATIC_QUERIES)
            return ("answers", "mid", query, self.oracle.static[query])
        return ("quality_answers", "heavy", FULL_QUERY, self.quality_rows())

    def _add(self) -> Op:
        rows = []
        for _ in range(ADD_ROWS):
            # half the adds land on a probed sensor, so point reads see
            # the writes they are checked against
            sensors = self.probed if self.rng.random() < 0.5 else self.sensors
            row = (self.rng.choice(sensors), self.rng.choice(self.days),
                   round(15.0 + 10.0 * self.rng.random(), 2))
            rows.append(row)
            if row not in self.live:
                self.live.add(row)
                self.pool.append(row)
                if self.oracle.is_quality(row):
                    self._note_quality(row, present=True)
        return ("add", "add", rows, self.quality_size)

    def _retract(self) -> Op:
        victim = self.pool.pop(self.rng.randrange(len(self.pool)))
        self.live.discard(victim)
        self._note_quality(victim, present=False)
        return ("retract", "retract", [victim], self.quality_size)

    # -- windows -------------------------------------------------------------

    def window(self, mix, size: int) -> List[Op]:
        names = [name for name, count in counts_for(mix, size).items()
                 for _ in range(count)]
        self.rng.shuffle(names)
        ops: List[Op] = []
        for name in names:
            if name == "add":
                ops.append(self._add())
            elif name == "retract":
                ops.append(self._retract())
            elif name == "assess":
                ops.append(("assess", "assess", None,
                            (len(self.live), self.quality_size)))
            else:
                ops.append(self._read(name))
        return ops

    def windows(self, mix, size: int, count: int) -> List[List[Op]]:
        return [self.window(mix, size) for _ in range(count)]


def split_sensors(scenario, parts: int) -> List[List[str]]:
    """Disjoint, interleaved slices of the sensor list, one per connection."""
    from repro.sensornet.data import spec_sensors
    sensors = spec_sensors(scenario.spec)
    return [sensors[index::parts] for index in range(parts)]

