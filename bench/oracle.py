"""What the sensornet queries must answer, computed without the engine.

The ontology navigates one ``BuildingInspection(B, D, I)`` down to every
floor, room and sensor of ``B`` and up to the campus; the context calls a
reading quality when its sensor was audited that day and is calibrated.
So, reading only the MD instance and the calibration source:

* ``SensorAudit(s, D, _)`` holds for the days ``D`` on which the building
  of ``s`` was inspected, ``RoomCheck(r, D, _)`` likewise per room;
* a reading ``(s, D, v)`` is a quality answer iff ``s`` is calibrated and
  the building of ``s`` was inspected on ``D``.

Every served or in-process answer of the benchmark is compared with this.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set, Tuple

Row = Tuple

FULL_QUERY = "?(S, D, V) :- SensorReadings(S, D, V)."
STATIC_QUERIES = (
    "?(R, D) :- RoomCheck(R, D, W).",
    "?(B, D, I) :- BuildingInspection(B, D, I).",
    "?(C, D, I) :- CampusInspection(C, D, I).",
)


def audit_query(sensor: str) -> str:
    return f"?(D) :- SensorAudit('{sensor}', D, V)."


def audited_query(sensor: str) -> str:
    return f"? :- SensorAudit('{sensor}', D, V)."


def sensor_query(sensor: str) -> str:
    return f"?(D, V) :- SensorReadings('{sensor}', D, V)."


class SensorOracle:
    """Expected answers over a set of readings that the caller evolves."""

    def __init__(self, scenario):
        from repro.sensornet.data import calibrated_sensors
        location = scenario.md.dimension("Location")
        self.building: Dict[str, str] = dict(
            location.rollup_pairs("Sensor", "Building"))
        inspections = set(scenario.md.relation("BuildingInspection").rows())
        self.inspected: Set[Tuple[str, str]] = {
            (building, day) for building, day, _ in inspections}
        self.calibrated = {sensor for (sensor,)
                           in calibrated_sensors(scenario.spec)}
        rooms = location.rollup_pairs("Room", "Building")
        campuses = dict(location.rollup_pairs("Building", "Campus"))
        self.static: Dict[str, FrozenSet[Row]] = {
            STATIC_QUERIES[0]: frozenset(
                (room, day) for room, building in rooms
                for inspected, day in self.inspected
                if inspected == building),
            STATIC_QUERIES[1]: frozenset(inspections),
            STATIC_QUERIES[2]: frozenset(
                (campuses[building], day, inspector)
                for building, day, inspector in inspections),
        }

    def audit_days(self, sensor: str) -> FrozenSet[Row]:
        building = self.building[sensor]
        return frozenset((day,) for inspected, day in self.inspected
                         if inspected == building)

    def is_quality(self, row: Row) -> bool:
        sensor, day, _value = row
        return sensor in self.calibrated and \
            (self.building[sensor], day) in self.inspected

    def quality(self, readings: Iterable[Row]) -> FrozenSet[Row]:
        return frozenset(row for row in readings if self.is_quality(row))
