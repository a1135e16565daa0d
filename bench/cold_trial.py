"""One cold-assess trial in a fresh process (``python -m bench.cold_trial``).

import -> ``build_scenario`` -> ``QualitySession`` (the chase) ->
``assess()`` -> first answer to each of the 5 plain + 2 quality queries.
Prints ``answered`` the moment the last answer is in hand (the parent stops
its clock on it), then one JSON line: stage times, counts, peak RSS and —
checked after the clocks stopped — which answers differ from
:mod:`bench.oracle`.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from typing import List, Optional  # noqa: E402


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.cold_trial")
    parser.add_argument("--tier", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--engine", default=None,
                        help="another engine than the production one (the "
                             "traced run's engine-collapse evidence)")
    parser.add_argument("--trace-out", metavar="FILE")
    args = parser.parse_args(argv)

    from . import common, oracle
    tracer = None
    if args.trace_out:
        from .trace import Tracer
        tracer = Tracer("c")
        tracer.install()
        tracer.enabled = True
    from repro.quality.session import QualitySession
    from repro.sensornet.data import spec_sensors
    clock = time.perf_counter
    imported = clock()

    scenario = common.build_tier(args.tier)
    built = clock()
    session = QualitySession(scenario.context, scenario.instance,
                             engine=args.engine or common.ENGINE,
                             max_steps=10**9)
    chased = clock()
    assessment = session.assess()
    assessed = clock()

    sensors = spec_sensors(scenario.spec)
    plain = list(oracle.STATIC_QUERIES) + [oracle.audit_query(sensors[0]),
                                           oracle.FULL_QUERY]
    quality = [oracle.FULL_QUERY, oracle.sensor_query(sensors[-1])]
    asks = [("plain", query) for query in plain] + \
        [("quality", query) for query in quality]
    # the instance is pinned (see common.TIERS); the seed orders the asks
    random.Random(f"bench:cold-assess:{args.seed}").shuffle(asks)
    answers = {}
    for kind, query in asks:
        if kind == "plain":
            answers[(kind, query)] = session.query_session.answers(query)
        else:
            answers[(kind, query)] = session.quality_answers(query)
    answered = clock()
    print("answered", flush=True)
    if tracer is not None:
        tracer.enabled = False

    # -- untimed: check the outputs ------------------------------------------
    expect = oracle.SensorOracle(scenario)
    readings = set(scenario.instance.relation("SensorReadings").rows())
    good = expect.quality(readings)
    expected = {("plain", query): expect.static[query]
                for query in oracle.STATIC_QUERIES}
    expected[("plain", plain[3])] = expect.audit_days(sensors[0])
    expected[("plain", oracle.FULL_QUERY)] = frozenset(readings)
    expected[("quality", oracle.FULL_QUERY)] = good
    expected[("quality", quality[1])] = frozenset(
        (day, value) for sensor, day, value in good if sensor == sensors[-1])
    mismatches = [f"{kind}:{query}" for (kind, query), rows in answers.items()
                  if frozenset(rows) != expected[(kind, query)]]
    row = assessment.as_rows()[0]
    if (row["total_tuples"], row["quality_tuples"]) != \
            (len(readings), len(good)):
        mismatches.append("assess")

    program = session.materialized.stats
    facts = sum(len(relation) for relation in session.materialized.instance)
    from repro.relational.values import value_catalog
    result = {
        "import_s": imported - _PROCESS_START,
        "build_s": built - imported,
        "chase_s": chased - built,
        "assess_call_s": assessed - chased,
        "answers_s": answered - assessed,
        "facts": facts,
        "edb_rows": sum(len(relation) for relation
                        in session.materialized.edb),
        "triggers": program.triggers_fired,
        "answer_rows": sum(len(rows) for rows in answers.values()),
        "stats": program.as_dict(),
        "catalog_values": len(value_catalog()),
        "mismatches": mismatches,
        "rss_mb": common.peak_rss_mb(),
    }
    if tracer is not None:
        tracer.dump(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
