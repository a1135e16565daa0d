"""The paper's running example, end to end (Examples 1, 4, 7; Tables I and II).

The script

1. loads the Hospital/Time dimensions, the categorical relations of Fig. 1
   and the ``Measurements`` table (Table I);
2. builds the MD ontology with dimensional rules (7)-(9) and constraint (6);
3. builds the Example-7 quality context (``TakenByNurse``, ``TakenWithTherm``,
   the quality version ``Measurements_q``);
4. materializes the quality version of ``Measurements`` — which comes out as
   Table II of the paper — and answers the doctor's query through it;
5. reports the data-quality measures and the effect of the closure
   constraint of Example 1.

Run with::

    python examples/hospital_quality_assessment.py
"""

from __future__ import annotations

from repro.hospital import HospitalScenario, build_ontology
from repro.quality.cleaning import compare_answers


def main() -> None:
    scenario = HospitalScenario()

    print("== the instance under assessment (Table I) ==")
    print(scenario.measurements.relation("Measurements").pretty())

    print("\n== ontology analysis (Section III claims) ==")
    for key, value in scenario.ontology.analysis().summary().items():
        print(f"  {key:>15}: {value}")

    print("\n== quality version of Measurements (expected: Table II) ==")
    print(scenario.quality_measurements().pretty())

    print("\n== the doctor's query ==")
    print("  direct answers (no context):")
    comparison = compare_answers(
        scenario.context, scenario.measurements,
        "?(T, P, V) :- Measurements(T, P, V), P = 'Tom Waits'.")
    for row in comparison.direct:
        print(f"    {row}")
    print("  quality answers (through the MD context):")
    for row in comparison.quality:
        print(f"    {row}")
    print(f"  {comparison}")

    print("\n== doctor's query restricted to Sep/5 around noon (Example 7) ==")
    for row in scenario.quality_answers_to_doctor_query():
        print(f"  {row}")

    print("\n== quality assessment of the instance ==")
    print(scenario.assess())

    print("\n== live update: two new measurements arrive (incremental chase) ==")
    update = scenario.record_measurements([
        ("Sep/5-12:10", "Lou Reed", 37.0),
        ("Sep/6-11:50", "Lou Reed", 36.5),
    ])
    print(f"  strategy: {update.strategy}, triggers fired: {update.steps}, "
          f"touched: {sorted(update.changed_predicates or [])}")
    print("  re-assessment (counts moved by the update's delta):")
    print("  " + str(scenario.assess()).replace("\n", "\n  "))
    session = scenario.session()
    print(f"  session caches: {session.stats.cache_hits} hits / "
          f"{session.stats.cache_misses} misses; updates: "
          f"{session.materialized.stats.incremental_updates} incremental, "
          f"{session.materialized.stats.full_rechases} full re-chases")

    print("\n== Example 1's closure constraint (intensive care closed) ==")
    constrained = build_ontology(include_closure_constraints=True)
    result = constrained.check_consistency()
    if result.is_consistent:
        print("  no violation found")
    else:
        for violation in result.violations:
            print(f"  {violation}")


if __name__ == "__main__":
    main()
