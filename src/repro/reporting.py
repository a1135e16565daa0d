"""Human-readable reports: text and Markdown renderings of analysis results.

The examples and the benchmark harness produce several structured results —
ontology analyses, validation reports, quality assessments, clean-answer
comparisons.  This module renders them as aligned text tables or Markdown,
so scripts can drop them straight into logs, notebooks or EXPERIMENTS-style
documents.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from .engine.stats import EngineStats
from .md.validation import ValidationReport
from .ontology.analysis import OntologyAnalysis
from .quality.assessment import DatabaseAssessment
from .quality.cleaning import CleanAnswerComparison
from .relational.instance import Relation


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 markdown: bool = False) -> str:
    """Render ``rows`` under ``headers`` as an aligned text or Markdown table."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(values: Sequence[str]) -> str:
        padded = [value.ljust(widths[index]) for index, value in enumerate(values)]
        return "| " + " | ".join(padded) + " |" if markdown else "  ".join(padded)

    separator = (
        "|" + "|".join("-" * (width + 2) for width in widths) + "|"
        if markdown else "-" * (sum(widths) + 2 * (len(widths) - 1))
    )
    output = [line(list(headers)), separator]
    output.extend(line(row) for row in cells)
    return "\n".join(output)


def render_relation(relation: Relation, markdown: bool = False,
                    limit: Optional[int] = None) -> str:
    """Render a relation (sorted, optionally truncated) as a table."""
    rows = relation.sorted_rows()
    if limit is not None:
        rows = rows[:limit]
    return render_table(relation.schema.attributes, rows, markdown=markdown)


def render_analysis(analysis: OntologyAnalysis, markdown: bool = False) -> str:
    """Render an ontology analysis (class membership, separability, directions)."""
    summary_rows = [(key, value) for key, value in analysis.summary().items()]
    parts = [render_table(("property", "value"), summary_rows, markdown=markdown)]
    if analysis.rule_directions:
        direction_rows = sorted(analysis.rule_directions.items())
        parts.append(render_table(("rule", "navigation"), direction_rows,
                                  markdown=markdown))
    if analysis.notes:
        parts.append("\n".join(f"- {note}" for note in analysis.notes))
    return "\n\n".join(parts)


def render_validation(report: ValidationReport, markdown: bool = False) -> str:
    """Render an MD-model validation report."""
    if report.is_valid:
        return "validation passed: no issues"
    rows = [(issue.kind, issue.dimension or "-", issue.subject, issue.detail)
            for issue in report.issues]
    return render_table(("kind", "dimension", "subject", "detail"), rows,
                        markdown=markdown)


def render_assessment(assessment: DatabaseAssessment, markdown: bool = False) -> str:
    """Render a database quality assessment, one row per relation."""
    headers = ("relation", "stored", "quality", "kept", "missing",
               "quality ratio", "departure")
    rows = [
        (entry["relation"], entry["total_tuples"], entry["quality_tuples"],
         entry["kept_tuples"], entry["missing_tuples"],
         f"{entry['quality_ratio']:.3f}", entry["departure"])
        for entry in assessment.as_rows()
    ]
    rows.append(("TOTAL", "", "", "", "", f"{assessment.quality_ratio:.3f}",
                 assessment.departure))
    return render_table(headers, rows, markdown=markdown)


def render_comparison(comparison: CleanAnswerComparison, markdown: bool = False) -> str:
    """Render a direct-vs-quality answer comparison."""
    rows = []
    quality = set(comparison.quality)
    for row in comparison.direct:
        rows.append((str(row), "yes" if row in quality else "no"))
    for row in comparison.quality:
        if row not in set(comparison.direct):
            rows.append((str(row), "quality only"))
    table = render_table(("answer", "quality?"), rows, markdown=markdown)
    summary = (f"direct: {len(comparison.direct)}, quality: {len(comparison.quality)}, "
               f"spurious: {len(comparison.spurious)}, precision: {comparison.precision:.2f}")
    return f"{table}\n\n{summary}"


def render_engine_stats(stats: EngineStats, markdown: bool = False) -> str:
    """Render the engine instrumentation of a run (e.g. ``ChaseResult.stats``).

    The counters come from the shared matching engine: rows actually
    scanned, index probes, triggers fired, fixpoint rounds, rule evaluations
    skipped by the delta discipline, rows rewritten by EGD merges, and the
    columnar path's batch counters (``batch_joins``, ``rows_batch_scanned``,
    ``codegen_cache_hits``) plus the session layer's support-count
    evictions and MVCC publication path (``relations_patched`` in place vs
    ``relations_copied`` / ``rows_copied_by_publish``) — every
    :class:`EngineStats` field renders automatically.
    """
    return render_table(("counter", "value"), list(stats.as_dict().items()),
                        markdown=markdown)


def render_key_values(data: Mapping[str, Any], markdown: bool = False) -> str:
    """Render a flat mapping as a two-column table."""
    return render_table(("key", "value"), sorted(data.items()), markdown=markdown)
