"""Quality measures: how far an instance departs from its quality version.

Following [Bertossi, Rizzolo & Lei 2010], which the paper builds on, the
quality of an instance ``D`` is measured by how much it departs from its
quality version(s) ``D^q``.  With set semantics the natural measures are
containment-based:

* **quality ratio** of a relation — the fraction of its tuples that also
  belong to its quality version (1.0 = every stored tuple is quality);
* **completeness ratio** — the fraction of quality tuples that the stored
  relation actually contains (relevant when the quality version may contain
  tuples generated by the ontology that the source missed);
* symmetric-difference size, per relation and per database, plus a weighted
  database-level score.

The module works on materialized quality versions (produced by
:meth:`repro.quality.context.Context.quality_versions_for`), so it is
independent of how those versions were specified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..relational.instance import DatabaseInstance, Relation
from ..errors import QualityError


@dataclass
class RelationAssessment:
    """Quality measures for a single relation."""

    relation: str
    total_tuples: int
    quality_tuples: int
    kept_tuples: int
    missing_tuples: int

    @property
    def quality_ratio(self) -> float:
        """Fraction of stored tuples that are quality tuples (precision-like)."""
        if self.total_tuples == 0:
            return 1.0
        return self.kept_tuples / self.total_tuples

    @property
    def completeness_ratio(self) -> float:
        """Fraction of quality tuples present in the stored relation (recall-like)."""
        if self.quality_tuples == 0:
            return 1.0
        return (self.quality_tuples - self.missing_tuples) / self.quality_tuples

    @property
    def departure(self) -> int:
        """Size of the symmetric difference between relation and quality version."""
        return (self.total_tuples - self.kept_tuples) + self.missing_tuples

    def as_dict(self) -> Dict[str, float]:
        """All measures as a flat dictionary (for reports and benches)."""
        return {
            "relation": self.relation,
            "total_tuples": self.total_tuples,
            "quality_tuples": self.quality_tuples,
            "kept_tuples": self.kept_tuples,
            "missing_tuples": self.missing_tuples,
            "quality_ratio": self.quality_ratio,
            "completeness_ratio": self.completeness_ratio,
            "departure": self.departure,
        }

    def __str__(self) -> str:
        return (f"{self.relation}: {self.kept_tuples}/{self.total_tuples} quality tuples "
                f"(ratio {self.quality_ratio:.2f}), departure {self.departure}")


@dataclass
class DatabaseAssessment:
    """Quality measures aggregated over a whole database instance."""

    relations: Dict[str, RelationAssessment] = field(default_factory=dict)

    def add(self, assessment: RelationAssessment) -> None:
        """Record the assessment of one relation."""
        self.relations[assessment.relation] = assessment

    @property
    def quality_ratio(self) -> float:
        """Tuple-weighted quality ratio over all assessed relations."""
        total = sum(a.total_tuples for a in self.relations.values())
        if total == 0:
            return 1.0
        kept = sum(a.kept_tuples for a in self.relations.values())
        return kept / total

    @property
    def departure(self) -> int:
        """Total symmetric-difference size over all assessed relations."""
        return sum(a.departure for a in self.relations.values())

    def as_rows(self) -> List[Dict[str, float]]:
        """Per-relation measures, one dictionary per relation."""
        return [self.relations[name].as_dict() for name in sorted(self.relations)]

    def __str__(self) -> str:
        lines = [str(self.relations[name]) for name in sorted(self.relations)]
        lines.append(f"overall quality ratio: {self.quality_ratio:.2f}, "
                     f"total departure: {self.departure}")
        return "\n".join(lines)


def assess_relation(original: Relation, quality: Relation,
                    name: Optional[str] = None) -> RelationAssessment:
    """Compare a stored relation with its (materialized) quality version."""
    if original.schema.arity != quality.schema.arity:
        raise QualityError(
            f"cannot assess {original.schema.name!r}: quality version has arity "
            f"{quality.schema.arity}, expected {original.schema.arity}")
    original_rows = set(original)
    quality_rows = set(quality)
    kept = len(original_rows & quality_rows)
    missing = len(quality_rows - original_rows)
    return RelationAssessment(
        relation=name or original.schema.name,
        total_tuples=len(original_rows),
        quality_tuples=len(quality_rows),
        kept_tuples=kept,
        missing_tuples=missing,
    )


def assess_database(instance: DatabaseInstance,
                    quality_versions: Mapping[str, Relation]) -> DatabaseAssessment:
    """Assess every relation of ``instance`` that has a quality version.

    The one-shot, set-based assessment — and the oracle the counts a
    :class:`~repro.quality.session.QualitySession` keeps by delta must equal.
    """
    assessment = DatabaseAssessment()
    for relation_name, quality in quality_versions.items():
        if not instance.has_relation(relation_name):
            raise QualityError(
                f"instance has no relation {relation_name!r} to assess")
        assessment.add(assess_relation(instance.relation(relation_name), quality,
                                       name=relation_name))
    return assessment
