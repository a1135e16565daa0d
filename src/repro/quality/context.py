"""Contexts for multidimensional data-quality assessment (Section V, Fig. 2).

A :class:`Context` is the formal theory into which an instance ``D`` under
assessment is mapped.  It bundles

* **schema mappings** ``D → C``: every relation of ``D`` gets a contextual
  copy (``Measurements`` ↦ ``Measurements_c``), possibly renamed — the
  "footprint of a broader contextual relation" of the paper;
* an optional **MD ontology** ``M`` providing the dimensional data,
  dimensional rules and constraints;
* **external sources** ``E_i``: extra relations with data the context can
  use (nurse rosters, device registries, ...);
* **contextual and quality predicates** (``TakenByNurse``, ``TakenWithTherm``);
* **quality-version specifications** ``S_i^q``.

Assembling a context against a concrete instance ``D`` produces one
Datalog± program containing all of the above; chasing it materializes the
quality versions, and quality (clean) query answering rewrites a query over
the original relations into one over their quality versions
(:mod:`repro.quality.cleaning`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..datalog.atoms import Atom
from ..datalog.chase import ChaseResult, chase
from ..datalog.program import DatalogProgram
from ..datalog.rules import TGD
from ..datalog.terms import Variable
from ..errors import ContextError
from ..ontology.mdontology import MDOntology
from ..relational.instance import DatabaseInstance, Relation
from ..relational.schema import RelationSchema
from .predicates import CONTEXTUAL, QUALITY, ContextualPredicate, RuleLike
from .versions import QualityVersionSpec, default_quality_name


def default_context_name(relation_name: str) -> str:
    """Default name of the contextual copy of a relation."""
    return f"{relation_name}_c"


class RelationMapping:
    """Mapping of one original relation into its contextual copy."""

    def __init__(self, source: str, target: str, arity: int):
        self.source = source
        self.target = target
        self.arity = arity

    def copy_rule(self) -> TGD:
        """The rule ``target(x̄) ← source(x̄)`` that transfers the data."""
        variables = [Variable(f"X{i}") for i in range(self.arity)]
        return TGD([Atom(self.target, variables)], [Atom(self.source, variables)],
                   label=f"map:{self.source}->{self.target}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RelationMapping({self.source!r} -> {self.target!r}, arity={self.arity})"


class Context:
    """A context ``C`` for assessing the quality of a database instance."""

    def __init__(self, ontology: Optional[MDOntology] = None, name: str = "context"):
        self.name = name
        self.ontology = ontology
        self.mappings: Dict[str, RelationMapping] = {}
        self.external_sources: DatabaseInstance = DatabaseInstance()
        self.predicates: List[ContextualPredicate] = []
        self.quality_versions: Dict[str, QualityVersionSpec] = {}
        self.extra_rules: List[TGD] = []

    # -- construction ------------------------------------------------------------

    def map_relation(self, source: str, arity: int,
                     target: Optional[str] = None) -> RelationMapping:
        """Declare that relation ``source`` of ``D`` is mapped into the context.

        ``target`` defaults to ``<source>_c``.  The mapping becomes a copy
        rule of the assembled program, so the contextual copy always reflects
        the instance under assessment.
        """
        mapping = RelationMapping(source, target or default_context_name(source), arity)
        self.mappings[source] = mapping
        return mapping

    def contextual_name(self, source: str) -> str:
        """The contextual copy name of an original relation."""
        try:
            return self.mappings[source].target
        except KeyError:
            raise ContextError(
                f"relation {source!r} is not mapped into the context; "
                f"mapped relations: {sorted(self.mappings)}") from None

    def add_external_source(self, name: str, attributes: Sequence[str],
                            rows: Iterable[Sequence] = ()) -> Relation:
        """Register an external source ``E_i`` with (optional) data."""
        relation = self.external_sources.declare(name, attributes)
        relation.add_all(rows)
        return relation

    def add_predicate(self, predicate: ContextualPredicate) -> ContextualPredicate:
        """Add a contextual or quality predicate."""
        self.predicates.append(predicate)
        return predicate

    def add_contextual_predicate(self, name: str, rules: Sequence[RuleLike],
                                 description: str = "") -> ContextualPredicate:
        """Declare a contextual predicate from its defining rules."""
        return self.add_predicate(ContextualPredicate(name, rules, role=CONTEXTUAL,
                                                      description=description))

    def add_quality_predicate(self, name: str, rules: Sequence[RuleLike],
                              description: str = "") -> ContextualPredicate:
        """Declare a quality predicate ``P_i`` from its defining rules."""
        return self.add_predicate(ContextualPredicate(name, rules, role=QUALITY,
                                                      description=description))

    def add_rule(self, rule: RuleLike) -> TGD:
        """Add a free-standing contextual rule (not tied to a named predicate)."""
        from ..datalog.parser import parse_rule
        parsed = parse_rule(rule) if isinstance(rule, str) else rule
        if not isinstance(parsed, TGD):
            raise ContextError(f"contextual rules must be TGDs, got {type(parsed).__name__}")
        self.extra_rules.append(parsed)
        return parsed

    def define_quality_version(self, relation: str, rules: Sequence[RuleLike],
                               quality_relation: Optional[str] = None,
                               description: str = "") -> QualityVersionSpec:
        """Specify the quality version ``S^q`` of an original relation."""
        spec = QualityVersionSpec(relation, rules, quality_relation=quality_relation,
                                  description=description)
        self.quality_versions[relation] = spec
        return spec

    def quality_relation_name(self, relation: str) -> str:
        """Name of the quality version of ``relation`` (default ``<relation>_q``)."""
        spec = self.quality_versions.get(relation)
        return spec.quality_relation if spec is not None else default_quality_name(relation)

    def quality_predicates(self) -> List[ContextualPredicate]:
        """The declared quality predicates ``P_i``."""
        return [predicate for predicate in self.predicates if predicate.is_quality()]

    # -- assembly ------------------------------------------------------------------

    def assemble(self, instance: DatabaseInstance) -> DatalogProgram:
        """Build the full Datalog± program for assessing ``instance``.

        The program contains (1) the MD ontology's compiled program (facts,
        referential constraints, dimensional rules and constraints), (2) the
        original instance plus the copy rules of the schema mappings, (3) the
        external sources, (4) the contextual/quality predicate definitions,
        and (5) the quality-version rules.
        """
        for source in self.mappings:
            if not instance.has_relation(source):
                raise ContextError(
                    f"the instance under assessment has no relation {source!r} "
                    "required by a context mapping")

        if self.ontology is not None:
            base = self.ontology.program()
            program = base.copy()
        else:
            program = DatalogProgram()

        # Original instance and its contextual copies.
        for relation in instance:
            target = program.database.declare(relation.schema.name, relation.schema.attributes)
            target.add_all(relation)
        for mapping in self.mappings.values():
            program.add_tgd(mapping.copy_rule())

        # External sources.
        for relation in self.external_sources:
            target = program.database.declare(relation.schema.name, relation.schema.attributes)
            target.add_all(relation)

        # Contextual and quality predicates, free rules, quality versions.
        for predicate in self.predicates:
            for rule in predicate.rules:
                program.add_tgd(rule)
        for rule in self.extra_rules:
            program.add_tgd(rule)
        for spec in self.quality_versions.values():
            for rule in spec.rules:
                program.add_tgd(rule)

        program.ensure_relations()
        return program

    # -- evaluation ------------------------------------------------------------------

    def chase(self, instance: DatabaseInstance, **chase_options) -> ChaseResult:
        """Assemble and chase the context program for ``instance``.

        ``chase_options`` are forwarded to :func:`repro.datalog.chase.chase`
        — including ``engine="indexed"``/``"naive"`` to pick the matching
        engine; the returned result carries the
        :class:`~repro.engine.stats.EngineStats` of the run.
        """
        return chase(self.assemble(instance), **chase_options)

    def session(self, instance: DatabaseInstance, engine: Optional[str] = None,
                max_steps: int = 100_000,
                record_provenance: bool = True) -> "QualitySession":
        """Open a :class:`~repro.quality.session.QualitySession` for ``instance``.

        The session keeps the assembled context program materialized across
        queries and incremental updates — the "chase once, answer many,
        update in deltas" posture; the one-shot methods below are thin
        wrappers over a fresh session (and skip provenance recording, which
        only incremental retraction needs).
        """
        from .session import QualitySession
        return QualitySession(self, instance, engine=engine, max_steps=max_steps,
                              record_provenance=record_provenance)

    def chased_quality_relation(self, chased: DatabaseInstance,
                                instance: DatabaseInstance,
                                relation: str) -> Relation:
        """``relation``'s arity-checked quality version in ``chased`` (no copy)."""
        if relation not in self.quality_versions:
            raise ContextError(
                f"no quality version has been defined for relation {relation!r}")
        name = self.quality_relation_name(relation)
        materialized = chased.relation(name)
        original_schema = instance.relation(relation).schema
        if materialized.schema.arity != original_schema.arity:
            raise ContextError(
                f"quality version {name!r} has arity {materialized.schema.arity}, "
                f"expected {original_schema.arity} (same schema as {relation!r})")
        return materialized

    def materialize_quality_version(self, chased: DatabaseInstance,
                                    instance: DatabaseInstance,
                                    relation: str) -> Relation:
        """Extract ``relation``'s quality version from a chased instance."""
        materialized = self.chased_quality_relation(chased, instance, relation)
        renamed = Relation(RelationSchema(
            materialized.schema.name, instance.relation(relation).schema.attributes))
        renamed.bulk_load(materialized)
        return renamed

    def quality_version(self, instance: DatabaseInstance, relation: str,
                        chase_result: Optional[ChaseResult] = None) -> Relation:
        """Materialize the quality version ``relation^q`` for ``instance``."""
        if relation not in self.quality_versions:
            raise ContextError(
                f"no quality version has been defined for relation {relation!r}")
        result = chase_result if chase_result is not None else self.chase(
            instance, check_constraints=False)
        return self.materialize_quality_version(result.instance, instance, relation)

    def quality_versions_for(self, instance: DatabaseInstance,
                             chase_result: Optional[ChaseResult] = None
                             ) -> Dict[str, Relation]:
        """Materialize every declared quality version (shared chase).

        With no pre-computed ``chase_result`` this is a thin wrapper over a
        one-shot :meth:`session`.
        """
        if chase_result is None:
            return self.session(instance,
                                record_provenance=False).quality_versions()
        return {
            relation: self.quality_version(instance, relation,
                                           chase_result=chase_result)
            for relation in self.quality_versions
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Context({self.name!r}, mappings={sorted(self.mappings)}, "
                f"predicates={[p.name for p in self.predicates]}, "
                f"quality_versions={sorted(self.quality_versions)})")
