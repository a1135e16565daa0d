"""Batched trigger application: joined bindings → bulk head instantiation.

The columnar engine batches the *joins* of the chase, but the pre-PR
trigger loop still walked the joined bindings one homomorphism at a time:
decode a substitution dict, run a head-satisfaction check, invent nulls
one ``fresh()`` call at a time, insert head facts one ``Relation.add``
each.  For derivation-heavy programs that per-trigger Python work — not
the joins — dominates the chase profile.

This module applies a (rule, pivot)'s triggers **set-at-a-time**, straight
off the :class:`~repro.engine.columnar.BindingTable`:

* group the distinct joined bindings by the rule's *frontier* (the
  universal variables that occur in the head), keeping first-occurrence
  order;
* for existential rules, filter already-satisfied groups with one group
  index probe per group (instead of one ``has_homomorphism`` join per
  trigger), then invent all labeled nulls in bulk — one
  :meth:`~repro.relational.values.NullFactory.fresh_many` reservation and
  one locked :meth:`~repro.relational.values.ValueCatalog.register_many`
  append per batch;
* gather each head atom's columns as code arrays and insert through
  :meth:`~repro.relational.instance.Relation.add_many`, whose novelty mask
  directly yields the next round's delta — no re-probing.

Batching a chase round is a *parallel* application of that round's
triggers, which is a valid chase strategy; the shapes where it is also
**exactly** the sequential restricted chase are the ones routed here:

* non-existential rules (with at most one head atom per relation): a
  frontier group fires iff at least one of its head rows is novel, which
  is precisely when the sequential chase would have found the head
  unsatisfied;
* single-atom existential heads: distinct frontier groups can never
  witness each other's freshly-invented heads (they differ at a universal
  head position), so the pre-batch satisfaction filter equals the
  sequential check.

Anything else — multi-atom existential heads, a relation fed by two head
atoms of one rule — returns ``None`` and falls back to the per-trigger
loop.  EGDs get the same treatment on the detection side:
:meth:`TriggerBatcher.egd_candidates` compares the two sides' code columns
over the whole joined table and decodes only the rows that actually
differ, leaving the (rare) merges to the per-merge logic.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..datalog.terms import Variable, term_value, to_term
from ..datalog.unify import apply_to_atom
from ..relational.instance import DatabaseInstance
from ..relational.values import NullFactory, value_catalog
from .columnar import BindingTable, _take_rows
from .matching import DeltaJoinPlan, DeltaLike

__all__ = ["BatchOutcome", "TriggerBatcher"]

Fact = Tuple[str, Tuple[Any, ...]]

#: head-term descriptor kinds: a universal (frontier) variable, a baked
#: constant code, an existential variable slot
_UNIVERSAL, _CONSTANT, _EXISTENTIAL = 0, 1, 2


class BatchOutcome:
    """What one batched rule application did."""

    __slots__ = ("fired", "novel")

    def __init__(self, fired: int, novel: List[Fact]):
        #: triggers fired (frontier groups that produced something)
        self.fired = fired
        #: the head facts that were actually new, as ``(predicate, row)``
        self.novel = novel


class _RuleContext:
    """Per-rule compilation for the batch path (built once per chase run).

    Holds the frontier (head-occurring universal variables, first-occurrence
    order), the per-head-atom term descriptors (constant codes baked — the
    catalog is append-only), and, for existential rules, the satisfaction
    probe layout over the single head atom.
    """

    __slots__ = ("eligible", "frontier", "existentials", "head_atoms",
                 "sat_predicate", "sat_positions", "sat_sources",
                 "sat_dup_pairs")

    def __init__(self, tgd):
        catalog = value_catalog()
        self.existentials: List[Variable] = list(tgd.existential_variables())
        exist_index = {v: k for k, v in enumerate(self.existentials)}
        frontier: List[Variable] = []
        head_atoms: List[Tuple[str, Tuple[Tuple[int, int], ...]]] = []
        for atom in tgd.head:
            descriptors: List[Tuple[int, int]] = []
            for term in atom.terms:
                if isinstance(term, Variable):
                    if term in exist_index:
                        descriptors.append((_EXISTENTIAL, exist_index[term]))
                    else:
                        if term not in frontier:
                            frontier.append(term)
                        descriptors.append((_UNIVERSAL,
                                            frontier.index(term)))
                else:
                    descriptors.append(
                        (_CONSTANT, catalog.code(term_value(term))))
            head_atoms.append((atom.predicate, tuple(descriptors)))
        self.frontier = tuple(frontier)
        self.head_atoms = head_atoms
        predicates = [predicate for predicate, _ in head_atoms]
        if self.existentials:
            # Exact only for single-atom heads: distinct frontier groups
            # then cannot witness each other's freshly-invented heads.
            self.eligible = len(head_atoms) == 1
        else:
            # Atom-major bulk inserts match the sequential novelty
            # attribution only when each relation is fed by one head atom.
            self.eligible = len(set(predicates)) == len(predicates)
        self.sat_predicate: Optional[str] = None
        if self.eligible and self.existentials:
            predicate, descriptors = head_atoms[0]
            self.sat_predicate = predicate
            positions: List[int] = []
            sources: List[Tuple[int, int]] = []
            dup_pairs: List[Tuple[int, int]] = []
            first_at: Dict[int, int] = {}
            for position, (kind, payload) in enumerate(descriptors):
                if kind == _EXISTENTIAL:
                    if payload in first_at:
                        # a repeated existential: any witness row must agree
                        # at both positions
                        dup_pairs.append((position, first_at[payload]))
                    else:
                        first_at[payload] = position
                else:
                    positions.append(position)
                    sources.append((kind, payload))
            self.sat_positions = tuple(positions)
            self.sat_sources = tuple(sources)
            self.sat_dup_pairs = tuple(dup_pairs)


class TriggerBatcher:
    """Applies one chase run's TGD/EGD triggers batch-natively.

    One instance per run (per-rule contexts are compiled lazily and memoized
    by rule index); the chase falls back to its per-trigger loop whenever a
    method returns ``None``.
    """

    def __init__(self, matcher, nulls: NullFactory):
        self.matcher = matcher
        self.nulls = nulls
        self._contexts: Dict[int, _RuleContext] = {}

    # -- TGDs ----------------------------------------------------------------

    def apply(self, index: int, tgd, instance: DatabaseInstance,
              delta: Optional[DeltaLike],
              provenance: Optional[dict] = None) -> Optional[BatchOutcome]:
        """Fire every applicable trigger of ``tgd`` in one batch pass.

        Returns ``None`` when the rule shape is outside the exact batch
        semantics (see module docstring) — the caller falls back — and a
        :class:`BatchOutcome` otherwise.
        """
        context = self._contexts.get(index)
        if context is None:
            context = self._contexts[index] = _RuleContext(tgd)
        if not context.eligible:
            return None
        matcher = self.matcher
        if delta is None:
            table = matcher.binding_table(tgd.body, instance)
            if table is None:
                return None
        else:
            plan = DeltaJoinPlan(matcher, tgd.body,
                                 variables=tgd.body_variables())
            table = matcher.delta_binding_table(plan, instance, delta)
        if not table.length:
            return BatchOutcome(0, [])
        if any(variable not in table.columns for variable in context.frontier):
            return None
        want_reps = provenance is not None
        columns, reps = self._frontier_groups(context, table, want_reps)
        count = len(columns[0]) if columns else 1
        if context.existentials:
            return self._apply_existential(context, tgd, instance, table,
                                           columns, reps, count, provenance)
        return self._apply_plain(context, tgd, instance, table,
                                 columns, reps, count, provenance)

    def _frontier_groups(self, context: _RuleContext, table: BindingTable,
                         want_reps: bool):
        """Distinct frontier valuations of ``table``.

        Returns ``(columns, reps)``: one code column per frontier variable
        (all of the same group count) and, when requested, the table index
        of one representative row per group (the provenance witness).  An
        empty frontier means a single group represented by any row.
        """
        if not context.frontier:
            return [], ([0] if want_reps else None)
        seen: Dict[Tuple[int, ...], int] = {}
        for i, key in enumerate(table.code_rows(context.frontier)):
            if key not in seen:
                seen[key] = i
        keys = list(seen)
        reps = list(seen.values()) if want_reps else None
        columns = [[key[j] for key in keys]
                   for j in range(len(context.frontier))]
        return columns, reps

    def _apply_existential(self, context: _RuleContext, tgd,
                           instance: DatabaseInstance, table: BindingTable,
                           columns, reps, count: int,
                           provenance: Optional[dict]) -> BatchOutcome:
        keep = self._unsatisfied_groups(context, instance, columns, count)
        fired = len(keep)
        if not fired:
            return BatchOutcome(0, [])
        if fired != count:
            columns = [[column[g] for g in keep] for column in columns]
            if reps is not None:
                reps = [reps[g] for g in keep]
        stats = self.matcher.stats
        width = len(context.existentials)
        fresh = self.nulls.fresh_many(fired * width)
        null_codes = value_catalog().register_many(fresh)
        stats.nulls_bulk_allocated += len(fresh)
        predicate, descriptors = context.head_atoms[0]
        rows, code_rows = _head_rows(descriptors, columns, null_codes,
                                     width, fired)
        mask = instance.relation(predicate).add_many(rows, code_rows)
        novel = [(predicate, row)
                 for row, is_new in zip(rows, mask) if is_new]
        stats.triggers_batched += fired
        if provenance is not None and novel:
            self._record_provenance(
                tgd, table, reps,
                [[(predicate, rows[g])] if mask[g] else []
                 for g in range(fired)], provenance)
        return BatchOutcome(fired, novel)

    def _apply_plain(self, context: _RuleContext, tgd,
                     instance: DatabaseInstance, table: BindingTable,
                     columns, reps, count: int,
                     provenance: Optional[dict]) -> BatchOutcome:
        # No pre-filter: a group whose head already holds simply inserts
        # nothing novel, exactly like the sequential satisfaction check.
        stats = self.matcher.stats
        fired_mask = [False] * count
        novel: List[Fact] = []
        group_facts: Optional[List[List[Fact]]] = \
            [[] for _ in range(count)] if provenance is not None else None
        for predicate, descriptors in context.head_atoms:
            rows, code_rows = _head_rows(descriptors, columns, None, 0, count)
            mask = instance.relation(predicate).add_many(rows, code_rows)
            for g, is_new in enumerate(mask):
                if is_new:
                    fired_mask[g] = True
                    novel.append((predicate, rows[g]))
                    if group_facts is not None:
                        group_facts[g].append((predicate, rows[g]))
        fired = sum(fired_mask)
        stats.triggers_batched += fired
        if provenance is not None and fired:
            fired_groups = [g for g in range(count) if fired_mask[g]]
            self._record_provenance(
                tgd, table, [reps[g] for g in fired_groups],
                [group_facts[g] for g in fired_groups], provenance)
        return BatchOutcome(fired, novel)

    def _unsatisfied_groups(self, context: _RuleContext,
                            instance: DatabaseInstance, columns,
                            count: int) -> List[int]:
        """The frontier groups whose head is not already witnessed."""
        predicate = context.sat_predicate
        if not instance.has_relation(predicate):
            return list(range(count))
        relation = instance.relation(predicate)
        if not relation:
            return list(range(count))
        store = relation.column_store()
        stats = self.matcher.stats
        dup_pairs = context.sat_dup_pairs
        if not context.sat_positions:
            # Nothing bound in the head: any stored row (agreeing on
            # repeated existentials) witnesses every group.
            stats.rows_scanned += len(store) if dup_pairs else 0
            witnessed = any(
                all(store.column(p)[slot] == store.column(q)[slot]
                    for p, q in dup_pairs)
                for slot in range(len(store))) if dup_pairs else True
            return [] if witnessed else list(range(count))
        groups = store.group_index(context.sat_positions)
        stats.index_probes += count
        sources = []
        for kind, payload in context.sat_sources:
            if kind == _UNIVERSAL:
                sources.append(columns[payload])
            else:
                sources.append(repeat(payload, count))
        if len(sources) == 1:
            keys: Any = sources[0]
            if not isinstance(keys, list):
                keys = list(keys)
        else:
            keys = zip(*sources)
        if not dup_pairs:
            return [g for g, key in enumerate(keys) if key not in groups]
        out = []
        pair_columns = [(store.column(p), store.column(q))
                        for p, q in dup_pairs]
        for g, key in enumerate(keys):
            bucket = groups.get(key)
            if bucket is None:
                out.append(g)
                continue
            for slot in bucket:
                if all(left[slot] == right[slot]
                       for left, right in pair_columns):
                    break
            else:
                out.append(g)
        return out

    def _record_provenance(self, tgd, table: BindingTable,
                           reps: Sequence[int],
                           facts_per_group: Sequence[Sequence[Fact]],
                           provenance: dict) -> None:
        """Record one body witness per group for its novel facts.

        ``reps`` indexes one representative table row per group; the
        decoded substitution grounds the body exactly as the per-trigger
        path would (any trigger of the group is a valid witness).  Rows are
        decoded directly — ``reps`` need not be monotone, so the
        ``_take_rows`` same-length shortcut would misalign groups.
        """
        values = value_catalog().values()
        variables = list(table.columns)
        lists = [table.columns[variable] for variable in variables]
        witnesses = (
            {variable: to_term(values[lists[j][int(rep)]])
             for j, variable in enumerate(variables)}
            for rep in reps)
        for g, homomorphism in enumerate(witnesses):
            body_facts = tuple(
                (grounded.predicate, grounded.to_fact_row())
                for grounded in (apply_to_atom(homomorphism, atom)
                                 for atom in tgd.body))
            for fact in facts_per_group[g]:
                provenance.setdefault(fact, body_facts)

    # -- EGDs ----------------------------------------------------------------

    def egd_candidates(self, egd, instance: DatabaseInstance,
                       delta: Optional[DeltaLike]
                       ) -> Optional[List[dict]]:
        """The trigger substitutions of ``egd`` whose two sides differ.

        Batch pre-filter for the EGD loop: compares the left/right
        code columns over the whole joined table (codes biject with
        value-equality classes, nulls included) and decodes only the rows
        that could cause a merge or a conflict.  Returns ``None`` when the
        batch path cannot seed — the caller falls back to the generic
        delta join.
        """
        matcher = self.matcher
        if delta is None:
            table = matcher.binding_table(egd.body, instance)
            if table is None:
                return None
        else:
            plan = DeltaJoinPlan(matcher, egd.body,
                                 variables=egd.body_variables())
            table = matcher.delta_binding_table(plan, instance, delta)
        if not table.length:
            return []
        left = _side_codes(table, egd.left, -1)
        right = _side_codes(table, egd.right, -2)
        if left is None or right is None:
            return None
        n = table.length
        lhs = [left] * n if isinstance(left, int) else left
        rhs = [right] * n if isinstance(right, int) else right
        keep = [i for i in range(n) if lhs[i] != rhs[i]]
        if not keep:
            return []
        return list(_take_rows(table, keep).substitutions())


def _head_rows(descriptors, columns, null_codes: Optional[List[int]],
               null_width: int, count: int):
    """Instantiate one head atom over ``count`` groups.

    Gathers the frontier columns, broadcasts baked constants, and slices
    the bulk-allocated null codes (group-major layout: group ``g``'s
    ``k``-th existential sits at ``null_codes[g * null_width + k]``).
    Returns ``(rows, code_rows)`` ready for ``Relation.add_many``.
    """
    values = value_catalog().values()
    sources: List[Any] = []
    for kind, payload in descriptors:
        if kind == _UNIVERSAL:
            sources.append(columns[payload])
        elif kind == _CONSTANT:
            sources.append(repeat(payload, count))
        else:
            sources.append([null_codes[g * null_width + payload]
                            for g in range(count)])
    if not sources:
        return [()] * count, [()] * count
    code_rows = list(zip(*sources))
    rows = [tuple(values[code] for code in codes) for codes in code_rows]
    return rows, code_rows


def _side_codes(table: BindingTable, term, sentinel: int):
    """One EGD side as a code column, a constant code, or a sentinel.

    Distinct sentinels per side keep two *unregistered* constants from
    comparing equal (they may be distinct values — a genuine conflict the
    decision logic must see).
    """
    if isinstance(term, Variable):
        return table.columns.get(term)
    code = value_catalog().try_code(term_value(term))
    return code if code is not None else sentinel

