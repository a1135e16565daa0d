"""Durable snapshots of materialized programs.

A snapshot is a compact, deterministic, versioned on-disk serialization of
a :class:`~repro.engine.session.MaterializedProgram`: the pristine EDB, the
chased instance (including labeled nulls), the labeled-null factory state,
the derived-fact provenance graph, the lifetime engine stats, the
program's rules, and the maintained answer support counts of its query
sessions.  Restoring a snapshot rebuilds a fully live session — further
``add_facts``/``retract_facts`` continue the delta-driven chase and
maintain the restored answers exactly as the original process would have —
without re-chasing or re-answering anything.

File format (version 2)
-----------------------
Two lines of canonical JSON (sorted keys, compact separators), so the same
state always produces the same bytes: a **header** line followed by the
**payload** line::

    {"format_version": 2, "magic": "repro-snapshot",
     "payload_checksum": "...", "program_hash": "...", "schema_hash": "..."}
    {...payload...}

* ``schema_hash`` — SHA-256 over the canonical relation schemas of the
  materialized instance;
* ``program_hash`` — SHA-256 over the canonical encoding of the program's
  TGDs, EGDs and negative constraints (order-sensitive: rule order is part
  of chase determinism);
* ``payload_checksum`` — SHA-256 over the raw payload line, so a truncated
  or bit-flipped file is rejected (cheaply, without re-serializing) before
  anything is restored.

Every failure mode raises a typed :class:`~repro.errors.SnapshotError`
subclass with an actionable message — never a raw JSON/pickle traceback,
and never a silently empty instance:

* :class:`~repro.errors.SnapshotFormatError` — not a snapshot, or a format
  version this build does not read;
* :class:`~repro.errors.SnapshotIntegrityError` — truncation/corruption
  (unparseable JSON, checksum mismatch);
* :class:`~repro.errors.SnapshotMismatchError` — the snapshot is stale:
  it was taken against different rules or a different EDB than the program
  supplied at load time.

``values`` lists every distinct stored value once, ordered by
:func:`~repro.relational.values.value_sort_key` and encoded as a JSON
scalar (labeled nulls as ``{"n": label}``; rule terms also use ``{"v":
name}`` for variables).  Everything else names a value by its *rank* in
that list, never by a process-wide ``ValueCatalog`` code, so the same state
gives the same bytes in any process: relation rows are flat rank lists
(row-major, sorted as integer tuples), provenance edges ``[fact, body...]``
are positions of instance rows (relations by name, rows as stored), and
maintained counts are ``[rank..., support]`` rows.  Values equal under
Python equality (``1``, ``True``) share one entry, as they share one code.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from itertools import chain, count
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..datalog.atoms import Atom, Comparison
from ..datalog.chase import Fact
from ..datalog.rules import ConjunctiveQuery, EGD, NegativeConstraint, TGD
from ..datalog.terms import Variable
from ..errors import (SnapshotError, SnapshotFormatError,
                      SnapshotIntegrityError, SnapshotMismatchError)
from ..relational.instance import DatabaseInstance
from ..relational.values import Null, intern_value, value_sort_key

MAGIC = "repro-snapshot"
FORMAT_VERSION = 2

_sys_intern = sys.intern

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Value / term / rule codecs
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """Encode one stored value into a JSON-representable form."""
    if isinstance(value, Null):
        return {"n": value.label}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise SnapshotError(
        f"cannot serialize value {value!r} of type {type(value).__name__}; "
        "snapshots support strings, numbers, booleans, None and labeled "
        "nulls")


def decode_value(encoded: Any) -> Any:
    """Inverse of :func:`encode_value`, strings interned.  Other values are
    not canonicalized through the process-wide ``ValueInterner``, which may
    already hold an equal value of another type (``1`` for ``True``)."""
    if type(encoded) is str:
        return _sys_intern(encoded)
    if type(encoded) is dict:
        return Null(encoded["n"])
    return encoded


def encode_row(row: Iterable[Any]) -> List[Any]:
    return [encode_value(value) for value in row]


def decode_row(encoded: Iterable[Any]) -> Tuple[Any, ...]:
    # The wire's row decoder: inlined null decoding, tuple-from-list,
    # constants interned so decoded rows share one object per distinct
    # value (pointer-identity hashing/equality, less memory).  Strings go
    # straight to sys.intern; exact type checks and hoisted builtins keep
    # the loop free of Python-level call layers.
    return tuple([
        _sys_intern(value) if type(value) is str
        else Null(value["n"]) if type(value) is dict
        else intern_value(value)
        for value in encoded])


def _encode_term(term: Any) -> Any:
    if isinstance(term, Variable):
        return {"v": term.name}
    from ..datalog.terms import Constant
    if isinstance(term, Constant):
        return encode_value(term.value)
    return encode_value(term)


def _decode_term(encoded: Any) -> Any:
    if isinstance(encoded, dict) and "v" in encoded:
        return Variable(encoded["v"])
    return decode_value(encoded)


def _encode_atom(atom: Atom) -> Dict[str, Any]:
    encoded: Dict[str, Any] = {"p": atom.predicate,
                               "t": [_encode_term(t) for t in atom.terms]}
    if atom.negated:
        encoded["neg"] = True
    return encoded


def _decode_atom(encoded: Dict[str, Any]) -> Atom:
    return Atom(encoded["p"], [_decode_term(t) for t in encoded["t"]],
                negated=encoded.get("neg", False))


def _encode_comparison(comparison: Comparison) -> Dict[str, Any]:
    return {"op": comparison.op, "l": _encode_term(comparison.left),
            "r": _encode_term(comparison.right)}


def _decode_comparison(encoded: Dict[str, Any]) -> Comparison:
    return Comparison(encoded["op"], _decode_term(encoded["l"]),
                      _decode_term(encoded["r"]))


def encode_rule(rule: Any) -> Dict[str, Any]:
    """Encode a TGD, EGD or negative constraint structurally."""
    if isinstance(rule, TGD):
        return {"kind": "tgd",
                "head": [_encode_atom(a) for a in rule.head],
                "body": [_encode_atom(a) for a in rule.body],
                "label": rule.label}
    if isinstance(rule, EGD):
        return {"kind": "egd", "left": _encode_term(rule.left),
                "right": _encode_term(rule.right),
                "body": [_encode_atom(a) for a in rule.body],
                "label": rule.label}
    if isinstance(rule, NegativeConstraint):
        return {"kind": "constraint",
                "body": [_encode_atom(a) for a in rule.body],
                "comparisons": [_encode_comparison(c)
                                for c in rule.comparisons],
                "label": rule.label}
    raise SnapshotError(f"cannot serialize rule of type {type(rule).__name__}")


def encode_query(query: ConjunctiveQuery) -> Dict[str, Any]:
    """Encode a conjunctive query structurally (no parser round-trip)."""
    return {"name": query.name,
            "answer": [variable.name for variable in query.answer_variables],
            "body": [_encode_atom(atom) for atom in query.body],
            "comparisons": [_encode_comparison(comparison)
                            for comparison in query.comparisons]}


def decode_query(encoded: Dict[str, Any]) -> ConjunctiveQuery:
    """Inverse of :func:`encode_query`."""
    return ConjunctiveQuery(
        [Variable(name) for name in encoded["answer"]],
        [_decode_atom(atom) for atom in encoded["body"]],
        [_decode_comparison(comparison)
         for comparison in encoded.get("comparisons", ())],
        name=encoded.get("name", "Q"))


def decode_rule(encoded: Dict[str, Any]) -> Any:
    """Inverse of :func:`encode_rule`."""
    kind = encoded.get("kind")
    if kind == "tgd":
        return TGD([_decode_atom(a) for a in encoded["head"]],
                   [_decode_atom(a) for a in encoded["body"]],
                   label=encoded.get("label", ""))
    if kind == "egd":
        return EGD(_decode_term(encoded["left"]),
                   _decode_term(encoded["right"]),
                   [_decode_atom(a) for a in encoded["body"]],
                   label=encoded.get("label", ""))
    if kind == "constraint":
        return NegativeConstraint(
            [_decode_atom(a) for a in encoded["body"]],
            comparisons=[_decode_comparison(c)
                         for c in encoded.get("comparisons", ())],
            label=encoded.get("label", ""))
    raise SnapshotFormatError(f"unknown rule kind {kind!r} in snapshot")


# ---------------------------------------------------------------------------
# Rank codecs: instances and provenance
# ---------------------------------------------------------------------------


def _encode_instance(instance: DatabaseInstance, rank: Dict[Any, int],
                     positions: Optional[Dict[str, Dict[Tuple, int]]] = None
                     ) -> Dict[str, Any]:
    """Schema, and each non-empty relation's rows as one flat rank list
    sorted as integer tuples.  ``positions``, when given, receives each
    relation's row → position map (relations by name, the JSON order)."""
    rows: Dict[str, List[int]] = {}
    base = 0
    for relation in sorted(instance, key=lambda relation: relation.schema.name):
        if not relation:
            continue
        name = relation.schema.name
        coded = zip(*[iter(map(rank.__getitem__, chain.from_iterable(
            relation)))] * relation.schema.arity)
        if positions is None:
            ordered = sorted(coded)
        else:
            pairs = sorted(zip(coded, relation))
            ordered = map(itemgetter(0), pairs)
            positions[name] = dict(zip(map(itemgetter(1), pairs), count(base)))
            base += len(pairs)
        rows[name] = list(chain.from_iterable(ordered))
    return {"schema": [[relation.schema.name, list(relation.schema.attributes)]
                       for relation in instance],
            "rows": rows}


def _decode_instance(encoded: Dict[str, Any],
                     values: Sequence[Any]) -> DatabaseInstance:
    """Inverse of :func:`_encode_instance`.

    Rows ride the relation's bulk-load fast path (``Relation.bulk_load``):
    one wholesale dictionary assignment — the writer serialized a valid
    instance and the checksum vouches for the bytes, so nothing is checked
    row by row.
    """
    instance = DatabaseInstance()
    for name, attributes in encoded["schema"]:
        instance.declare(name, attributes)
    for name, flat in encoded["rows"].items():
        relation = instance.relation(name)
        arity = relation.schema.arity
        if len(flat) % arity:
            raise SnapshotFormatError(
                f"snapshot rows for relation {name!r} do not match its "
                f"declared arity {arity}")
        relation.bulk_load(zip(*[iter(map(values.__getitem__, flat))] * arity))
    return instance


def _null_ranks(rows: Dict[str, List[int]], values: Sequence[Any]) -> List[int]:
    """The sorted ranks of the labeled nulls occurring in rank ``rows``."""
    return sorted(position for position in set().union(*rows.values())
                  if isinstance(values[position], Null))


def _encode_provenance(provenance: Dict[Fact, Tuple[Fact, ...]],
                       positions: Dict[str, Dict[Tuple, int]]
                       ) -> List[List[int]]:
    """Provenance edges ``[fact, body...]`` over instance-row positions."""
    try:
        return sorted(
            [positions[predicate][row],
             *[positions[body][body_row] for body, body_row in supports]]
            for (predicate, row), supports in provenance.items())
    except KeyError:
        raise SnapshotError(
            "cannot serialize provenance: it names a fact the materialized "
            "instance does not hold (provenance out of sync)") from None


# ---------------------------------------------------------------------------
# Hashes
# ---------------------------------------------------------------------------


def _canonical(document: Any) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def schema_hash(instance: DatabaseInstance) -> str:
    """SHA-256 over the (sorted) relation schemas of ``instance``."""
    schemas = sorted([name, list(attributes)] for name, attributes in
                     ((relation.schema.name, relation.schema.attributes)
                      for relation in instance))
    return _sha256(_canonical(schemas))


def program_hash(tgds: Iterable[TGD], egds: Iterable[EGD],
                 constraints: Iterable[NegativeConstraint]) -> str:
    """SHA-256 over the canonical rule encoding (order-sensitive)."""
    return _sha256(_canonical({
        "tgds": [encode_rule(rule) for rule in tgds],
        "egds": [encode_rule(rule) for rule in egds],
        "constraints": [encode_rule(rule) for rule in constraints],
    }))


# ---------------------------------------------------------------------------
# Save
# ---------------------------------------------------------------------------


def _maintained_entries(materialized
                        ) -> List[Tuple[ConjunctiveQuery, Dict[Tuple, int]]]:
    """The maintained answer counts of the program's sessions.

    Gathered across every query session (first session wins per query),
    plus restored counts no session has adopted yet, and sorted by query
    text.  A restored program hands them to the first session created over
    it — answering and maintenance resume without a single re-join.  Each
    session's entry dict is copied atomically (a C-level ``list()`` under
    the GIL) before iterating: readers install entries without the write
    lock, and a save must never crash or encode a torn view because of it.
    """
    collected: Dict[str, Tuple[ConjunctiveQuery, Dict[Tuple, int]]] = {}
    for session in list(getattr(materialized, "_sessions", ())):
        for key, entry in list(getattr(session, "_maintained", {}).items()):
            collected.setdefault(key, (entry.cq, entry.counts))
    for cq, counts in getattr(materialized, "_restored_maintained", None) or ():
        collected.setdefault(str(cq), (cq, counts))
    return [collected[key] for key in sorted(collected)]


def save_program(materialized, path: PathLike,
                 extras: Optional[Dict[str, DatabaseInstance]] = None,
                 meta: Optional[Dict[str, Any]] = None) -> Path:
    """Serialize ``materialized`` (a :class:`MaterializedProgram`) to ``path``.

    ``extras`` is an optional mapping of named auxiliary instances persisted
    alongside the program (the quality session stores the instance under
    assessment this way).  ``meta`` is an optional JSON-serializable mapping
    stored verbatim in the payload — the serving layer records the
    write-ahead-log position of a checkpoint there, so a restore knows the
    exact cut the snapshot represents (see :mod:`repro.serving`).  Returns
    the path written.

    Provenance made stale by EGD merges (the ``ambiguous`` flag) is not
    persisted: nothing reads it until a full re-chase rebuilds it.  Any
    other provenance fact the instance does not hold is refused.
    """
    instance = materialized.instance
    extras = extras or {}
    maintained = _maintained_entries(materialized)
    distinct = set()
    for source in (materialized.edb, instance, *extras.values()):
        for relation in source:
            distinct.update(chain.from_iterable(relation))
    for _, counts in maintained:
        distinct.update(chain.from_iterable(counts))
    values = sorted(distinct, key=value_sort_key)
    rank = dict(zip(values, count()))
    recorded = materialized._provenance
    positions: Optional[Dict[str, Dict[Tuple, int]]] = \
        None if recorded is None or materialized._ambiguous else {}
    encoded_instance = _encode_instance(instance, rank, positions)
    if recorded is None:
        provenance = None
    elif positions is None:
        provenance = []  # stale after EGD merges
    else:
        provenance = _encode_provenance(recorded, positions)
    del positions  # release the row -> position maps before encoding
    payload: Dict[str, Any] = {
        "config": {
            "engine": materialized.engine,
            "max_steps": materialized._chaser.max_steps,
            "null_prefix": materialized._chaser.null_prefix,
            "record_provenance": materialized.record_provenance,
        },
        "version": materialized.version,
        "ambiguous": materialized._ambiguous,
        "nulls": {"prefix": materialized._nulls.prefix,
                  "next_index": materialized._nulls.next_index},
        "values": [encode_value(value) for value in values],
        "null_table": _null_ranks(encoded_instance["rows"], values),
        "rules": {
            "tgds": [encode_rule(rule) for rule in materialized._tgds],
            "egds": [encode_rule(rule) for rule in materialized._egds],
            "constraints": [encode_rule(rule)
                            for rule in materialized._constraints],
        },
        "edb": _encode_instance(materialized.edb, rank),
        "instance": encoded_instance,
        "provenance": provenance,
        "result": {
            "steps": materialized.result.steps,
            "rounds": materialized.result.rounds,
            "egd_merges": materialized.result.egd_merges,
            "mode": materialized.result.mode,
        },
        "stats": materialized.stats.as_dict(),
        "maintained": [
            {"query": encode_query(cq),
             "counts": sorted([*map(rank.__getitem__, row), support]
                              for row, support in counts.items())}
            for cq, counts in maintained],
        "extras": {name: _encode_instance(extra, rank)
                   for name, extra in extras.items()},
        "meta": meta or {},
    }
    payload_text = _canonical(payload)
    header = {
        "magic": MAGIC,
        "format_version": FORMAT_VERSION,
        "schema_hash": schema_hash(instance),
        "program_hash": program_hash(materialized._tgds, materialized._egds,
                                     materialized._constraints),
        "payload_checksum": _sha256(payload_text),
    }
    path = Path(path)
    # Atomic replace: a crash mid-save must never destroy the previous
    # good snapshot or leave a truncated file behind.  A *failed* save must
    # not either: the temp file is removed on any error, so a checkpoint
    # that dies (full disk, unserializable value discovered late) leaves
    # the previous snapshot — and nothing else — on disk.  The contents
    # are fsynced before the rename and the directory entry after it, so
    # a snapshot that has been handed back is durable against power loss —
    # the serving daemon destroys the replayed WAL segment right after a
    # checkpoint, which is only safe once the snapshot actually is on disk.
    temp = path.with_name(path.name + ".tmp")
    try:
        with open(temp, "wb") as handle:
            handle.write((_canonical(header) + "\n" + payload_text + "\n")
                         .encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
        fsync_directory(path.parent)
    except OSError as exc:
        _unlink_quietly(temp)
        raise SnapshotError(
            f"cannot write snapshot file {path}: {exc}") from exc
    except BaseException:
        _unlink_quietly(temp)
        raise
    return path


def wal_position(meta: Optional[Dict[str, Any]], default: int = 0) -> int:
    """The write-ahead-log cut recorded in a snapshot's ``meta`` mapping.

    Serving checkpoints stamp every snapshot with
    ``{"wal": {"lsn": L, "segment": "wal-<L, 16 digits>.log"}}`` — the LSN
    the serialized state is exact at, and the name of the segment that
    starts there.  Recovery (primary or replica) restores the snapshot and
    replays only WAL records with LSN > this cut.  Returns ``default``
    when the meta carries no usable position (e.g. a snapshot saved
    outside the serving tier).
    """
    position = (meta or {}).get("wal") or {}
    lsn = position.get("lsn", default)
    return lsn if isinstance(lsn, int) and not isinstance(lsn, bool) \
        else default


def fsync_directory(path: Path) -> None:
    """Flush a directory entry (rename durability); best effort."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without directory fsync
        pass
    finally:
        os.close(fd)


def _unlink_quietly(path: Path) -> None:
    try:
        path.unlink()
    except OSError:  # pragma: no cover - already gone / unremovable
        pass


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------


def read_document(path: PathLike) -> Dict[str, Any]:
    """Read and verify a snapshot document (format, version, checksum).

    Returns the header fields plus the parsed payload under ``"payload"``.
    The checksum is verified over the raw payload bytes before parsing, so
    truncation and bit flips are rejected without deserializing anything.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise SnapshotError(
            f"snapshot file {path} does not exist; save one with "
            "MaterializedProgram.save(path) first") from None
    except UnicodeDecodeError:
        raise SnapshotFormatError(
            f"{path} is not a repro snapshot (not UTF-8 text)") from None
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot file {path}: {exc}") from None
    header_text, _, payload_text = text.partition("\n")
    try:
        header = json.loads(header_text)
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise SnapshotIntegrityError(
            f"snapshot file {path} is truncated or corrupted (unparseable "
            "header); delete it and re-save from a live session") from None
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise SnapshotFormatError(
            f"{path} is not a repro snapshot (missing {MAGIC!r} header)")
    format_version = header.get("format_version")
    if format_version != FORMAT_VERSION:
        raise SnapshotFormatError(
            f"snapshot file {path} uses format version {format_version!r}, "
            f"but this build reads version {FORMAT_VERSION}; re-save the "
            "snapshot from a live session of this build")
    checksum = header.get("payload_checksum")
    payload_text = payload_text.rstrip("\n")
    if not payload_text or checksum is None:
        raise SnapshotFormatError(
            f"snapshot file {path} has no payload/checksum; it was not "
            "written by save_program")
    if _sha256(payload_text) != checksum:
        raise SnapshotIntegrityError(
            f"snapshot file {path} is truncated or corrupted (payload "
            "checksum mismatch); delete it and re-save from a live session")
    try:
        payload = json.loads(payload_text)
    except (json.JSONDecodeError, UnicodeDecodeError):  # pragma: no cover
        raise SnapshotIntegrityError(
            f"snapshot file {path} is truncated or corrupted (unparseable "
            "payload); delete it and re-save from a live session") from None
    document = dict(header)
    document["payload"] = payload
    return document


def _check_program(document: Dict[str, Any], program,
                   snapshot_edb: DatabaseInstance, path: PathLike,
                   check_data: bool = True) -> None:
    """Reject a snapshot that is stale relative to ``program``.

    The EDB comparison is two-directional: a relation the program emptied
    (or never had) while the snapshot still carries rows is just as stale
    as one the program extended.  A program whose database is entirely
    empty is treated as rules-only and skips the data check, as does
    ``check_data=False`` (used when the snapshot's own EDB — which may
    include updates the session absorbed — is the authority).
    """
    expected = program_hash(program.tgds, program.egds, program.constraints)
    if document["program_hash"] != expected:
        raise SnapshotMismatchError(
            f"snapshot {path} was taken against a different ontology "
            "(program hash mismatch): the rules changed since it was "
            "saved; re-chase the current program instead of restoring")
    if not check_data or not program.database.total_tuples():
        return
    names = ({relation.schema.name for relation in program.database
              if len(relation)} |
             {relation.schema.name for relation in snapshot_edb
              if len(relation)})
    for name in sorted(names):
        live = (set(program.database.relation(name))
                if program.database.has_relation(name) else set())
        stored = (set(snapshot_edb.relation(name))
                  if snapshot_edb.has_relation(name) else set())
        if live != stored:
            raise SnapshotMismatchError(
                f"snapshot {path} was taken against different extensional "
                f"data (relation {name!r} differs); re-chase the current "
                "program instead of restoring")


def load_program(path: PathLike, program=None, engine: Optional[str] = None,
                 document: Optional[Dict[str, Any]] = None,
                 check_data: bool = True):
    """Restore a :class:`MaterializedProgram` from ``path`` without chasing.

    ``program`` (optional) supplies the live rules: its hash and EDB facts
    are verified against the snapshot, and its rule objects are reused.
    Without it, the rules are reconstructed from the snapshot itself.
    ``engine`` overrides the stored matching engine.  A pre-verified
    ``document`` (from :func:`read_document`) may be passed to avoid
    re-reading the file.  ``check_data=False`` keeps the rule-hash check
    but accepts the snapshot's EDB as the authority (for sessions whose
    EDB legitimately diverged from the program's pristine data through
    absorbed updates).
    """
    from ..datalog.chase import RESTRICTED, ChaseEngine, ChaseResult
    from ..relational.values import NullFactory
    from .stats import EngineStats
    from .session import MaterializedProgram, _ProvenanceLog
    from .versioning import VersionStore
    import threading

    if document is None:
        document = read_document(path)
    payload = document["payload"]
    values = list(map(decode_value, payload["values"]))
    edb = _decode_instance(payload["edb"], values)

    if program is not None:
        _check_program(document, program, edb, path, check_data=check_data)
        tgds = list(program.tgds)
        egds = list(program.egds)
        constraints = list(program.constraints)
    else:
        tgds = [decode_rule(rule) for rule in payload["rules"]["tgds"]]
        egds = [decode_rule(rule) for rule in payload["rules"]["egds"]]
        constraints = [decode_rule(rule)
                       for rule in payload["rules"]["constraints"]]

    instance_rows = payload["instance"]["rows"]
    instance = _decode_instance(payload["instance"], values)
    if schema_hash(instance) != document["schema_hash"]:
        raise SnapshotIntegrityError(
            f"snapshot {path} fails its schema hash — the header does not "
            "match the payload; the file was tampered with or mis-assembled")
    if _null_ranks(instance_rows, values) != payload["null_table"]:
        raise SnapshotIntegrityError(
            f"snapshot {path} is internally inconsistent: the labeled-null "
            "table does not match the nulls of the serialized instance; "
            "the file was mis-assembled — re-save from a live session")

    config = payload["config"]
    materialized = MaterializedProgram.__new__(MaterializedProgram)
    materialized._chaser = ChaseEngine(
        mode=RESTRICTED, max_steps=config["max_steps"],
        check_constraints=False, null_prefix=config["null_prefix"],
        engine=engine if engine is not None else config["engine"])
    materialized.engine = materialized._chaser.engine
    materialized.record_provenance = config["record_provenance"]
    materialized._tgds = tgds
    materialized._egds = egds
    materialized._constraints = constraints
    materialized._edb = edb
    materialized.version = payload["version"]
    materialized.stats = EngineStats(engine=materialized.engine)
    for name, value in payload["stats"].items():
        if name != "engine":
            setattr(materialized.stats, name, value)
    materialized._queries = None
    materialized._sessions = []

    from ..datalog.program import DatalogProgram
    materialized._program = DatalogProgram(
        tgds=tgds, egds=egds, constraints=constraints, database=instance)
    materialized._nulls = NullFactory(payload["nulls"]["prefix"],
                                      start=payload["nulls"]["next_index"])
    materialized._ambiguous = payload["ambiguous"]
    if payload["provenance"] is None:
        materialized._provenance = None
        materialized._dependents = {}
    else:
        # Edges name instance rows by position: relations by name, rows in
        # the order they were bulk-loaded.
        facts = [(name, row) for name in sorted(instance_rows)
                 for row in instance.relation(name)]
        provenance = _ProvenanceLog()
        provenance.update({facts[fact]: tuple(map(facts.__getitem__, body))
                           for fact, *body in payload["provenance"]})
        materialized._provenance = provenance
        dependents: Dict[Fact, List[Fact]] = {}
        for derived, supports in provenance.items():
            for body_fact in supports:
                dependents.setdefault(body_fact, []).append(derived)
        materialized._dependents = dependents

    result_meta = payload["result"]
    materialized.result = ChaseResult(
        instance=instance, steps=result_meta["steps"],
        rounds=result_meta["rounds"], terminated=True,
        mode=result_meta["mode"], egd_merges=result_meta["egd_merges"],
        violations=[], engine=materialized.engine, stats=materialized.stats,
        provenance=materialized._provenance)

    materialized._restored_maintained = [
        (decode_query(item["query"]),
         {tuple(map(values.__getitem__, row[:-1])): row[-1]
          for row in item["counts"]})
        for item in payload["maintained"]] or None
    materialized.snapshot_meta = payload.get("meta") or {}

    materialized._write_lock = threading.RLock()
    materialized.versions = VersionStore()
    # Not counted in the stats: this publication re-creates the saved
    # version, so the restored counters stay exactly the saved ones.
    materialized.versions.publish(materialized.version, instance, changed=None)
    return materialized


def load_extras(path: PathLike,
                document: Optional[Dict[str, Any]] = None
                ) -> Dict[str, DatabaseInstance]:
    """The named auxiliary instances stored alongside a snapshot."""
    if document is None:
        document = read_document(path)
    payload = document["payload"]
    values = list(map(decode_value, payload["values"]))
    return {name: _decode_instance(encoded, values)
            for name, encoded in payload.get("extras", {}).items()}
