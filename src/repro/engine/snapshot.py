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

File format (version 1)
-----------------------
Two lines of canonical JSON (sorted keys, compact separators), so the same
state always produces the same bytes: a **header** line followed by the
**payload** line::

    {"format_version": 1, "magic": "repro-snapshot",
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

Values are encoded as their JSON scalars (strings, ints, floats, bools,
``null``); labeled nulls as ``{"n": label}``; rule terms additionally use
``{"v": name}`` for variables.  Rows and provenance entries are sorted
canonically, so serialization is deterministic.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..datalog.atoms import Atom, Comparison
from ..datalog.chase import Fact
from ..datalog.rules import ConjunctiveQuery, EGD, NegativeConstraint, TGD
from ..datalog.terms import Variable
from ..errors import (ArityError, SnapshotError, SnapshotFormatError,
                      SnapshotIntegrityError, SnapshotMismatchError)
from ..relational.instance import DatabaseInstance
from ..relational.values import Null, intern_value, value_sort_key

MAGIC = "repro-snapshot"
FORMAT_VERSION = 1

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
    """Inverse of :func:`encode_value`."""
    if isinstance(encoded, dict):
        return Null(encoded["n"])
    return encoded


def encode_row(row: Iterable[Any]) -> List[Any]:
    return [encode_value(value) for value in row]


def decode_row(encoded: Iterable[Any]) -> Tuple[Any, ...]:
    # The hot loop of a restore: inlined null decoding, tuple-from-list,
    # constants interned so the restored instance shares one object per
    # distinct value (pointer-identity hashing/equality, less memory).
    # Strings — the overwhelmingly common case — go straight to
    # sys.intern; exact type checks and hoisted builtins keep the loop
    # free of Python-level call layers (this path dominates warm-restart
    # latency, see benchmarks E13/E15).
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
# Instance / fact codecs
# ---------------------------------------------------------------------------


def encode_instance(instance: DatabaseInstance) -> Dict[str, Any]:
    """Encode schema and rows of an instance (rows in canonical order)."""
    return {
        "schema": [[relation.schema.name, list(relation.schema.attributes)]
                   for relation in instance],
        "rows": {
            relation.schema.name: [encode_row(row)
                                   for row in relation.sorted_rows()]
            for relation in instance if len(relation)
        },
    }


def decode_instance(encoded: Dict[str, Any]) -> DatabaseInstance:
    """Inverse of :func:`encode_instance`.

    Rows ride the relation's bulk-load fast path (``Relation.bulk_load``):
    one arity scan, then a wholesale dictionary assignment — the writer
    serialized a valid instance and the checksum vouches for the bytes, so
    nothing is checked row by row.
    """
    instance = DatabaseInstance()
    for name, attributes in encoded["schema"]:
        instance.declare(name, attributes)
    for name, rows in encoded["rows"].items():
        relation = instance.relation(name)
        try:
            relation.bulk_load([decode_row(row) for row in rows])
        except ArityError:
            raise SnapshotFormatError(
                f"snapshot rows for relation {name!r} do not match its "
                f"declared arity {relation.schema.arity}") from None
    return instance


def _encode_fact(fact: Fact) -> List[Any]:
    predicate, row = fact
    return [predicate, encode_row(row)]


def _decode_fact(encoded: List[Any]) -> Fact:
    return (encoded[0], decode_row(encoded[1]))


def _fact_key(fact: Fact) -> Tuple:
    predicate, row = fact
    return (predicate, tuple(value_sort_key(value) for value in row))


def encode_provenance(provenance: Dict[Fact, Tuple[Fact, ...]]
                      ) -> Dict[str, List[Any]]:
    """Provenance graph as a fact table plus integer edges.

    A derived fact and its grounded body facts recur across many edges;
    encoding every distinct fact once and the edges as indexes keeps the
    file compact and lets a restore decode each fact exactly once.  Both
    the table and the edge list are canonically sorted, so the encoding is
    deterministic.
    """
    index: Dict[Fact, int] = {}
    ordered = sorted(
        {fact for fact, supports in provenance.items()
         for fact in (fact, *supports)},
        key=_fact_key)
    for position, fact in enumerate(ordered):
        index[fact] = position
    edges = sorted((index[fact], [index[body] for body in supports])
                   for fact, supports in provenance.items())
    return {"facts": [_encode_fact(fact) for fact in ordered],
            "edges": [[fact, supports] for fact, supports in edges]}


def decode_provenance(encoded: Dict[str, List[Any]]
                      ) -> Dict[Fact, Tuple[Fact, ...]]:
    """Inverse of :func:`encode_provenance`."""
    facts = [_decode_fact(fact) for fact in encoded["facts"]]
    return {facts[fact]: tuple(facts[body] for body in supports)
            for fact, supports in encoded["edges"]}


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


def encode_maintained(materialized) -> List[Dict[str, Any]]:
    """Encode the maintained answer counts of the program's sessions.

    Entries are gathered across every query session (first session wins per
    query) and sorted by query text, so the encoding is deterministic.  A
    restored program hands them to the first session created over it —
    answering and maintenance resume without a single re-join.  Each
    session's entry dict is snapshot atomically (a C-level ``list()`` under
    the GIL) before iterating: readers install entries without holding the
    program's write lock, and a save must never crash — or encode a torn
    view — because a query was being answered concurrently.
    """
    collected: Dict[str, Any] = {}
    for session in list(getattr(materialized, "_sessions", ())):
        for key, entry in list(getattr(session, "_maintained", {}).items()):
            collected.setdefault(key, entry)
    encoded = []
    for key in sorted(collected):
        entry = collected[key]
        rows = sorted(entry.counts.items(),
                      key=lambda item: tuple(value_sort_key(value)
                                             for value in item[0]))
        encoded.append({"query": encode_query(entry.cq),
                        "counts": [[encode_row(row), support]
                                   for row, support in rows]})
    return encoded


def decode_maintained(encoded: List[Dict[str, Any]]
                      ) -> List[Tuple[ConjunctiveQuery, Dict[Tuple, int]]]:
    """Inverse of :func:`encode_maintained`."""
    return [(decode_query(item["query"]),
             {decode_row(row): support for row, support in item["counts"]})
            for item in encoded]


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
    """
    instance = materialized.instance
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
        "null_table": sorted(null.label for null in instance.nulls()),
        "rules": {
            "tgds": [encode_rule(rule) for rule in materialized._tgds],
            "egds": [encode_rule(rule) for rule in materialized._egds],
            "constraints": [encode_rule(rule)
                            for rule in materialized._constraints],
        },
        "edb": encode_instance(materialized.edb),
        "instance": encode_instance(instance),
        "provenance": (None if materialized._provenance is None
                       else encode_provenance(materialized._provenance)),
        "result": {
            "steps": materialized.result.steps,
            "rounds": materialized.result.rounds,
            "egd_merges": materialized.result.egd_merges,
            "mode": materialized.result.mode,
        },
        "stats": materialized.stats.as_dict(),
        "maintained": encode_maintained(materialized),
        "extras": {name: encode_instance(extra)
                   for name, extra in (extras or {}).items()},
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
    replays only WAL records with LSN > this cut.  Pre-segment snapshots
    carried ``{"wal": {"lsn": L, "file": "wal.log"}}``; the LSN is read
    the same way.  Returns ``default`` when the meta carries no usable
    position (e.g. a snapshot saved outside the serving tier).
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
    edb = decode_instance(payload["edb"])

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

    instance = decode_instance(payload["instance"])
    if schema_hash(instance) != document["schema_hash"]:
        raise SnapshotIntegrityError(
            f"snapshot {path} fails its schema hash — the header does not "
            "match the payload; the file was tampered with or mis-assembled")
    if sorted(null.label for null in instance.nulls()) != payload["null_table"]:
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
        provenance = _ProvenanceLog()
        provenance.update(decode_provenance(payload["provenance"]))
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

    maintained = payload.get("maintained") or []
    materialized._restored_maintained = \
        decode_maintained(maintained) if maintained else None
    materialized.snapshot_meta = payload.get("meta") or {}

    materialized._write_lock = threading.RLock()
    materialized.versions = VersionStore()
    materialized.versions.publish(materialized.version, instance, changed=None,
                                  stats=materialized.stats)
    return materialized


def load_extras(path: PathLike,
                document: Optional[Dict[str, Any]] = None
                ) -> Dict[str, DatabaseInstance]:
    """The named auxiliary instances stored alongside a snapshot."""
    if document is None:
        document = read_document(path)
    return {name: decode_instance(encoded)
            for name, encoded in document["payload"].get("extras", {}).items()}
