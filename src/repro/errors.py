"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch a single base class.  Sub-hierarchies mirror the package
layout: relational substrate, Datalog± engine, multidimensional model,
MD ontologies, and the data-quality framework.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


# ---------------------------------------------------------------------------
# Relational substrate
# ---------------------------------------------------------------------------

class RelationalError(ReproError):
    """Base class for errors in the relational substrate."""


class SchemaError(RelationalError):
    """A relation schema is malformed or used inconsistently."""


class UnknownRelationError(RelationalError):
    """A relation name was not found in a database schema or instance."""


class ArityError(RelationalError):
    """A tuple, atom or query uses the wrong number of attributes."""


class DuplicateRelationError(RelationalError):
    """A relation with the same name was registered twice."""


# ---------------------------------------------------------------------------
# Datalog± engine
# ---------------------------------------------------------------------------

class DatalogError(ReproError):
    """Base class for errors in the Datalog± engine."""


class ParseError(DatalogError):
    """A textual rule, atom or query could not be parsed."""

    def __init__(self, message: str, text: str = "", position: int = -1):
        self.text = text
        self.position = position
        if text and position >= 0:
            message = f"{message} (at position {position} in {text!r})"
        super().__init__(message)


class UnsafeRuleError(DatalogError):
    """A rule violates a safety condition (e.g. unbound head variable)."""


class ChaseNonTerminationError(DatalogError):
    """The chase exceeded its step or depth budget without terminating."""


class InconsistencyError(DatalogError):
    """A negative constraint or a non-separable EGD is violated.

    Carries the violated constraint and the homomorphism that witnesses the
    violation, so callers can report *why* the ontology (or the data mapped
    into it) is inconsistent.
    """

    def __init__(self, message: str, constraint=None, witness=None):
        super().__init__(message)
        self.constraint = constraint
        self.witness = witness


class EGDConflictError(InconsistencyError):
    """An EGD requires equating two distinct constants (a hard violation)."""


class RewritingError(DatalogError):
    """A rule set is not eligible for first-order query rewriting."""


# ---------------------------------------------------------------------------
# Engine sessions: persistence and versioning
# ---------------------------------------------------------------------------

class SnapshotError(ReproError):
    """A materialization snapshot cannot be written or restored.

    Every failure mode of :mod:`repro.engine.snapshot` raises a subclass of
    this error with an actionable message — a corrupted or stale snapshot is
    rejected loudly, never deserialized into a silently wrong instance.
    """


class SnapshotFormatError(SnapshotError):
    """The file is not a snapshot, or uses an unsupported format version."""


class SnapshotIntegrityError(SnapshotError):
    """The snapshot file is truncated or corrupted (checksum mismatch)."""


class SnapshotMismatchError(SnapshotError):
    """The snapshot was taken against a different ontology or database.

    Restoring it would silently answer queries for stale rules or data;
    re-chase from the current program instead."""


class VersioningError(ReproError):
    """A versioned-relation operation is invalid (unknown version, bad pin)."""


# ---------------------------------------------------------------------------
# Serving layer: write-ahead log, daemon, wire protocol
# ---------------------------------------------------------------------------

class ServingError(ReproError):
    """Base class for errors in the serving layer (WAL, daemon, client)."""


class WALError(ServingError):
    """A write-ahead log cannot be written, read or replayed."""


class WALFormatError(WALError):
    """The file is not a WAL, or uses an unsupported WAL format version."""


class WALCorruptionError(WALError):
    """The WAL is damaged *before* its tail (a hole in the record sequence).

    A torn tail — the suffix a crash cut short — is recovered from by
    truncating to the last durable record; damage followed by further valid
    records means lost updates and is refused loudly instead."""


class ServingProtocolError(ServingError):
    """A serving request or response violates the line-JSON protocol, or the
    daemon reported an error for the request.

    When the daemon reported the error, :attr:`remote_type` carries the
    original exception class name."""

    def __init__(self, message: str, remote_type: str = ""):
        super().__init__(message)
        self.remote_type = remote_type


class DaemonUnavailableError(ServingError):
    """No serving daemon is reachable at the given address or data directory."""


class AdmissionError(ServingError):
    """Base class for typed admission refusals: the daemon declined to take
    the request on, without attempting it.  Nothing was logged or applied —
    a refused write is never partially durable, so retrying is always safe."""


class RequestTooLargeError(AdmissionError):
    """The request exceeds the daemon's admission limits (raw bytes on the
    wire, facts per write, or concurrent in-flight writes per connection)."""


class ServerBusyError(AdmissionError):
    """The daemon's bounded commit queue is full; back off and retry.

    :attr:`retry_after` is the daemon's estimate (seconds) of when queue
    space is likely to be free — clients should treat it as a floor for
    their backoff delay, never as a promise."""

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


class AuthenticationError(ServingError):
    """The connection has not completed (or failed) the shared-secret auth
    handshake this daemon requires; every operation is refused until a
    fresh ``auth_challenge`` + ``auth`` exchange succeeds."""


class DaemonShutdownError(ServingError):
    """The daemon stopped while the request was queued or in flight.

    Raised (never silently dropped) for every writer still blocked on the
    commit queue when :meth:`ServingDaemon.stop` runs, so no client thread
    is ever stranded waiting on an event nobody will set."""


# ---------------------------------------------------------------------------
# Multidimensional model
# ---------------------------------------------------------------------------

class MDModelError(ReproError):
    """Base class for errors in the extended HM multidimensional model."""


class DimensionSchemaError(MDModelError):
    """A dimension schema is malformed (cycle, missing category...)."""


class DimensionInstanceError(MDModelError):
    """A dimension instance violates its schema (bad member, bad edge...)."""


class CategoricalRelationError(MDModelError):
    """A categorical relation schema or instance is malformed."""


class NavigationError(MDModelError):
    """A roll-up or drill-down between two categories is impossible."""


# ---------------------------------------------------------------------------
# MD ontologies (the paper's core contribution)
# ---------------------------------------------------------------------------

class OntologyError(ReproError):
    """Base class for errors in the MD ontology layer."""


class DimensionalRuleError(OntologyError):
    """A dimensional rule does not match the paper's forms (4) or (10)."""


class DimensionalConstraintError(OntologyError):
    """A dimensional constraint does not match the paper's forms (1)-(3)."""


class NotWeaklyStickyError(OntologyError):
    """The compiled Datalog± program is not weakly sticky."""


class SeparabilityError(OntologyError):
    """EGDs are not separable from the TGDs of the ontology."""


# ---------------------------------------------------------------------------
# Data-quality framework
# ---------------------------------------------------------------------------

class QualityError(ReproError):
    """Base class for errors in the contextual data-quality framework."""


class ContextError(QualityError):
    """A context specification is malformed (bad mapping, missing schema)."""


class QualityVersionError(QualityError):
    """A quality-version specification cannot be evaluated."""
