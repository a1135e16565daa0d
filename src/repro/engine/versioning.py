"""MVCC-style versioned relations for concurrent sessions.

A :class:`~repro.engine.session.MaterializedProgram` mutates one *working*
instance in place — the delta-driven chase depends on its incrementally
maintained indexes.  Concurrent readers therefore never touch the working
instance: after every effective update the program **publishes** an
:class:`InstanceVersion` into a :class:`VersionStore`, and readers pin a
published version for the duration of a :class:`ReadTransaction`.

* **Ownership rule: a relation reachable from a pinned version is never
  mutated.**  Everything else follows from it.  A published relation
  object (the *twin* of a working relation) belongs to the writer for as
  long as no pinned version attaches it; the moment a reader pins a
  version, every relation of that version is frozen until the last pin
  is released.  Readers must therefore reach published relations only
  through a pin (:meth:`VersionStore.pin` / :class:`ReadTransaction`);
  ``latest().instance`` without a pin is writer-only (``tools/lint.py``
  flags it elsewhere in ``src/``).
* **Publication costs O(delta).**  When an update carries its exact fact
  delta and no pinned version attaches the previous twin of a touched
  relation, the twin is *advanced in place* — the removed rows are
  discarded, the added rows inserted, pattern indexes and the column
  store follow through the normal mutation hooks — and re-published as
  the new version's relation.  A twin is **copied** instead
  (:meth:`~repro.relational.instance.Relation.snapshot`, a structural
  copy that carries the already-built pattern indexes along) exactly
  when a pinned reader shares it, the delta is unknown (EGD merges, full
  re-chases, no provenance), the delta is large relative to the relation,
  or the in-place patch failed part-way (the half-advanced twin is
  dropped and never reachable).  Relations the update did not touch are
  *attached* from the previous version either way, so they share rows and
  indexes across arbitrarily many versions.
  ``EngineStats.relations_patched`` / ``relations_copied`` /
  ``rows_copied_by_publish`` count which path ran.
* **Lock-hold bound.**  Pinning, unpinning and publishing hold the store
  lock; the in-place advance runs under it (a reader must not pin the
  twin while it moves), so a ``pin()`` waits for at most one O(delta)
  patch.  The O(relation) copies are taken *before* the lock
  (:meth:`VersionStore.prepare`); only a reader that pins between
  ``prepare`` and ``publish`` makes one copy run under the lock.  The
  chase work of an update happens under the program's separate write
  lock, which readers never acquire.  A reader that pinned version *v*
  keeps seeing exactly *v*'s relations while any number of updates
  publish *v+1, v+2, ...*.
* **Garbage collection** drops every version that is neither pinned nor the
  latest, as soon as its last pin is released (or a newer version is
  published).  A pinned version is never collected.
* **Answer maintenance piggybacks on publication.**  The writer computes
  maintained answer sets outside the lock — joining deletion deltas against
  :meth:`~VersionStore.latest_instance` (the pre-publication twin, *before*
  it is advanced, where the removed facts still exist) — and swaps them
  into the session caches under the same locked region that publishes the
  new version, so readers always observe a version together with exactly
  its answers.

See ``docs/ARCHITECTURE.md`` ("Durability and concurrency") for how the
session layer routes queries through this module.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import VersioningError
from ..relational.instance import DatabaseInstance, Relation
from .stats import EngineStats

#: one update's exact fact delta, per relation: name -> (removed rows,
#: added rows); a row in both lists was retracted and re-derived
RelationDeltas = Dict[str, Tuple[List[Tuple[Any, ...]], List[Tuple[Any, ...]]]]

#: a twin is advanced in place while ``PATCH_ROW_COST`` x delta rows stays
#: under its size (+ ``PATCH_FREE_ROWS``, so a few rows always patch): a
#: patched row pays the Python-level index hooks (4-8 us), a copied row one
#: C-level slot per dict/array plus its share of the group indexes a copy
#: sheds and the next delta join rebuilds (0.23-0.3 us) — 13-37 : 1 measured
#: at 2k-100k rows with two pattern indexes and one group index
PATCH_ROW_COST = 16
PATCH_FREE_ROWS = 64


class InstanceVersion:
    """One published version of a materialized instance (frozen while
    pinned — see the module docstring's ownership rule)."""

    __slots__ = ("version", "instance", "pins")

    def __init__(self, version: int, instance: DatabaseInstance):
        #: the :attr:`MaterializedProgram.version` this snapshot corresponds to
        self.version = version
        #: the version's relations; read-only, and reachable by readers only
        #: while pinned (the writer may advance unpinned twins in place)
        self.instance = instance
        #: number of open pins (read transactions) holding this version
        self.pins = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"InstanceVersion(v{self.version}, "
                f"{self.instance.total_tuples()} facts, pins={self.pins})")


class VersionStore:
    """Published versions of one materialization, with pin-based GC.

    All methods are thread-safe.  The :attr:`lock` is public on purpose:
    the session layer takes it to make *swap in maintained answers +
    publish* (the writer) and *re-check latest + store a cache entry* (a
    reader) atomic with respect to each other — see
    ``QuerySession._entry_at``.
    """

    def __init__(self):
        self.lock = threading.RLock()
        self._versions: Dict[int, InstanceVersion] = {}
        self._latest: Optional[InstanceVersion] = None
        #: lifetime counters (exposed for tests and reports)
        self.published = 0
        self.collected = 0

    # -- publication ---------------------------------------------------------

    def prepare(self, working: DatabaseInstance,
                changed: Optional[Set[str]] = None,
                deltas: Optional[RelationDeltas] = None
                ) -> Dict[str, Relation]:
        """Snapshot-copy the relations a publication cannot advance in place.

        With ``deltas`` (the update's exact per-relation fact delta) only
        the touched relations whose previous twin is shared with a pinned
        reader, or whose delta is large relative to the relation, are
        copied; without it every relation in ``changed`` is (``None`` =
        all).  The O(relation-size) copies run *outside* the store lock
        (the single writer holds the program's write lock, so the working
        instance cannot move under them); :meth:`publish` then only
        patches, attaches and swaps under the lock, keeping reader
        pin/unpin stalls to O(delta).
        """
        if deltas is not None:
            with self.lock:
                changed = {name for name, delta in deltas.items()
                           if self._advanceable_locked(
                               working.relation(name), delta) is None}
        return {relation.schema.name: relation.snapshot()
                for relation in working
                if changed is None or relation.schema.name in changed}

    def publish(self, version: int, working: DatabaseInstance,
                changed: Optional[Set[str]] = None,
                copies: Optional[Dict[str, Relation]] = None,
                deltas: Optional[RelationDeltas] = None,
                stats: Optional[EngineStats] = None) -> InstanceVersion:
        """Publish the working instance's current state as ``version``.

        ``changed`` names the relations the update may have touched;
        ``None`` means "unknown — copy everything".  Untouched relations are
        shared (attached) from the previous version.  A touched relation
        with an entry in ``deltas`` and no copy in ``copies`` has its
        previous twin advanced in place (re-checked here, under the lock: a
        reader may have pinned it since :meth:`prepare`); every other
        touched relation is snapshot-copied from the working instance (pass
        the result of :meth:`prepare` as ``copies`` to keep those copies
        out of the locked region).  ``stats`` receives the
        ``relations_patched`` / ``relations_copied`` /
        ``rows_copied_by_publish`` counts of this publication.
        """
        if copies is None:
            copies = self.prepare(working, changed, deltas)
        if deltas is None:
            deltas = {}
        patched = copied = rows_copied = 0
        with self.lock:
            snapshot = DatabaseInstance()
            for relation in working:
                name = relation.schema.name
                twin = self._twin_locked(name)
                attached = copies.get(name)
                if attached is None:
                    if name in deltas:
                        attached = self._advance_locked(relation,
                                                        deltas[name])
                        patched += attached is not None
                    else:
                        attached = twin  # untouched: share the object
                if attached is None:
                    # a reader pinned the twin since prepare(), the patch
                    # failed, or the relation is brand new
                    attached = relation.snapshot()
                if attached is not twin:
                    copied += 1
                    rows_copied += len(attached)
                snapshot.attach(attached)
            published = InstanceVersion(version, snapshot)
            self._versions[version] = published
            self._latest = published
            self.published += 1
            self._collect_locked()
        if stats is not None:
            stats.relations_patched += patched
            stats.relations_copied += copied
            stats.rows_copied_by_publish += rows_copied
        return published

    def _twin_locked(self, name: str) -> Optional[Relation]:
        """The latest version's relation ``name`` (``None`` if it has none)."""
        previous = self._latest
        if previous is None or not previous.instance.has_relation(name):
            return None
        return previous.instance.relation(name)

    def _advanceable_locked(self, relation: Relation,
                            delta) -> Optional[Relation]:
        """The published twin of working ``relation`` if the writer may
        advance it in place by ``delta`` — it exists, the delta is small
        relative to it, and no pinned version attaches it — else ``None``."""
        name = relation.schema.name
        twin = self._twin_locked(name)
        removed, added = delta
        if twin is None or (len(removed) + len(added)) * PATCH_ROW_COST > \
                len(relation) + PATCH_FREE_ROWS:
            return None
        for held in self._versions.values():
            if held.pins and held.instance.has_relation(name) and \
                    held.instance.relation(name) is twin:
                return None
        return twin

    def _advance_locked(self, relation: Relation,
                        delta) -> Optional[Relation]:
        """``relation``'s published twin, advanced in place — or ``None``
        when it must be copied instead.  A patch that raises or misses the
        working relation's size leaves a half-advanced twin behind: the
        caller replaces it with a fresh snapshot, and the only version
        attaching it (the unpinned previous one) is collected before the
        lock is released, so no reader can ever reach it."""
        twin = self._advanceable_locked(relation, delta)
        if twin is None:
            return None
        try:
            return twin if relation.advance_snapshot(twin, *delta) else None
        except Exception:  # noqa: BLE001 - any failure means "copy instead"
            return None

    # -- pinning -------------------------------------------------------------

    def latest(self) -> InstanceVersion:
        """The most recently published version (not pinned).

        Writer-side only: its relations may be advanced in place by the
        next publication, so readers go through :meth:`pin`."""
        with self.lock:
            if self._latest is None:
                raise VersioningError("no version has been published yet")
            return self._latest

    def latest_instance(self) -> DatabaseInstance:
        """The latest published instance (read-only, writer-side only).

        For the writer this is the *pre-publication* state: answer
        maintenance joins an update's deletion delta against it before
        :meth:`publish` advances it, because the removed facts are still
        present there (and never in the working instance the update
        already mutated).
        """
        return self.latest().instance

    def pin(self, version: Optional[int] = None) -> InstanceVersion:
        """Pin (and return) ``version``, or the latest when ``None``.

        A pinned version survives garbage collection until every pin is
        released with :meth:`unpin`.
        """
        with self.lock:
            if version is None:
                pinned = self._latest
                if pinned is None:
                    raise VersioningError("no version has been published yet")
            else:
                pinned = self._versions.get(version)
                if pinned is None:
                    raise VersioningError(
                        f"version {version} is not live (it was never "
                        f"published, or was garbage-collected); live "
                        f"versions: {sorted(self._versions)}")
            pinned.pins += 1
            return pinned

    def unpin(self, pinned: InstanceVersion) -> None:
        """Release one pin; collects the version once fully unpinned."""
        with self.lock:
            if pinned.pins <= 0:
                raise VersioningError(
                    f"version {pinned.version} is not pinned")
            pinned.pins -= 1
            self._collect_locked()

    def read(self, version: Optional[int] = None) -> "ReadTransaction":
        """Open a :class:`ReadTransaction` pinning one version."""
        return ReadTransaction(self, version=version)

    # -- garbage collection ----------------------------------------------------

    def _collect_locked(self) -> int:
        doomed = [key for key, held in self._versions.items()
                  if held.pins == 0 and held is not self._latest]
        for key in doomed:
            del self._versions[key]
        self.collected += len(doomed)
        return len(doomed)

    def collect(self) -> int:
        """Drop every unpinned, non-latest version; return how many."""
        with self.lock:
            return self._collect_locked()

    def live_versions(self) -> List[int]:
        """Version numbers currently retained (latest and/or pinned)."""
        with self.lock:
            return sorted(self._versions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self.lock:
            latest = self._latest.version if self._latest is not None else None
            return (f"VersionStore(live={sorted(self._versions)}, "
                    f"latest={latest}, published={self.published}, "
                    f"collected={self.collected})")


class ReadTransaction:
    """Pins one published version for a consistent sequence of reads.

    Usable as a context manager.  When opened through
    :meth:`QuerySession.read`, the transaction also answers queries — every
    answer is evaluated against (or cached for) the pinned version, so a
    transaction never observes two different versions ("no torn reads"),
    no matter how many updates are published while it is open.
    """

    def __init__(self, store: VersionStore, session=None,
                 version: Optional[int] = None):
        self._store = store
        self._session = session
        self._pinned: Optional[InstanceVersion] = store.pin(version)

    @property
    def pinned(self) -> InstanceVersion:
        if self._pinned is None:
            raise VersioningError("read transaction is already closed")
        return self._pinned

    @property
    def version(self) -> int:
        """The pinned version number."""
        return self.pinned.version

    @property
    def instance(self) -> DatabaseInstance:
        """The pinned instance (read-only)."""
        return self.pinned.instance

    # -- answering (when opened through a QuerySession) ------------------------

    def answers(self, query, allow_nulls: bool = False):
        """Answers of ``query`` against the pinned version."""
        return self._require_session()._answers_at(self.pinned, query,
                                                   allow_nulls=allow_nulls)

    def holds(self, query) -> bool:
        """Boolean answer of ``query`` against the pinned version."""
        return self._require_session()._holds_at(self.pinned, query)

    def _require_session(self):
        if self._session is None:
            raise VersioningError(
                "this read transaction pins an instance version but is not "
                "bound to a QuerySession; open it with session.read() to "
                "answer queries through it")
        return self._session

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release the pin (idempotent)."""
        if self._pinned is not None:
            pinned, self._pinned = self._pinned, None
            self._store.unpin(pinned)

    def __enter__(self) -> "ReadTransaction":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._pinned is None else f"v{self._pinned.version}"
        return f"ReadTransaction({state})"
