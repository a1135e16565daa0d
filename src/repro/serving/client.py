"""A thin client for the serving daemon, mirroring the session API.

:class:`ServingClient` speaks the daemon's line-JSON protocol over a TCP
socket and exposes the same calls an in-process
:class:`~repro.engine.session.QuerySession` /
:class:`~repro.quality.session.QualitySession` would — ``answers``,
``holds``, ``add_facts``/``retract_facts``, ``quality_answers``,
``quality_version``, ``assess`` — with identical result shapes (immutable
tuples of value tuples, labeled nulls as
:class:`~repro.relational.values.Null`), so examples and tests can run the
same workload against either and compare byte for byte.

Connect by explicit address, or point :meth:`ServingClient.connect` at the
daemon's data directory — it polls ``daemon.json`` (written atomically by
the daemon at bind time), which is also how tests wait for a freshly
spawned daemon process to come up.

MVCC reads work like the engine's: :meth:`pin` holds a published version
against garbage collection until :meth:`unpin` (the daemon also releases a
connection's pins when it drops), and ``answers``/``holds`` accept a
``version`` to read against a pinned cut; :meth:`read` wraps the pair in a
context manager that mirrors :meth:`QuerySession.read`.

The daemon's **typed refusals** come back as the same exception classes
they were raised as on the server: an oversized request raises
:class:`~repro.errors.RequestTooLargeError`, an unauthenticated one
:class:`~repro.errors.AuthenticationError`, a full commit queue
:class:`~repro.errors.ServerBusyError` (carrying the daemon's
``retry_after`` hint), a mid-write shutdown
:class:`~repro.errors.DaemonShutdownError` — anything else stays a
:class:`~repro.errors.ServingProtocolError` with ``remote_type`` set.
Busy refusals are retried automatically with bounded exponential backoff
plus jitter (floored at the daemon's hint); pass ``unavailable_retries``
to also survive a daemon restart by reconnecting (and re-authenticating)
between attempts.

With ``auth_token=`` (or a daemon started with ``--auth-token-file``)
the client runs the shared-secret handshake right after connecting:
fetch a per-connection nonce (``auth_challenge``), answer with
``HMAC-SHA256(token, nonce)`` (``auth``).  The token never crosses the
wire.
"""

from __future__ import annotations

import json
import os
import random
import socket
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Union

from ..datalog.chase import Fact
from ..engine.snapshot import decode_row
from ..errors import (AuthenticationError, DaemonShutdownError,
                      DaemonUnavailableError, RequestTooLargeError,
                      ServerBusyError, ServingProtocolError)
from .admission import compute_mac
from .compaction import address_path
from .wal import encode_facts

PathLike = Union[str, Path]

AnswerRows = Tuple[Tuple[Any, ...], ...]

#: daemon-side refusals the client re-raises as their original class
#: (everything else becomes a ServingProtocolError with remote_type set)
_TYPED_REMOTE_ERRORS = {
    "RequestTooLargeError": RequestTooLargeError,
    "ServerBusyError": ServerBusyError,
    "AuthenticationError": AuthenticationError,
    "DaemonShutdownError": DaemonShutdownError,
}


def _process_gone(pid: Any) -> bool:
    """``True`` once the process ``pid`` has exited.

    A zombie counts as gone: a daemon that crashed as an unreaped child of
    this process still answers ``os.kill(pid, 0)`` until it is waited for,
    so ``/proc/<pid>/stat`` (state ``Z``) is read where it exists.
    Anything unknowable — no pid recorded, someone else's process — is
    treated as alive.
    """
    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        return False
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rfind(b")") + 2:][:1] == b"Z"


def read_address(data_dir: PathLike) -> Dict[str, Any]:
    """The advertised address of the daemon serving ``data_dir``."""
    path = address_path(data_dir)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DaemonUnavailableError(
            f"no daemon advertises itself in {path}; start one with "
            f"python -m repro.serving.daemon --data-dir {data_dir}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise DaemonUnavailableError(
            f"cannot read daemon address {path}: {exc}") from None


class ServingClient:
    """One connection to a serving daemon — optionally two.

    With ``replica=(host, port)`` the client also connects to a read
    replica (:mod:`repro.serving.replication`), and ``read_from`` routes
    the read-side calls — ``answers``, ``holds``, ``pin``/``unpin``/
    ``read`` — to it (``"replica"``) or to the primary (``"primary"``,
    the default).  Writes, checkpoints and stats always go to the
    primary; :meth:`replica_stats`/:meth:`replication_lag` query the
    replica directly.  ``read_from`` may be flipped at runtime, but pins
    are per-daemon: unpin on the side that pinned.

    ``connect_timeout`` bounds only the TCP connect (a stale
    ``daemon.json`` pointing at a dead port fails promptly as
    :class:`~repro.errors.DaemonUnavailableError` instead of hanging for
    the full I/O ``timeout``); ``busy_retries``/``unavailable_retries``
    and the ``backoff_*`` knobs shape the retry loop documented on
    :meth:`request`.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 replica: Optional[Tuple[str, int]] = None,
                 read_from: str = "primary",
                 connect_timeout: float = 5.0,
                 auth_token: Optional[Union[str, bytes]] = None,
                 busy_retries: int = 8, unavailable_retries: int = 0,
                 backoff_base: float = 0.05, backoff_max: float = 2.0,
                 on_retry: Optional[Callable[[str, int, float],
                                             None]] = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.busy_retries = busy_retries
        self.unavailable_retries = unavailable_retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        #: called as ``on_retry(kind, attempt, floor)`` before each retry
        #: sleep (``kind`` is ``"busy"`` or ``"unavailable"``) — how load
        #: harnesses count retries without wrapping every call
        self.on_retry = on_retry
        self._auth_token = auth_token
        if read_from not in ("primary", "replica"):
            raise ValueError(
                f"read_from must be 'primary' or 'replica', not {read_from!r}")
        if read_from == "replica" and replica is None:
            raise ValueError(
                "read_from='replica' needs a replica=(host, port) address")
        self._replica: Optional["ServingClient"] = None
        if replica is not None:
            self._replica = ServingClient(
                replica[0], replica[1], timeout=timeout,
                connect_timeout=connect_timeout, auth_token=auth_token,
                busy_retries=busy_retries,
                unavailable_retries=unavailable_retries,
                backoff_base=backoff_base, backoff_max=backoff_max)
        self.read_from = read_from
        self._socket: Optional[socket.socket] = None
        self._file = None
        self._next_id = 0
        try:
            self._connect()
            self._handshake()
        except BaseException:
            self.close()
            raise

    def _connect(self) -> None:
        """(Re)establish the TCP connection — connect bounded by
        ``connect_timeout``, subsequent I/O by ``timeout``."""
        try:
            self._socket = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout)
        except OSError as exc:
            self._socket = None
            self._file = None
            raise DaemonUnavailableError(
                f"cannot connect to serving daemon at {self.host}:"
                f"{self.port}: {exc}") from None
        self._socket.settimeout(self.timeout)
        self._file = self._socket.makefile("rwb")

    def _handshake(self) -> None:
        """Authenticate this connection when a token was provided.

        A tokenless daemon answers ``required: false`` and the handshake
        is a no-op, so a client holding a token interoperates with an
        open daemon."""
        if self._auth_token is None:
            return
        challenge = self._request_once("auth_challenge")
        if not challenge.get("required"):
            return
        self._request_once(
            "auth", mac=compute_mac(self._auth_token, challenge["nonce"]))

    def _reconnect(self) -> None:
        """Drop the (broken) connection and dial + authenticate afresh."""
        for resource in (self._file, self._socket):
            try:
                if resource is not None:
                    resource.close()
            except OSError:  # pragma: no cover - already gone
                pass
        self._socket = None
        self._file = None
        self._connect()
        self._handshake()

    @classmethod
    def connect(cls, data_dir: PathLike, timeout: float = 30.0,
                wait: float = 10.0, replica_dir: Optional[PathLike] = None,
                read_from: str = "primary",
                auth_token: Optional[Union[str, bytes]] = None,
                **client_options: Any) -> "ServingClient":
        """Connect to the daemon serving ``data_dir``, waiting up to
        ``wait`` seconds for it to advertise itself (covers the race with a
        freshly spawned daemon process binding its port).  An advertised
        daemon that refuses connections fails fast with
        :class:`~repro.errors.DaemonUnavailableError` once the ``pid`` its
        ``daemon.json`` records has exited (zombies included), instead of
        re-dialing the dead port until the deadline — so a supervisor that
        respawns a daemon on the same data directory unlinks the dead
        one's ``daemon.json`` first, and clients then wait for the new
        one.  ``replica_dir`` waits for and attaches the replica advertised
        there as well; extra keyword arguments (``connect_timeout``,
        ``busy_retries``, ...) pass through to the constructor."""
        deadline = time.monotonic() + wait

        def _await_address(directory: PathLike) -> Dict[str, Any]:
            while True:
                try:
                    return read_address(directory)
                except DaemonUnavailableError:
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.05)

        while True:
            address = _await_address(data_dir)
            advertised = [address]
            replica = None
            if replica_dir is not None:
                found = _await_address(replica_dir)
                advertised.append(found)
                replica = (found["host"], found["port"])
            try:
                return cls(address["host"], address["port"], timeout=timeout,
                           replica=replica, read_from=read_from,
                           auth_token=auth_token, **client_options)
            except DaemonUnavailableError:
                # Advertised but not answering: either we raced the bind
                # or the file is stale.  A dead advertiser settles it;
                # otherwise keep trying until the deadline.
                if time.monotonic() >= deadline or any(
                        _process_gone(each.get("pid")) for each in advertised):
                    raise
                time.sleep(0.05)

    def _reader(self) -> "ServingClient":
        """The connection read-side calls route to."""
        if self.read_from == "replica" and self._replica is not None:
            return self._replica
        return self

    # -- the wire ------------------------------------------------------------

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One request/response exchange, with bounded automatic retries.

        A ``busy`` refusal (:class:`~repro.errors.ServerBusyError` — the
        daemon's commit queue is full) is retried up to ``busy_retries``
        times with exponential backoff plus jitter, never sleeping less
        than the daemon's ``retry_after`` hint: back-pressure is the
        daemon asking exactly for this.  A lost connection or a mid-write
        shutdown is retried up to ``unavailable_retries`` times (default
        0: off) by reconnecting and re-authenticating first — opt-in,
        because a write interrupted mid-exchange *may* have been applied
        and retrying it is not idempotent for all workloads.  Every other
        failure — typed refusals like
        :class:`~repro.errors.RequestTooLargeError` or
        :class:`~repro.errors.AuthenticationError` included — raises
        immediately.
        """
        busy_left = self.busy_retries
        unavailable_left = self.unavailable_retries
        attempt = 0
        while True:
            try:
                return self._request_once(op, **fields)
            except ServerBusyError as exc:
                if busy_left <= 0:
                    raise
                busy_left -= 1
                if self.on_retry is not None:
                    self.on_retry("busy", attempt, exc.retry_after)
                self._backoff(attempt, floor=exc.retry_after)
                attempt += 1
            except (DaemonUnavailableError, DaemonShutdownError):
                if unavailable_left <= 0 or op == "shutdown":
                    raise
                unavailable_left -= 1
                if self.on_retry is not None:
                    self.on_retry("unavailable", attempt, 0.0)
                self._backoff(attempt)
                attempt += 1
                try:
                    self._reconnect()
                except DaemonUnavailableError:
                    # Still down — the next loop iteration charges another
                    # retry, so a daemon that never comes back still fails
                    # after ``unavailable_retries`` attempts.
                    continue

    def _backoff(self, attempt: int, floor: float = 0.0) -> None:
        """Sleep one bounded-exponential-with-jitter retry delay."""
        delay = min(self.backoff_max, self.backoff_base * (2 ** attempt))
        delay = max(delay, float(floor or 0.0))
        # full jitter in [0.5, 1.5) — desynchronizes a herd of retriers
        time.sleep(delay * (0.5 + random.random()))

    def _request_once(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One raw request/response round trip; raises on protocol errors
        and maps ``{"ok": false}`` responses to typed exceptions."""
        if self._file is None:
            raise DaemonUnavailableError(
                f"not connected to {self.host}:{self.port}")
        self._next_id += 1
        payload = {"op": op, "id": self._next_id, **fields}
        try:
            self._file.write(
                (json.dumps(payload, separators=(",", ":")) + "\n")
                .encode("utf-8"))
            self._file.flush()
            line = self._file.readline()
        except OSError as exc:
            raise DaemonUnavailableError(
                f"lost the connection to {self.host}:{self.port} during "
                f"{op!r}: {exc}") from None
        if not line:
            raise DaemonUnavailableError(
                f"the daemon at {self.host}:{self.port} closed the "
                f"connection (crashed?) during {op!r}")
        try:
            response = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServingProtocolError(
                f"unparseable response to {op!r}: {exc}") from None
        if not response.get("ok"):
            error_type = response.get("error_type", "")
            message = response.get("error", f"request {op!r} failed")
            typed = _TYPED_REMOTE_ERRORS.get(error_type)
            if typed is ServerBusyError:
                raise ServerBusyError(
                    message,
                    retry_after=float(response.get("retry_after") or 0.0))
            if typed is not None:
                raise typed(message)
            raise ServingProtocolError(message, remote_type=error_type)
        return response.get("result") or {}

    @staticmethod
    def _rows(result: Dict[str, Any]) -> AnswerRows:
        return tuple(decode_row(row) for row in result.get("rows", ()))

    # -- session API ---------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def answers(self, query: str, allow_nulls: bool = False,
                version: Optional[int] = None) -> AnswerRows:
        """Certain answers of ``query`` (``allow_nulls=True`` keeps rows
        with labeled nulls), optionally against a pinned version."""
        target = self._reader()
        fields: Dict[str, Any] = {"query": str(query),
                                  "allow_nulls": allow_nulls}
        if version is not None:
            fields["version"] = version
        return self._rows(target.request("answers", **fields))

    def holds(self, query: str, version: Optional[int] = None) -> bool:
        target = self._reader()
        fields: Dict[str, Any] = {"query": str(query)}
        if version is not None:
            fields["version"] = version
        return bool(target.request("holds", **fields)["holds"])

    def add_facts(self, facts: Iterable[Fact]) -> Dict[str, Any]:
        return self.request("add_facts", facts=encode_facts(facts))

    def retract_facts(self, facts: Iterable[Fact]) -> Dict[str, Any]:
        return self.request("retract_facts", facts=encode_facts(facts))

    def quality_answers(self, query: str) -> AnswerRows:
        return self._rows(self.request("quality_answers", query=str(query)))

    def quality_version(self, relation: str) -> AnswerRows:
        return self._rows(self.request("quality_version", relation=relation))

    def assess(self) -> Dict[str, Any]:
        return self.request("assess")

    # -- versioned reads -----------------------------------------------------

    def pin(self, version: Optional[int] = None) -> int:
        """Pin a published version (latest when ``None``); returns it.
        Routed like the other read calls: the pin lands on whichever
        daemon :attr:`read_from` selects."""
        fields = {} if version is None else {"version": version}
        return int(self._reader().request("pin", **fields)["version"])

    def unpin(self, version: int) -> bool:
        """Release one pin — best effort, idempotent.

        Returns ``False`` instead of raising when the daemon is gone,
        restarted, or no longer holds the pin: an unpin only releases
        resources, and a dead or restarted daemon has released them
        already.  Doing anything noisier would mask real errors — the
        common caller is :meth:`ClientRead.close` inside ``__exit__``,
        where a raise would swallow the body's exception.  Genuine
        protocol failures (an unreachable daemon aside) still raise.
        """
        target = self._reader()
        try:
            target.request("unpin", version=version)
            return True
        except DaemonUnavailableError:
            return False
        except ServingProtocolError as exc:
            # The daemon answered but no longer holds the pin (connection
            # dropped and its pins were released, daemon restarted, or a
            # double unpin) — already released, so the goal is met.
            if exc.remote_type in ("ServingProtocolError", "VersioningError"):
                return False
            raise

    def read(self, version: Optional[int] = None) -> "ClientRead":
        """A context manager pinning one version for consistent reads."""
        return ClientRead(self, version)

    # -- operations ----------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        return self.request("checkpoint")

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    def replica_stats(self) -> Dict[str, Any]:
        """The attached replica's stats (replication lag lives in
        ``["serving"]["replication"]``)."""
        if self._replica is None:
            raise ServingProtocolError(
                "this client has no replica attached; pass "
                "replica=(host, port) when constructing it")
        return self._replica.stats()

    def replication_lag(self) -> int:
        """Durable primary records the attached replica has not applied."""
        return int(self.replica_stats()["serving"]["replication"]
                   ["lag_records"])

    def recovery(self) -> Dict[str, Any]:
        return self.request("recovery")

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._replica is not None:
            self._replica.close()
        for resource in (self._file, self._socket):
            try:
                if resource is not None:
                    resource.close()
            except OSError:  # pragma: no cover - already gone
                pass
        self._file = None
        self._socket = None

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServingClient({self.host}:{self.port})"


class ClientRead:
    """The client-side mirror of :class:`~repro.engine.versioning.ReadTransaction`."""

    def __init__(self, client: ServingClient, version: Optional[int] = None):
        self._client = client
        self.version = client.pin(version)
        self._open = True

    def answers(self, query: str, allow_nulls: bool = False) -> AnswerRows:
        return self._client.answers(query, allow_nulls=allow_nulls,
                                    version=self.version)

    def holds(self, query: str) -> bool:
        return self._client.holds(query, version=self.version)

    def close(self) -> None:
        if self._open:
            self._open = False
            self._client.unpin(self.version)

    def __enter__(self) -> "ClientRead":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
