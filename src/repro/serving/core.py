"""The serving core both daemons share: the protocol, its op table, the
connections and the socket lifecycle.

Protocol: one JSON object per line (UTF-8, ``\\n``-terminated) in both
directions.  Requests carry ``op`` plus arguments and an optional ``id``;
responses are ``{"ok": true, "result": ...}`` or ``{"ok": false,
"error": ..., "error_type": ...}``, echoing the ``id``.  The
:mod:`repro.serving.client` module wraps this in the in-process session
API.

Every op is one entry of :attr:`ServingCore.OPS`, ``op -> (handler,
kind)``; adding an op means adding one entry.  ``read`` ops run off MVCC
pins and never take the lock.  ``quality`` ops need a quality backend and
run under ``self._lock``: quality versions and assessments are
unversioned state that writes and replay mutate in place.  A read-only
role refuses ``write`` ops before the handler runs.  ``control`` covers
liveness, the auth handshake, stats, recovery and shutdown.  A role — the
primary :class:`~repro.serving.daemon.ServingDaemon` or the
:class:`~repro.serving.replication.ReplicaDaemon` — supplies only its
``ping`` fields, its ``stats`` serving slot, :meth:`ServingCore._check_op`
and its own work: the primary's writes and checkpoints, the replica's
tailer.
"""

from __future__ import annotations

import json
import os
import socketserver
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..engine.snapshot import encode_row
from ..engine.stats import ServingStats
from ..errors import (AuthenticationError, RequestTooLargeError, ServingError,
                      ServingProtocolError)
from .admission import UNAUTHENTICATED_OPS, AdmissionPolicy, Authenticator
from .compaction import address_path
from .wal import OP_ADD, OP_RETRACT, decode_facts

PathLike = Union[str, Path]
PROTOCOL_VERSION = 1

READ, WRITE, QUALITY, CONTROL = "read", "write", "quality", "control"


class ConnectionState:
    """Per-connection serving state: the pins a client holds (released
    when the connection closes), its auth-handshake progress, and how
    many of its writes are currently queued or in flight."""

    def __init__(self, store):
        self._store = store
        self._pins: Dict[int, List[Any]] = {}
        self.closing = False
        #: set once the shared-secret handshake succeeds (or when the
        #: daemon requires no auth — the gate checks the requirement)
        self.authenticated = False
        #: the outstanding single-use auth nonce (``None`` = none issued,
        #: or the last one was consumed by an ``auth`` attempt)
        self.auth_nonce: Optional[str] = None
        #: writes from this connection sitting in (or moving through)
        #: the commit queue; bounded by the admission policy
        self.inflight_writes = 0

    def pin(self, version: Optional[int] = None) -> int:
        pinned = self._store.pin(version)
        self._pins.setdefault(pinned.version, []).append(pinned)
        return pinned.version

    def unpin(self, version: int) -> None:
        held = self._pins.get(version)
        if not held:
            raise ServingProtocolError(
                f"this connection holds no pin on version {version}")
        self._store.unpin(held.pop())
        if not held:
            del self._pins[version]

    def release_all(self) -> None:
        for held in self._pins.values():
            for pinned in held:
                try:
                    self._store.unpin(pinned)
                except Exception:  # pragma: no cover - store already gone
                    pass
        self._pins.clear()


def _error_response(request_id: Any, exc: BaseException) -> Dict[str, Any]:
    """The wire shape of a refused/failed request.  Typed refusals carry
    their class name in ``error_type`` (the client re-raises them as the
    same class) and busy refusals additionally carry ``retry_after``."""
    response = {"ok": False, "id": request_id, "error": str(exc),
                "error_type": type(exc).__name__}
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        response["retry_after"] = retry_after
    return response


class ServingCore:
    """Serve one backend over the line-JSON protocol (a role subclasses
    it: see the module docstring for what a role supplies)."""

    #: advertised in ``daemon.json`` (set by the role)
    role = ""

    def __init__(self, backend, data_dir: PathLike,
                 admission: Optional[AdmissionPolicy] = None,
                 auth_token: Optional[Union[str, bytes]] = None):
        self.backend = backend
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        #: per-request limits enforced before validation and logging
        self.admission = admission or AdmissionPolicy()
        #: the shared-secret gate (``auth_token=None`` leaves it open)
        self.authenticator = Authenticator(auth_token)
        #: serializes state changes (writes, checkpoints, replay) against
        #: quality reads; MVCC reads never take it
        self._lock = threading.RLock()
        #: serving counters (surfaced by the stats op)
        self.serving_stats = ServingStats()
        #: the report of the last ``recover()`` run
        self.recovery: Optional[Dict[str, Any]] = None
        self._server: Optional[_LineServer] = None
        self._thread: Optional[threading.Thread] = None
        #: the connection in-process :meth:`handle` calls run as
        self._default_connection: Optional[ConnectionState] = None
        #: live socket connections (their pins are released on stop())
        self._connections: Dict[int, ConnectionState] = {}
        self._connections_lock = threading.Lock()

    # -- what a role supplies ------------------------------------------------

    def _ping_fields(self) -> Dict[str, Any]:
        """The role's fields of the ``ping`` response."""
        raise NotImplementedError

    def _serving_slot(self) -> Dict[str, Any]:
        """The role's ``serving`` slot of the ``stats`` response."""
        raise NotImplementedError

    def _check_op(self, op: str, kind: str) -> None:
        """Refuse ``op`` before its handler runs; the core admits all."""

    # -- request dispatch ----------------------------------------------------

    def handle(self, request: Dict[str, Any],
               connection: Optional[ConnectionState] = None) -> Dict[str, Any]:
        """Serve one protocol request; never raises (errors become
        ``{"ok": false}`` responses so a bad request cannot kill the
        daemon).  Unknown request fields are ignored."""
        request_id = request.get("id") if isinstance(request, dict) else None
        try:
            if not isinstance(request, dict) or "op" not in request:
                raise ServingProtocolError(
                    'requests are JSON objects with an "op" field')
            op = request["op"]
            connection = connection or self._default_connection
            self._check_authenticated(op, connection)
            entry = self.OPS.get(op) if isinstance(op, str) else None
            if entry is None:
                raise ServingProtocolError(f"unknown request op {op!r}")
            handler, kind = entry
            self._check_op(op, kind)
            if kind == QUALITY:
                if not hasattr(self.backend, "quality_answers"):
                    raise ServingProtocolError(
                        f"request {op!r} needs a quality backend, but this "
                        "daemon serves a plain program (start it with "
                        "--scenario or a QualityBackend)")
                with self._lock:
                    result = handler(self, request, connection)
            else:
                result = handler(self, request, connection)
            return {"ok": True, "id": request_id, "result": result}
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return _error_response(request_id, exc)

    def _check_authenticated(self, op: str,
                             connection: ConnectionState) -> None:
        """Refuse ``op`` on an unauthenticated connection.

        Liveness (``ping``) and the handshake itself stay reachable; every
        other operation — reads, writes, pins, stats, quality — is refused
        with a typed :class:`~repro.errors.AuthenticationError` and counted.
        A daemon with no token configured requires nothing."""
        if not self.authenticator.required or connection.authenticated:
            return
        if op in UNAUTHENTICATED_OPS:
            return
        self.serving_stats.auth_failures += 1
        raise AuthenticationError(
            f"request {op!r} refused: this daemon requires authentication "
            "(complete the auth_challenge + auth handshake first)")

    # -- op handlers: ``handler(self, request, connection) -> result`` -------

    def _auth_challenge(self, request, connection):
        # A fresh single-use nonce, replacing any outstanding one.
        if not self.authenticator.required:
            return {"required": False, "nonce": None}
        connection.auth_nonce = self.authenticator.challenge()
        return {"required": True, "nonce": connection.auth_nonce}

    def _auth(self, request, connection):
        # Verifies the client's HMAC over the nonce in constant time.  The
        # nonce is consumed by the attempt whatever the outcome, so a
        # captured or replayed MAC never verifies twice.
        if not self.authenticator.required:
            connection.authenticated = True
            return {"authenticated": True, "required": False}
        nonce, connection.auth_nonce = connection.auth_nonce, None
        if self.authenticator.verify(nonce, request.get("mac")):
            connection.authenticated = True
            return {"authenticated": True, "required": True}
        self.serving_stats.auth_failures += 1
        raise AuthenticationError(
            "authentication failed: missing, wrong or replayed credential; "
            "request a fresh auth_challenge and answer it with "
            "HMAC-SHA256(token, nonce)")

    def _ping(self, request, connection):
        return {"pong": True, "kind": self.backend.kind,
                "protocol_version": PROTOCOL_VERSION,
                "auth_required": self.authenticator.required,
                "version": self.backend.version, **self._ping_fields()}

    def _answers(self, request, connection):
        with self.backend.session.read(request.get("version")) as txn:
            rows = txn.answers(request["query"],
                               allow_nulls=bool(request.get("allow_nulls")))
            return {"rows": [encode_row(row) for row in rows],
                    "version": txn.version}

    def _holds(self, request, connection):
        with self.backend.session.read(request.get("version")) as txn:
            return {"holds": txn.holds(request["query"]),
                    "version": txn.version}

    def _pin(self, request, connection):
        return {"version": connection.pin(request.get("version"))}

    def _unpin(self, request, connection):
        connection.unpin(int(request["version"]))
        return {"unpinned": int(request["version"])}

    def _stats(self, request, connection):
        stats = self.backend.stats()
        stats["serving"] = self._serving_slot()
        return stats

    def _recovery(self, request, connection):
        return dict(self.recovery or {})

    def _quality_answers(self, request, connection):
        rows = self.backend.quality_answers(request["query"])
        return {"rows": [encode_row(row) for row in rows]}

    def _quality_version(self, request, connection):
        rows = self.backend.quality_version(request["relation"])
        return {"rows": [encode_row(row) for row in rows]}

    def _assess(self, request, connection):
        return self.backend.assess()

    def _add_facts(self, request, connection):
        facts = decode_facts(request.get("facts") or [])
        return self.apply_write(OP_ADD, facts, connection=connection)

    def _retract_facts(self, request, connection):
        facts = decode_facts(request.get("facts") or [])
        return self.apply_write(OP_RETRACT, facts, connection=connection)

    def _checkpoint(self, request, connection):
        return self.checkpoint()

    def _shutdown(self, request, connection):
        connection.closing = True
        self._async_stop()
        return {"stopping": True}

    #: the protocol: ``op -> (handler, kind)``
    OPS: Dict[str, Tuple[Callable, str]] = {
        "auth_challenge": (_auth_challenge, CONTROL),
        "auth": (_auth, CONTROL),
        "ping": (_ping, CONTROL),
        "answers": (_answers, READ),
        "holds": (_holds, READ),
        "pin": (_pin, READ),
        "unpin": (_unpin, READ),
        "stats": (_stats, CONTROL),
        "recovery": (_recovery, CONTROL),
        "quality_answers": (_quality_answers, QUALITY),
        "quality_version": (_quality_version, QUALITY),
        "assess": (_assess, QUALITY),
        "add_facts": (_add_facts, WRITE),
        "retract_facts": (_retract_facts, WRITE),
        "checkpoint": (_checkpoint, WRITE),
        "shutdown": (_shutdown, CONTROL),
    }

    # -- network lifecycle ---------------------------------------------------

    def start(self, host: str = "127.0.0.1", port: int = 0
              ) -> Tuple[str, int]:
        """Bind, start serving in a background thread, and advertise the
        address in ``<data_dir>/daemon.json`` (atomic write)."""
        if self._server is not None:
            raise ServingError("the daemon is already serving")
        self._server = _LineServer((host, port), self)
        bound_host, bound_port = self._server.server_address[:2]
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-serving-daemon",
                                        daemon=True)
        self._thread.start()
        self._on_start()
        address = address_path(self.data_dir)
        temp = address.with_name(address.name + ".tmp")
        temp.write_text(json.dumps({
            "host": bound_host, "port": bound_port, "pid": os.getpid(),
            "kind": self.backend.kind, "role": self.role,
            "protocol_version": PROTOCOL_VERSION,
        }), encoding="utf-8")
        os.replace(temp, address)
        return bound_host, bound_port

    def _on_start(self) -> None:
        """Start the role's own background work once serving."""

    def wait(self) -> None:
        """Block until the serving thread exits (stop() from elsewhere)."""
        if self._thread is not None:
            while self._thread.is_alive():
                self._thread.join(timeout=0.5)

    def _async_stop(self) -> None:
        threading.Thread(target=self.stop, name="repro-serving-stop",
                         daemon=True).start()

    def _register_connection(self, connection: ConnectionState) -> None:
        with self._connections_lock:
            self._connections[id(connection)] = connection

    def _unregister_connection(self, connection: ConnectionState) -> None:
        with self._connections_lock:
            self._connections.pop(id(connection), None)

    def stop(self) -> None:
        """Stop serving and release every pin still held on the daemon's
        behalf (idempotent; a role stops its own work, then calls this).

        Live connections' pins are released even when their handler
        threads never got to run their own cleanup, so no superseded
        version can stay pinned (and uncollectable) past stop()."""
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        try:
            address_path(self.data_dir).unlink()
        except OSError:
            pass
        with self._connections_lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for connection in connections:
            connection.release_all()
        with self._lock:
            if self._default_connection is not None:
                self._default_connection.release_all()

    def close(self) -> None:
        self.stop()

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Socket plumbing
# ---------------------------------------------------------------------------


class _LineServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], daemon: ServingCore):
        self.serving_daemon = daemon
        super().__init__(address, _LineHandler)


def _read_request_line(rfile, limit: int) -> Tuple[Optional[bytes], bool]:
    """One protocol line, reading at most ``limit`` bytes of it.

    Returns ``(line, oversized)``.  ``line is None`` means EOF (the
    client went away — a line cut short by EOF counts, since it can
    never complete).  An oversized line — longer than ``limit`` bytes
    including the newline — is **drained** in bounded chunks and
    reported as ``(None-content, True)``: the daemon never buffers more
    than ``limit`` bytes for one request, no matter what a poisoned
    client streams at it, and the connection stays usable afterwards."""
    line = rfile.readline(limit + 1) if limit else rfile.readline()
    if not line:
        return None, False
    if len(line) <= limit or not limit:
        if line.endswith(b"\n"):
            return line, False
        return None, False  # EOF mid-line: the request can never complete
    # Over the cap: throw away the rest of the line, chunk by chunk.
    while not line.endswith(b"\n"):
        line = rfile.readline(65536)
        if not line:
            break
    return b"", True


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        daemon = self.server.serving_daemon
        connection = ConnectionState(daemon.backend.versions)
        daemon._register_connection(connection)
        try:
            while True:
                limit = daemon.admission.max_request_bytes
                raw, oversized = _read_request_line(self.rfile, limit)
                if oversized:
                    # Shed before parsing: one poisoned oversized request
                    # costs its own connection a refusal, never the
                    # daemon's memory or the other sessions' latency.
                    daemon.serving_stats.requests_shed += 1
                    response = _error_response(None, RequestTooLargeError(
                        f"request line exceeds this daemon's "
                        f"max_request_bytes={limit}; the line was "
                        "discarded unparsed"))
                elif raw is None:
                    break
                else:
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        request = json.loads(line.decode("utf-8"))
                    except (json.JSONDecodeError, UnicodeDecodeError):
                        response = _error_response(None, ServingProtocolError(
                            "request is not a JSON line"))
                    else:
                        response = daemon.handle(request, connection)
                self.wfile.write(
                    (json.dumps(response, separators=(",", ":")) + "\n")
                    .encode("utf-8"))
                self.wfile.flush()
                if connection.closing:
                    break
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass
        finally:
            daemon._unregister_connection(connection)
            connection.release_all()
