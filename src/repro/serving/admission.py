"""Admission control and authentication for the serving tier.

The daemon accepts work from the network, and PR 5 left its front door
wide open: any connection could enqueue arbitrarily large writes, the
group-commit queue grew without bound, and the protocol had no notion of
identity.  This module is the protection layer both daemons
(:class:`~repro.serving.daemon.ServingDaemon` and
:class:`~repro.serving.replication.ReplicaDaemon`) consult **before**
validation, logging or application:

* :class:`AdmissionPolicy` — the per-request limits: raw bytes per
  protocol line (enforced at the socket boundary, before JSON parsing,
  so an oversized request is drained and refused in bounded memory),
  facts per write, concurrent in-flight writes per connection, and the
  commit-queue capacity behind the back-pressure path.  A refused
  request raises a **typed** error
  (:class:`~repro.errors.RequestTooLargeError`,
  :class:`~repro.errors.ServerBusyError`) that the wire protocol carries
  as ``error_type`` and :class:`~repro.serving.client.ServingClient`
  re-raises as the same class — callers distinguish "too big" from
  "try again later" without string matching.
* :class:`Authenticator` — the shared-secret handshake.  The daemon
  issues a random per-connection nonce (``auth_challenge``); the client
  answers with ``HMAC-SHA256(token, nonce)`` (``auth``); the daemon
  verifies in constant time (:func:`hmac.compare_digest`) and marks the
  connection authenticated.  Nonces are single-use: a replayed MAC —
  on the same connection or captured from another — never verifies,
  because the nonce it signed has been consumed.  The token itself
  never crosses the wire.

Nothing here imports the daemon modules, so the client can share
:func:`compute_mac` without a circular import.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..errors import RequestTooLargeError, ServingError

PathLike = Union[str, Path]

#: handshake and liveness operations that must work before authentication
#: (everything else is refused on an unauthenticated connection)
UNAUTHENTICATED_OPS = ("ping", "auth_challenge", "auth")


@dataclass
class AdmissionPolicy:
    """Per-request admission limits for a serving daemon.

    The defaults are deliberately generous — far above anything the
    benchmarks or the differential suites send — so protection is on by
    default without changing the behavior of well-formed clients.  A
    limit set to ``0`` disables that check.
    """

    #: longest accepted protocol line (request JSON + newline), in bytes;
    #: longer lines are drained and refused before parsing
    max_request_bytes: int = 8 * 1024 * 1024
    #: most facts one ``add_facts``/``retract_facts`` request may carry
    max_facts_per_write: int = 50_000
    #: most writes one connection may have queued/in flight at once
    max_inflight_per_connection: int = 8
    #: commit-queue capacity: writers arriving past it get a typed
    #: ``busy`` refusal with a retry-after hint instead of enqueueing
    queue_cap: int = 256

    def check_facts(self, count: int) -> None:
        """Refuse a write that carries more facts than the policy allows."""
        if self.max_facts_per_write and count > self.max_facts_per_write:
            raise RequestTooLargeError(
                f"write carries {count} facts but this daemon admits at "
                f"most {self.max_facts_per_write} per request; split the "
                "update into smaller batches")


def load_token(path: PathLike) -> bytes:
    """Read a shared-secret token file (surrounding whitespace stripped)."""
    try:
        token = Path(path).read_bytes().strip()
    except OSError as exc:
        raise ServingError(f"cannot read auth token file {path}: "
                           f"{exc}") from None
    if not token:
        raise ServingError(f"auth token file {path} is empty; a blank "
                           "token would authenticate everyone")
    return token


def compute_mac(token: Union[str, bytes], nonce: str) -> str:
    """The handshake response: ``HMAC-SHA256(token, nonce)`` as hex."""
    if isinstance(token, str):
        token = token.encode("utf-8")
    return hmac.new(token, nonce.encode("ascii"), hashlib.sha256).hexdigest()


class Authenticator:
    """Issue per-connection nonces and verify HMAC responses.

    Constructed with ``token=None`` the gate is open (``required`` is
    false) and every connection counts as authenticated — the
    compatibility mode for data directories that predate auth.
    """

    def __init__(self, token: Optional[Union[str, bytes]] = None):
        if isinstance(token, str):
            token = token.encode("utf-8")
        self._token = token

    @property
    def required(self) -> bool:
        return self._token is not None

    def challenge(self) -> str:
        """A fresh single-use nonce for one connection's handshake."""
        return secrets.token_hex(32)

    def verify(self, nonce: Optional[str], mac: object) -> bool:
        """Constant-time check of one handshake response.

        ``nonce`` is the outstanding challenge (``None`` when none was
        issued or it was already consumed — both refuse).  The caller
        must treat the nonce as consumed whatever the outcome."""
        if self._token is None:
            return True
        if nonce is None or not isinstance(mac, str):
            return False
        return hmac.compare_digest(compute_mac(self._token, nonce), mac)
