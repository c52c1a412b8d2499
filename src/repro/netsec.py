"""Shared security layer for both network stacks (cluster + daemon).

Two stacks put the analysis on the network — ``repro-mct worker``
fleets over TCP and ``repro-mct serve`` over HTTP — and both listeners
originally accepted anyone who could reach the port.  This module is
the one place both stacks get their trust primitives from, so the two
surfaces cannot drift apart:

* **secret material** never rides on argv (visible in ``ps``): it is
  loaded from a file (``--secret-file``/``--auth-token-file``) or an
  environment variable (:data:`SECRET_ENV`/:data:`TOKEN_ENV`), with
  whitespace stripped so a trailing newline from ``echo`` cannot make
  two ends disagree;
* **comparison is constant-time** (:func:`constant_time_eq`, backed by
  :func:`hmac.compare_digest`) on both the HTTP bearer token and the
  cluster HMAC proofs, so a byte-at-a-time timing probe learns nothing;
* **the cluster handshake is mutual** challenge–response
  (:func:`hmac_proof`): each side proves possession of the shared
  secret over the *other* side's fresh nonce, domain-separated by
  protocol string and role so a recorded proof can never be reflected
  back — and the secret itself never crosses the wire;
* **TLS contexts** are built here (:func:`build_server_context` /
  :func:`build_client_context`) with one policy: a server presents
  ``--tls-cert``/``--tls-key``; a client trusts exactly the
  ``--tls-ca`` bundle it was given (fleets dial addresses, frequently
  raw IPs, so trust is pinned to the CA rather than to hostnames); a
  server given ``--tls-ca`` additionally *requires and verifies*
  client certificates (mTLS).

What auth does and does not protect is documented in
docs/ROBUSTNESS.md ("Security model"); the short version is that the
cluster wire carries pickles, so HMAC auth is what makes the
"trusted cluster" stance enforceable instead of aspirational, and TLS
is what keeps the secret-derived proofs and the netlists confidential
on a shared network.

Every knob here is execution/deployment configuration: none of it
enters :func:`~repro.mct.options_fingerprint`, so checkpoints and
cached results move freely between plaintext and TLS deployments —
the byte-identical contract the CI jobs assert.
"""

from __future__ import annotations

import hmac
import os
import ssl

from repro.errors import OptionsError

#: Environment fallback for the cluster shared secret (``--secret-file``
#: wins when both are set).
SECRET_ENV = "REPRO_MCT_SECRET"
#: Environment fallback for the daemon's HTTP bearer token.
TOKEN_ENV = "REPRO_MCT_TOKEN"


class ProtocolError(ConnectionError):
    """A malformed, oversized, or truncated wire frame.

    Subclasses :class:`ConnectionError` so every existing reader loop
    (worker connection threads, the coordinator's receive loop, the
    connect handshake) already handles it as "this peer is broken" —
    a hostile or buggy peer can terminate its own connection, never
    crash a thread or allocate unbounded memory.
    """


class AuthenticationError(ConnectionError):
    """The peer's credentials are wrong (or missing, or unexpected).

    Distinct from liveness loss on purpose: a worker that fails the
    handshake is *permanently* unusable for this session — retrying or
    backing off cannot fix a wrong secret — so the supervision ladder
    records it under ``auth_failures`` and never dispatches to it.
    """


def load_secret(
    path: str | os.PathLike | None,
    env_var: str | None = None,
    *,
    what: str = "secret",
) -> bytes | None:
    """Resolve a shared secret: file first, then environment, else None.

    File contents and environment values are stripped of surrounding
    whitespace (a trailing newline is an artifact of how the secret was
    written, not part of it).  An unreadable or empty source is an
    :class:`~repro.errors.OptionsError` — a configured-but-broken
    secret must never silently degrade to "no auth".
    """
    if path is not None:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise OptionsError(f"cannot read {what} file {path}: {exc}") from exc
        secret = data.strip()
        if not secret:
            raise OptionsError(f"{what} file {path} is empty")
        return secret
    if env_var:
        value = os.environ.get(env_var)
        if value is not None:
            secret = value.strip().encode("utf-8")
            if not secret:
                raise OptionsError(f"environment {env_var} is set but empty")
            return secret
    return None


def new_nonce() -> str:
    """A fresh 128-bit hex nonce for one handshake challenge."""
    return os.urandom(16).hex()


def hmac_proof(secret: bytes, protocol: str, role: str, nonce: str) -> str:
    """HMAC-SHA256 proof of ``secret`` over one challenge nonce.

    Domain separation: the protocol string keys the proof to this wire
    format, and ``role`` ("client"/"server") makes the two directions
    of the mutual handshake distinct, so a proof recorded in one
    direction can never be replayed in the other.
    """
    message = f"{protocol}|{role}|{nonce}".encode("utf-8")
    return hmac.new(secret, message, "sha256").hexdigest()


def constant_time_eq(a: str | bytes, b: str | bytes) -> bool:
    """Timing-safe equality of two tokens/digests (either may be junk)."""
    if isinstance(a, str):
        a = a.encode("utf-8")
    if isinstance(b, str):
        b = b.encode("utf-8")
    return hmac.compare_digest(a, b)


def check_bearer(header_value: str | None, token: bytes) -> bool:
    """Validate one ``Authorization`` header against the bearer token."""
    if not header_value:
        return False
    scheme, _, credential = header_value.strip().partition(" ")
    if scheme.lower() != "bearer":
        return False
    return constant_time_eq(credential.strip(), token)


def build_server_context(
    certfile: str,
    keyfile: str,
    cafile: str | None = None,
) -> ssl.SSLContext:
    """A server-side TLS context for a listener (worker or daemon).

    With ``cafile`` the server also *requires* a client certificate
    signed by that CA (mTLS); without it any client may connect (and
    the HMAC/bearer layer still authenticates them).
    """
    try:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(certfile=certfile, keyfile=keyfile)
        if cafile is not None:
            context.load_verify_locations(cafile=cafile)
            context.verify_mode = ssl.CERT_REQUIRED
    except (OSError, ssl.SSLError) as exc:
        raise OptionsError(f"cannot build server TLS context: {exc}") from exc
    return context


def build_client_context(
    cafile: str,
    certfile: str | None = None,
    keyfile: str | None = None,
) -> ssl.SSLContext:
    """A client-side TLS context trusting exactly one CA bundle.

    Hostname checking is off by design: fleets are addressed by
    ``host:port`` pairs that are usually raw IPs, and the trust root is
    the operator-provided CA (typically the self-signed fleet cert
    itself), not a public PKI name.  The server certificate is still
    fully chain-verified against that CA.  ``certfile``/``keyfile``
    attach a client certificate for servers that demand mTLS.
    """
    try:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
        context.load_verify_locations(cafile=cafile)
        context.check_hostname = False
        context.verify_mode = ssl.CERT_REQUIRED
        if certfile is not None:
            context.load_cert_chain(certfile=certfile, keyfile=keyfile)
    except (OSError, ssl.SSLError) as exc:
        raise OptionsError(f"cannot build client TLS context: {exc}") from exc
    return context
