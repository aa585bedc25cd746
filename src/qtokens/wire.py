"""Newline-delimited JSON wire format for the challenge-response protocol.

Every message is one JSON object per line, serialized canonically (sorted
keys, compact separators) so transcripts are byte-stable.  Messages carry a
``type`` tag and protocol version ``v``.  Since version 2 an answer's bits
travel as one ASCII string of ``0``/``1`` in (block, pair, member) order,
``{"outcomes":"0110...","question_id":"...","type":"answer","v":2}``.  The
verifier knows the layout it challenged, so the string's length checks the
shape and one array operation checks the bits; version 1's nested grid of
one-character strings took five times the bytes and a walk over every cell.
"""
from __future__ import annotations

import json
import socket
import time
from typing import Any

import numpy as np

PROTOCOL_VERSION = 2
MAX_LINE_BYTES = 64 * 1024 * 1024

MESSAGE_TYPES = ("hello", "challenge", "answer", "verdict", "error")

ERROR_CODES = ("unknown-serial", "already-redeemed", "attempt-budget-exceeded",
               "protocol-error")


class ProtocolError(RuntimeError):
    pass


def serialize(message: dict[str, Any]) -> bytes:
    if message.get("type") not in MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type: {message.get('type')!r}")
    try:
        line = json.dumps(message, separators=(",", ":"), sort_keys=True,
                          allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unserializable message: {exc}") from exc
    return line.encode("utf-8") + b"\n"


def parse(line: bytes) -> dict[str, Any]:
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad message framing: {exc}") from exc
    except RecursionError:
        raise ProtocolError("bad message framing: nested too deeply") from None
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    if "v" in message and message["v"] != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version: {message['v']!r}")
    if message.get("type") not in MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type: {message.get('type')!r}")
    return message


class LineChannel:
    """Blocking line-oriented channel over a connected socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buffer = b""

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 10.0) -> "LineChannel":
        return cls(socket.create_connection((host, port), timeout=timeout))

    def send(self, message: dict[str, Any]) -> None:
        self._sock.sendall(serialize(message))

    def recv(self, limit: int = MAX_LINE_BYTES,
             timeout: float | None = None) -> dict[str, Any] | None:
        """Next message, or None on clean EOF.  A line over ``limit`` bytes
        (newline excluded) is refused after at most one more chunk.  Only the
        newest chunk is searched for the newline and the pending chunks are
        joined once, so a line costs time linear in its length.  With a
        ``timeout`` the whole line must arrive within that many seconds: each
        socket read waits only for what is left of it."""
        deadline = None if timeout is None else time.monotonic() + timeout
        chunk, parts, size = self._buffer, [], 0
        cut = chunk.find(b"\n")
        while cut < 0:
            parts.append(chunk)
            size += len(chunk)
            if size > limit:
                self._buffer = b"".join(parts)
                raise ProtocolError("message exceeds line limit")
            chunk = self._read(deadline)
            if not chunk:
                self._buffer = b"".join(parts)
                if size:
                    raise ProtocolError("connection closed mid-message")
                return None
            cut = chunk.find(b"\n")
        parts.append(chunk[:cut])
        self._buffer = chunk[cut + 1:]
        if size + cut > limit:
            raise ProtocolError("message exceeds line limit")
        return parse(b"".join(parts))

    def _read(self, deadline: float | None) -> bytes:
        if deadline is None:
            return self._sock.recv(65536)
        left = deadline - time.monotonic()
        if left <= 0:
            raise ProtocolError("timeout")
        saved = self._sock.gettimeout()
        self._sock.settimeout(left)
        try:
            return self._sock.recv(65536)
        except TimeoutError:
            raise ProtocolError("timeout") from None
        finally:
            self._sock.settimeout(saved)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "LineChannel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- message builders ----------------------------------------------------

def _base(msg_type: str) -> dict[str, Any]:
    return {"type": msg_type, "v": PROTOCOL_VERSION}


def hello_message(serial: str) -> dict[str, Any]:
    return _base("hello") | {"serial": serial}


def challenge_message(question_id: str, axes) -> dict[str, Any]:
    return _base("challenge") | {"question_id": question_id, "axes": list(axes)}


def answer_message(question_id: str, outcomes) -> dict[str, Any]:
    bits = np.asarray(outcomes)
    ones = bits == 1
    if not (ones | (bits == 0)).all():
        raise ValueError("outcome bits must be 0 or 1")
    text = (ones.astype(np.uint8) + ord("0")).tobytes().decode("ascii")
    return _base("answer") | {"question_id": question_id, "outcomes": text}


def decode_outcomes(text, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of the answer_message bit encoding: the validated (n, r, 2)
    uint8 bits for a layout of ``shape`` = (n blocks, r pairs)."""
    n, r = shape
    if not (isinstance(text, str) and text.isascii() and len(text) == n * r * 2):
        raise ProtocolError(f"malformed outcomes: not a string of {n * r * 2} ASCII bits")
    bits = np.frombuffer(text.encode("ascii"), np.uint8) - ord("0")
    if (bits > 1).any():
        raise ProtocolError("malformed outcomes: outcome bit must be '0' or '1'")
    return bits.reshape(n, r, 2)


def verdict_message(accepted: bool, reason: str | None = None) -> dict[str, Any]:
    # a verdict discloses the boolean and a reason code, never per-block scores
    return _base("verdict") | {"accepted": bool(accepted), "reason": reason}


def error_message(code: str, detail: str = "") -> dict[str, Any]:
    if code not in ERROR_CODES:
        raise ProtocolError(f"unknown error code: {code}")
    return _base("error") | {"code": code, "detail": detail}
