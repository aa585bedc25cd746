"""Newline-delimited JSON wire format for the challenge-response protocol.

Every message is one JSON object per line, serialized canonically (sorted
keys, compact separators) so transcripts are byte-stable.  Messages carry a
``type`` tag and protocol version ``v``.
"""
from __future__ import annotations

import json
import socket
from typing import Any

import numpy as np

PROTOCOL_VERSION = 1
MAX_LINE_BYTES = 64 * 1024 * 1024

MESSAGE_TYPES = ("hello", "challenge", "answer", "verdict", "error")

ERROR_CODES = (
    "unknown-serial",
    "already-redeemed",
    "attempt-budget-exceeded",
    "protocol-error",
)


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
    def pair(cls) -> tuple["LineChannel", "LineChannel"]:
        a, b = socket.socketpair()
        return cls(a), cls(b)

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 10.0) -> "LineChannel":
        return cls(socket.create_connection((host, port), timeout=timeout))

    def send(self, message: dict[str, Any]) -> None:
        self._sock.sendall(serialize(message))

    def recv(self) -> dict[str, Any] | None:
        """Next message, or None on clean EOF.

        Only the newest chunk is searched for the newline and the pending
        chunks are joined once, so a line costs time linear in its length.
        """
        chunk, parts, size = self._buffer, [], 0
        cut = chunk.find(b"\n")
        while cut < 0:
            parts.append(chunk)
            size += len(chunk)
            if size > MAX_LINE_BYTES:
                self._buffer = b"".join(parts)
                raise ProtocolError("message exceeds line limit")
            chunk = self._sock.recv(65536)
            if not chunk:
                self._buffer = b"".join(parts)
                if size:
                    raise ProtocolError("connection closed mid-message")
                return None
            cut = chunk.find(b"\n")
        parts.append(chunk[:cut])
        self._buffer = chunk[cut + 1:]
        return parse(b"".join(parts))

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
    # outcome bits travel as "0"/"1" strings
    bits = np.asarray(outcomes)
    ones = bits == 1
    if not (ones | (bits == 0)).all():
        raise ValueError("outcome bits must be 0 or 1")
    return _base("answer") | {"question_id": question_id,
                              "outcomes": np.where(ones, "1", "0").tolist()}


def decode_outcomes(grid) -> np.ndarray:
    """Inverse of the answer_message bit encoding: the validated uint8 bit array."""
    cells = np.array(grid, dtype=object)
    if cells.ndim != 3 or cells.shape[2] != 2:
        raise ProtocolError(f"malformed outcomes grid: not (blocks, positions, 2): {cells.shape}")
    ones = cells == "1"
    bad = ~(ones | (cells == "0"))
    if bad.any():
        raise ProtocolError("malformed outcomes grid: outcome bit must be '0' or '1', "
                            f"got {cells[bad][0]!r}")
    return ones.view(np.uint8)


def verdict_message(accepted: bool, reason: str | None = None) -> dict[str, Any]:
    # a verdict discloses the boolean and a reason code, never per-block scores
    return _base("verdict") | {"accepted": bool(accepted), "reason": reason}


def error_message(code: str, detail: str = "") -> dict[str, Any]:
    if code not in ERROR_CODES:
        raise ProtocolError(f"unknown error code: {code}")
    return _base("error") | {"code": code, "detail": detail}
