"""JSON-backed secret store and token (de)serialization.

Store layout::

    {"version": 1,
     "serials": [
        {"serial": ..., "labels": ["Z+", ...], "f_tol": "p/q",
         "issued_copies": 1, "accepted_count": 0},                 # measured token
        {"serial": ..., "n": 4, "r": 2, "f_tol": "3/4",
         "pairs": [["Z+", "X+"], ...],
         "attempts": 0, "accepted_count": 0}                       # paired token
     ]}

Acceptance and attempt counters are bumped under a lock with
compare-and-increment semantics so concurrent verifier threads cannot
overshoot a serial's budget.
"""
from __future__ import annotations

import json
import os
import threading
from fractions import Fraction
from typing import Any

import numpy as np

from .core import LABELS
from .rational import as_fraction

STORE_VERSION = 1


class UnknownSerialError(LookupError):
    """Lookup of a serial the verifier never issued ("unknown-serial")."""


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


_COMMON_FIELDS = {"serial": str, "f_tol": str, "accepted_count": int}
_QTICKET_FIELDS = {"labels": list, "issued_copies": int}
_CV_FIELDS = {"n": int, "r": int, "pairs": list, "attempts": int}


def _has_fields(rec: dict, fields: dict[str, type]) -> bool:
    # exact type match: JSON true/false must not pass for an int
    return all(type(rec.get(key)) is kind for key, kind in fields.items())


def _valid_record(rec: Any) -> bool:
    """True for a measured-token or a paired-token record of the layout above."""
    return (isinstance(rec, dict) and _has_fields(rec, _COMMON_FIELDS)
            and (_has_fields(rec, _QTICKET_FIELDS) or _has_fields(rec, _CV_FIELDS)))


class SecretStore:
    """In-memory mirror of the JSON store, optionally bound to a path."""

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = os.fspath(path) if path is not None else None
        self._records: dict[str, dict[str, Any]] = {}
        self._lock = threading.Lock()
        if self.path is not None and os.path.exists(self.path):
            self.load()

    # -- persistence ---------------------------------------------------
    def load(self) -> None:
        with open(self.path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"malformed store file {self.path}: not a JSON object")
        if data.get("version") != STORE_VERSION:
            raise ValueError(f"unsupported store version {data.get('version')!r} "
                             f"in {self.path}")
        serials = data.get("serials")
        if not isinstance(serials, list) or not all(map(_valid_record, serials)):
            raise ValueError(f"malformed store file {self.path}: "
                             "expected a 'serials' list of version-1 records")
        self._records = {rec["serial"]: rec for rec in serials}

    def save(self) -> None:
        if self.path is None:
            raise ValueError("store has no backing path")
        payload = {"version": STORE_VERSION, "serials": list(self._records.values())}
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, self.path)

    # -- record management ----------------------------------------------
    def add_qticket(self, serial: str, labels: np.ndarray, f_tol: Fraction,
                    issued_copies: int = 1) -> None:
        with self._lock:
            if serial in self._records:
                raise ValueError(f"serial {serial} already present")
            self._records[serial] = {
                "serial": serial,
                "labels": [LABELS[i] for i in np.asarray(labels)],
                "f_tol": _fraction_str(as_fraction(f_tol)),
                "issued_copies": int(issued_copies),
                "accepted_count": 0,
            }

    def add_cv(self, serial: str, n: int, r: int, f_tol: Fraction,
               pairs: np.ndarray) -> None:
        """``pairs``: (n, r, 2) array of label indices."""
        flat = [[LABELS[a], LABELS[b]] for a, b in np.asarray(pairs).reshape(-1, 2)]
        with self._lock:
            if serial in self._records:
                raise ValueError(f"serial {serial} already present")
            self._records[serial] = {
                "serial": serial,
                "n": int(n),
                "r": int(r),
                "f_tol": _fraction_str(as_fraction(f_tol)),
                "pairs": flat,
                "attempts": 0,
                "accepted_count": 0,
            }

    def get(self, serial: str) -> dict[str, Any]:
        try:
            return self._records[serial]
        except KeyError:
            raise UnknownSerialError(f"unknown-serial: {serial}") from None

    # -- accounting ------------------------------------------------------
    def try_accept(self, serial: str) -> bool:
        """Atomically count an acceptance if the serial's budget allows it."""
        with self._lock:
            rec = self.get(serial)
            budget = rec.get("issued_copies", 1)
            if rec["accepted_count"] >= budget:
                return False
            rec["accepted_count"] += 1
            return True

    def begin_attempt(self, serial: str, max_attempts: int) -> str | None:
        """Atomically admit one verification attempt on a paired serial.

        Returns the refusal reason ("already-redeemed", then
        "attempt-budget-exceeded"), or None once the attempt is counted.
        """
        with self._lock:
            rec = self.get(serial)
            if rec["accepted_count"] >= 1:
                return "already-redeemed"
            if rec["attempts"] >= max_attempts:
                return "attempt-budget-exceeded"
            rec["attempts"] += 1
            return None

    def stash_question(self, serial: str, axes: list[str]) -> None:
        with self._lock:
            self.get(serial)["question"] = list(axes)

    def stashed_question(self, serial: str) -> list[str] | None:
        return self.get(serial).get("question")


# -- token payload serialization ---------------------------------------

def _encode_stack(stack: np.ndarray) -> list:
    """Complex array -> nested lists of [re, im] pairs (row-major)."""
    pairs = np.stack([stack.real, stack.imag], axis=-1)
    return pairs.tolist()


def _decode_stack(payload: list) -> np.ndarray:
    arr = np.asarray(payload, dtype=float)
    if arr.shape[-1:] != (2,):
        raise ValueError(f"entries must be [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def token_payload(serial: str, qubits: np.ndarray, kind: str) -> dict[str, Any]:
    return {"kind": kind, "serial": serial, "qubits": _encode_stack(qubits)}


def write_token(path: str | os.PathLike, serial: str, qubits: np.ndarray,
                kind: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(token_payload(serial, qubits, kind), fh)
        fh.write("\n")


def read_token(path: str | os.PathLike) -> tuple[str, str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        kind, serial = data["kind"], data["serial"]
        if not (isinstance(kind, str) and isinstance(serial, str)):
            raise TypeError("kind and serial must be strings")
        return kind, serial, _decode_stack(data["qubits"])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"malformed token file {path}: {exc}") from exc


_LABEL_CODES = {name: i for i, name in enumerate(LABELS)}


def labels_from_strings(strings: list[str]) -> np.ndarray:
    """Label names (their JSON spelling) -> uint8 label indices."""
    try:
        return np.fromiter((_LABEL_CODES[s] for s in strings), dtype=np.uint8,
                           count=len(strings))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"unknown label {exc}") from None
