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

A paired-token record may also hold the last "question" asked, one of
"Z"/"X" per block.  Every "f_tol" is written and read as "p/q" with
0 <= p <= q and q >= 1.  Labels are non-empty and named as in
``qtokens.core.LABELS``; n, r and "issued_copies" are >= 1, "pairs" holds
n * r two-name lists, each pair one Z and one X eigenstate (in either order),
and no counter is negative.

The file is one compact JSON line; ``load`` also reads the indented form
that earlier versions wrote.

Acceptance and attempt counters are bumped under a lock with
compare-and-increment semantics so concurrent verifier threads of one
process cannot overshoot a serial's budget.  The lock serialises threads
only: two processes that each load, change and save one file are not yet
serialised, and the later save wins.
"""
from __future__ import annotations

import json
import os
import re
import threading
from fractions import Fraction
from typing import Any

import numpy as np

from .core import AXIS_NAMES, CV_PAIRS, LABELS, CvToken, Token, check_token_stack
from .rational import as_fraction

STORE_VERSION = 1

#: Axis names a paired-token challenge may ask (those of qtokens.cv).
_CHALLENGE_AXES = AXIS_NAMES[:2]


class UnknownSerialError(LookupError):
    """Lookup of a serial the verifier never issued ("unknown-serial")."""


_THRESHOLD = re.compile(r"([0-9]+)/([0-9]+)")


def _is_threshold(text: str) -> bool:
    """True for the "p/q" spelling of a threshold in [0, 1]: 0 <= p <= q, q >= 1."""
    match = _THRESHOLD.fullmatch(text)
    if match is None:
        return False
    p, q = int(match[1]), int(match[2])
    return p <= q and q >= 1


def _threshold_str(f_tol: Fraction) -> str:
    f = as_fraction(f_tol)
    text = f"{f.numerator}/{f.denominator}"
    if not _is_threshold(text):
        raise ValueError(f"f_tol must lie in [0, 1], got {text}")
    return text


_COMMON_FIELDS = {"serial": str, "f_tol": str, "accepted_count": int}
_QTICKET_FIELDS = {"labels": list, "issued_copies": int}
_CV_FIELDS = {"n": int, "r": int, "pairs": list, "attempts": int}


def _has_fields(rec: dict, fields: dict[str, type]) -> bool:
    # exact type match: JSON true/false must not pass for an int
    return tuple(map(type, map(rec.get, fields))) == tuple(fields.values())


def _valid_question(rec: dict) -> bool:
    """No stashed question, or one challenge axis per block of a paired record."""
    if "question" not in rec:
        return True
    question = rec["question"]
    return (isinstance(question, list) and len(question) == rec.get("n")
            and all(axis in _CHALLENGE_AXES for axis in question))


_LABEL_CODES = {name: i for i, name in enumerate(LABELS)}
#: The names of the eight pairs a paired token holds (core.CV_PAIRS).
_PAIR_NAMES = {(LABELS[a], LABELS[b]) for a, b in CV_PAIRS}
#: _IS_PAIR[a, b] is True when label indices (a, b) form one of core.CV_PAIRS.
_IS_PAIR = np.zeros((len(LABELS), len(LABELS)), dtype=bool)
_IS_PAIR[tuple(CV_PAIRS.T)] = True
_LABEL_NAMES = np.asarray(LABELS, dtype=object)


def _valid_kind(rec: dict) -> bool:
    # whole-list operations only (set, map): every load reads every record
    try:
        if _has_fields(rec, _QTICKET_FIELDS):
            labels = rec["labels"]
            return (rec["issued_copies"] >= 1 and labels != []
                    and set(labels) <= _LABEL_CODES.keys())
        pairs = rec.get("pairs")
        if not (_has_fields(rec, _CV_FIELDS) and min(rec["n"], rec["r"]) >= 1
                and rec["attempts"] >= 0 and len(pairs) == rec["n"] * rec["r"]
                and set(map(type, pairs)) == {list}):
            return False
        return set(map(tuple, pairs)) <= _PAIR_NAMES
    except TypeError:       # an unhashable name
        return False


def _valid_record(rec: Any) -> bool:
    """True for a measured-token or a paired-token record of the layout above."""
    return (isinstance(rec, dict) and _has_fields(rec, _COMMON_FIELDS)
            and rec["accepted_count"] >= 0 and _is_threshold(rec["f_tol"])
            and _valid_question(rec) and _valid_kind(rec))


def _read_json(path: str | os.PathLike, what: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"malformed {what} file {path}: nested too deeply") from None


def _spent(rec: dict) -> bool:
    """The one budget rule: a serial is spent once accepted as often as its
    copies were issued (one for a paired token)."""
    return rec["accepted_count"] >= rec.get("issued_copies", 1)


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
        data = _read_json(self.path, "store")
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
        # json.dump to a file never takes the C encoder; dumps of one record
        # at a time does, without buffering the whole store twice
        records = ",".join(json.dumps(rec, separators=(",", ":"))
                           for rec in self._records.values())
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f'{{"version":{STORE_VERSION},"serials":[{records}]}}\n')
        os.replace(tmp, self.path)

    # -- record management ----------------------------------------------
    def _add(self, rec: dict[str, Any]) -> None:
        with self._lock:
            if rec["serial"] in self._records:
                raise ValueError(f"serial {rec['serial']} already present")
            self._records[rec["serial"]] = rec

    def add_qticket(self, serial: str, labels: np.ndarray, f_tol: Fraction,
                    issued_copies: int = 1) -> None:
        self._add({"serial": serial, "labels": [LABELS[i] for i in np.asarray(labels)],
                   "f_tol": _threshold_str(f_tol), "issued_copies": int(issued_copies),
                   "accepted_count": 0})

    def add_cv(self, serial: str, n: int, r: int, f_tol: Fraction,
               pairs: np.ndarray) -> None:
        """``pairs``: (n, r, 2) array of label indices, each pair one of
        ``core.CV_PAIRS``, the only pairs ``load`` reads back; an index past
        the labels raises IndexError."""
        pairs = np.asarray(pairs)
        if (min(n, r) < 1 or pairs.shape != (n, r, 2)
                or not _IS_PAIR[pairs[..., 0], pairs[..., 1]].all()):
            raise ValueError(f"pairs must be ({n}, {r}, 2) label indices of core.CV_PAIRS")
        self._add({"serial": serial, "n": int(n), "r": int(r),
                   "f_tol": _threshold_str(f_tol),
                   "pairs": _LABEL_NAMES[pairs.reshape(-1, 2)].tolist(), "attempts": 0,
                   "accepted_count": 0})

    def get(self, serial: str) -> dict[str, Any]:
        try:
            return self._records[serial]
        except KeyError:
            raise UnknownSerialError(f"unknown-serial: {serial}") from None

    # -- accounting ------------------------------------------------------
    def spent(self, serial: str) -> bool:
        """True once the serial has no acceptance left."""
        return _spent(self.get(serial))

    def try_accept(self, serial: str) -> bool:
        """Atomically count an acceptance if the serial's budget allows it."""
        with self._lock:
            rec = self.get(serial)
            if _spent(rec):
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
            if _spent(rec):
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

def _decode_stack(payload: list) -> np.ndarray:
    arr = np.asarray(payload, dtype=float)
    if arr.shape[-1:] != (2,):
        raise ValueError(f"entries must be [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


#: The token class of each token file kind.
_TOKEN_KINDS = {"qticket": Token, "cv": CvToken}


def write_token(path: str | os.PathLike, token: Token) -> None:
    """Write a token file: its kind follows the token's class, and each
    complex entry is an [re, im] pair."""
    q = token.qubits
    payload = {"kind": "cv" if isinstance(token, CvToken) else "qticket",
               "serial": token.serial, "qubits": np.stack([q.real, q.imag], -1).tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload) + "\n")


def read_token(path: str | os.PathLike) -> Token:
    """Read a token file; raises ValueError unless its qubits form the
    stack of density matrices its kind asks for."""
    data = _read_json(path, "token")
    try:
        kind, serial = data["kind"], data["serial"]
        if not (isinstance(kind, str) and isinstance(serial, str)):
            raise TypeError("kind and serial must be strings")
        if kind not in _TOKEN_KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        qubits = _decode_stack(data["qubits"])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"malformed token file {path}: {exc}") from exc
    cls = _TOKEN_KINDS[kind]
    return cls(serial, check_token_stack(qubits, paired=cls is CvToken))


def labels_from_strings(strings: list[str]) -> np.ndarray:
    """Label names (their JSON spelling) -> uint8 label indices."""
    try:
        return np.fromiter((_LABEL_CODES[s] for s in strings), dtype=np.uint8,
                           count=len(strings))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"unknown label {exc}") from None
