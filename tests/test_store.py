"""Secret store records, persistence, budgets, token files."""
import json
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from qtokens.store import (SecretStore, UnknownSerialError,
                           labels_from_strings, read_token, write_token)


LABELS6 = np.array([0, 1, 2, 3, 4, 5], dtype=np.uint8)


def test_qticket_record_schema():
    store = SecretStore()
    store.add_qticket("serial-a", LABELS6, Fraction(5, 6), issued_copies=3)
    rec = store.get("serial-a")
    assert set(rec) == {"serial", "labels", "f_tol", "issued_copies",
                        "accepted_count"}
    assert rec["labels"] == ["Z+", "Z-", "X+", "X-", "Y+", "Y-"]
    assert rec["f_tol"] == "5/6"
    assert rec["issued_copies"] == 3 and rec["accepted_count"] == 0
    with pytest.raises(UnknownSerialError):
        store.get("serial-b")


def test_cv_record_schema():
    store = SecretStore()
    pairs = np.array([[[0, 2], [3, 1]]], dtype=np.uint8)    # (1, 2, 2)
    store.add_cv("serial-b", 1, 2, Fraction(3, 4), pairs)
    rec = store.get("serial-b")
    assert set(rec) == {"serial", "n", "r", "f_tol", "pairs", "attempts",
                        "accepted_count"}
    assert rec["pairs"] == [["Z+", "X+"], ["X-", "Z-"]]


def test_duplicate_serial_rejected():
    store = SecretStore()
    store.add_qticket("dup", LABELS6, Fraction(1, 2))
    with pytest.raises(ValueError):
        store.add_qticket("dup", LABELS6, Fraction(1, 2))
    with pytest.raises(ValueError):
        store.add_cv("dup", 1, 3, Fraction(1, 2),
                     np.zeros((1, 3, 2), dtype=np.uint8))


def test_unknown_serial_error_message():
    store = SecretStore()
    with pytest.raises(UnknownSerialError, match="unknown-serial: ghost"):
        store.get("ghost")


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "store.json"
    store = SecretStore(path)
    store.add_qticket("s1", LABELS6, Fraction(9, 10), issued_copies=2)
    store.add_cv("s2", 2, 3, Fraction(3, 4), np.zeros((2, 3, 2), dtype=np.uint8))
    store.try_accept("s1")
    store.save()

    again = SecretStore(path)
    assert again.get("s1") == store.get("s1")
    assert again.get("s2") == store.get("s2")
    data = json.loads(path.read_text())
    assert data["version"] == 1
    assert {r["serial"] for r in data["serials"]} == {"s1", "s2"}


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "store.json"
    path.write_text('{"version": 99, "serials": []}')
    with pytest.raises(ValueError, match="version"):
        SecretStore(path)


@pytest.mark.parametrize("field, value", [
    ("f_tol", 0.9),
    ("accepted_count", True),
    ("accepted_count", "0"),
    ("serial", 7),
    ("issued_copies", None),
    ("attempts", None),
], ids=["f_tol-float", "count-bool", "count-string", "serial-int",
        "qticket-without-copies", "cv-without-attempts"])
def test_load_rejects_records_off_the_layout(tmp_path, field, value):
    path = tmp_path / "store.json"
    store = SecretStore(path)
    store.add_qticket("s1", LABELS6, Fraction(9, 10))
    store.add_cv("s2", 1, 3, Fraction(3, 4), np.zeros((1, 3, 2), dtype=np.uint8))
    store.save()
    data = json.loads(path.read_text())
    for rec in data["serials"]:
        if field in rec:
            if value is None:
                del rec[field]
            else:
                rec[field] = value
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="malformed store file"):
        SecretStore(path)


def test_save_requires_path():
    with pytest.raises(ValueError):
        SecretStore().save()


def test_try_accept_budget():
    store = SecretStore()
    store.add_qticket("s", LABELS6, Fraction(1, 2), issued_copies=2)
    assert store.try_accept("s")
    assert store.try_accept("s")
    assert not store.try_accept("s")
    assert store.get("s")["accepted_count"] == 2


def test_try_accept_is_race_safe():
    store = SecretStore()
    store.add_qticket("s", LABELS6, Fraction(1, 2), issued_copies=1)
    wins = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        if store.try_accept("s"):
            wins.append(1)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sum(wins) == 1


def test_begin_attempt_is_race_safe():
    store = SecretStore()
    store.add_cv("s", 1, 2, Fraction(1, 2), np.zeros((1, 2, 2), dtype=np.uint8))
    admitted = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait(timeout=10)
        if store.begin_attempt("s", max_attempts=3) is None:
            admitted.append(1)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # switch threads often to expose a lost update
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sum(admitted) == 3
    assert store.get("s")["attempts"] == 3


def test_record_attempt_and_stash():
    store = SecretStore()
    store.add_cv("s", 1, 2, Fraction(1, 2), np.zeros((1, 2, 2), dtype=np.uint8))
    assert store.stashed_question("s") is None
    assert store.begin_attempt("s", max_attempts=2) is None
    assert store.begin_attempt("s", max_attempts=2) is None
    assert store.begin_attempt("s", max_attempts=2) == "attempt-budget-exceeded"
    assert store.try_accept("s")
    # a redeemed serial is refused before its attempt budget is consulted
    assert store.begin_attempt("s", max_attempts=2) == "already-redeemed"
    assert store.begin_attempt("s", max_attempts=8) == "already-redeemed"
    rec = store.get("s")
    assert rec["attempts"] == 2 and rec["accepted_count"] == 1
    store.stash_question("s", ["Z", "X"])
    assert store.stashed_question("s") == ["Z", "X"]


def test_token_file_round_trip(tmp_path):
    path = tmp_path / "token.json"
    qubits = (np.arange(16).reshape(4, 2, 2)
              + 1j * np.arange(16, 32).reshape(4, 2, 2)) / 31.0
    write_token(path, "serial-x", qubits, kind="qticket")
    kind, serial, back = read_token(path)
    assert (kind, serial) == ("qticket", "serial-x")
    np.testing.assert_allclose(back, qubits, atol=1e-15)
    payload = json.loads(path.read_text())
    assert set(payload) == {"kind", "serial", "qubits"}


def test_labels_from_strings_round_trip():
    idx = labels_from_strings(["Z+", "Y-", "X+"])
    assert idx.dtype == np.uint8
    np.testing.assert_array_equal(idx, [0, 5, 2])
    for bad in (["Q+"], ["Z+", "Q+"], [None], [["Z+"]]):
        with pytest.raises(ValueError):
            labels_from_strings(bad)
