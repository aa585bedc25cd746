"""Secret store records, persistence, budgets, token files."""
import io
import json
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from qtokens.core import CV_PAIRS, PROJECTOR_STACK, CvToken, Token
from qtokens.store import (SecretStore, UnknownSerialError, labels_from_strings,
                           read_token, write_token)


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


@pytest.mark.parametrize("n, r, pairs, error", [
    (1, 3, np.zeros((1, 3, 2), dtype=np.uint8), ValueError),    # [Z+, Z+]
    (1, 2, np.array([[[4, 2], [0, 2]]], dtype=np.uint8), ValueError),  # [Y+, X+]
    (2, 2, CV_PAIRS[:2].reshape(1, 2, 2), ValueError),          # fewer pairs than n * r
    (0, 2, CV_PAIRS[:0].reshape(0, 2, 2), ValueError),          # no blocks
    (1, 3, np.zeros((1, 3, 2)), IndexError),                    # float indices
    (1, 2, np.array([[[0, 2], [6, 1]]]), IndexError),           # an index past Y-
], ids=["both-z", "y-member", "shape-off-layout", "no-blocks", "float-zeros", "index-6"])
def test_add_cv_refuses_what_load_would_refuse(tmp_path, n, r, pairs, error):
    store = SecretStore(tmp_path / "store.json")
    with pytest.raises(error):
        store.add_cv("x", n, r, Fraction(3, 4), pairs)
    with pytest.raises(UnknownSerialError):
        store.get("x")
    store.add_cv("x", 1, 3, Fraction(3, 4), CV_PAIRS[:3].reshape(1, 3, 2))
    store.save()
    assert SecretStore(store.path).get("x") == store.get("x")


def test_duplicate_serial_rejected():
    store = SecretStore()
    store.add_qticket("dup", LABELS6, Fraction(1, 2))
    with pytest.raises(ValueError):
        store.add_qticket("dup", LABELS6, Fraction(1, 2))
    with pytest.raises(ValueError):
        store.add_cv("dup", 1, 3, Fraction(1, 2), CV_PAIRS[:3].reshape(1, 3, 2))


def test_add_refuses_thresholds_outside_unit_interval():
    store = SecretStore()
    for f_tol in (Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError, match=r"f_tol must lie in \[0, 1\]"):
            store.add_qticket("m", LABELS6, f_tol)
        with pytest.raises(ValueError, match=r"f_tol must lie in \[0, 1\]"):
            store.add_cv("p", 1, 3, f_tol, CV_PAIRS[:3].reshape(1, 3, 2))
    with pytest.raises(UnknownSerialError):
        store.get("m")
    store.add_qticket("zero", LABELS6, Fraction(0))
    store.add_cv("one", 1, 3, 1, CV_PAIRS[:3].reshape(1, 3, 2))
    assert store.get("zero")["f_tol"] == "0/1" and store.get("one")["f_tol"] == "1/1"


def test_unknown_serial_error_message():
    store = SecretStore()
    with pytest.raises(UnknownSerialError, match="unknown-serial: ghost"):
        store.get("ghost")


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "store.json"
    store = SecretStore(path)
    store.add_qticket("s1", LABELS6, Fraction(9, 10), issued_copies=2)
    store.add_cv("s2", 2, 3, Fraction(3, 4), CV_PAIRS[:6].reshape(2, 3, 2))
    store.try_accept("s1")
    store.stash_question("s2", ["Z", "X"])
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


PAIR = ["Z+", "X+"]


@pytest.mark.parametrize("changes", [
    {"f_tol": 0.9},
    {"accepted_count": True},
    {"accepted_count": "0"},
    {"serial": 7},
    {"issued_copies": None},
    {"attempts": None},
    {"f_tol": "1/0"},
    {"f_tol": "3/2"},
    {"f_tol": "-1/2"},
    {"f_tol": "0.9"},
    {"f_tol": " 9/10"},
    {"question": 5},
    {"question": ["Q"]},
    {"question": ["Z", "X"]},
    {"labels": ["Z+", "Q+"]},
    {"labels": [["Z+"]]},
    {"labels": []},
    {"pairs": [PAIR, PAIR, ["Q+", "X+"]]},
    {"pairs": [PAIR, PAIR]},
    {"pairs": [PAIR, PAIR, PAIR + ["Z-"]]},
    {"pairs": ["Z+", "X+", "Z-"]},
    {"pairs": [PAIR, PAIR, [["Z+"], "X+"]]},
    {"pairs": [PAIR, PAIR, ["Z+", "Z-"]]},
    {"pairs": [PAIR, PAIR, ["Y+", "X+"]]},
    {"n": 0, "question": None},
    {"n": -1, "r": -3, "question": None},
    {"issued_copies": 0},
    {"accepted_count": -1},
    {"attempts": -1},
], ids=["f_tol-float", "count-bool", "count-string", "serial-int",
        "qticket-without-copies", "cv-without-attempts", "f_tol-zero-denominator",
        "f_tol-above-one", "f_tol-negative", "f_tol-decimal", "f_tol-padded",
        "question-int", "question-unknown-axis", "question-too-long",
        "label-unknown", "label-nested", "labels-empty", "pair-unknown-label",
        "pairs-too-few", "pair-of-three", "pairs-of-strings", "pair-nested",
        "pair-both-z", "pair-with-y",
        "n-zero", "n-and-r-negative", "copies-zero", "count-negative",
        "attempts-negative"])
def test_load_rejects_records_off_the_layout(tmp_path, changes):
    path = tmp_path / "store.json"
    store = SecretStore(path)
    store.add_qticket("s1", LABELS6, Fraction(9, 10))
    store.add_cv("s2", 1, 3, Fraction(3, 4), CV_PAIRS[:3].reshape(1, 3, 2))
    store.stash_question("s2", ["X"])
    store.save()
    data = json.loads(path.read_text())
    for rec in data["serials"]:
        for field, value in changes.items():
            if field in rec:
                if value is None:
                    del rec[field]
                else:
                    rec[field] = value
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="malformed store file"):
        SecretStore(path)


def test_load_accepts_the_smallest_records(tmp_path):
    path = tmp_path / "store.json"
    store = SecretStore(path)
    store.add_qticket("m", LABELS6[:1], Fraction(0))
    store.add_cv("p", 1, 1, Fraction(1), np.array([[[0, 2]]], dtype=np.uint8))
    store.try_accept("m")
    store.save()
    again = SecretStore(path)
    assert again.get("m") == store.get("m") and again.get("p") == store.get("p")


def test_save_requires_path():
    with pytest.raises(ValueError):
        SecretStore().save()


def test_try_accept_budget():
    store = SecretStore()
    store.add_qticket("s", LABELS6, Fraction(1, 2), issued_copies=2)
    assert store.try_accept("s")
    assert not store.spent("s")
    assert store.try_accept("s")
    assert store.spent("s")
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
    store.add_cv("s", 1, 2, Fraction(1, 2), CV_PAIRS[:2].reshape(1, 2, 2))
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
    store.add_cv("s", 1, 2, Fraction(1, 2), CV_PAIRS[:2].reshape(1, 2, 2))
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
    # mixed states with complex coherences
    qubits = 0.7 * PROJECTOR_STACK[[0, 2, 4, 5]] + 0.3 * np.eye(2) / 2
    write_token(path, Token("serial-x", qubits))
    back = read_token(path)
    assert type(back) is Token and back.serial == "serial-x" and not back.consumed
    np.testing.assert_allclose(back.qubits, qubits, atol=1e-15)
    payload = json.loads(path.read_text())
    assert set(payload) == {"kind", "serial", "qubits"} and payload["kind"] == "qticket"
    paired = PROJECTOR_STACK[np.array([[[0, 2], [3, 1]]])]    # (1, 2, 2, 2, 2)
    write_token(path, CvToken("serial-y", paired))
    back = read_token(path)
    assert type(back) is CvToken and back.shape == (1, 2)
    np.testing.assert_array_equal(back.qubits, paired)
    assert json.loads(path.read_text())["kind"] == "cv"


@pytest.mark.parametrize("kind, qubits", [
    ("qticket", PROJECTOR_STACK[np.array([[[0, 2]]])]),
    ("cv", PROJECTOR_STACK[[0, 2]]),
    ("cv", np.zeros((0, 2, 2, 2, 2))),
    ("cv", 2 * PROJECTOR_STACK[np.array([[[0, 2]]])]),
    ("other", PROJECTOR_STACK[[0, 2]]),
], ids=["qticket-with-paired-stack", "cv-with-measured-stack", "cv-empty",
        "cv-trace-2", "unknown-kind"])
def test_read_token_checks_the_stack_of_the_kind(tmp_path, kind, qubits):
    path = tmp_path / "token.json"
    pairs = np.stack([qubits.real, qubits.imag], axis=-1).tolist()
    path.write_text(json.dumps({"kind": kind, "serial": "s", "qubits": pairs}))
    with pytest.raises(ValueError):
        read_token(path)


def test_labels_from_strings_round_trip():
    idx = labels_from_strings(["Z+", "Y-", "X+"])
    assert idx.dtype == np.uint8
    np.testing.assert_array_equal(idx, [0, 5, 2])
    for bad in (["Q+"], ["Z+", "Q+"], [None], [["Z+"]]):
        with pytest.raises(ValueError):
            labels_from_strings(bad)


def _two_record_store(path) -> SecretStore:
    store = SecretStore(path)
    store.add_qticket("m", np.array([0, 3], dtype=np.uint8), Fraction(5, 6))
    store.add_cv("p", 1, 2, Fraction(3, 4), np.array([[[0, 2], [3, 1]]], dtype=np.uint8))
    store.stash_question("p", ["X"])
    return store


def test_save_writes_one_compact_line(tmp_path):
    path = tmp_path / "store.json"
    _two_record_store(path).save()
    assert path.read_bytes() == (
        b'{"version":1,"serials":['
        b'{"serial":"m","labels":["Z+","X-"],"f_tol":"5/6",'
        b'"issued_copies":1,"accepted_count":0},'
        b'{"serial":"p","n":1,"r":2,"f_tol":"3/4","pairs":[["Z+","X+"],["X-","Z-"]],'
        b'"attempts":0,"accepted_count":0,"question":["X"]}]}\n')
    assert not (tmp_path / "store.json.tmp").exists()
    SecretStore(tmp_path / "empty.json").save()
    assert (tmp_path / "empty.json").read_bytes() == b'{"version":1,"serials":[]}\n'


def test_indented_store_of_earlier_versions_loads(tmp_path):
    # earlier versions wrote json.dump(payload, fh, indent=1) plus a newline
    fresh = _two_record_store(None)
    payload = {"version": 1, "serials": [fresh.get("m"), fresh.get("p")]}
    path = tmp_path / "store.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    old = SecretStore(path)
    assert old.get("m") == fresh.get("m") and old.get("p") == fresh.get("p")
    old.save()
    again = SecretStore(path)
    assert again.get("m") == fresh.get("m") and again.get("p") == fresh.get("p")
    assert json.loads(path.read_text()) == payload


def test_write_token_bytes_match_json_dump(tmp_path):
    # token files keep json.dump's default separators, byte for byte
    path = tmp_path / "token.json"
    write_token(path, Token("s", np.array([[[1, 0], [0, 0]]], dtype=complex)))
    assert path.read_bytes() == (b'{"kind": "qticket", "serial": "s", "qubits": '
                                 b'[[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}\n')
    qubits = np.array([[[0.5, 0.5j], [-0.5j, 0.5]]])
    write_token(path, CvToken("serial-y", qubits))
    dumped = io.StringIO()
    json.dump({"kind": "cv", "serial": "serial-y",
               "qubits": np.stack([qubits.real, qubits.imag], axis=-1).tolist()}, dumped)
    assert path.read_text() == dumped.getvalue() + "\n"


@pytest.mark.skipif(json.encoder.c_make_encoder is None,
                    reason="this Python has no C JSON encoder")
def test_store_and_token_files_bypass_the_pure_python_encoder(tmp_path, monkeypatch):
    def slow_path(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder used")

    store = _two_record_store(tmp_path / "store.json")
    monkeypatch.setattr(json.encoder, "_make_iterencode", slow_path)
    with pytest.raises(AssertionError, match="pure-Python"):
        json.dumps({"a": 1}, indent=1)       # the patch does reach the slow path
    store.save()
    write_token(tmp_path / "token.json", Token("s", np.eye(2)[None] / 2))
    assert SecretStore(tmp_path / "store.json").get("p") == store.get("p")


DEEP = "[" * 100_000


def test_deeply_nested_files_are_malformed(tmp_path):
    store_path = tmp_path / "store.json"
    store_path.write_text('{"version":1,"serials":' + DEEP)
    with pytest.raises(ValueError, match="malformed store file"):
        SecretStore(store_path)
    token_path = tmp_path / "token.json"
    token_path.write_text('{"kind":"qticket","serial":"s","qubits":' + DEEP)
    with pytest.raises(ValueError, match="malformed token file"):
        read_token(token_path)
