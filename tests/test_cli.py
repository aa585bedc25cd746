"""Command line surface: exit codes, sweep determinism, bound tables, demos."""
import json
import os
import socket
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles as O
from qtokens import cli
from qtokens.bounds import (cv_soundness_bound, relative_entropy,
                            security_bound, soundness_bound)
from qtokens.cli import ExperimentConfig, sweep_rows
from qtokens.qticket import double_acceptance_exact
from qtokens.attacks import PAIR_STRATEGIES, mixture_outcome_distribution
from qtokens.rng import default_seed
from qtokens.store import SecretStore, UnknownSerialError, write_token


# -- sweep ------------------------------------------------------------------

def test_sweep_header_names_columns():
    assert cli.SWEEP_HEADER == "f_tol,N,exact_prob,mc_prob,mc_stderr"


def test_sweep_rows_independent_of_worker_count():
    # trials above MC_CHUNK so the chunk-merge path is what we are freezing
    base = dict(seed=5, trials=60_000, sizes=(24,),
                ftol_grid=(Fraction(3, 4), Fraction(4, 5)))
    rows1 = sweep_rows(ExperimentConfig(jobs=1, **base))
    rows4 = sweep_rows(ExperimentConfig(jobs=4, **base))
    assert rows1 == rows4
    assert len(rows1) == 2


def test_sweep_row_columns_match_library():
    config = ExperimentConfig(seed=9, trials=30_000, sizes=(24,),
                              ftol_grid=(Fraction(3, 4),))
    (row,) = sweep_rows(config)
    f_tol, n, exact, p_hat, stderr = row.split(",")
    assert f_tol == "3/4" and n == "24"
    dist = mixture_outcome_distribution(PAIR_STRATEGIES["universal-cloner"])
    expect = double_acceptance_exact(24, Fraction(3, 4), dist)
    assert float(exact) == expect
    sigma = (expect * (1 - expect) / config.trials) ** 0.5
    assert abs(float(p_hat) - expect) < 4 * sigma
    assert float(stderr) == pytest.approx(sigma, rel=0.2)


def test_sweep_cli_writes_header_and_default_grid(capsys):
    rc = cli.main(["sweep", "--N", "16", "--trials", "200", "--seed", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == cli.SWEEP_HEADER
    assert len(lines) == 1 + 26
    assert lines[1].startswith("7/10,16,")
    assert lines[-1].startswith("19/20,16,")


def test_sweep_cli_out_file_matches_stdout(tmp_path, capsys):
    argv = ["sweep", "--N", "20", "--ftol", "4/5", "--trials", "500",
            "--seed", "2"]
    assert cli.main(argv) == 0
    stdout_text = capsys.readouterr().out
    path = tmp_path / "sweep.csv"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert path.read_text() == stdout_text


def test_sweep_config_validation():
    good = dict(seed=0, trials=10, sizes=(4,), ftol_grid=(Fraction(3, 4),))
    ExperimentConfig(**good)
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(**{**good, "trials": 0})
    with pytest.raises(ValueError, match="size"):
        ExperimentConfig(**{**good, "sizes": ()})
    with pytest.raises(ValueError, match="size"):
        ExperimentConfig(**{**good, "sizes": (4, -1)})
    with pytest.raises(ValueError, match="grid"):
        ExperimentConfig(**{**good, "ftol_grid": ()})
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ExperimentConfig(**{**good, "ftol_grid": (Fraction(5, 4),)})
    with pytest.raises(ValueError, match="unknown cloning strategy"):
        ExperimentConfig(**{**good, "strategy": "teleport"})


def test_sweep_cli_rejects_bad_trials(capsys):
    rc = cli.main(["sweep", "--N", "16", "--trials", "0"])
    assert rc == cli.EXIT_USAGE
    assert "trials" in capsys.readouterr().err


def test_env_seed_matches_explicit_seed(monkeypatch, capsys):
    monkeypatch.setenv("QTL_SEED", "123")
    assert default_seed() == 123
    argv = ["sweep", "--N", "12", "--ftol", "3/4", "--trials", "400"]
    assert cli.main(argv) == 0
    implicit = capsys.readouterr().out
    assert cli.main(argv + ["--seed", "123"]) == 0
    assert capsys.readouterr().out == implicit


# -- issue / verify ---------------------------------------------------------

def _issue_qticket(tmp_path, capsys, copies=1, N=48, seed=3):
    store = str(tmp_path / "secrets.json")
    token = str(tmp_path / "token.json")
    rc = cli.main(["issue", "--N", str(N), "--copies", str(copies),
                   "--ftol", "5/6", "--store", store, "--out", token,
                   "--seed", str(seed)])
    assert rc == 0
    serial = capsys.readouterr().out.strip()
    return store, token, serial


def test_issue_prints_hex_serial(tmp_path, capsys):
    _, _, serial = _issue_qticket(tmp_path, capsys)
    assert len(serial) == 32
    assert set(serial) <= set("0123456789abcdef")


def test_verify_accepts_until_copy_budget_spent(tmp_path, capsys):
    store, token, serial = _issue_qticket(tmp_path, capsys, copies=2)
    for i in (1, 2):
        rc = cli.main(["verify", "--store", store, "--token", token,
                       "--seed", str(10 + i)])
        verdict = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert verdict == {"accepted": True, "correct_count": 48,
                           "reason": None, "serial": serial}
    rc = cli.main(["verify", "--store", store, "--token", token, "--seed", "13"])
    verdict = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_REJECTED
    assert verdict["accepted"] is False
    assert verdict["reason"] == "serial-exhausted"


def test_verify_unknown_serial_is_protocol_failure(tmp_path, capsys):
    store, _, _ = _issue_qticket(tmp_path, capsys)
    other = tmp_path / "other"
    other.mkdir()
    _, stray_token, stray_serial = _issue_qticket(other, capsys, seed=99)
    with pytest.raises(UnknownSerialError):
        SecretStore(store).get(stray_serial)
    rc = cli.main(["verify", "--store", store, "--token", stray_token])
    assert rc == cli.EXIT_PROTOCOL
    assert "unknown-serial" in capsys.readouterr().err


@pytest.mark.parametrize("forged", [
    lambda n: np.broadcast_to(np.eye(2), (n, 2, 2)),   # trace 2 at every position
    lambda n: np.asarray(None, dtype=complex),        # NaN instead of a stack
], ids=["identity", "nan"])
def test_verify_refuses_forged_qubits(tmp_path, capsys, forged):
    # knowing the serial is not enough: a file of non-states is no token
    store, token, serial = _issue_qticket(tmp_path, capsys, N=64)
    fake = str(tmp_path / "forged.json")
    write_token(fake, serial, forged(64), kind="qticket")
    rc = cli.main(["verify", "--store", store, "--token", fake, "--seed", "1"])
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert SecretStore(store).get(serial)["accepted_count"] == 0
    rc = cli.main(["verify", "--store", store, "--token", token, "--seed", "2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["accepted"] is True
    assert SecretStore(store).get(serial)["accepted_count"] == 1


@pytest.mark.parametrize("field, value", [
    ("qubits", [[1]]),
    ("qubits", [[["a", "b"]]]),
    ("qubits", [[1, 2, 3]]),
    ("serial", ["x"]),
    ("serial", 5),
    ("serial", None),
], ids=["qubits-scalar-entry", "qubits-strings", "qubits-triple",
        "serial-list", "serial-int", "serial-null"])
def test_verify_refuses_malformed_token_file(tmp_path, capsys, field, value):
    store, token, serial = _issue_qticket(tmp_path, capsys, N=64)
    payload = json.loads(Path(token).read_text())
    payload[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc = cli.main(["verify", "--store", store, "--token", str(bad), "--seed", "1"])
    assert rc == cli.EXIT_USAGE
    assert "malformed token file" in capsys.readouterr().err
    assert SecretStore(store).get(serial)["accepted_count"] == 0
    rc = cli.main(["verify", "--store", store, "--token", token, "--seed", "2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["accepted"] is True


def _store_without_serial(genuine: dict) -> dict:
    del genuine["serials"][0]["serial"]
    return genuine


@pytest.mark.parametrize("command", ["verify", "issue", "cv-demo"])
@pytest.mark.parametrize("corrupt", [
    lambda genuine: {"version": 1},
    lambda genuine: [],
    _store_without_serial,
    lambda genuine: {"version": 1, "serials": [5]},
], ids=["no-serials", "top-level-list", "record-without-serial", "record-not-object"])
def test_malformed_store_file_is_usage_error(tmp_path, capsys, command, corrupt):
    store, token, _ = _issue_qticket(tmp_path, capsys, N=16)
    bad = Path(store)
    bad.write_text(json.dumps(corrupt(json.loads(bad.read_text()))))
    before = bad.read_bytes()
    argv = {
        "verify": ["verify", "--store", store, "--token", token],
        "issue": ["issue", "--N", "8", "--ftol", "5/6", "--store", store,
                  "--out", str(tmp_path / "new.json")],
        "cv-demo": ["cv-demo", "--store", store, "--quiet"],
    }[command]
    assert cli.main(argv + ["--seed", "1"]) == cli.EXIT_USAGE
    assert store in capsys.readouterr().err
    assert bad.read_bytes() == before
    assert not (tmp_path / "new.json").exists()


def test_verify_refuses_paired_token_kind(tmp_path, capsys):
    store = str(tmp_path / "s.json")
    token = str(tmp_path / "t.json")
    rc = cli.main(["issue", "--kind", "cv", "--n", "2", "--r", "8",
                   "--ftol", "3/4", "--store", store, "--out", token,
                   "--seed", "4"])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["verify", "--store", store, "--token", token])
    assert rc == cli.EXIT_USAGE
    assert "cv-demo" in capsys.readouterr().err


def test_issue_rejects_nonpositive_sizes(tmp_path, capsys):
    rc = cli.main(["issue", "--N", "0", "--ftol", "5/6",
                   "--store", str(tmp_path / "s.json"),
                   "--out", str(tmp_path / "t.json")])
    assert rc == cli.EXIT_USAGE
    assert "positive" in capsys.readouterr().err


def test_malformed_fraction_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["issue", "--ftol", "abc",
                  "--store", str(tmp_path / "s.json"),
                  "--out", str(tmp_path / "t.json")])
    assert exc.value.code == cli.EXIT_USAGE


def test_value_errors_map_to_usage_exit(capsys):
    rc = cli.main(["bounds", "--N=-1", "--ftol", "9/10"])
    assert rc == cli.EXIT_USAGE
    assert "qtl:" in capsys.readouterr().err


# -- bounds -----------------------------------------------------------------

def test_bounds_json_rows_match_library(capsys):
    # 23/25 clears every threshold in play: 5/6, 11/12 and cos^2(pi/8)
    rc = cli.main(["bounds", "--N", "100", "--fexp", "0.95", "--ftol", "23/25",
                   "--v", "3", "--copies", "2", "--n", "8", "--r", "25",
                   "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"thresholds", "bounds"}
    assert doc["thresholds"]["single_copy"] == pytest.approx(5 / 6)
    assert doc["thresholds"]["paired"] == pytest.approx(O.COS2_PI_8)
    assert doc["thresholds"]["multicopy(c=2)"] == pytest.approx(11 / 12)
    rows = {row["name"]: row for row in doc["bounds"]}
    assert set(rows) == {"soundness", "security", "learning",
                         "multicopy_security(c=2)", "cv_soundness",
                         "cv_security"}
    assert not any(row["insecure"] for row in rows.values())
    assert rows["soundness"]["raw"] == soundness_bound(100, 0.95, Fraction(23, 25)).raw
    assert rows["cv_soundness"]["raw"] == \
        cv_soundness_bound(8, 25, 0.95, Fraction(23, 25)).raw
    assert rows["security"]["raw"] == security_bound(100, Fraction(23, 25)).raw
    assert rows["learning"]["prefactor"] == 3.0  # C(3,2)
    assert rows["security"]["exponent"] == \
        pytest.approx(relative_entropy(0.84, 2 / 3), rel=1e-12)


def test_bounds_insecure_rows_have_exact_zero_exponent(capsys):
    rc = cli.main(["bounds", "--N", "50", "--ftol", "5/6", "--copies", "1",
                   "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {row["name"]: row for row in doc["bounds"]}
    for name in ("security", "learning", "multicopy_security(c=1)"):
        assert rows[name]["insecure"] is True
        assert rows[name]["exponent"] == 0.0
    # 5/6 sits below the paired-token threshold too
    rc = cli.main(["bounds", "--n", "8", "--r", "25", "--ftol", "5/6", "--json"])
    doc = json.loads(capsys.readouterr().out)
    (row,) = doc["bounds"]
    assert row["name"] == "cv_security" and row["insecure"] is True
    assert row["exponent"] == relative_entropy(5 / 6, O.COS2_PI_8)


def test_bounds_conditional_rows(capsys):
    # below the measured-token threshold the rejection tail appears and
    # soundness needs an expected fidelity above the tolerance
    rc = cli.main(["bounds", "--N", "64", "--ftol", "4/5", "--json"])
    assert rc == 0
    names = {r["name"] for r in json.loads(capsys.readouterr().out)["bounds"]}
    assert names == {"security", "learning", "hoeffding_rejection"}
    rc = cli.main(["bounds", "--N", "64", "--fexp", "0.7", "--ftol", "4/5",
                   "--json"])
    names = {r["name"] for r in json.loads(capsys.readouterr().out)["bounds"]}
    assert "soundness" not in names  # fexp at or below the tolerance


def test_bounds_usage_errors(capsys):
    assert cli.main(["bounds", "--ftol", "9/10"]) == cli.EXIT_USAGE
    assert "need --N and/or --n/--r" in capsys.readouterr().err
    assert cli.main(["bounds", "--N", "10", "--ftol", "9/10", "--n", "4"]) \
        == cli.EXIT_USAGE
    assert "--n and --r go together" in capsys.readouterr().err


def test_bounds_text_output_lists_rows(capsys):
    rc = cli.main(["bounds", "--N", "100", "--ftol", "9/10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("thresholds")
    assert "security" in out and "learning" in out and "raw=" in out


# -- games ------------------------------------------------------------------

def test_games_values_match_known_constants(capsys):
    rc = cli.main(["games", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"single_axis_z", "single_axis_x", "both_axes",
                        "average", "repeated_question", "mixed_question"}
    assert doc["single_axis_z"] == pytest.approx(1.0, abs=1e-9)
    assert doc["single_axis_x"] == pytest.approx(1.0, abs=1e-9)
    assert doc["both_axes"] == pytest.approx(0.75, abs=1e-9)
    assert doc["average"] == pytest.approx(O.COS2_PI_8, abs=1e-9)
    assert doc["repeated_question"] == pytest.approx(1.0, abs=1e-9)
    assert doc["mixed_question"] == pytest.approx(0.5 + 0.5 * O.COS2_PI_8,
                                                  abs=1e-9)


def test_games_text_output_is_key_value_lines(capsys):
    assert cli.main(["games"]) == 0
    lines = capsys.readouterr().out.splitlines()
    parsed = dict(line.split("=", 1) for line in lines)
    assert float(parsed["average"]) == pytest.approx(O.COS2_PI_8, abs=1e-9)


# -- challenge-response demo ------------------------------------------------

def test_demo_in_process_accepts(capsys):
    assert cli.main(["cv-demo", "--quiet", "--seed", "7"]) == 0
    assert capsys.readouterr().out == ""


def test_demo_with_depolarizing_noise_accepts(capsys):
    rc = cli.main(["cv-demo", "--quiet", "--noise-fidelity", "0.97",
                   "--seed", "7"])
    assert rc == 0


def test_demo_transcript_shows_both_directions(capsys):
    assert cli.main(["cv-demo", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    tagged = [(l[:2], json.loads(l[3:])) for l in lines]
    assert [d for d, _ in tagged] == [">>", "<<", ">>", "<<"]
    assert [m["type"] for _, m in tagged] == ["hello", "challenge", "answer",
                                              "verdict"]
    verdict = tagged[-1][1]
    assert set(verdict) == {"type", "v", "accepted", "reason"}
    assert verdict["accepted"] is True


def test_demo_listen_and_connect_are_exclusive(capsys):
    rc = cli.main(["cv-demo", "--listen", "127.0.0.1:1", "--connect",
                   "127.0.0.1:2"])
    assert rc == cli.EXIT_USAGE
    assert "exclusive" in capsys.readouterr().err


def test_demo_listen_requires_store(capsys):
    rc = cli.main(["cv-demo", "--listen", "127.0.0.1:1", "--quiet"])
    assert rc == cli.EXIT_USAGE
    assert "--store" in capsys.readouterr().err


def test_verify_missing_token_file_is_usage_error(tmp_path, capsys):
    rc = cli.main(["verify", "--token", str(tmp_path / "absent.json"),
                   "--store", str(tmp_path / "s.json")])
    assert rc == cli.EXIT_USAGE
    assert "qtl:" in capsys.readouterr().err


def test_demo_token_without_connect_is_usage_error(tmp_path, capsys):
    # the local demo mints its own token; silently ignoring --token would
    # let the caller believe their token file was the one verified
    token = tmp_path / "t.json"
    token.write_text("{}")
    rc = cli.main(["cv-demo", "--token", str(token), "--quiet"])
    assert rc == cli.EXIT_USAGE
    assert "--connect" in capsys.readouterr().err


def test_demo_connect_requires_token(capsys):
    rc = cli.main(["cv-demo", "--connect", "127.0.0.1:1", "--quiet"])
    assert rc == cli.EXIT_USAGE
    assert "--token" in capsys.readouterr().err


def test_demo_connect_dead_port_is_protocol_failure(tmp_path, capsys):
    store = str(tmp_path / "s.json")
    token = str(tmp_path / "t.json")
    assert cli.main(["issue", "--kind", "cv", "--n", "2", "--r", "4",
                     "--ftol", "1/2", "--store", store, "--out", token,
                     "--seed", "8"]) == 0
    capsys.readouterr()
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
    rc = cli.main(["cv-demo", "--connect", f"127.0.0.1:{dead_port}",
                   "--token", token, "--quiet"])
    assert rc == cli.EXIT_PROTOCOL
    # a malformed token file is refused before any connection is tried
    payload = json.loads(Path(token).read_text())
    payload["serial"] = ["x"]
    Path(token).write_text(json.dumps(payload))
    capsys.readouterr()
    rc = cli.main(["cv-demo", "--connect", f"127.0.0.1:{dead_port}",
                   "--token", token, "--quiet"])
    assert rc == cli.EXIT_USAGE
    assert "malformed token file" in capsys.readouterr().err


def _start_listener(store: str, seed: int) -> tuple[subprocess.Popen, int]:
    """Serve one session from ``cv-demo --listen 127.0.0.1:0`` in a child
    process; returns it with the port named by its ready line."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qtokens", "cv-demo", "--listen", "127.0.0.1:0",
         "--store", store, "--quiet", "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, env=env)
    ready = proc.stdout.readline().split()
    assert ready[:1] == ["listening"], ready
    return proc, int(ready[1].rpartition(":")[2])


def test_demo_round_trip_over_tcp(tmp_path, capsys):
    store = str(tmp_path / "secrets.json")
    token = str(tmp_path / "token.json")
    assert cli.main(["issue", "--kind", "cv", "--n", "2", "--r", "8",
                     "--ftol", "3/4", "--store", store, "--out", token,
                     "--seed", "11"]) == 0
    serial = capsys.readouterr().out.strip()
    server, port = _start_listener(store, 12)
    rc = cli.main(["cv-demo", "--connect", f"127.0.0.1:{port}",
                   "--token", token, "--quiet", "--seed", "13"])
    out, _ = server.communicate(timeout=30)
    assert rc == 0
    assert server.returncode == 0 and out == ""
    assert SecretStore(store).get(serial)["accepted_count"] == 1


def test_demo_second_redemption_rejected_over_tcp(tmp_path, capsys):
    store = str(tmp_path / "secrets.json")
    token = str(tmp_path / "token.json")
    assert cli.main(["issue", "--kind", "cv", "--n", "2", "--r", "8",
                     "--ftol", "3/4", "--store", store, "--out", token,
                     "--seed", "21"]) == 0
    capsys.readouterr()
    for attempt, expect in ((1, cli.EXIT_OK), (2, cli.EXIT_PROTOCOL)):
        server, port = _start_listener(store, 30 + attempt)
        rc = cli.main(["cv-demo", "--connect", f"127.0.0.1:{port}",
                       "--token", token, "--seed", "40"])
        server.communicate(timeout=30)
        assert rc == expect
        assert server.returncode == expect
    assert "already-redeemed" in capsys.readouterr().out


# -- hygiene ----------------------------------------------------------------

def test_no_hardcoded_threshold_decimals_in_sources():
    src = Path(cli.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        for literal in ("0.8535", "0.8536", "0.9267", "0.8333", "0.1666"):
            assert literal not in text, f"{path.name} hardcodes {literal}"
