"""Self-tests for the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_package()

import benchstats  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qtokens import cli, qticket, wire  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# -- percentile rule ---------------------------------------------------------------

def test_p95_needs_ten_samples_beyond_it():
    assert benchstats.tail_percentile(list(range(199)), 0.95) is None
    samples = list(range(1, 201))
    p95 = benchstats.tail_percentile(samples, 0.95)
    assert p95 == 190
    assert sum(s > p95 for s in samples) == benchstats.MIN_BEYOND_TAIL


def test_percentile_ignores_sample_order():
    samples = [float(x) for x in range(500)]
    shuffled = samples[::7] + [x for i, x in enumerate(samples) if i % 7]
    assert (benchstats.tail_percentile(shuffled, 0.95)
            == benchstats.tail_percentile(samples, 0.95) == 474.0)


def test_binomial_check_flags_only_implausible_counts():
    assert benchstats.binomial_consistent(0, 20_000, 1e-5)
    assert benchstats.binomial_consistent(10_050, 20_000, 0.5)
    assert not benchstats.binomial_consistent(11_000, 20_000, 0.5)
    assert not benchstats.binomial_consistent(1, 20_000, 0.0)
    assert not benchstats.binomial_consistent(30, 20_000, 1e-5)


# -- spans and self time ----------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    a = tracer.open("a")           # a: 0..100
    clock.now = 10
    b = tracer.open("b")           # b: 10..40, holding c: 20..30
    clock.now = 20
    c = tracer.open("c")
    clock.now = 30
    tracer.close(c)
    clock.now = 40
    tracer.close(b)
    clock.now = 50
    d = tracer.open("b")           # second call of b: 50..70
    clock.now = 70
    tracer.close(d)
    clock.now = 100
    tracer.close(a)
    assert (b.parent, c.parent, d.parent, a.parent) == (a.span_id, b.span_id, a.span_id, None)
    times = spans.layer_times(tracer.spans)
    assert times["a"] == (1, pytest.approx(100e-9), pytest.approx(50e-9))
    assert times["b"] == (2, pytest.approx(50e-9), pytest.approx(40e-9))
    assert times["c"] == (1, pytest.approx(10e-9), pytest.approx(10e-9))


def test_self_time_counts_overlapping_children_once():
    parent = spans.Span("p", 1, None, 0, 0, 100)
    kids = [spans.Span("k", 2, 1, 0, 10, 40), spans.Span("k", 3, 1, 0, 30, 60),
            spans.Span("k", 4, 1, 0, 90, 120)]
    assert spans.self_time_ns(parent, kids) == 100 - 50 - 10


def test_install_wraps_where_callers_look_up_and_uninstalls():
    original = qticket.double_acceptance_exact
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert cli.double_acceptance_exact is qticket.double_acceptance_exact
        assert cli.double_acceptance_exact is not original
        config = cli.ExperimentConfig(seed=1, trials=50, sizes=(8,),
                                      ftol_grid=(Fraction(3, 4),), jobs=1)
        cli.sweep_rows(config)
    finally:
        uninstall()
    assert cli.double_acceptance_exact is original
    assert qticket.double_acceptance_exact is original
    times = spans.layer_times(tracer.spans)
    assert times["qticket.double_acceptance_exact"][0] == 1
    assert times["cli.sweep_rows"][0] == 1
    assert tracer.counts["attacks.double_accept_mc.trials"] == 50


def test_cli_main_spans_are_named_by_subcommand(tmp_path):
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        store, token = str(tmp_path / "s.json"), str(tmp_path / "t.json")
        assert cli.main(["issue", "--N", "8", "--ftol", "3/4", "--store", store,
                         "--out", token, "--seed", "1"]) == 0
    finally:
        uninstall()
    names = {s.name for s in tracer.spans}
    assert "cli.main.issue" in names and "store.SecretStore.save" in names
    metrics = spans.per_layer_metrics(tracer, 1, 0.0)
    assert metrics["cli.main.issue.calls"] == 1
    assert metrics["store.write_token.bytes"] == Path(token).stat().st_size


# -- failure counting ------------------------------------------------------------------

def test_injected_wrong_verdict_counts_as_one_failed_op(tmp_path, monkeypatch):
    w = workloads.RedeemStore()
    w.PREFILL_MEASURED, w.PREFILL_PAIRED, w.TRIPLES = 3, 1, 3
    w.setup(7, str(tmp_path))
    try:
        clean = w.unit(0)
        assert (clean.attempted, clean.failed) == (9, 0)

        real_main, seen = cli.main, []

        def second_verify_accepts_again(argv):
            code = real_main(argv)
            seen.append(argv[0])
            return 0 if len(seen) == 6 else code   # triple 2, second verify
        monkeypatch.setattr(cli, "main", second_verify_accepts_again)
        broken = w.unit(1)
    finally:
        w.close()
    assert (broken.attempted, broken.failed) == (9, 1)
    assert "exit codes" in broken.violations[0]


@pytest.mark.parametrize("kind, reply, ok", [
    ("replay", wire.error_message("already-redeemed", "x"), True),
    ("replay", wire.verdict_message(True), False),
    ("unknown", wire.error_message("already-redeemed", "x"), False),
    ("malformed", wire.error_message("protocol-error", "x"), True),
    ("fresh", wire.verdict_message(False, "below-threshold"), False),
])
def test_session_checks(kind, reply, ok):
    w = workloads.CvSessions()
    w.noisy_total = w.noisy_accepted = 0
    rnd = SimpleNamespace(noisy=set())
    assert (w._check(kind, 0, rnd, reply) is None) == ok


def test_sweep_check_catches_rising_and_inconsistent_cells():
    w = workloads.Sweep()
    w.setup(1, "")
    config = w.configs[1]
    good = [cli.SWEEP_HEADER] + [f"{f},{n},{0.5 if f < Fraction(5, 6) else 0.0},"
                                 f"{0.5 if f < Fraction(5, 6) else 0.0},0.0"
                                 for n in (200, 1000) for f in w.GRID]
    assert w.check_csv(config, "\n".join(good)) == []
    bad = list(good)
    bad[4] = f"{w.GRID[3]},200,0.6,0.7,0.0035"
    problems = w.check_csv(config, "\n".join(bad))
    assert any("rises" in p for p in problems)
    assert any("inconsistent" in p for p in problems)


# -- BENCHMARK.json matches what run.py prints --------------------------------------------

def test_per_layer_catalogue_matches_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == spans.catalogue()


def test_end_to_end_metrics_match_benchmark_json():
    results = [workloads.UnitResult(1.0, [0.5, 0.5])]
    metrics, _ = run.end_to_end(results, [0.1], 1.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert all(v["value"] > 0 for v in metrics.values())
