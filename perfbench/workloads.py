"""The four workloads: inputs from the seed, one unit of work, its checks.

A workload's ``setup(seed, workdir)`` builds everything its units need
from the seed, with any files under ``workdir``; ``unit(i)``
runs one unit of work (a batch job, or one round of a traffic mix), checks
every output and returns a :class:`UnitResult`.  Units of batch workloads
repeat the same seeded job, so their outputs must repeat byte for byte.
The package is driven only through public functions, looked up on their
modules at call time so the traced run's wrappers are seen.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from qtokens import attacks, bounds, channels, cli, cv, qticket, store, wire

from benchstats import binomial_consistent, binomial_sigma, kl_bernoulli

SOCKET_TIMEOUT_S = 10.0
COS2_PI_8 = math.cos(math.pi / 8) ** 2


@dataclass
class UnitResult:
    wall_s: float                   # time to this unit's checked result
    latencies_s: list[float]        # one per operation
    failed: int = 0                 # operations (or unit checks) that failed
    violations: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.violations.append(message)


def _stream(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def rotating_cpus(tid: int | None = None, period_s: float = 0.2):
    """Move thread ``tid`` (default: the caller) to the next allowed CPU
    every ``period_s`` seconds, until the block exits or the thread ends.

    Each vCPU of a shared virtual machine runs fast or slow for seconds at
    a time, independently of the others.  A single-threaded unit rotated
    over all CPUs sees their average speed, not one CPU's current regime.
    """
    tid = threading.get_native_id() if tid is None else tid
    cpus = sorted(os.sched_getaffinity(tid))
    stop = threading.Event()

    def rotate() -> None:
        for i in itertools.count(1):
            if stop.wait(period_s):
                return
            try:
                os.sched_setaffinity(tid, {cpus[i % len(cpus)]})
            except ProcessLookupError:
                return

    rotator = threading.Thread(target=rotate, name="cpu-rotation")
    rotator.start()
    try:
        yield
    finally:
        stop.set()
        rotator.join()
        with contextlib.suppress(ProcessLookupError):
            os.sched_setaffinity(tid, cpus)


class Workload:
    """Defaults for workloads without run-level checks or resources."""

    def finish(self) -> list[str]:
        """Checks over the whole run; each message is one failed op."""
        return []

    def close(self) -> None:
        pass


# -- sweep -------------------------------------------------------------------

class Sweep(Workload):
    """Batch job: two cli.sweep_rows calls over the default 26-point grid.

    measure-reprepare-z at N=300 takes the p00 > 0 lattice path of the
    exact double-acceptance law; universal-cloner at N in {200, 1000} takes
    the trinomial path and spends its time in the Monte Carlo sampler.
    """

    name = "sweep"
    GRID = tuple(Fraction(k, 100) for k in range(70, 96))
    TRIALS = 20_000
    PARTS = (("measure-reprepare-z", (300,)), ("universal-cloner", (200, 1000)))

    def setup(self, seed: int, workdir: str) -> None:
        self.configs = [cli.ExperimentConfig(seed=seed, trials=self.TRIALS, sizes=sizes,
                                             ftol_grid=self.GRID, strategy=strategy,
                                             jobs=nproc())
                        for strategy, sizes in self.PARTS]
        self.security = {(n, f): bounds.security_bound(n, f).clamped
                         for _, sizes in self.PARTS for n in sizes
                         for f in self.GRID if f > bounds.SINGLE_COPY_THRESHOLD}
        self.first_digest: str | None = None

    def unit(self, index: int) -> UnitResult:
        t0 = time.perf_counter()
        texts = ["\n".join([cli.SWEEP_HEADER, *cli.sweep_rows(c)]) + "\n"
                 for c in self.configs]
        wall = time.perf_counter() - t0
        result = UnitResult(wall, [wall])
        for config, text in zip(self.configs, texts):
            result.violations += self.check_csv(config, text)
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            result.violations.append("CSV differs from the first job with the same seed")
        if result.violations:
            result.failed = 1
        return result

    def check_csv(self, config, text: str) -> list[str]:
        lines = text.splitlines()
        if lines[0] != cli.SWEEP_HEADER:
            return [f"bad header {lines[0]!r}"]
        problems = []
        curves: dict[int, list[tuple[Fraction, float, float]]] = {}
        for line in lines[1:]:
            f_s, n_s, exact_s, mc_s, _ = line.split(",")
            curves.setdefault(int(n_s), []).append(
                (Fraction(f_s), float(exact_s), float(mc_s)))
        if sorted(curves) != sorted(config.sizes):
            problems.append(f"sizes {sorted(curves)} != {sorted(config.sizes)}")
        for n, points in curves.items():
            points.sort()
            if [f for f, _, _ in points] != list(self.GRID):
                problems.append(f"N={n}: grid mismatch")
            exacts = [e for _, e, _ in points]
            if any(b > a + 1e-12 for a, b in zip(exacts, exacts[1:])):
                problems.append(f"{config.strategy} N={n}: exact rises with f_tol")
            for f, exact, mc in points:
                if not 0.0 <= exact <= 1.0:
                    problems.append(f"N={n} f={f}: exact {exact} outside [0, 1]")
                    continue
                hits = round(mc * config.trials)
                if not binomial_consistent(hits, config.trials, exact):
                    problems.append(f"N={n} f={f}: mc {mc} inconsistent with exact {exact}")
                bound = self.security.get((n, f))
                if bound is not None and exact > bound + 1e-12:
                    problems.append(f"N={n} f={f}: exact {exact} above bound {bound}")
        return problems



# -- attack_experiments --------------------------------------------------------

class AttackExperiments(Workload):
    """Batch job: the double-spend, honest-acceptance and sequential-attack
    experiments behind the cos^2(pi/8) and 5/6 ceilings."""

    name = "attack_experiments"
    SPEND_LAYOUT = (20, 200, Fraction(9, 10))
    SPEND_TRIALS = 600
    HONEST_LAYOUT = (10, 100, Fraction(9, 10))
    HONEST_FIDELITY = 0.97
    HONEST_TRIALS = 10_000
    SEQ_N, SEQ_FTOL, SEQ_V, SEQ_TRIALS = 1000, Fraction(9, 10), 10, 100_000
    ATTACKERS = ("intermediate-basis", "honest-copy")
    DRIVERS = ("clone-then-adapt", "resubmit-after-reject", "honest-once-then-noise")

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.spend_layout = cv.CvLayout(*self.SPEND_LAYOUT)
        self.honest_layout = cv.CvLayout(*self.HONEST_LAYOUT)
        self.channel = channels.depolarizing_for_fidelity(self.HONEST_FIDELITY)
        f = float(self.SEQ_FTOL)
        # pairwise union bound C(v,2) exp(-N D(2 f_tol - 1 || 2/3)), restated
        # here so the check does not trust the library's arithmetic
        self.learning_bound = math.comb(self.SEQ_V, 2) * math.exp(
            -self.SEQ_N * kl_bernoulli(2 * f - 1, 2.0 / 3.0))
        self.first_outcome = None

    def unit(self, index: int) -> UnitResult:
        streams = _stream(self.seed, 1).spawn(2 * len(self.ATTACKERS) + 1 + len(self.DRIVERS))
        with rotating_cpus():
            t0 = time.perf_counter()
            spends, honest, sequential = self._experiments(streams)
            wall = time.perf_counter() - t0
        result = UnitResult(wall, [wall])
        self._check(result, spends, honest, sequential)
        if result.violations:
            result.failed = 1
        return result

    def _experiments(self, streams):
        spends = [cv.double_spend_experiment(self.spend_layout, attacks.CV_ATTACKERS[a](),
                                             pairing, self.SPEND_TRIALS, streams.pop())
                  for a in self.ATTACKERS for pairing in cv.PAIRINGS]
        honest = cv.honest_protocol_experiment(self.honest_layout, self.channel,
                                               self.HONEST_TRIALS, streams.pop())
        sequential = [attacks.sequential_attack_rate(self.SEQ_N, self.SEQ_FTOL, self.SEQ_V,
                                                     d, self.SEQ_TRIALS, streams.pop())
                      for d in self.DRIVERS]
        return spends, honest, sequential

    def _check(self, result: UnitResult, spends, honest, sequential) -> None:
        for rep in spends:
            tag = f"{rep.attacker}/{rep.pairing}"
            if not 0.0 <= rep.rate <= rep.bound:
                result.violations.append(f"{tag}: rate {rep.rate} above bound {rep.bound}")
            if rep.pairing == "complementary":
                # each pair's X and Z member is scored once: the per-pair
                # average utility cannot beat the cos^2(pi/8) game value
                scored = 2 * self.spend_layout.n_blocks * self.spend_layout.block_size
                ceiling = COS2_PI_8 + 6.0 * binomial_sigma(COS2_PI_8, scored * rep.trials)
                if rep.mean_pair_utility > ceiling:
                    result.violations.append(
                        f"{tag}: pair utility {rep.mean_pair_utility} above cos^2(pi/8)")
        floor = honest.bound.raw - 4.0 * binomial_sigma(honest.bound.raw, honest.trials)
        if honest.rate < floor:
            result.violations.append(f"honest rate {honest.rate} below bound {honest.bound.raw}")
        for summary in sequential:
            if not summary.rate <= summary.bound.clamped:
                result.violations.append(
                    f"{summary.driver}: rate {summary.rate} above {summary.bound.clamped}")
            if abs(summary.bound.clamped - self.learning_bound) > 1e-9 * self.learning_bound:
                result.violations.append(
                    f"{summary.driver}: bound {summary.bound.clamped} != {self.learning_bound}")

        outcome = ([(r.successes, r.mean_pair_utility) for r in spends], honest.accepts,
                   [(s.double_accepts, s.accept_histogram) for s in sequential])
        if self.first_outcome is None:
            self.first_outcome = outcome
        elif outcome != self.first_outcome:
            result.violations.append("outcomes differ from the first job with the same seed")



# -- cv_sessions ----------------------------------------------------------------

@dataclass
class _Round:
    store: store.SecretStore
    schedule: list[tuple[str, int]]      # (kind, index into that kind's inputs)
    fresh: list[cv.CvToken]
    noisy: set[int]
    malformed: list[tuple[cv.CvToken, str]]
    unknown: list[str]


class CvSessions(Workload):
    """Closed loop: one holder, one new loopback TCP connection per session,
    a CvVerifier on one thread over an in-memory SecretStore.

    One round is 300 fresh 10x100 tokens (a third degraded by the holder
    through depolarizing noise at fidelity 0.98), 60 replays of redeemed
    serials, 40 unknown serials and 20 malformed answers, in seeded order.
    """

    name = "cv_sessions"
    LAYOUT = (10, 100, Fraction(9, 10))
    FRESH, REPLAYS, UNKNOWN, MALFORMED = 300, 60, 40, 20
    NOISE_FIDELITY = 0.98
    MALFORMED_KINDS = ("bad-bit", "bad-shape", "not-json")

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.layout = cv.CvLayout(*self.LAYOUT)
        self.channel = channels.depolarizing_for_fidelity(self.NOISE_FIDELITY)
        self.noisy_total = 0
        self.noisy_accepted = 0
        self.next_round = self._make_round(0)

    def _make_round(self, index: int) -> _Round:
        rng = _stream(self.seed, 2, index)
        secrets = store.SecretStore()
        fresh, malformed = [], []
        for i in range(self.FRESH + self.MALFORMED):
            secret, token = cv.cv_issue(self.layout, rng)
            cv.register(secrets, self.layout, secret)
            if i < self.FRESH:
                fresh.append(token)
            else:
                kind = self.MALFORMED_KINDS[int(rng.integers(len(self.MALFORMED_KINDS)))]
                malformed.append((token, kind))
        # the first session is noiseless, so replays always have a target
        noisy = {int(i) for i in rng.choice(np.arange(1, self.FRESH), self.FRESH // 3,
                                            replace=False)}
        unknown = [rng.bytes(16).hex() for _ in range(self.UNKNOWN)]
        kinds = (["fresh"] * self.FRESH + ["replay"] * self.REPLAYS
                 + ["unknown"] * self.UNKNOWN + ["malformed"] * self.MALFORMED)
        rng.shuffle(kinds)
        first_fresh = kinds.index("fresh")
        kinds[0], kinds[first_fresh] = kinds[first_fresh], kinds[0]
        counters = {"fresh": 0, "replay": 0, "unknown": 0, "malformed": 0}
        schedule = []
        for kind in kinds:
            schedule.append((kind, counters[kind]))
            counters[kind] += 1
        return _Round(secrets, schedule, fresh, noisy, malformed, unknown)

    def unit(self, index: int) -> UnitResult:
        rnd = self.next_round if self.next_round is not None else self._make_round(index)
        self.next_round = None
        verifier = cv.CvVerifier(rnd.store, _stream(self.seed, 4, index))
        stop = threading.Event()
        server_errors: list[str] = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(0.2)
            port = listener.getsockname()[1]
            thread = threading.Thread(target=_serve, name="cv-verifier",
                                      args=(listener, verifier, stop, server_errors))
            thread.start()
            try:
                result = self._drive(rnd, port, _stream(self.seed, 3, index))
            finally:
                stop.set()
                thread.join(timeout=2 * SOCKET_TIMEOUT_S)
            if thread.is_alive():
                result.fail("verifier thread did not stop")
        for err in server_errors:
            result.violations.append(f"verifier: {err}")
        return result

    def _drive(self, rnd: _Round, port: int, rng: np.random.Generator) -> UnitResult:
        result = UnitResult(0.0, [])
        accepted: list[cv.CvToken] = []
        for kind, i in rnd.schedule:
            t0 = time.perf_counter()
            try:
                if kind == "fresh":
                    noise = self.channel if i in rnd.noisy else None
                    reply = _holder(port, rnd.fresh[i], rng, noise)
                elif kind == "replay":
                    original = accepted[int(rng.integers(len(accepted)))]
                    reply = _holder(port, cv.CvToken(original.serial, original.qubits),
                                    rng, None)
                elif kind == "unknown":
                    reply = _holder(port, cv.CvToken(rnd.unknown[i], rnd.fresh[0].qubits),
                                    rng, None)
                else:
                    reply = _malformed(port, *rnd.malformed[i])
            except Exception as exc:    # one failed session, not a dead run
                reply = {"type": "exception", "detail": repr(exc)}
            result.latencies_s.append(time.perf_counter() - t0)
            problem = self._check(kind, i, rnd, reply)
            if problem is not None:
                result.fail(f"{kind}[{i}]: {problem}")
            elif kind == "fresh" and reply.get("accepted"):
                accepted.append(rnd.fresh[i])
        result.wall_s = sum(result.latencies_s)
        return result

    def _check(self, kind: str, i: int, rnd: _Round, reply: dict) -> str | None:
        if kind == "fresh" and i in rnd.noisy:
            self.noisy_total += 1
            if reply == wire.verdict_message(True):
                self.noisy_accepted += 1
                return None
            if reply == wire.verdict_message(False, "below-threshold"):
                return None
            return f"unexpected reply {reply}"
        want = {"fresh": ("verdict", True), "replay": ("error", "already-redeemed"),
                "unknown": ("error", "unknown-serial"),
                "malformed": ("error", "protocol-error")}[kind]
        got = (reply.get("type"),
               reply.get("accepted") if reply.get("type") == "verdict" else reply.get("code"))
        return None if got == want else f"expected {want}, got {reply}"

    def finish(self) -> list[str]:
        """Run-level check: noisy acceptance against cv_soundness_bound."""
        if self.noisy_total == 0:
            return []
        n, r, f_tol = self.LAYOUT
        bound = bounds.cv_soundness_bound(n, r, self.NOISE_FIDELITY, f_tol).raw
        rate = self.noisy_accepted / self.noisy_total
        if rate < bound - 4.0 * binomial_sigma(bound, self.noisy_total):
            return [f"noisy acceptance {rate} below soundness bound {bound}"]
        return []

    def close(self) -> None:
        self.next_round = None


def _serve(listener: socket.socket, verifier: cv.CvVerifier, stop: threading.Event,
           errors: list[str]) -> None:
    while not stop.is_set():
        try:
            conn, _ = listener.accept()
        except socket.timeout:
            continue
        conn.settimeout(SOCKET_TIMEOUT_S)
        with wire.LineChannel(conn) as chan:
            try:
                verifier.serve_one(chan)
            except (OSError, wire.ProtocolError) as exc:
                errors.append(repr(exc))


def _holder(port: int, token: cv.CvToken, rng, noise) -> dict:
    with wire.LineChannel.connect("127.0.0.1", port, timeout=SOCKET_TIMEOUT_S) as chan:
        return cv.run_holder(chan, token, rng, noise)


def _malformed(port: int, token: cv.CvToken, kind: str) -> dict | None:
    sock = socket.create_connection(("127.0.0.1", port), timeout=SOCKET_TIMEOUT_S)
    with wire.LineChannel(sock) as chan:
        chan.send(wire.hello_message(token.serial))
        challenge = chan.recv()
        if challenge is None or challenge.get("type") != "challenge":
            return challenge or {"type": "eof"}
        n, r = token.shape
        grid = [[["0", "1"] for _ in range(r)] for _ in range(n)]
        if kind == "bad-bit":
            grid[n // 2][r // 2][1] = "2"
        elif kind == "bad-shape":
            grid = grid[:-1]
        if kind == "not-json":
            sock.sendall(b'{"type": "answer", "outcomes": [\n')
        else:
            # answer_message only encodes valid bits, so swap in the bad grid
            chan.send(wire.answer_message(challenge["question_id"], []) | {"outcomes": grid})
        return chan.recv() or {"type": "eof"}


# -- redeem_store ----------------------------------------------------------------

class RedeemStore(Workload):
    """In-process `qtl issue` / `qtl verify` / `qtl verify` triples against a
    JSON store file, which every call loads and saves whole.

    The store is prefilled from the seed with 80 measured serials at N=256
    and 20 paired serials at 8x32; each round restores those bytes and runs
    20 triples, so every round starts from the same store size.
    """

    name = "redeem_store"
    PREFILL_MEASURED, PREFILL_PAIRED = 80, 20
    N, FTOL = 256, Fraction(9, 10)
    PAIRED_LAYOUT = (8, 32, Fraction(9, 10))
    TRIPLES = 20

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.dir = tempfile.mkdtemp(prefix="redeem-", dir=workdir)
        self.store_path = os.path.join(self.dir, "secrets.json")
        self.token_path = os.path.join(self.dir, "token.json")
        rng = _stream(seed, 5)
        secrets = store.SecretStore(self.store_path)
        for _ in range(self.PREFILL_MEASURED):
            secret, _ = qticket.issue(self.N, rng)
            secrets.add_qticket(secret.serial, secret.labels, self.FTOL)
        layout = cv.CvLayout(*self.PAIRED_LAYOUT)
        for _ in range(self.PREFILL_PAIRED):
            secret, _ = cv.cv_issue(layout, rng)
            cv.register(secrets, layout, secret)
        secrets.save()
        with open(self.store_path, "rb") as fh:
            self.prefill = fh.read()

    def unit(self, index: int) -> UnitResult:
        with open(self.store_path, "wb") as fh:
            fh.write(self.prefill)
        seeds = _stream(self.seed, 6, index).integers(0, 2**31, size=(self.TRIPLES, 3))
        result = UnitResult(0.0, [])
        with rotating_cpus():
            redeemed = self._triples(seeds, result)
        result.wall_s = sum(result.latencies_s)
        with open(self.store_path, encoding="utf-8") as fh:
            records = {rec["serial"]: rec for rec in json.load(fh)["serials"]}
        for serial in redeemed:
            if records.get(serial, {}).get("accepted_count") != 1:
                result.fail(f"serial {serial}: accepted_count is not 1 after the triple")
        return result

    def _triples(self, seeds: np.ndarray, result: UnitResult) -> list[str]:
        """Run the issue/verify/verify triples; returns the redeemed serials."""
        redeemed = []
        for issue_seed, verify_seed, again_seed in seeds.tolist():
            calls = [
                ["issue", "--kind", "qticket", "--N", str(self.N), "--copies", "1",
                 "--ftol", str(self.FTOL), "--store", self.store_path,
                 "--out", self.token_path, "--seed", str(issue_seed)],
                ["verify", "--store", self.store_path, "--token", self.token_path,
                 "--seed", str(verify_seed)],
                ["verify", "--store", self.store_path, "--token", self.token_path,
                 "--seed", str(again_seed)],
            ]
            outputs = []
            for argv in calls:
                out = io.StringIO()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(argv)
                except Exception as exc:    # one failed op, not a dead run
                    code = repr(exc)
                result.latencies_s.append(time.perf_counter() - t0)
                outputs.append((code, out.getvalue()))
            serial = outputs[0][1].strip()
            problem = self._check(serial, outputs)
            if problem:
                result.fail(f"serial {serial}: {problem}")
            else:
                redeemed.append(serial)
        return redeemed

    @staticmethod
    def _check(serial: str, outputs) -> str | None:
        (c_issue, _), (c_first, o_first), (c_again, o_again) = outputs
        if (c_issue, c_first, c_again) != (0, 0, 1):
            return f"exit codes {(c_issue, c_first, c_again)} != (0, 0, 1)"
        try:
            first, again = json.loads(o_first), json.loads(o_again)
        except ValueError as exc:
            return f"verify printed no verdict: {exc}"
        if not (first["accepted"] and first["serial"] == serial and first["reason"] is None):
            return f"first verify {first}"
        if again["accepted"] or again["reason"] != "serial-exhausted":
            return f"second verify {again}"
        return None

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sweep, CvSessions, RedeemStore, AttackExperiments)}
