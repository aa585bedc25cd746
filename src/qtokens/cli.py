"""Command line front end.

Exit codes: 0 success (and "accepted" for verification commands), 1 verdict
rejected, 2 invalid usage or parameters, 3 protocol or lookup failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import socket
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import wire
from .attacks import PAIR_STRATEGIES, double_accept_mc, mixture_outcome_distribution
from .bounds import (CLONING_CEILING, CV_THRESHOLD, SINGLE_COPY_THRESHOLD,
                     BoundReport, InsecureParametersError, cv_security_bound,
                     cv_soundness_bound, hoeffding_rejection, learning_bound,
                     multicopy_security_bound, multicopy_threshold,
                     security_bound, soundness_bound)
from .channels import depolarizing_for_fidelity
from .cv import (CvLayout, CvToken, CvVerifier, QUESTION_POLICIES, cv_issue,
                 register, run_holder)
from .games import (build_cv_pair_games, mixed_question_value,
                    repeated_question_game, selective_value)
from .qticket import degrade, double_acceptance_exact, issue, redeem
from .rational import as_fraction
from .rng import SEED_ENV_VAR, default_seed, root_rng
from .store import SecretStore, UnknownSerialError, read_token, write_token

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_PROTOCOL = 3

SWEEP_HEADER = "f_tol,N,exact_prob,mc_prob,mc_stderr"


def _fraction_arg(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad fraction {text!r}: {exc}")


def _hostport(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


@functools.cache    # once per process: main() called in-process reuses it
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qtl", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("issue", help="mint a token and record its secret")
    p.add_argument("--kind", choices=("qticket", "cv"), default="qticket")
    p.add_argument("--N", type=int, default=64, help="qubits per measured token")
    p.add_argument("--copies", type=int, default=1,
                   help="redemption budget for one measured-token serial")
    p.add_argument("--n", type=int, default=8, help="blocks per paired token")
    p.add_argument("--r", type=int, default=32, help="pairs per block")
    p.add_argument("--ftol", type=_fraction_arg, required=True,
                   help="acceptance threshold fraction, e.g. 9/10")
    p.add_argument("--store", required=True, help="secret store path")
    p.add_argument("--out", required=True, help="token file path")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("verify", help="verify a measured token against a store")
    p.add_argument("--store", required=True)
    p.add_argument("--token", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser(
        "sweep",
        help="double-acceptance probability of cloned tokens over a threshold grid")
    p.add_argument("--N", type=int, action="append", required=True,
                   help="token sizes (repeatable)")
    p.add_argument("--ftol", type=_fraction_arg, action="append", default=None,
                   help="thresholds (repeatable; default grid 70/100..95/100)")
    p.add_argument("--strategy", choices=sorted(PAIR_STRATEGIES),
                   default="universal-cloner")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--jobs", type=int, default=4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="-", help="CSV path, - for stdout")

    p = sub.add_parser("bounds", help="print analytic bounds for parameters")
    p.add_argument("--N", type=int, default=None, help="measured-token qubits")
    p.add_argument("--fexp", type=float, default=None, help="expected per-qubit fidelity")
    p.add_argument("--ftol", type=_fraction_arg, required=True)
    p.add_argument("--v", type=int, default=2, help="verification attempts")
    p.add_argument("--copies", type=int, default=None,
                   help="issued copies per serial, one of "
                        f"{', '.join(map(str, sorted(CLONING_CEILING)))}; other counts "
                        "have no certified cloning ceiling and are refused")
    p.add_argument("--n", type=int, default=None, help="paired-token blocks")
    p.add_argument("--r", type=int, default=None, help="pairs per block")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("games", help="selective values of the pair-retrieval games")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cv-demo", help="run the challenge-response protocol")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--r", type=int, default=16)
    p.add_argument("--ftol", type=_fraction_arg, default=Fraction(3, 4))
    p.add_argument("--noise-fidelity", type=float, default=None,
                   help="apply a depolarizing channel at this fidelity")
    p.add_argument("--policy", choices=QUESTION_POLICIES, default="random")
    p.add_argument("--store", default=None, help="persist secrets here")
    p.add_argument("--listen", type=_hostport, default=None,
                   help="serve one verification session on HOST:PORT; prints "
                        "'listening HOST:PORT' once bound (PORT 0 picks a free port)")
    p.add_argument("--connect", type=_hostport, default=None,
                   help="redeem a token file against HOST:PORT")
    p.add_argument("--token", default=None, help="token file for --connect")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    return top


def _seeded(args) -> np.random.Generator:
    """Root stream of a command that makes secrets or questions: --seed, else
    QTL_SEED, else fresh OS entropy, so an unseeded run is unpredictable."""
    if args.seed is None and SEED_ENV_VAR not in os.environ:
        return root_rng(np.random.SeedSequence().entropy)
    return root_rng(args.seed)


# -- issue / verify -------------------------------------------------------

def cmd_issue(args) -> int:
    rng = _seeded(args)
    store = SecretStore(args.store)
    if args.kind == "qticket":
        if args.N < 1 or args.copies < 1:
            print("issue: --N and --copies must be positive", file=sys.stderr)
            return EXIT_USAGE
        secret, token = issue(args.N, rng)    # the copies share its states
        store.add_qticket(secret.serial, secret.labels, args.ftol,
                          issued_copies=args.copies)
    else:
        layout = CvLayout(args.n, args.r, args.ftol)
        secret, token = cv_issue(layout, rng)
        register(store, layout, secret)
    write_token(args.out, token)
    store.save()
    print(secret.serial)
    return EXIT_OK


def cmd_verify(args) -> int:
    rng = _seeded(args)
    store = SecretStore(args.store)
    token = read_token(args.token)
    if isinstance(token, CvToken):
        print("verify: cannot verify kind 'cv' locally; use cv-demo", file=sys.stderr)
        return EXIT_USAGE
    try:
        outcome = redeem(store, token, rng)
    except UnknownSerialError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PROTOCOL
    if outcome.accepted:    # a refusal leaves the store as it was loaded
        store.save()
    print(json.dumps({"accepted": outcome.accepted,
                      "correct_count": outcome.correct_count,
                      "serial": outcome.serial,
                      "reason": outcome.reason}, sort_keys=True))
    return EXIT_OK if outcome.accepted else EXIT_REJECTED


# -- sweep ----------------------------------------------------------------

def _default_ftol_grid() -> list[Fraction]:
    return [Fraction(k, 100) for k in range(70, 96)]


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep invocation: which grid, which strategy, how much sampling."""

    seed: int
    trials: int
    sizes: tuple[int, ...]
    ftol_grid: tuple[Fraction, ...]
    strategy: str = "universal-cloner"
    out: str = "-"
    jobs: int = 4

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.sizes or any(n < 1 for n in self.sizes):
            raise ValueError("need at least one positive token size")
        if not self.ftol_grid:
            raise ValueError("threshold grid must be non-empty")
        if any(not 0 <= f <= 1 for f in self.ftol_grid):
            raise ValueError("thresholds must lie in [0, 1]")
        if self.strategy not in PAIR_STRATEGIES:
            raise ValueError(
                f"unknown cloning strategy {self.strategy!r}; "
                f"shipped: {', '.join(sorted(PAIR_STRATEGIES))}")


def sweep_rows(config: ExperimentConfig) -> list[str]:
    """CSV rows of P[both counterfeits accepted] per (f_tol, N) cell.

    The exact column integrates the per-position joint outcome law of the
    strategy (label-averaged); the MC column samples the same experiment.
    Each size N is one pool job: one exact call answers every threshold, and
    one draw on the size's own stream, spawned from the seed in ascending-N
    order, serves all its cells (common random numbers), each unbiased with
    the same ``mc_stderr``.  The rows depend only on (seed, config), not on
    the worker count.
    """
    dist = mixture_outcome_distribution(PAIR_STRATEGIES[config.strategy])
    ftols, sizes = sorted(set(config.ftol_grid)), sorted(set(config.sizes))
    streams = root_rng(config.seed).spawn(len(sizes))

    def size_rows(n: int, stream) -> list[str]:
        exact = double_acceptance_exact(n, ftols, dist).tolist()
        hits = double_accept_mc(n, ftols, dist, config.trials, stream)
        return [f"{f},{n},{e!r},{p!r},{(p * (1.0 - p) / config.trials) ** 0.5!r}"
                for f, e, p in zip(ftols, exact, (hits / config.trials).tolist())]

    with ThreadPoolExecutor(max_workers=max(1, config.jobs)) as pool:
        per_size = list(pool.map(size_rows, sizes, streams))
    return [row for cells in zip(*per_size) for row in cells]   # f_tol-major


def cmd_sweep_double_accept(config: ExperimentConfig) -> int:
    text = "\n".join([SWEEP_HEADER, *sweep_rows(config)]) + "\n"
    if config.out == "-":
        sys.stdout.write(text)
    else:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _sweep_from_args(args) -> int:
    ftols = tuple(args.ftol) if args.ftol else tuple(_default_ftol_grid())
    try:
        config = ExperimentConfig(
            seed=default_seed() if args.seed is None else args.seed,
            trials=args.trials,
            sizes=tuple(args.N),
            ftol_grid=ftols,
            strategy=args.strategy,
            out=args.out,
            jobs=args.jobs,
        )
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return cmd_sweep_double_accept(config)


# -- bounds ---------------------------------------------------------------

def _bound_row(name: str, fn, *fn_args) -> dict:
    """Evaluate one bound; vacuous-parameter regimes become a row, with the
    formula's exponent still reported."""
    try:
        report: BoundReport = fn(*fn_args)
    except InsecureParametersError as exc:
        return {"name": name, "insecure": True, "exponent": exc.exponent}
    return {"name": name, "insecure": False, "raw": report.raw,
            "clamped": report.clamped, "exponent": report.exponent,
            "prefactor": report.prefactor, "scale": report.scale}


def cmd_bounds(args) -> int:
    f = float(args.ftol)
    thresholds = {
        "single_copy": float(SINGLE_COPY_THRESHOLD),
        "paired": CV_THRESHOLD,
    }
    if args.copies is not None:
        thresholds[f"multicopy(c={args.copies})"] = float(multicopy_threshold(args.copies))
    rows: list[dict] = []
    if args.N is None and args.n is None and args.r is None:
        print("bounds: need --N and/or --n/--r", file=sys.stderr)
        return EXIT_USAGE
    if (args.n is None) != (args.r is None):
        print("bounds: --n and --r go together", file=sys.stderr)
        return EXIT_USAGE
    if args.N is not None:
        if args.fexp is not None and args.fexp > f:
            rows.append(_bound_row("soundness", soundness_bound,
                                   args.N, args.fexp, args.ftol))
        rows.append(_bound_row("security", security_bound, args.N, args.ftol))
        rows.append(_bound_row("learning", learning_bound, args.N, args.ftol, args.v))
        if f < float(SINGLE_COPY_THRESHOLD):
            rows.append(_bound_row("hoeffding_rejection", hoeffding_rejection,
                                   args.N, args.ftol))
        if args.copies is not None:
            rows.append(_bound_row(
                f"multicopy_security(c={args.copies})", multicopy_security_bound,
                args.N, args.ftol, args.copies))
    if args.n is not None:
        if args.fexp is not None and args.fexp > f:
            rows.append(_bound_row("cv_soundness", cv_soundness_bound,
                                   args.n, args.r, args.fexp, args.ftol))
        rows.append(_bound_row("cv_security", cv_security_bound,
                               args.n, args.r, args.ftol, args.v))
    if args.json:
        print(json.dumps({"thresholds": thresholds, "bounds": rows}, sort_keys=True))
        return EXIT_OK
    parts = "  ".join(f"{k}={v!r}" for k, v in thresholds.items())
    print(f"thresholds  {parts}")
    for row in rows:
        if row["insecure"]:
            print(f"{row['name']:<24} insecure-parameters  exponent={row['exponent']!r}")
        else:
            print(f"{row['name']:<24} raw={row['raw']!r}  clamped={row['clamped']!r}  "
                  f"exponent={row['exponent']!r}  prefactor={row['prefactor']!r}")
    return EXIT_OK


def cmd_game_values(args=None) -> int:
    g = build_cv_pair_games()
    rows = {
        "single_axis_z": selective_value(g.g_z).value,
        "single_axis_x": selective_value(g.g_x).value,
        "both_axes": selective_value(g.g_and).value,
        "average": selective_value(g.g_avg).value,
        "repeated_question": selective_value(repeated_question_game("Z")).value,
        "mixed_question": mixed_question_value(),
    }
    if args is not None and args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        for key, val in rows.items():
            print(f"{key}={val!r}")
    return EXIT_OK


# -- challenge-response demo ----------------------------------------------

def _emit(args, direction: str, message: dict) -> None:
    if not args.quiet:
        line = json.dumps(message, separators=(",", ":"), sort_keys=True)
        print(f"{direction} {line}")


def _verdict_exit(message: dict | None) -> int:
    if message is None or message["type"] == "error":
        return EXIT_PROTOCOL
    return EXIT_OK if message.get("accepted") else EXIT_REJECTED


class _DemoChannel:
    """Holder end of the in-process demo: ``send`` prints each message and
    hands it to the verifier's next step, ``recv`` prints the reply; the
    holder's caps and deadline have nothing to bound in-process."""

    def __init__(self, verifier: CvVerifier, args):
        self.verifier, self.args, self.session = verifier, args, None

    def send(self, message: dict) -> None:
        _emit(self.args, ">>", message)
        if self.session is None:
            self.reply, self.session = self.verifier.challenge(message)
        else:
            self.reply = self.verifier.judge(self.session, message)

    def recv(self, limit: int, timeout: float) -> dict:
        _emit(self.args, "<<", self.reply)
        return self.reply


def _demo_in_process(args) -> int:
    rng = _seeded(args)
    store = SecretStore(args.store)
    layout = CvLayout(args.n, args.r, args.ftol)
    secret, token = cv_issue(layout, rng)
    register(store, layout, secret)
    if args.noise_fidelity is not None:
        token = degrade(token, depolarizing_for_fidelity(args.noise_fidelity))
    verifier = CvVerifier(store, rng.spawn(1)[0], question_policy=args.policy)
    verdict = run_holder(_DemoChannel(verifier, args), token, rng)
    if args.store is not None:
        store.save()
    return _verdict_exit(verdict)


def _demo_listen(args) -> int:
    if args.store is None:
        print("cv-demo --listen needs --store", file=sys.stderr)
        return EXIT_USAGE
    rng = _seeded(args)
    store = SecretStore(args.store)
    verifier = CvVerifier(store, rng, question_policy=args.policy)
    with socket.create_server(args.listen) as server:
        # printed also under --quiet: clients wait for this line to learn
        # the bound port instead of probing it
        bound_host, bound_port = server.getsockname()[:2]
        print(f"listening {bound_host}:{bound_port}", flush=True)
        conn, _ = server.accept()
        with wire.LineChannel(conn) as chan:
            final = verifier.serve_one(chan)
    store.save()
    if final is not None:
        _emit(args, "<<", final)
    return _verdict_exit(final)


def _demo_connect(args) -> int:
    if args.token is None:
        print("cv-demo --connect needs --token", file=sys.stderr)
        return EXIT_USAGE
    rng = _seeded(args)
    token = read_token(args.token)
    if not isinstance(token, CvToken):
        print("cv-demo: a measured token is not redeemable over the wire", file=sys.stderr)
        return EXIT_USAGE
    if args.noise_fidelity is not None:
        token = degrade(token, depolarizing_for_fidelity(args.noise_fidelity))
    host, port = args.connect
    try:
        with wire.LineChannel.connect(host, port) as chan:
            verdict = run_holder(chan, token, rng)
    except (OSError, wire.ProtocolError) as exc:
        print(f"cv-demo: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    _emit(args, "<<", verdict)
    return _verdict_exit(verdict)


def cmd_cv_demo(args) -> int:
    if args.listen is not None and args.connect is not None:
        print("cv-demo: --listen and --connect are exclusive", file=sys.stderr)
        return EXIT_USAGE
    if args.token is not None and args.connect is None:
        print("cv-demo: --token goes with --connect; the local demo mints its own token",
              file=sys.stderr)
        return EXIT_USAGE
    if args.listen is not None:
        return _demo_listen(args)
    if args.connect is not None:
        return _demo_connect(args)
    return _demo_in_process(args)


COMMANDS = {
    "issue": cmd_issue,
    "verify": cmd_verify,
    "sweep": _sweep_from_args,
    "bounds": cmd_bounds,
    "games": cmd_game_values,
    "cv-demo": cmd_cv_demo,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (InsecureParametersError, ValueError, OSError) as exc:
        print(f"qtl: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except wire.ProtocolError as exc:
        print(f"qtl: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
