#!/usr/bin/env python3
"""Issue a paired token, then redeem it over TCP with separate OS processes.

Three actors: this process issues the token and plays the holder; a spawned
verifier process serves one challenge-response session per redemption
attempt.  The second attempt must be refused as already redeemed.
"""
import argparse
import subprocess
import sys
import tempfile
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--r", type=int, default=16)
    ap.add_argument("--ftol", default="3/4")
    ap.add_argument("--noise-fidelity", type=float, default=None)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="qtl-demo-") as workdir:
        return _round_trip(args, Path(workdir))


def _round_trip(args, workdir: Path) -> int:
    store = str(workdir / "secrets.json")
    token = str(workdir / "token.json")
    py = [sys.executable, "-m", "qtokens"]

    issue = subprocess.run(
        py + ["issue", "--kind", "cv", "--n", str(args.n), "--r", str(args.r),
              "--ftol", args.ftol, "--store", store, "--out", token,
              "--seed", str(args.seed)],
        capture_output=True, text=True, check=True)
    print(f"issued serial {issue.stdout.strip()}")

    for attempt in (1, 2):
        verifier = subprocess.Popen(
            py + ["cv-demo", "--listen", "127.0.0.1:0",
                  "--store", store, "--quiet", "--seed", str(args.seed + attempt)],
            stdout=subprocess.PIPE, text=True)
        # the verifier prints "listening HOST:PORT" once its socket is bound
        ready = verifier.stdout.readline().split()
        if ready[:1] != ["listening"]:
            verifier.kill()
            raise RuntimeError(f"verifier did not start: {verifier.wait()}")
        port = ready[1].rpartition(":")[2]
        holder_args = py + ["cv-demo", "--connect", f"127.0.0.1:{port}",
                            "--token", token, "--seed", str(args.seed + 100)]
        if args.noise_fidelity is not None:
            holder_args += ["--noise-fidelity", str(args.noise_fidelity)]
        holder = subprocess.run(holder_args)
        verifier.communicate(timeout=30)
        print(f"attempt {attempt}: holder exit {holder.returncode}, "
              f"verifier exit {verifier.returncode}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
