"""Acceptance gate: the eleven headline quantities this package reproduces.

Each test covers one numbered claim end to end at its stated tolerance and
records a single ``[accept-NN] PASS/FAIL`` line, echoed by the terminal
summary hook so the gate is auditable straight from the test log.  Every
stochastic check runs on a fixed seed; the 4-sigma comparisons are therefore
reproducible verbatim.
"""
import math
import time
from fractions import Fraction

import numpy as np

import oracles as O
from qtokens.attacks import (CV_ATTACKERS, PAIR_STRATEGIES,
                             intermediate_basis_bits,
                             mixture_outcome_distribution,
                             pair_outcome_distribution, sequential_attack_rate)
from qtokens.bounds import (CV_THRESHOLD, InsecureParametersError,
                            chernoff_tail, cv_security_bound, hoeffding_rejection,
                            multicopy_threshold, relative_entropy,
                            security_bound, soundness_bound)
from qtokens.channels import depolarizing_for_fidelity
from qtokens.cli import ExperimentConfig, cmd_sweep_double_accept
from qtokens.core import LABELS, PROJECTOR_STACK
from qtokens.cv import CvLayout, double_spend_experiment, honest_protocol_experiment
from qtokens.games import Wqrg, build_cv_pair_games, selective_value
from qtokens.qticket import double_acceptance_exact, exact_honest_acceptance
from qtokens.rational import threshold_count
from qtokens.rng import root_rng


REPORT_LINES: list[str] = []


def _report(tag: str, ok: bool, detail) -> None:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}"
    REPORT_LINES.append(line)
    print(line)
    assert ok, f"{tag}: {detail}"


def _sigma(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-300) / trials)


# -- 1: the four pair-retrieval game constants -------------------------------

def test_01_retrieval_game_constants():
    t0 = time.perf_counter()
    games = build_cv_pair_games()
    got = [selective_value(g).value
           for g in (games.g_z, games.g_x, games.g_and, games.g_avg)]
    want = [1.0, 1.0, 0.75, 0.8535533906]
    errs = [abs(g - w) for g, w in zip(got, want)]
    elapsed = time.perf_counter() - t0
    ok = max(errs) < 1e-9 and elapsed < 1.0
    _report("accept-01", ok,
            f"values {[f'{v:.10f}' for v in got]} max err {max(errs):.2e} "
            f"in {elapsed:.3f}s")


# -- 2: universal-cloner outcome statistics ----------------------------------

def test_02_universal_cloner_statistics():
    strategy = PAIR_STRATEGIES["universal-cloner"]
    target = (2 / 3, 1 / 6, 1 / 6, 0.0)
    dists = [tuple(pair_outcome_distribution(strategy, lab))
             for lab in range(len(LABELS))]
    errs = [max(abs(a - b) for a, b in zip(d, target)) for d in dists]
    spread = max(max(abs(a - b) for a, b in zip(d, dists[0])) for d in dists)
    # independent route: raw 4x4 trace arithmetic on the cloner's output
    oracle_err = 0.0
    for name in O.LABEL_ORDER:
        ora = O.pair_joint_dist(O.cloner_output(O.ket_projector(name)), name)
        oracle_err = max(oracle_err, max(abs(a - b) for a, b in zip(ora, target)))
    marginal = pair_outcome_distribution(strategy, 0).first_marginal
    ok = (max(errs) < 1e-12 and spread < 1e-12 and oracle_err < 1e-12
          and abs(marginal - 5 / 6) < 1e-12)
    _report("accept-02", ok,
            f"joint err {max(errs):.1e} label spread {spread:.1e} "
            f"oracle err {oracle_err:.1e} marginal {marginal:.12f}")


# -- 3: counterfeit double-acceptance sweep ----------------------------------

def test_03_double_acceptance_sweep(tmp_path):
    t0 = time.perf_counter()
    sizes = (50, 200, 1000)
    grid = tuple(Fraction(k, 100) for k in range(70, 96))
    out = tmp_path / "sweep.csv"
    config = ExperimentConfig(seed=20260815, trials=10_000, sizes=sizes,
                              ftol_grid=grid, strategy="universal-cloner",
                              out=str(out), jobs=4)
    assert cmd_sweep_double_accept(config) == 0
    rows = out.read_text().splitlines()[1:]
    curves: dict[int, list[tuple[Fraction, float, float]]] = {n: [] for n in sizes}
    for row in rows:
        f_s, n_s, exact_s, mc_s, se_s = row.split(",")
        curves[int(n_s)].append((Fraction(f_s), float(exact_s), float(mc_s)))

    failures = []
    worst_sigma = 0.0
    for n, pts in curves.items():
        pts.sort()
        exacts = [e for _, e, _ in pts]
        if any(b > a + 1e-12 for a, b in zip(exacts, exacts[1:])):
            failures.append(f"curve N={n} not monotone")
        for _, e, mc in pts:
            gap = abs(mc - e) / max(_sigma(e, config.trials), 1e-12)
            worst_sigma = max(worst_sigma, gap if e not in (0.0, 1.0) else 0.0)
            if abs(mc - e) > 4.0 * _sigma(e, config.trials) + 1e-12:
                failures.append(f"mc off at N={n}: exact {e} mc {mc}")
    by_cell = {(n, f): e for n, pts in curves.items() for f, e, _ in pts}
    if not by_cell[(1000, Fraction(3, 4))] >= 0.99:
        failures.append("N=1000 f_tol=3/4 exact below 0.99")
    if not by_cell[(1000, Fraction(9, 10))] <= 1e-3:
        failures.append("N=1000 f_tol=9/10 exact above 1e-3")
    # the curve family steepens into a step at 5/6 as N grows
    dist = mixture_outcome_distribution(PAIR_STRATEGIES["universal-cloner"])
    lo, hi = Fraction(5, 6) - Fraction(1, 50), Fraction(5, 6) + Fraction(1, 50)
    gaps = [double_acceptance_exact(n, lo, dist)
            - double_acceptance_exact(n, hi, dist) for n in sizes]
    if not gaps[0] < gaps[1] < gaps[2]:
        failures.append(f"step gaps not increasing: {gaps}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    _report("accept-03", not failures,
            failures or f"78 cells monotone, step gaps {[f'{g:.3f}' for g in gaps]}, "
            f"worst mc deviation {worst_sigma:.2f} sigma, {elapsed:.1f}s")


# -- 4: honest acceptance dominates its analytic lower bound -----------------

def test_04_soundness_bound_dominance():
    t0 = time.perf_counter()
    failures = []
    margin = 1.0
    for n in (50, 200, 500):
        for f_exp in (0.90, 0.95, 0.99):
            for f_tol in (Fraction(4, 5), Fraction(17, 20), Fraction(9, 10)):
                if not float(f_tol) < f_exp:
                    continue
                exact = exact_honest_acceptance([f_exp] * n, f_tol)
                lower = soundness_bound(n, f_exp, f_tol).raw
                margin = min(margin, exact - lower)
                if not exact >= lower - 1e-12:
                    failures.append(f"N={n} F_exp={f_exp} F_tol={f_tol}: "
                                    f"{exact} < {lower}")
    # below the 5/6 ceiling the rejection tail dominates the exact
    # Binomial(N, 5/6) lower tail
    for n in (50, 200, 500):
        f_tol = Fraction(4, 5)
        k_min = threshold_count(f_tol, n)
        exact_tail = O.binom_tail_le(n, 5 / 6, k_min - 1)
        bound = hoeffding_rejection(n, f_tol).raw
        if not bound >= exact_tail - 1e-12:
            failures.append(f"rejection bound at N={n}: {bound} < {exact_tail}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    _report("accept-04", not failures,
            failures or f"24 acceptance cells + 3 rejection cells dominated, "
            f"min margin {margin:.3e}, {elapsed:.1f}s")


# -- 5: Chernoff tails dominate exact binomials -------------------------------

def test_05_chernoff_dominance():
    t0 = time.perf_counter()
    rng = root_rng(20260805)
    failures = []
    for i in range(500):
        n = int(rng.integers(1, 1001))
        delta = float(rng.uniform(0.01, 0.99))
        gamma = float(rng.uniform(delta, 1.0))
        upper = O.binom_tail_ge(n, delta, math.ceil(gamma * n))
        if upper > chernoff_tail(n, gamma, delta) + 1e-12:
            failures.append(f"upper tail #{i}: n={n} g={gamma} d={delta}")
        gamma_lo = float(rng.uniform(0.0, delta))
        lower = O.binom_tail_le(n, delta, math.floor(gamma_lo * n))
        if lower > chernoff_tail(n, 1.0 - gamma_lo, 1.0 - delta) + 1e-12:
            failures.append(f"lower tail #{i}: n={n} g={gamma_lo} d={delta}")
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 100):
        for q in np.linspace(0.005, 0.995, 100):
            slack = relative_entropy(float(p), float(q)) - 2.0 * (p - q) ** 2
            worst = min(worst, slack)
            if slack < -1e-12:
                failures.append(f"divergence below quadratic at p={p} q={q}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    _report("accept-05", not failures,
            failures or f"1000 tails dominated, quadratic slack >= {worst:.1e}, "
            f"{elapsed:.1f}s")


# -- 6: retrieval-game calculus ------------------------------------------------

def _random_density(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_game(rng, n_states=3, n_answers=3):
    states = np.stack([_random_density(rng) for _ in range(n_states)])
    w = rng.random(n_states) + 0.2
    w /= w.sum()
    answers = tuple(f"a{i}" for i in range(n_answers))
    return Wqrg(states, w, rng.random((n_states, n_answers)), answers)


def _random_povm(rng, dim, n_elements):
    raw = []
    for _ in range(n_elements):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append(g @ g.conj().T)
    total = sum(raw)
    eigs, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs * (eigs ** -0.5)) @ vecs.conj().T
    return [inv_sqrt @ m @ inv_sqrt for m in raw]


def test_06_game_calculus_properties():
    rng = root_rng(20260806)
    failures = []
    mult_err = 0.0
    for _ in range(100):
        g1 = _random_game(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
        g2 = _random_game(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
        v1, v2 = selective_value(g1).value, selective_value(g2).value
        v12 = selective_value(O.tensor_product(g1, g2)).value
        mult_err = max(mult_err, abs(v12 - v1 * v2) / max(1.0, v1 * v2))
    if mult_err >= 1e-8:
        failures.append(f"multiplicativity off by {mult_err:.2e}")

    games = build_cv_pair_games()
    ach_err = 0.0
    pool = [games.g_z, games.g_x, games.g_and, games.g_avg]
    pool += [_random_game(rng) for _ in range(20)]
    for g in pool:
        res = selective_value(g)
        witness = O.top_eigenspace_witness(g, res.answer)
        ach_err = max(ach_err, abs(O.value_wrt_projection(g, witness) - res.value))
    if ach_err >= 1e-9:
        failures.append(f"witness shortfall {ach_err:.2e}")

    restr_err = 0.0
    for _ in range(10):
        g1 = _random_game(rng, n_states=3, n_answers=2)
        g2 = _random_game(rng, n_states=2, n_answers=2)
        prod = O.tensor_product(g1, g2)
        ops = {}
        for a1, a2 in prod.answers:
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = g @ g.conj().T
            ops[(a1, a2)] = m / np.linalg.eigvalsh(m).max()
        restricted = O.restrict_projection(O.SelectiveProjection(ops),
                                           g2.reduced(), keep=0)
        for i in range(3):
            for a1 in g1.answers:
                # product rows run over (s1, s2) row-major: s1 = i is rows 2i, 2i+1
                joint = sum(
                    float(np.trace(ops[(a1, a2)]
                                   @ (prod.weights[j] * prod.states[j])).real)
                    for j in (2 * i, 2 * i + 1) for a2 in g2.answers)
                direct = float(np.trace(restricted.operators[a1]
                                        @ (g1.weights[i] * g1.states[i])).real)
                restr_err = max(restr_err, abs(joint - direct))
    if restr_err >= 1e-10:
        failures.append(f"restriction mismatch {restr_err:.2e}")

    excess = 0.0
    for _ in range(250):
        g = _random_game(rng, n_states=int(rng.integers(2, 5)),
                         n_answers=int(rng.integers(2, 4)))
        sel = selective_value(g).value
        dim = g.states.shape[-1]
        for _ in range(4):
            povm = _random_povm(rng, dim, len(g.answers))
            phys = O.SelectiveProjection(dict(zip(g.answers, povm)))
            excess = max(excess,
                         O.value_wrt_projection(g, phys) - sel)
    if excess > 1e-9:
        failures.append(f"a physical strategy beat the selective value by {excess:.2e}")
    _report("accept-06", not failures,
            failures or f"mult err {mult_err:.1e}, witness err {ach_err:.1e}, "
            f"restriction err {restr_err:.1e}, physical excess {excess:.1e}")


# -- 7: challenge-response protocol, honest holder ----------------------------

def test_07_protocol_soundness():
    t0 = time.perf_counter()
    failures = []
    noiseless = honest_protocol_experiment(CvLayout(4, 16, Fraction(3, 4)),
                                           None, 1000, root_rng(20260807))
    if noiseless.rate != 1.0:
        failures.append(f"noiseless rate {noiseless.rate} != 1")
    layout = CvLayout(10, 100, Fraction(9, 10))
    chan = depolarizing_for_fidelity(0.95)
    rep = honest_protocol_experiment(layout, chan, 10_000, root_rng(20260907))
    want = (1.0 - math.exp(-100 * relative_entropy(0.9, 0.95))) ** 10
    if abs(rep.bound.raw - want) > 1e-9:
        failures.append(f"bound {rep.bound.raw} != {want}")
    slack = rep.rate - (rep.bound.raw - 4.0 * _sigma(rep.rate, rep.trials))
    if slack < 0.0:
        failures.append(f"noisy rate {rep.rate} below bound {rep.bound.raw}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    _report("accept-07", not failures,
            failures or f"noiseless 1000/1000, noisy rate {rep.rate:.4f} vs "
            f"bound {rep.bound.raw:.4f}, {elapsed:.1f}s")


# -- 8: paired-token attack ceiling -------------------------------------------

def test_08_attack_ceiling():
    rng = root_rng(20260808)
    trials = 100_000
    labels = rng.integers(0, 4, size=trials)  # Z and X eigenstates only
    bits = intermediate_basis_bits(PROJECTOR_STACK[labels], rng)
    success = float((bits == (labels % 2)).mean())
    sig = _sigma(O.COS2_PI_8, trials)
    failures = []
    if abs(success - O.COS2_PI_8) > 4.0 * sig:
        failures.append(f"per-qubit success {success} vs {O.COS2_PI_8}")
    layout = CvLayout(20, 200, Fraction(23, 25))
    rep = double_spend_experiment(layout, CV_ATTACKERS["intermediate-basis"](),
                                  "independent", 10_000, rng)
    bound = cv_security_bound(20, 200, Fraction(23, 25), 2).clamped
    if rep.successes != 0:
        failures.append(f"{rep.successes} double-spends observed")
    if not rep.rate <= rep.bound or rep.bound != bound:
        failures.append(f"rate {rep.rate} bound {rep.bound} lib {bound}")
    _report("accept-08", not failures,
            failures or f"success {success:.5f} = cos^2(pi/8) +- "
            f"{abs(success - O.COS2_PI_8) / sig:.2f} sigma; "
            f"0/{rep.trials} double-spends, bound {bound:.3e}")


# -- 9: sequential verification learning bound --------------------------------

def test_09_sequential_learning_bound():
    summary = sequential_attack_rate(1000, Fraction(9, 10), 10,
                                     "clone-then-adapt", 100_000,
                                     root_rng(20260809))
    want = math.comb(10, 2) * math.exp(-1000 * relative_entropy(0.8, 2 / 3))
    failures = []
    if summary.double_accepts != 0:
        failures.append(f"{summary.double_accepts} double-accepts")
    if not summary.rate <= summary.bound.clamped:
        failures.append(f"rate {summary.rate} above bound")
    if abs(summary.bound.clamped - want) > 1e-9 * want:
        failures.append(f"bound {summary.bound.clamped} != {want}")
    _report("accept-09", not failures,
            failures or f"0/{summary.trials} double-accepts over v=10 attempts, "
            f"bound {summary.bound.clamped:.3e}")


# -- 10: multiplexed sequential measurements -----------------------------------

def _commuting_cells():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    pa = [np.kron(p, np.eye(2)) for p in (p0, p1)]
    pb = [np.kron(np.eye(2), p) for p in (p0, p1)]
    cells = {(a, b): np.kron((p0, p1)[a], (p0, p1)[b])
             for a in (0, 1) for b in (0, 1)}
    return cells, pa, pb


def test_10_multiplexing_inequality():
    cells, pa, pb = _commuting_cells()
    ideal = O.multiplex_sequential_check(cells, pa, pb)
    failures = []
    if ideal.epsilon != 0.0 or abs(ideal.min_joint_success - 1.0) > 1e-12:
        failures.append(f"commuting case: eps {ideal.epsilon}, "
                        f"joint {ideal.min_joint_success}")
    rng = root_rng(20260810)
    worst = 1.0
    for _ in range(200):
        cells, pa, pb = _commuting_cells()
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (h + h.conj().T) / 2.0
        eigs, vecs = np.linalg.eigh(h)
        theta = float(rng.uniform(0.0, 0.05))
        u = (vecs * np.exp(1j * theta * eigs)) @ vecs.conj().T
        pb = [u @ p @ u.conj().T for p in pb]
        eta = float(rng.uniform(0.0, 0.02))
        cells = {k: (1.0 - eta) * v + eta * np.eye(4) / 4.0
                 for k, v in cells.items()}
        check = O.multiplex_sequential_check(cells, pa, pb)
        worst = min(worst, check.min_joint_success - check.bound)
        if not check.holds:
            failures.append(f"violated at theta={theta} eta={eta}")
    _report("accept-10", not failures,
            failures or f"200 near-commuting instances hold, min slack {worst:.3e}; "
            f"commuting case saturates at 1")


# -- 11: security thresholds ----------------------------------------------------

def test_11_threshold_table():
    failures = []
    for c, want in ((1, Fraction(5, 6)), (2, Fraction(11, 12))):
        got = multicopy_threshold(c)
        if got != want:
            failures.append(f"c={c}: {got} != {want}")
    try:
        multicopy_threshold(3)
        failures.append("c=3 has a threshold but no certified cloning ceiling")
    except ValueError:
        pass

    def _raises(fn, *args):
        try:
            fn(*args)
        except InsecureParametersError as exc:
            return "insecure-parameters" in str(exc)
        return False

    if not _raises(security_bound, 100, Fraction(5, 6)):
        failures.append("no refusal at the measured-token threshold")
    if not _raises(security_bound, 100, Fraction(33, 40)):
        failures.append("no refusal below the measured-token threshold")
    if _raises(security_bound, 100, Fraction(5, 6) + Fraction(1, 1000)):
        failures.append("refusal just above the measured-token threshold")
    if not _raises(cv_security_bound, 8, 25, CV_THRESHOLD, 2):
        failures.append("no refusal at the paired-token threshold")
    if not _raises(cv_security_bound, 8, 25, Fraction(5, 6), 2):
        failures.append("no refusal below the paired-token threshold")
    if _raises(cv_security_bound, 8, 25, CV_THRESHOLD + 1e-9, 2):
        failures.append("refusal just above the paired-token threshold")
    _report("accept-11", not failures,
            failures or "thresholds 5/6, 11/12 exact, c=3 refused; refusals "
            "flip exactly at 5/6 and cos^2(pi/8)")
