"""Retrieval games: selective values, witnesses, products, multiplexing."""
import numpy as np
import pytest

from qtokens.games import (Wqrg, build_cv_pair_games, mixed_question_value,
                           repeated_question_game, selective_value)

import oracles as O


GAMES = build_cv_pair_games()


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


# -- the four pair games ------------------------------------------------------

def test_four_game_selective_values():
    assert abs(selective_value(GAMES.g_z).value - 1.0) < 1e-9
    assert abs(selective_value(GAMES.g_x).value - 1.0) < 1e-9
    assert abs(selective_value(GAMES.g_and).value - O.FROZEN["g_and_value"]) < 1e-9
    assert abs(selective_value(GAMES.g_avg).value - O.FROZEN["g_avg_value"]) < 1e-9
    assert abs(selective_value(GAMES.g_avg).value - O.COS2_PI_8) < 1e-9


def test_two_answer_games_use_paired_answers():
    res = selective_value(GAMES.g_and)
    assert res.answer in GAMES.g_and.answers
    assert isinstance(res.answer, tuple) and len(res.answer) == 2


def test_pair_ensemble_reduced_state():
    game = GAMES.g_z
    np.testing.assert_allclose(game.reduced(), np.eye(4) / 4.0, atol=1e-12)
    np.testing.assert_allclose(game.weights, np.full(8, 1.0 / 8.0), atol=1e-15)


def _pair_names(game) -> list[tuple[str, str]]:
    """Each ensemble row's Z/X pair, read off its state by name."""
    return [next(p for p in O.ZX_PAIRS
                 if np.allclose(state, np.kron(O.ket_projector(p[0]),
                                               O.ket_projector(p[1])), atol=1e-12))
            for state in game.states]


def test_pair_game_tables_follow_the_label_rule():
    pairs = _pair_names(GAMES.g_z)
    assert sorted(pairs) == sorted(O.ZX_PAIRS)

    def rule(axis, answer):
        return np.array([O.pair_axis_utility(p, axis, answer) for p in pairs])

    games = {"g_x": GAMES.g_x, "g_z": GAMES.g_z, "g_and": GAMES.g_and,
             "g_avg": GAMES.g_avg, "rep_z": repeated_question_game("Z"),
             "rep_x": repeated_question_game("X")}
    for game in games.values():
        np.testing.assert_array_equal(game.states, GAMES.g_z.states)
    for name, axis in (("g_x", "X"), ("g_z", "Z")):
        want = np.stack([rule(axis, a) for a in games[name].answers], axis=1)
        np.testing.assert_array_equal(games[name].utility, want, err_msg=name)
    two_answer = {
        "g_and": lambda ax, az: rule("X", ax) * rule("Z", az),
        "g_avg": lambda ax, az: (rule("X", ax) + rule("Z", az)) / 2.0,
        "rep_z": lambda a1, a2: (rule("Z", a1) + rule("Z", a2)) / 2.0,
        "rep_x": lambda a1, a2: (rule("X", a1) + rule("X", a2)) / 2.0,
    }
    for name, combine in two_answer.items():
        want = np.stack([combine(*a) for a in games[name].answers], axis=1)
        np.testing.assert_array_equal(games[name].utility, want, err_msg=name)


def test_witnesses_achieve_their_values():
    for game in (GAMES.g_z, GAMES.g_x, GAMES.g_and, GAMES.g_avg):
        res = selective_value(game)
        witness = O.top_eigenspace_witness(game, res.answer)
        achieved = O.value_wrt_projection(game, witness)
        assert abs(achieved - res.value) < 1e-9


def test_explicit_measurements_saturate_single_axis_games():
    z0, z1 = O.ket_projector("Z+"), O.ket_projector("Z-")
    x0, x1 = O.ket_projector("X+"), O.ket_projector("X-")
    meas_z = O.SelectiveProjection({
        f"{b1}{b2}": np.kron((z0, z1)[b1], (z0, z1)[b2])
        for b1 in (0, 1) for b2 in (0, 1)})
    meas_x = O.SelectiveProjection({
        f"{b1}{b2}": np.kron((x0, x1)[b1], (x0, x1)[b2])
        for b1 in (0, 1) for b2 in (0, 1)})
    assert meas_z.is_physical(4) and meas_x.is_physical(4)
    assert abs(O.value_wrt_projection(GAMES.g_z, meas_z) - 1.0) < 1e-12
    assert abs(O.value_wrt_projection(GAMES.g_x, meas_x) - 1.0) < 1e-12


def test_uniform_guess_scores_one_half_on_single_axis_game():
    guess = O.SelectiveProjection({a: np.eye(4) / 4.0 for a in GAMES.g_z.answers})
    assert guess.is_physical(4)
    assert abs(O.value_wrt_projection(GAMES.g_z, guess) - 0.5) < 1e-12


def test_random_strategies_never_beat_selective_value(rng):
    for game in (GAMES.g_z, GAMES.g_and, GAMES.g_avg):
        sel = selective_value(game).value
        answers = game.answers
        for _ in range(40):
            povm = _random_povm(rng, 4, len(answers))
            physical = O.SelectiveProjection(dict(zip(answers, povm)))
            assert O.value_wrt_projection(game, physical) <= sel + 1e-9
            # sub-normalized selective strategies obey the same ceiling
            rigged = O.SelectiveProjection({
                a: m * float(rng.random()) for a, m in zip(answers, povm)})
            assert O.value_wrt_projection(game, rigged) <= sel + 1e-9


# -- products -----------------------------------------------------------------

def test_selective_value_multiplicative_on_random_games(rng):
    for _ in range(100):
        g1 = _random_game(rng, n_states=int(rng.integers(2, 5)),
                          n_answers=int(rng.integers(2, 4)))
        g2 = _random_game(rng, n_states=int(rng.integers(2, 5)),
                          n_answers=int(rng.integers(2, 4)))
        v1 = selective_value(g1).value
        v2 = selective_value(g2).value
        v12 = selective_value(O.tensor_product(g1, g2)).value
        assert abs(v12 - v1 * v2) < 1e-8 * max(1.0, v1 * v2)


def test_restriction_consistency(rng):
    g1 = _random_game(rng, n_states=3, n_answers=2)
    g2 = _random_game(rng, n_states=2, n_answers=2)
    prod = O.tensor_product(g1, g2)
    ops = {}
    for key in prod.answers:
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        ops[key] = m / np.linalg.eigvalsh(m).max()
    restricted = O.restrict_projection(O.SelectiveProjection(ops), g2.reduced(), keep=0)
    n2 = len(g2.weights)
    for i in range(3):
        for a1 in g1.answers:
            # product rows run over (s1, s2) row-major: s1 = i is one block
            joint_mass = sum(
                float(np.trace(ops[(a1, a2)] @ (prod.weights[j] * prod.states[j])).real)
                for j in range(n2 * i, n2 * (i + 1)) for a2 in g2.answers)
            direct = float(np.trace(
                restricted.operators[a1] @ (g1.weights[i] * g1.states[i])).real)
            assert abs(joint_mass - direct) < 1e-10


# -- question-mixing values ------------------------------------------------------

def test_repeated_question_game_is_winnable():
    for axis in ("Z", "X"):
        assert abs(selective_value(repeated_question_game(axis)).value - 1.0) < 1e-9


def test_mixed_question_value():
    got = mixed_question_value()
    assert abs(got - O.FROZEN["mixed_question"]) < 1e-9
    assert abs(got - (0.5 + 0.5 * O.COS2_PI_8)) < 1e-9


# -- multiplexed sequential measurement -------------------------------------------

def _cell_projectors():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    pa = [np.kron(p, np.eye(2)) for p in (p0, p1)]
    pb = [np.kron(np.eye(2), p) for p in (p0, p1)]
    cells = {(a, b): np.kron((p0, p1)[a], (p0, p1)[b])
             for a in (0, 1) for b in (0, 1)}
    return cells, pa, pb


def test_multiplex_commuting_case_saturates():
    cells, pa, pb = _cell_projectors()
    check = O.multiplex_sequential_check(cells, pa, pb)
    assert check.epsilon == 0.0
    assert abs(check.min_joint_success - 1.0) < 1e-12
    assert abs(check.bound - 1.0) < 1e-12
    assert check.holds


def test_multiplex_near_commuting_random_instances(rng):
    for _ in range(200):
        cells, pa, pb = _cell_projectors()
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
        assert check.holds, (theta, eta, check)


def test_multiplex_validation():
    cells, pa, pb = _cell_projectors()
    with pytest.raises(ValueError):
        O.multiplex_sequential_check(cells, [np.eye(4) * 0.5, np.eye(4) * 0.5], pb)
    with pytest.raises(ValueError):
        O.multiplex_sequential_check(cells, pa[:1], pb)


# -- validation ---------------------------------------------------------------

def _game(states, weights, utility=None, answers=("a",)):
    states = np.asarray(states)
    if utility is None:
        utility = np.zeros((len(states), len(answers)))
    return Wqrg(states, np.asarray(weights, dtype=float), np.asarray(utility), answers)


def test_ensemble_validation_errors():
    rho = np.eye(2) / 2.0
    with pytest.raises(ValueError):
        _game([rho, rho], [0.5], np.zeros((2, 1)))
    with pytest.raises(ValueError):
        _game([rho, rho], [0.7, 0.7])
    with pytest.raises(ValueError):
        _game([rho, rho], [0.5, -0.5])
    with pytest.raises(ValueError):
        _game([np.eye(3) / 3.0], [1.0])
    with pytest.raises(ValueError):
        _game([np.array([[0.9, 0.3], [0.1, 0.1]])], [1.0])
    with pytest.raises(ValueError):
        _game([rho, rho], [0.5, 0.5], np.zeros((2, 2)), answers=("a",))


def test_rank_deficient_ensemble_rejected():
    z0 = O.ket_projector("Z+")
    game = _game([z0, z0], [0.5, 0.5], [[1.0], [0.0]])
    with pytest.raises(ValueError, match="rank-deficient"):
        selective_value(game)


def test_zero_mass_projection_rejected():
    proj = O.SelectiveProjection({"00": np.zeros((4, 4))})
    with pytest.raises(ValueError, match="zero mass"):
        O.value_wrt_projection(GAMES.g_z, proj)


def test_utility_range_validation():
    rho = np.eye(2) / 2.0
    with pytest.raises(ValueError):
        _game([rho], [1.0], [[1.5]])
    with pytest.raises(ValueError):
        _game([rho], [1.0], [[-0.5]])
