"""Single-qubit CPTP channels."""
from fractions import Fraction

import numpy as np
import pytest

from qtokens.channels import (QubitChannel, amplitude_damping,
                              average_fidelity, dephasing, depolarizing,
                              depolarizing_for_fidelity, identity_channel)
from qtokens.core import I2, PROJECTOR_STACK, check_density_matrix
from qtokens.cv import CvLayout, cv_issue, honest_answer, random_question

import oracles as O


def oracle_average_fidelity(channel: QubitChannel) -> float:
    """Mean input-output overlap over the six-state design, computed with
    the reference projectors and a literal Kraus sum."""
    total = 0.0
    for name in O.LABEL_ORDER:
        rho = O.ket_projector(name)
        out = O.kraus_apply(channel.kraus, rho)
        total += float(np.trace(rho @ out).real)
    return total / 6.0


def test_kraus_completeness_enforced():
    with pytest.raises(ValueError):
        QubitChannel("broken", (np.eye(2) * 0.9,))


def test_identity_channel_is_identity(rng):
    chan = identity_channel()
    for p in PROJECTOR_STACK:
        np.testing.assert_allclose(chan(p), p, atol=1e-14)
    assert abs(average_fidelity(chan) - 1.0) < 1e-14


def test_depolarizing_parameter_range():
    depolarizing(0.0)
    depolarizing(4.0 / 3.0)
    with pytest.raises(ValueError):
        depolarizing(-0.1)
    with pytest.raises(ValueError):
        depolarizing(4.0 / 3.0 + 1e-9)


def test_depolarizing_fidelity_formula():
    for lam in (0.0, 0.1, 0.5, 1.0, 4.0 / 3.0):
        chan = depolarizing(lam)
        want = 1.0 - lam / 2.0
        assert abs(average_fidelity(chan) - want) < 1e-12
        assert abs(oracle_average_fidelity(chan) - want) < 1e-12


def test_depolarizing_fixed_point():
    chan = depolarizing(1.0)
    np.testing.assert_allclose(chan(I2 / 2.0), I2 / 2.0, atol=1e-14)


def test_depolarizing_for_fidelity_round_trip():
    for f in (1.0, 0.99, 0.95, 0.9, 0.75, 1.0 / 3.0):
        chan = depolarizing_for_fidelity(f)
        assert abs(average_fidelity(chan) - f) < 1e-12
    with pytest.raises(ValueError):
        depolarizing_for_fidelity(0.2)  # below the depolarizing floor 1/3


def test_channel_outputs_are_density_matrices(rng):
    channels = [depolarizing(0.3), dephasing(0.4), dephasing(0.7, axis="X"),
                amplitude_damping(0.25)]
    for chan in channels:
        for p in PROJECTOR_STACK:
            check_density_matrix(chan(p))
        assert abs(average_fidelity(chan) - oracle_average_fidelity(chan)) < 1e-12


def test_dephasing_preserves_its_axis():
    chan = dephasing(0.8, axis="Z")
    for name, p in zip(O.LABEL_ORDER, PROJECTOR_STACK):
        out = chan(p)
        if name.startswith("Z"):
            np.testing.assert_allclose(out, p, atol=1e-14)


def test_amplitude_damping_drives_toward_ground():
    chan = amplitude_damping(1.0)
    excited = PROJECTOR_STACK[1]  # Z- population fully decays
    ground = PROJECTOR_STACK[0]
    np.testing.assert_allclose(chan(excited), ground, atol=1e-14)


def test_apply_to_stack_matches_single_application(rng):
    stack = np.concatenate([PROJECTOR_STACK,
                            [O.random_pure_state(rng) for _ in range(4)]])
    for chan in (amplitude_damping(0.4), depolarizing(0.37), dephasing(0.2, axis="Y")):
        got = chan.apply_to_stack(stack)
        want = np.stack([O.kraus_apply(chan.kraus, q) for q in stack])
        np.testing.assert_allclose(got, want, atol=1e-14)
        np.testing.assert_allclose(chan(stack[-1]), want[-1], atol=1e-14)


def test_single_application_rejects_other_shapes():
    chan = depolarizing(0.1)
    with pytest.raises(ValueError):
        chan(np.eye(4))
    with pytest.raises(ValueError):
        chan(PROJECTOR_STACK)


SHIPPED_CHANNELS = [
    identity_channel(), depolarizing(0.0), depolarizing(0.37), depolarizing(4.0 / 3.0),
    dephasing(0.2, axis="X"), dephasing(0.5, axis="Y"), dephasing(0.9, axis="Z"),
    amplitude_damping(0.4), amplitude_damping(1.0), depolarizing_for_fidelity(0.97),
]


def _kraus_stack(chan, states):
    flat = states.reshape(-1, 2, 2)
    return np.stack([O.kraus_apply(chan.kraus, q) for q in flat]).reshape(states.shape)


@pytest.mark.parametrize("chan", SHIPPED_CHANNELS, ids=lambda c: c.name)
def test_apply_to_stack_matches_kraus_sum_for_every_constructor(chan, rng):
    states = np.concatenate([PROJECTOR_STACK,
                             [O.random_pure_state(rng) for _ in range(8)]])
    np.testing.assert_allclose(chan.apply_to_stack(states), _kraus_stack(chan, states),
                               rtol=0, atol=1e-14)
    # a channel is linear, so the same holds on arbitrary (non-Hermitian) matrices
    arbitrary = rng.normal(size=(16, 2, 2)) + 1j * rng.normal(size=(16, 2, 2))
    np.testing.assert_allclose(chan.apply_to_stack(arbitrary), _kraus_stack(chan, arbitrary),
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("chan", SHIPPED_CHANNELS[1::3], ids=lambda c: c.name)
def test_apply_to_stack_keeps_a_token_shaped_stack(chan, rng):
    _, token = cv_issue(CvLayout(3, 5, Fraction(3, 4)), rng)
    got = chan.apply_to_stack(token.qubits)
    assert got.shape == (3, 5, 2, 2, 2)
    np.testing.assert_allclose(got, _kraus_stack(chan, token.qubits), rtol=0, atol=1e-14)


@pytest.mark.parametrize("shape", [(4,), (2, 3), (5, 2, 3), (3, 4, 1)])
def test_apply_to_stack_rejects_non_qubit_stacks(shape):
    with pytest.raises(ValueError):
        depolarizing(0.1).apply_to_stack(np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("chan", SHIPPED_CHANNELS, ids=lambda c: c.name)
def test_honest_answer_matches_kraus_degraded_measurement(chan, rng_factory):
    """Bits from honest_answer equal bits sampled with the same uniforms
    from the literal Kraus sum and the reference +1 projectors."""
    layout = CvLayout(4, 16, Fraction(3, 4))
    setup = rng_factory(5)
    _, token = cv_issue(layout, setup)
    question = random_question(layout, setup)
    degraded = _kraus_stack(chan, token.qubits)
    plus = np.stack([O.ket_projector(f"{axis}+") for axis in question.axes])
    p_zero = np.einsum("nij,nrmji->nrm", plus, degraded).real
    uniforms = rng_factory(6).random(p_zero.shape)
    got = honest_answer(token, question, chan, rng_factory(6)).outcomes
    np.testing.assert_array_equal(got, (uniforms >= p_zero).astype(np.uint8))
