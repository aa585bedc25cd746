"""Density-matrix substrate: states, projectors, moments, measurement."""
import numpy as np
import pytest

from qtokens.core import (CV_PAIR_LABELS, LABELS, PROJECTOR_STACK,
                          check_density_matrix, partial_trace, projector_of,
                          tensor)

import oracles as O


def test_label_order_and_partner():
    assert tuple(l.value for l in LABELS) == O.LABEL_ORDER
    for i, lab in enumerate(LABELS):
        partner = LABELS[i ^ 1]
        assert partner.axis == lab.axis
        assert partner.eigenbit == 1 - lab.eigenbit
        # axis partners are orthogonal
        overlap = np.trace(projector_of(lab) @ projector_of(partner)).real
        assert abs(overlap) < 1e-14


def test_projectors_match_reference_kets():
    for lab in LABELS:
        np.testing.assert_allclose(projector_of(lab), O.ket_projector(lab.value),
                                   atol=1e-15)
    np.testing.assert_allclose(PROJECTOR_STACK,
                               np.stack([O.ket_projector(n) for n in O.LABEL_ORDER]),
                               atol=1e-15)


def test_projector_properties():
    for p in PROJECTOR_STACK:
        np.testing.assert_allclose(p @ p, p, atol=1e-14)
        assert abs(np.trace(p) - 1.0) < 1e-14
        check_density_matrix(p)


def test_six_states_form_a_two_design():
    # (1/6) sum P x P equals S2 / 3 with S2 the symmetric projector
    second_moment = sum(np.kron(p, p) for p in PROJECTOR_STACK) / 6.0
    s2 = (np.eye(4) + O.swap_gate()) / 2.0
    np.testing.assert_allclose(second_moment, s2 / 3.0, atol=1e-14)


def test_third_moment_matches_haar():
    # 3-design: third moments equal the symmetric-subspace average,
    # (1/6) sum P^{x3} = Pi_sym / C(2+3-1, 3)
    third = sum(np.kron(np.kron(p, p), p) for p in PROJECTOR_STACK) / 6.0
    # symmetrizer over 3 qubit factors, built from explicit permutations
    perms = []
    for order in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        m = np.zeros((8, 8))
        for bits in range(8):
            b = [(bits >> 2) & 1, (bits >> 1) & 1, bits & 1]
            permuted = (b[order[0]] << 2) | (b[order[1]] << 1) | b[order[2]]
            m[permuted, bits] = 1.0
        perms.append(m)
    sym3 = sum(perms) / 6.0
    np.testing.assert_allclose(third, sym3 / 4.0, atol=1e-14)


def test_symmetric_projector():
    # the reference swap gate behind the two-design check above
    swap = O.swap_gate()
    s2 = (np.eye(4) + swap) / 2.0
    np.testing.assert_allclose(s2 @ s2, s2, atol=1e-14)
    assert abs(np.trace(s2) - 3.0) < 1e-14
    np.testing.assert_allclose(s2 @ swap, s2, atol=1e-14)


def test_tensor_matches_kron(rng):
    a = O.random_pure_state(rng)
    b = O.random_pure_state(rng)
    np.testing.assert_allclose(tensor(a, b), np.kron(a, b), atol=1e-15)


def test_partial_trace_inverts_tensor(rng):
    for _ in range(10):
        a, b = O.random_pure_state(rng), O.random_pure_state(rng)
        joint = tensor(a, b)
        np.testing.assert_allclose(partial_trace(joint, trace_out=1), a, atol=1e-13)
        np.testing.assert_allclose(partial_trace(joint, trace_out=0), b, atol=1e-13)


def test_partial_trace_preserves_trace(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = m @ m.conj().T
    m /= np.trace(m).real
    for side in (0, 1):
        red = partial_trace(m, trace_out=side)
        assert abs(np.trace(red).real - 1.0) < 1e-13


def test_check_density_matrix_rejections():
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not hermitian
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[2.0, 0.0], [0.0, -1.0]]))  # negative eig
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(2))  # trace 2


def test_random_pure_state_properties(rng):
    for _ in range(20):
        rho = O.random_pure_state(rng)
        check_density_matrix(rho)
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12


def test_cv_pair_labels_cover_all_ordered_zx_pairs():
    assert len(CV_PAIR_LABELS) == 8
    seen = set()
    for a, b in CV_PAIR_LABELS:
        assert {a.axis, b.axis} == {"Z", "X"}
        seen.add((a.value, b.value))
    assert len(seen) == 8
