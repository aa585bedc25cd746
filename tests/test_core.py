"""Density-matrix substrate: states, projectors, moments, measurement."""
import numpy as np
import pytest

from qtokens.core import (AXIS_NAMES, CV_PAIRS, EIGENBITS, LABEL_AXES, LABELS,
                          PROJECTOR_STACK, check_density_matrix, partial_trace)
from qtokens.qticket import joint_outcome_laws

import oracles as O


def test_label_order_and_partner():
    assert LABELS == O.LABEL_ORDER
    assert AXIS_NAMES == ("Z", "X", "Y")
    for i, name in enumerate(O.LABEL_ORDER):
        # the index tables agree with the oracle's spelling of each label
        assert AXIS_NAMES[LABEL_AXES[i]] == name[0]
        assert EIGENBITS[i] == (name[1] == "-")
        partner = O.LABEL_ORDER[i ^ 1]
        assert partner[0] == name[0] and partner[1] != name[1]
        # axis partners are orthogonal
        overlap = np.trace(PROJECTOR_STACK[i] @ PROJECTOR_STACK[i ^ 1]).real
        assert abs(overlap) < 1e-14


def test_projectors_match_reference_kets():
    for name, proj in zip(LABELS, PROJECTOR_STACK):
        np.testing.assert_allclose(proj, O.ket_projector(name), atol=1e-15)
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
    # the two-qubit factor order the package reads is np.kron's: on a
    # product state a (x) b the four-way law factorises into marginals
    # with the first factor first (a complex projector also exposes a
    # transposed factor)
    a = O.random_pure_state(rng)
    b = O.random_pure_state(rng)
    p = O.ket_projector("Y+")
    pa, pb = (np.trace(p @ a).real, np.trace(p @ b).real)
    want = [pa * pb, pa * (1 - pb), (1 - pa) * pb, (1 - pa) * (1 - pb)]
    np.testing.assert_allclose(joint_outcome_laws(p, np.kron(a, b)), want,
                               atol=1e-14)


def test_partial_trace_inverts_tensor(rng):
    for _ in range(10):
        a, b = O.random_pure_state(rng), O.random_pure_state(rng)
        joint = np.kron(a, b)
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
    with pytest.raises(ValueError):
        check_density_matrix(np.full((2, 2), np.nan))
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(3) / 3)  # dimension 3


def test_check_density_matrix_validates_whole_stacks(rng):
    good = np.stack([O.random_pure_state(rng) for _ in range(5)])
    np.testing.assert_array_equal(check_density_matrix(good), good)
    pairs = np.stack([np.kron(a, b) for a, b in zip(good, good[::-1])])
    check_density_matrix(pairs.reshape(5, 1, 4, 4))
    for bad in (np.eye(2), np.diag([1.5, -0.5]), np.full((2, 2), np.nan)):
        stack = good.copy()
        stack[-1] = bad          # only the last member is not a state
        with pytest.raises(ValueError):
            check_density_matrix(stack)


def test_random_pure_state_properties(rng):
    for _ in range(20):
        rho = O.random_pure_state(rng)
        check_density_matrix(rho)
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12


def test_cv_pair_labels_cover_all_ordered_zx_pairs():
    assert CV_PAIRS.shape == (8, 2) and CV_PAIRS.dtype == np.uint8
    seen = set()
    for a, b in CV_PAIRS:
        first, second = O.LABEL_ORDER[a], O.LABEL_ORDER[b]
        assert {first[0], second[0]} == {"Z", "X"}
        seen.add((first, second))
    assert len(seen) == 8


def test_label_tables_are_read_only():
    for table in (LABEL_AXES, EIGENBITS, PROJECTOR_STACK, CV_PAIRS):
        with pytest.raises(ValueError):
            table[0] = 0
