"""Single- and two-qubit operator arithmetic and the six-state set.

Everything in this package works with dense complex matrices of dimension
2 or 4.  States are numpy arrays validated by :func:`check_density_matrix`;
the six polarization eigenstates along the three Cartesian axes are the
state alphabet for tokens.  The set is a projective 3-design, which is what
makes averages over it agree with Haar averages up to third moments; the
second-moment identity (pairwise average equal to one third of the
symmetric projector) is the workhorse fact behind the cloning analysis.
"""
from __future__ import annotations

import numpy as np

ATOL_HERMITIAN = 1e-12
ATOL_TRACE = 1e-12
ATOL_EIGENVALUE = 1e-10

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


#: Measurement axes by code: 0 = Z, 1 = X, 2 = Y.
AXIS_NAMES = ("Z", "X", "Y")

#: The six polarization eigenstates; a label is an index into this tuple,
#: and the names are the labels' JSON spelling.  Label i lies on axis code
#: i >> 1 with eigenbit i & 1 ('+' -> 0, '-' -> 1), so label i ^ 1 is its
#: orthogonal partner.
LABELS: tuple[str, ...] = tuple(a + s for a in AXIS_NAMES for s in "+-")
LABEL_AXES = np.arange(len(LABELS), dtype=np.uint8) >> 1
EIGENBITS = np.arange(len(LABELS), dtype=np.uint8) & 1

_SQ = 1 / np.sqrt(2.0)
_KETS = np.array([[1, 0], [0, 1], [_SQ, _SQ], [_SQ, -_SQ],
                  [_SQ, _SQ * 1j], [_SQ, -_SQ * 1j]], dtype=complex)

#: (6, 2, 2) stack of projectors, indexed like LABELS.  Built with np.outer
#: per ket: an einsum outer product flips some imaginary -0.0 to 0.0, which
#: would change the bytes of every token file.
PROJECTOR_STACK = np.stack([np.outer(k, k.conj()) for k in _KETS])

#: (8, 2) label indices of the two-qubit product states used by
#: classically-verified tokens: one qubit is a Z eigenstate and the other an
#: X eigenstate, in either order.
CV_PAIRS = np.array([[0, 2], [0, 3], [1, 2], [1, 3],
                     [2, 0], [3, 0], [2, 1], [3, 1]], dtype=np.uint8)

for _table in (LABEL_AXES, EIGENBITS, PROJECTOR_STACK, CV_PAIRS):
    _table.setflags(write=False)


def check_density_matrix(m: np.ndarray, *, name: str = "state") -> np.ndarray:
    """Validate a (..., d, d) stack of density matrices with d in {2, 4} in
    one vectorised pass; returns the array (as complex) unchanged.

    Raises ValueError on the first violated contract: square with d in
    {2, 4}, finite entries, Hermitian within 1e-12, unit trace within
    1e-12, eigenvalues >= -1e-10.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] not in ((2, 2), (4, 4)):
        raise ValueError(f"{name}: expected 2x2 or 4x4 matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name}: entries must be finite")
    if np.abs(m - m.conj().swapaxes(-1, -2)).max() > ATOL_HERMITIAN:
        raise ValueError(f"{name}: not Hermitian within {ATOL_HERMITIAN}")
    tr = np.trace(m, axis1=-2, axis2=-1)
    worst = np.abs(tr - 1.0).max()
    if worst > ATOL_TRACE:
        raise ValueError(f"{name}: trace differs from 1 by {worst} beyond {ATOL_TRACE}")
    low = np.linalg.eigvalsh(m).min()
    if low < -ATOL_EIGENVALUE:
        raise ValueError(f"{name}: negative eigenvalue {low}")
    return m
