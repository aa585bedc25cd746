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

import enum

import numpy as np

ATOL_HERMITIAN = 1e-12
ATOL_TRACE = 1e-12
ATOL_EIGENVALUE = 1e-10

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


class StateLabel(enum.Enum):
    """Polarization eigenstates: axis in {X, Y, Z}, sign in {+, -}."""

    Z_PLUS = "Z+"
    Z_MINUS = "Z-"
    X_PLUS = "X+"
    X_MINUS = "X-"
    Y_PLUS = "Y+"
    Y_MINUS = "Y-"

    @property
    def axis(self) -> str:
        return self.value[0]

    @property
    def eigenbit(self) -> int:
        """Reported bit for the state itself: '+' -> 0, '-' -> 1."""
        return 0 if self.value[1] == "+" else 1

    def __str__(self) -> str:  # JSON-facing spelling
        return self.value


LABELS: tuple[StateLabel, ...] = tuple(StateLabel)
LABEL_INDEX: dict[StateLabel, int] = {lab: i for i, lab in enumerate(LABELS)}

_SQ = 1 / np.sqrt(2.0)
KETS: dict[StateLabel, np.ndarray] = {
    StateLabel.Z_PLUS: np.array([1, 0], dtype=complex),
    StateLabel.Z_MINUS: np.array([0, 1], dtype=complex),
    StateLabel.X_PLUS: np.array([_SQ, _SQ], dtype=complex),
    StateLabel.X_MINUS: np.array([_SQ, -_SQ], dtype=complex),
    StateLabel.Y_PLUS: np.array([_SQ, _SQ * 1j], dtype=complex),
    StateLabel.Y_MINUS: np.array([_SQ, -_SQ * 1j], dtype=complex),
}

#: (6, 2, 2) stack of projectors, indexed consistently with LABELS.
PROJECTOR_STACK = np.stack([np.outer(KETS[lab], KETS[lab].conj()) for lab in LABELS])
PROJECTOR_STACK.setflags(write=False)

#: The eight two-qubit product states used by classically-verified tokens:
#: one qubit is a Z eigenstate and the other an X eigenstate.
CV_PAIR_LABELS: tuple[tuple[StateLabel, StateLabel], ...] = (
    (StateLabel.Z_PLUS, StateLabel.X_PLUS),
    (StateLabel.Z_PLUS, StateLabel.X_MINUS),
    (StateLabel.Z_MINUS, StateLabel.X_PLUS),
    (StateLabel.Z_MINUS, StateLabel.X_MINUS),
    (StateLabel.X_PLUS, StateLabel.Z_PLUS),
    (StateLabel.X_MINUS, StateLabel.Z_PLUS),
    (StateLabel.X_PLUS, StateLabel.Z_MINUS),
    (StateLabel.X_MINUS, StateLabel.Z_MINUS),
)


def projector_of(label: StateLabel) -> np.ndarray:
    """Rank-1 projector onto the labelled eigenstate (fresh 2x2 array)."""
    return PROJECTOR_STACK[LABEL_INDEX[label]].copy()


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(a, b)


def partial_trace(m: np.ndarray, trace_out: int = 1) -> np.ndarray:
    """Trace a 4x4 operator down to 2x2 over factor 0 (first) or 1 (second)."""
    m = np.asarray(m)
    if m.shape != (4, 4):
        raise ValueError(f"partial_trace expects a 4x4 matrix, got {m.shape}")
    if trace_out not in (0, 1):
        raise ValueError("trace_out must be 0 or 1")
    t = m.reshape(2, 2, 2, 2)
    if trace_out == 1:
        return np.einsum("ikjk->ij", t)
    return np.einsum("kikj->ij", t)


def is_hermitian(a: np.ndarray, atol: float = ATOL_HERMITIAN) -> bool:
    a = np.asarray(a)
    return bool(np.max(np.abs(a - a.conj().T)) <= atol)


def check_density_matrix(m: np.ndarray, *, name: str = "state") -> np.ndarray:
    """Validate a 2x2 or 4x4 density matrix; returns the array unchanged.

    Raises ValueError on the first violated contract: square with dim in
    {2, 4}, Hermitian within 1e-12, unit trace within 1e-12, eigenvalues
    >= -1e-10.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"{name}: expected a 2x2 or 4x4 matrix, got {m.shape}")
    if not is_hermitian(m, ATOL_HERMITIAN):
        raise ValueError(f"{name}: not Hermitian within {ATOL_HERMITIAN}")
    tr = np.trace(m)
    if abs(tr - 1.0) > ATOL_TRACE:
        raise ValueError(f"{name}: trace {tr} differs from 1 beyond {ATOL_TRACE}")
    eigs = np.linalg.eigvalsh(m)
    if eigs.min() < -ATOL_EIGENVALUE:
        raise ValueError(f"{name}: negative eigenvalue {eigs.min()}")
    return m
