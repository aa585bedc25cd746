"""Single-qubit noise channels in Kraus form."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import I2, PAULIS, PROJECTOR_STACK

ATOL_COMPLETENESS = 1e-10


@dataclass(frozen=True, eq=False)
class QubitChannel:
    """Completely positive trace-preserving map on one qubit.

    ``kraus`` operators K_i must satisfy sum_i K_i^dagger K_i = identity
    within 1e-10; this is checked at construction.  States are mapped by the
    4x4 superoperator S[(a,d),(b,c)] = sum_k K[a,b] conj(K[d,c]).
    """

    name: str
    kraus: tuple[np.ndarray, ...]
    _superop: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        stack = np.stack([np.asarray(k, dtype=complex) for k in self.kraus])
        if stack.shape[1:] != (2, 2):
            raise ValueError("Kraus operators must be 2x2")
        if np.max(np.abs(np.einsum("kba,kbc->ac", stack.conj(), stack) - I2)) > ATOL_COMPLETENESS:
            raise ValueError(f"{self.name}: Kraus completeness violated beyond {ATOL_COMPLETENESS}")
        superop = np.einsum("kab,kdc->adbc", stack, stack.conj()).reshape(4, 4)
        superop.setflags(write=False)
        object.__setattr__(self, "_superop", superop)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError(f"{self.name} expects a 2x2 state, got {rho.shape}")
        return self.apply_to_stack(rho[None])[0]

    def apply_to_stack(self, states: np.ndarray) -> np.ndarray:
        """Apply to every 2x2 state of a (..., 2, 2) stack in one product."""
        if states.shape[-2:] != (2, 2):
            raise ValueError(f"{self.name} expects a stack of 2x2 states, got {states.shape}")
        return (states.reshape(-1, 4) @ self._superop.T).reshape(states.shape)


def identity_channel() -> QubitChannel:
    return QubitChannel("identity", (I2.copy(),))


def depolarizing(lam: float) -> QubitChannel:
    """rho -> (1 - lam) rho + lam I/2.

    Valid (completely positive) for 0 <= lam <= 4/3.
    """
    if not 0.0 <= lam <= 4.0 / 3.0:
        raise ValueError(f"depolarizing parameter {lam} outside [0, 4/3]")
    ops = [np.sqrt(1 - 3 * lam / 4) * I2]
    ops += [np.sqrt(lam / 4) * PAULIS[p] for p in "XYZ"]
    return QubitChannel(f"depolarizing({lam})", tuple(ops))


def dephasing(lam: float, axis: str = "Z") -> QubitChannel:
    """rho -> (1 - lam) rho + lam P rho P about the chosen Pauli axis.

    At lam = 1/2 the coherences transverse to the axis vanish entirely.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"dephasing parameter {lam} outside [0, 1]")
    if axis not in PAULIS:
        raise ValueError(f"axis must be one of X, Y, Z, got {axis!r}")
    return QubitChannel(
        f"dephasing({lam},{axis})",
        (np.sqrt(1 - lam) * I2, np.sqrt(lam) * PAULIS[axis]),
    )


def amplitude_damping(gamma: float) -> QubitChannel:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping parameter {gamma} outside [0, 1]")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return QubitChannel(f"amplitude_damping({gamma})", (k0, k1))


def depolarizing_for_fidelity(f_expected: float) -> QubitChannel:
    """Depolarizing channel whose average fidelity over the six states is
    exactly ``f_expected`` (solves lam = 2 (1 - F))."""
    if not 1.0 / 3.0 <= f_expected <= 1.0:
        raise ValueError(f"target fidelity {f_expected} outside [1/3, 1]")
    # rounding of 2 (1 - F) can overshoot 4/3 by one ulp at the floor
    return depolarizing(min(2.0 * (1.0 - f_expected), 4.0 / 3.0))


def average_fidelity(channel: QubitChannel) -> float:
    """Mean of Tr[rho M(rho)] over the six-state set."""
    out = channel.apply_to_stack(PROJECTOR_STACK)
    return float(np.einsum("nij,nji->n", PROJECTOR_STACK, out).real.mean())
