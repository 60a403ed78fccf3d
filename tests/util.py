"""Shared helpers for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np

from nvswap.protocol import ProtocolResult
from nvswap.states import DIM_TOTAL, JointState

# Bell change-of-basis matrix: columns are phi+, phi-, psi+, psi- expressed in
# the product basis |00>, |01>, |10>, |11> (first factor = spin with +1 -> 0,
# second factor = photon with sigma+ -> 0, or a second spin).  Used to build
# independent two-qubit operator oracles for the signed permutation tables.
_S = 1.0 / np.sqrt(2.0)
BELL_COLUMNS = np.array(
    [
        [_S, _S, 0.0, 0.0],
        [0.0, 0.0, _S, _S],
        [0.0, 0.0, _S, -_S],
        [_S, -_S, 0.0, 0.0],
    ]
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def two_qubit_operator_in_bell_basis(op4: np.ndarray) -> np.ndarray:
    """Rewrite a two-qubit operator from the product basis to the Bell basis."""
    return BELL_COLUMNS.conj().T @ op4 @ BELL_COLUMNS


def random_joint_state(rng: np.random.Generator, weight: float = 1.0) -> JointState:
    """A random full-rank valid state (Wishart construction)."""
    g = rng.standard_normal((DIM_TOTAL, DIM_TOTAL)) + 1j * rng.standard_normal(
        (DIM_TOTAL, DIM_TOTAL)
    )
    matrix = g @ g.conj().T
    return JointState(matrix / matrix.trace().real, weight)


def random_pure_state(rng: np.random.Generator, weight: float = 1.0) -> JointState:
    amps = rng.standard_normal(DIM_TOTAL) + 1j * rng.standard_normal(DIM_TOTAL)
    amps /= np.linalg.norm(amps)
    return JointState(np.outer(amps, amps.conj()), weight)


def assert_states_close(a: JointState, b: JointState, atol: float = 1e-12) -> None:
    assert abs(a.weight - b.weight) <= atol, f"weights differ: {a.weight} vs {b.weight}"
    assert np.abs(a.matrix - b.matrix).max() <= atol


def assert_results_identical(a: ProtocolResult, b: ProtocolResult) -> None:
    """Every ProtocolResult field and every HeraldRecord field equal with ==,
    conditional matrices entry by entry."""
    for field in dataclasses.fields(ProtocolResult):
        if field.name != "herald_log":
            assert getattr(a, field.name) == getattr(b, field.name), field.name
    assert len(a.herald_log) == len(b.herald_log)
    for x, y in zip(a.herald_log, b.herald_log):
        for field in dataclasses.fields(x):
            got, want = getattr(x, field.name), getattr(y, field.name)
            if field.name == "conditional_13":
                assert np.array_equal(got, want), field.name
            else:
                assert got == want, field.name
