"""State representation for the photon-recycling entanglement-swap simulator.

The simulator tracks two remote spin qubits (labelled 1 and 3) that start out
entangled with the two halves of a photon-spin Bell pair at the middle node
(spin 2 plus photon p).  The effective joint space is 32-dimensional:

    pair13 (4-dim Bell basis)  x  node2p (8-dim)

where node2p splits into two orthogonal sectors:

    photon present: Bell basis of (spin 2, photon)   -> slots 0..3
    photon gone:    {A2, A1, |+1>, |-1>} of spin 2   -> slots 4..7

A2 and A1 are the two optically excited levels reachable by absorbing the
photon; |+1> and |-1> are the bare spin states left behind when the photon is
lost.  The canonical basis ordering is fixed once here and every other module
depends on the labels, never on raw indices:

    index = 8 * i + j

with i running over the pair-13 Bell labels (phi+, phi-, psi+, psi-) and j
over the node2p slots (phi+, phi-, psi+, psi-, A2, A1, +1, -1).

Sign conventions.  Bell vectors are phi± = (|00> ± |11>)/sqrt(2) and
psi± = (|01> ± |10>)/sqrt(2), with |+1> -> 0, |-1> -> 1 for spins and
sigma+ -> 0, sigma- -> 1 for photon polarisation.  Qubit order inside node2p
is (spin 2, photon).  All signed Bell mappings used by the channels are
derived from these definitions and pinned by unit tests.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

DIM_PAIR13 = 4
DIM_2P = 8
DIM_TOTAL = DIM_PAIR13 * DIM_2P

# node2p slot indices beyond the four Bell slots
SLOT_A2 = 4
SLOT_A1 = 5
SLOT_SPIN_UP = 6
SLOT_SPIN_DOWN = 7

PHOTON_PRESENT_SLOTS = (0, 1, 2, 3)

# density-matrix validation tolerances
HERMITICITY_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
TRACE_ATOL = 1e-10
WEIGHT_ATOL = 1e-12

# branch weights at or below this floor are treated as impossible outcomes
BRANCH_WEIGHT_FLOOR = 1e-13


class StateValidationError(Exception):
    """A density matrix breached a numerical invariant (shape, Hermiticity, positivity or trace)."""


class ParameterError(ValueError):
    """An input parameter lies outside its allowed range."""


class BellLabel(IntEnum):
    """Labels of the four two-qubit Bell states; the value is the canonical basis index.

    The bit layout is (family, sign): bit 1 distinguishes phi (0) from psi (1),
    bit 0 distinguishes + (0) from - (1).  Under qubit-wise Pauli bookkeeping
    the labels form a Klein four-group with PHI_PLUS as identity, which is
    what `compose` implements.
    """

    PHI_PLUS = 0
    PHI_MINUS = 1
    PSI_PLUS = 2
    PSI_MINUS = 3

    def toggle_sign(self) -> "BellLabel":
        """phi+ <-> phi-, psi+ <-> psi-."""
        return BellLabel(self.value ^ 1)

    def toggle_family(self) -> "BellLabel":
        """phi <-> psi at fixed sign."""
        return BellLabel(self.value ^ 2)

    def compose(self, other: "BellLabel") -> "BellLabel":
        """Group composition of the underlying Pauli error labels."""
        return BellLabel(self.value ^ other.value)


def basis_index(i13: int, j2p: int) -> int:
    """Canonical flat index of |i13> x |j2p>."""
    if not 0 <= int(i13) < DIM_PAIR13 or not 0 <= int(j2p) < DIM_2P:
        raise ParameterError(f"basis index out of range: ({i13}, {j2p})")
    return DIM_2P * int(i13) + int(j2p)


def slot_columns(*slots: int) -> np.ndarray:
    """basis_index(i, j) for each pair-13 label i, then each given node2p slot j."""
    return (np.arange(DIM_PAIR13)[:, None] * DIM_2P + np.array(slots, dtype=int)).reshape(-1)


def _shown(value: object) -> str:
    """repr(value), or the size of an int too long for Python to print."""
    try:
        return repr(value)
    except ValueError:  # beyond the int-to-str digit limit (sys.set_int_max_str_digits)
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def check_number(name: str, value: float, kind: str, low: float, high: float) -> float:
    """A number in [low, high], returned as a float.  Text, bools, None, other
    non-numbers and nan are rejected, not converted: float() takes "0.5" and True.
    The type test is an isinstance tuple, as the numbers.Real check costs 0.66 us
    a call and every ProtocolParams makes eight of them."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            if low <= (value := float(value)) <= high:
                return value
        except OverflowError:  # an int beyond the float range
            pass
    raise ParameterError(f"{name} must be {kind}, got {_shown(value)}")


def check_probability(name: str, value: float) -> float:
    """A number in [0, 1], returned as a float."""
    return check_number(name, value, "a probability in [0, 1]", 0.0, 1.0)


def check_nonnegative(
    name: str, value: float, *, positive: bool = False, finite: bool = False
) -> float:
    """A number >= 0, or > 0 if `positive`, returned as a float; +inf passes
    unless `finite`.  The bounds are the floats next to 0 and inf."""
    kind = f"a {'positive' if positive else 'nonnegative'}{' finite' if finite else ''} number"
    low = math.nextafter(0.0, 1.0) if positive else 0.0
    high = math.nextafter(math.inf, 0.0) if finite else math.inf
    return check_number(name, value, kind, low, high)


def check_count(name: str, value: int) -> int:
    """A positive count up to sys.maxsize, the largest length or index Python
    and numpy take: any integral type but bool, returned as a plain int."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and 1 <= value <= sys.maxsize):
        raise ParameterError(f"{name} must be an integer in [1, sys.maxsize], got {_shown(value)}")
    return int(value)


def check_seed(seed: int | None) -> None:
    """A generator seed: None (fresh entropy) or a non-negative integer."""
    if seed is not None and (
        not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0
    ):
        raise ParameterError(f"seed must be a non-negative integer, got {_shown(seed)}")


def _validate_matrix(matrix: np.ndarray, weight: float) -> None:
    if matrix.shape != (DIM_TOTAL, DIM_TOTAL):
        raise StateValidationError(
            f"state matrix must be {DIM_TOTAL}x{DIM_TOTAL}, got shape {matrix.shape}"
        )
    if not np.isfinite(weight) or weight < 0.0:
        raise StateValidationError(f"branch weight must be finite and >= 0, got {weight!r}")
    if weight > 1.0 + 1e-9:
        raise StateValidationError(f"branch weight exceeds 1: {weight!r}")
    if weight == 0.0:
        if matrix.any():
            raise StateValidationError("an empty branch must carry an all-zero matrix")
        return
    check_density(matrix)


def check_density(*blocks: np.ndarray) -> None:
    """Matrices must be finite, Hermitian, of unit trace and positive
    semidefinite, each within the tolerances above.  They come as a square
    matrix or a stack of them (an empty stack passes), or as direct sums, one
    (matrices, blocks, s, s) stack of their blocks per block size s.

    A direct sum's spectrum is the union of its blocks' spectra, so each block
    is tested on its own (`_above_floor`); only a failed test computes
    eigenvalues.
    """
    stacks = [b.reshape(-1, 1, *b.shape[-2:]) if b.ndim < 4 else b for b in blocks]
    if not all(np.isfinite(stack).all() for stack in stacks):
        raise StateValidationError("state matrix contains non-finite entries")
    asymmetry = max(np.abs(b - b.swapaxes(-1, -2).conj()).max(initial=0.0) for b in stacks)
    if asymmetry > HERMITICITY_ATOL:
        raise StateValidationError(f"state matrix is not Hermitian (max asymmetry {asymmetry:.3e})")
    traces = sum(stack.diagonal(0, -2, -1).real.sum(axis=(-2, -1)) for stack in stacks)
    deviation = np.abs(traces - 1.0)
    if deviation.max(initial=0.0) > TRACE_ATOL:
        trace = float(traces[deviation.argmax()])
        raise StateValidationError(f"state matrix trace is {trace!r}, expected 1")
    smallest = [np.linalg.eigvalsh(stack).min() for stack in stacks if not _above_floor(stack)]
    if min(smallest, default=0.0) < EIGENVALUE_FLOOR:
        raise StateValidationError(f"state matrix has negative eigenvalue {min(smallest):.3e}")


def _above_floor(stack: np.ndarray) -> bool:
    """Whether each Hermitian block of a stack has no eigenvalue below f =
    EIGENVALUE_FLOOR, up to rounding: a 1x1 block [a] when a - f >= 0, a 2x2
    one [[a, b*], [b, d]] when a - f >= 0, d - f >= 0 and (a - f)(d - f) >=
    |b|^2, a larger one when block - f I has a Cholesky factor."""
    size, floor = stack.shape[-1], EIGENVALUE_FLOOR
    if size == 1:
        return bool((stack.real >= floor).all())
    if size > 2:
        try:
            np.linalg.cholesky(stack - floor * np.eye(size))
        except np.linalg.LinAlgError:
            return False
        return True
    a, d = stack[..., 0, 0].real - floor, stack[..., 1, 1].real - floor
    return bool(((a >= 0.0) & (d >= 0.0) & (a * d >= np.abs(stack[..., 1, 0]) ** 2)).all())


@dataclass(frozen=True, eq=False)
class JointState:
    """One sub-normalized branch of the joint density operator.

    `matrix` is kept at unit trace and `weight` carries the branch probability
    separately, so conditional quantities read off the matrix directly.  An
    empty branch (weight exactly 0, zero matrix) stands for an impossible
    outcome.  Instances are immutable; channels return new states.
    """

    matrix: np.ndarray
    weight: float

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=np.complex128)
        weight = float(self.weight)
        _validate_matrix(matrix, weight)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "weight", weight)

    @classmethod
    def empty(cls) -> "JointState":
        return cls(np.zeros((DIM_TOTAL, DIM_TOTAL)), 0.0)

    @classmethod
    def from_unnormalized(cls, matrix: np.ndarray, weight_scale: float = 1.0) -> "JointState":
        """Build a branch from an unnormalized matrix, folding its trace into the weight."""
        trace = float(np.asarray(matrix).trace().real)
        weight = weight_scale * trace
        if weight <= BRANCH_WEIGHT_FLOOR:
            return cls.empty()
        return cls(np.asarray(matrix) / trace, weight)

    @property
    def is_empty(self) -> bool:
        return self.weight == 0.0

    def slot_populations(self) -> np.ndarray:
        """Population of each node2p slot, summed over the pair-13 index."""
        diag = np.real(np.diagonal(self.matrix))
        return diag.reshape(DIM_PAIR13, DIM_2P).sum(axis=0)

    def a2_population(self) -> float:
        return float(self.slot_populations()[SLOT_A2])

    def reduced_pair13(self) -> np.ndarray:
        """Partial trace over node2p; unit trace for non-empty states, zeros otherwise."""
        tensor = self.matrix.reshape(DIM_PAIR13, DIM_2P, DIM_PAIR13, DIM_2P)
        return np.einsum("ikjk->ij", tensor)


def initial_amplitudes() -> np.ndarray:
    """The pure initial state: an equal superposition pairing each pair-13
    Bell state with its opposite-family partner on node2p."""
    amplitudes = np.zeros(DIM_TOTAL)
    for label in BellLabel:
        amplitudes[basis_index(label, label.toggle_family())] = 0.5
    return amplitudes


def make_initial_state() -> JointState:
    """Shared resource at the start of a run, as a validated branch."""
    amplitudes = initial_amplitudes()
    return JointState(np.outer(amplitudes, amplitudes), 1.0)
