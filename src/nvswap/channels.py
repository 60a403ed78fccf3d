"""Elementary channels of the per-round photon-recycling cycle.

Every map here is trace preserving on (matrix, weight) pairs: channels keep
the branch weight and return a unit-trace matrix, while the herald POVM splits
one branch into two whose weights sum to the input weight.  All operators are
either basis-aligned projections or signed basis permutations, so no channel
introduces rounding beyond scalar multiplication.

The signed Bell mappings below follow from the sign conventions fixed in
`states` (see that module's docstring) and are pinned by unit tests:

    phase flip        (photon sigma_z): phi+ <-> phi- (+), psi+ <-> psi- (-)
    polarisation flip (photon sigma_x): phi+ <-> psi+ (+), phi- <-> psi- (+)
    both = phase after polarisation:    phi+ -> -psi-, phi- -> -psi+,
                                        psi+ ->  phi-, psi- ->  phi+

Spin-exchange operators used by the dephasing channel (|+1> <-> |-1> on one
spin) map, on the Bell pair containing that spin:

    first qubit:  phi+ <-> psi+ (+), phi- <-> psi- (-)
    second qubit: phi+ <-> psi+ (+), phi- <-> psi- (+)

Each channel is written down once, as weighted real Kraus terms
rho -> sum_k w_k K_k rho K_k^T (`absorption_terms`, `qnd_terms`, `loss_terms`,
`dephasing_terms`, `flip_terms`, and approach A's final `parity_terms`).  The
JointState functions apply those terms to one branch and are the readable
spec; the protocol engine lifts the same terms to superoperators.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from .states import (
    DIM_2P,
    DIM_PAIR13,
    DIM_TOTAL,
    PHOTON_PRESENT_SLOTS,
    SLOT_A1,
    SLOT_A2,
    SLOT_SPIN_DOWN,
    SLOT_SPIN_UP,
    BellLabel,
    JointState,
    ParameterError,
    check_nonnegative,
    check_probability,
    slot_columns,
)


class FlipKind(Enum):
    """Photon operations available at the end of a round."""

    NONE = "none"
    PHASE = "phase"
    POLARISATION = "polarisation"
    BOTH = "both"


class SpinSite(Enum):
    """The three spins subject to dephasing."""

    NV1 = "nv1"
    NV2 = "nv2"
    NV3 = "nv3"


ALL_SPINS = (SpinSite.NV1, SpinSite.NV2, SpinSite.NV3)


def _lift_2p(perm8: np.ndarray, sign8: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extend a signed permutation of node2p slots to the full 32-dim basis."""
    return slot_columns(*perm8), np.tile(sign8, DIM_PAIR13)


def _lift_pair13(perm4: np.ndarray, sign4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extend a signed permutation of pair-13 labels to the full 32-dim basis."""
    perm = (perm4[:, None] * DIM_2P + np.arange(DIM_2P)[None, :]).reshape(-1)
    sign = np.repeat(sign4, DIM_2P)
    return perm, sign


def _flip_tables() -> dict[FlipKind, tuple[np.ndarray, np.ndarray]]:
    phase8 = np.array([1, 0, 3, 2, 4, 5, 6, 7])
    phase_sign8 = np.array([1.0, 1.0, -1.0, -1.0, 1, 1, 1, 1])
    pol8 = np.array([2, 3, 0, 1, 4, 5, 6, 7])
    pol_sign8 = np.ones(DIM_2P)
    both8 = np.array([3, 2, 1, 0, 4, 5, 6, 7])
    both_sign8 = np.array([-1.0, -1.0, 1.0, 1.0, 1, 1, 1, 1])
    return {
        FlipKind.PHASE: _lift_2p(phase8, phase_sign8),
        FlipKind.POLARISATION: _lift_2p(pol8, pol_sign8),
        FlipKind.BOTH: _lift_2p(both8, both_sign8),
    }


def _dephasing_tables() -> dict[SpinSite, tuple[np.ndarray, np.ndarray]]:
    # spin exchange on the first / second qubit of a Bell pair
    first4 = np.array([2, 3, 0, 1])
    first_sign4 = np.array([1.0, -1.0, 1.0, -1.0])
    second_sign4 = np.ones(4)
    # spin 2 is the first qubit of node2p Bell slots; on the photon-gone
    # sector it swaps the bare spin slots and leaves A2/A1 untouched
    nv2_8 = np.array([2, 3, 0, 1, SLOT_A2, SLOT_A1, SLOT_SPIN_DOWN, SLOT_SPIN_UP])
    nv2_sign8 = np.array([1.0, -1.0, 1.0, -1.0, 1, 1, 1, 1])
    return {
        SpinSite.NV1: _lift_pair13(first4, first_sign4),
        SpinSite.NV3: _lift_pair13(first4.copy(), second_sign4),
        SpinSite.NV2: _lift_2p(nv2_8, nv2_sign8),
    }


FLIP_TABLES = _flip_tables()
DEPHASING_TABLES = _dephasing_tables()


def _loss_kraus() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kraus operators of the photon-trace map: detect sigma+/sigma- in the
    environment (photon-present slots land on bare spin slots) or pass the
    photon-gone sector through unchanged."""
    s = 1.0 / np.sqrt(2.0)
    k_plus8 = np.zeros((DIM_2P, DIM_2P))
    k_plus8[SLOT_SPIN_UP, 0:4] = (s, s, 0.0, 0.0)
    k_plus8[SLOT_SPIN_DOWN, 0:4] = (0.0, 0.0, s, -s)
    k_minus8 = np.zeros((DIM_2P, DIM_2P))
    k_minus8[SLOT_SPIN_UP, 0:4] = (0.0, 0.0, s, s)
    k_minus8[SLOT_SPIN_DOWN, 0:4] = (s, -s, 0.0, 0.0)
    gone8 = np.zeros((DIM_2P, DIM_2P))
    for j in (SLOT_A2, SLOT_A1, SLOT_SPIN_UP, SLOT_SPIN_DOWN):
        gone8[j, j] = 1.0
    eye4 = np.eye(DIM_PAIR13)
    return np.kron(eye4, k_plus8), np.kron(eye4, k_minus8), np.kron(eye4, gone8)


LOSS_KRAUS = _loss_kraus()

# weighted real Kraus terms (w_k, K_k) of a map rho -> sum_k w_k K_k rho K_k^T
Terms = tuple[tuple[float, np.ndarray], ...]

IDENTITY = np.eye(DIM_TOTAL)


def signed_permutation_matrix(perm: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The real unitary U|k> = sign[k] |perm[k]> of a signed permutation table."""
    unitary = np.zeros((DIM_TOTAL, DIM_TOTAL))
    unitary[perm, np.arange(DIM_TOTAL)] = sign
    return unitary


def _slot_projector(*slots: int) -> np.ndarray:
    projector = np.zeros((DIM_TOTAL, DIM_TOTAL))
    idx = slot_columns(*slots)
    projector[idx, idx] = 1.0
    return projector


def _transfer(source: int, dest: int) -> tuple[np.ndarray, np.ndarray]:
    """Kraus pair of an incoherent jump: `move` carries the source-slot block
    to the dest slot, `cut` drops the source slot and its coherences."""
    move = np.zeros((DIM_TOTAL, DIM_TOTAL))
    move[slot_columns(dest), slot_columns(source)] = 1.0
    return move, IDENTITY - _slot_projector(source)


# psi- (slot 3) drives the jump to A2, psi+ (slot 2) leaks to A1
ABSORPTION_TRANSFERS = (_transfer(3, SLOT_A2), _transfer(2, SLOT_A1))
A2_PROJECTOR = _slot_projector(SLOT_A2)
A2_COMPLEMENT = IDENTITY - A2_PROJECTOR
# approach A's final parity outcomes (even, odd): photon-present node2p slots, target
PARITY_TABLE = {
    "XX": (((0, 2), BellLabel.PSI_PLUS), ((1, 3), BellLabel.PSI_MINUS)),
    "ZZ": (((0, 1), BellLabel.PSI_PLUS), ((2, 3), BellLabel.PHI_PLUS)),
}
PARITY_PROJECTORS = {
    observable: tuple(_slot_projector(*slots) for slots, _ in outcomes)
    for observable, outcomes in PARITY_TABLE.items()
}
FLIP_UNITARIES = {kind: signed_permutation_matrix(*table) for kind, table in FLIP_TABLES.items()}
DEPHASING_UNITARIES = {
    site: signed_permutation_matrix(*table) for site, table in DEPHASING_TABLES.items()
}


def kraus_sum(matrix: np.ndarray, terms: Terms) -> np.ndarray:
    """Apply weighted real Kraus terms: sum_k w_k K_k matrix K_k^T."""
    return sum(w * (k @ matrix @ k.T) for w, k in terms)


def absorption_terms(p_abs: float, r_a1: float) -> tuple[Terms, Terms]:
    """The two incoherent transfers of one pass, in the order applied.

    With probability p the source block jumps to the dest slot and loses its
    coherences (Kraus pair move, cut); with probability 1-p nothing happens.
    The psi- jump to A2 has p = p_abs, the psi+ leak to A1 p = p_abs * r_a1.
    """
    p_abs = check_probability("p_abs", p_abs)
    r_a1 = check_probability("r_A1", r_a1)
    return tuple(
        ((p, move), (p, cut), (1.0 - p, IDENTITY))
        for (move, cut), p in zip(ABSORPTION_TRANSFERS, (p_abs, p_abs * r_a1))
    )


def qnd_terms(p_qnd: float, p_dark: float) -> tuple[Terms, Terms]:
    """(click, no-click) branches of the herald: the A2 block clicks with
    probability p_qnd, everything outside A2 with p_dark; coherences between
    the two are cut."""
    p_qnd = check_probability("p_qnd", p_qnd)
    p_dark = check_probability("p_dark", p_dark)
    click = ((p_qnd, A2_PROJECTOR), (p_dark, A2_COMPLEMENT))
    noclick = ((1.0 - p_qnd, A2_PROJECTOR), (1.0 - p_dark, A2_COMPLEMENT))
    return click, noclick


def parity_terms(observable: str, detector_eff: float) -> tuple[Terms, Terms]:
    """(even, odd) outcomes of approach A's final parity measurement: each projects onto
    its PARITY_TABLE slots with weight detector_eff**2 (photon and spin 2 both detected)."""
    if observable not in PARITY_TABLE:
        raise ParameterError(f"observable must be 'XX' or 'ZZ', got {observable!r}")
    efficiency = check_probability("detector_eff", detector_eff) ** 2
    return tuple(((efficiency, projector),) for projector in PARITY_PROJECTORS[observable])


def loss_terms(p_loss: float) -> Terms:
    """Keep the photon with probability 1-p_loss, else trace it out (LOSS_KRAUS)."""
    p_loss = check_probability("p_loss", p_loss)
    return ((1.0 - p_loss, IDENTITY),) + tuple((p_loss, k) for k in LOSS_KRAUS)


def dephasing_terms(eta: float, site: SpinSite) -> Terms:
    """Identity with probability (1+eta)/2, spin exchange on `site` otherwise."""
    eta = check_probability("eta", eta)
    return (((1.0 + eta) / 2.0, IDENTITY), ((1.0 - eta) / 2.0, DEPHASING_UNITARIES[site]))


def dephasing_factor(tau: float, t2: float) -> float:
    """Coherence factor exp(-(tau/t2)^2) accumulated over a delay tau."""
    t2 = check_nonnegative("t2", t2, positive=True)
    tau = check_nonnegative("tau", tau)
    ratio = check_nonnegative("tau / t2", tau / t2)  # inf / inf is nan, which is rejected
    return math.exp(-ratio * ratio)  # a product overflows to inf (factor 0) where ** raises


def flip_terms(kind: FlipKind) -> Terms:
    """The photon flip as one unitary term."""
    if not isinstance(kind, FlipKind):
        raise TypeError(f"kind must be a FlipKind, got {kind!r}")
    return ((1.0, IDENTITY if kind is FlipKind.NONE else FLIP_UNITARIES[kind]),)


def _evolve(state: JointState, stages: Sequence[Terms]) -> JointState:
    if state.is_empty:
        return state
    matrix = state.matrix
    for terms in stages:
        matrix = kraus_sum(matrix, terms)
    return JointState(matrix, state.weight)


def absorption_channel(state: JointState, p_abs: float, r_a1: float) -> JointState:
    """Per-pass photon absorption at node 2.

    The psi- photon-spin component drives the transition to A2 with
    probability p_abs; the psi+ component leaks to A1 with probability
    p_abs * r_a1.  Both transfers are incoherent jumps that carry the pair-13
    block along, so heralded entanglement survives absorption.
    """
    return _evolve(state, absorption_terms(p_abs, r_a1))


def qnd_povm(
    state: JointState, p_qnd: float, p_dark: float
) -> tuple[float, JointState, JointState]:
    """Non-demolition herald measurement of the A2 population.

    Returns (p_click, post_click, post_noclick).  A click fires with
    probability p_qnd on the A2 component and p_dark on everything else;
    the two output branch weights sum to the input weight.  An impossible
    branch comes back empty rather than normalized.
    """
    click_terms, noclick_terms = qnd_terms(p_qnd, p_dark)
    if state.is_empty:
        return 0.0, JointState.empty(), JointState.empty()
    click = kraus_sum(state.matrix, click_terms)
    noclick = kraus_sum(state.matrix, noclick_terms)
    return (
        float(click.trace().real),
        JointState.from_unnormalized(click, state.weight),
        JointState.from_unnormalized(noclick, state.weight),
    )


def photon_loss_channel(state: JointState, p_loss: float) -> JointState:
    """Loss of the recycled photon with probability p_loss per cycle.

    The lost branch traces out the photon: spin 2 lands maximally mixed on
    the bare spin slots and photon-carried coherence disappears.  The
    photon-gone sector rides through unchanged.
    """
    return _evolve(state, [loss_terms(p_loss)])


def dephasing_channel(
    state: JointState, eta: float, targets: tuple[SpinSite, ...] = ALL_SPINS
) -> JointState:
    """Spin dephasing in the (|+1> ± |-1>)/sqrt(2) basis.

    Per target spin the channel is the mixture {(1+eta)/2: identity,
    (1-eta)/2: spin exchange |+1> <-> |-1>}; eta=1 retains full coherence.
    A2/A1 populations carry no spin-qubit coherence and pass through.
    """
    eta = check_probability("eta", eta)
    return _evolve(state, [dephasing_terms(eta, site) for site in targets])


def flip_channel(state: JointState, kind: FlipKind) -> JointState:
    """Unitary photon flip on the photon-present sector; identity elsewhere."""
    terms = flip_terms(kind)
    return state if kind is FlipKind.NONE else _evolve(state, [terms])


def photon_present_indices() -> np.ndarray:
    """Flat basis indices of the photon-present sector."""
    return slot_columns(*PHOTON_PRESENT_SLOTS)
