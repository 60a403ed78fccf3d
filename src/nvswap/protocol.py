"""Round-loop driver for the photon-recycling swap protocol.

One run evolves the joint state through `rounds` cycles of
absorption -> herald measurement -> photon loss -> spin dephasing -> photon
flip, terminating herald branches into records as they occur.  Two scheduling
approaches are supported:

    A: the same flip every round (phase for the XX observable, polarisation
       for ZZ), followed by a parity measurement of photon and spin 2 on the
       surviving branch, which converts the leftovers into two extra heralds.
    B: phase flips every l_z rounds and polarisation flips every l_x rounds
       with rounds = 2*l_x = 4*l_z, cycling the absorbing slot through all
       four pairings so that every herald is a plain click.

Weights are conserved exactly: herald weights plus failure plus residual
equal the initial weight to float precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .channels import (
    FlipKind,
    absorption_channel,
    dephasing_channel,
    flip_channel,
    photon_loss_channel,
    qnd_povm,
)
from .states import (
    BRANCH_WEIGHT_FLOOR,
    DIM_2P,
    DIM_PAIR13,
    BellLabel,
    JointState,
    ParameterError,
    check_count,
    check_probability,
    make_initial_state,
)

DEFAULT_R_A1 = 1e-4
DEFAULT_P_QND = 0.99
DEFAULT_P_DARK = 2e-4
DEFAULT_TAU_CYCLE = 200e-9
DEFAULT_T2 = 100e-6


class HeraldType(Enum):
    QND_CLICK = "qnd_click"
    PARITY_EVEN = "parity_even"
    PARITY_ODD = "parity_odd"


@dataclass(frozen=True)
class ProtocolParams:
    """Immutable parameter record for one protocol run.

    Probabilities are per cycle.  For approach B the flip periods may be
    omitted; they default to the unique values allowed by the constraint
    rounds = 2*l_x = 4*l_z.  `flip_observable` selects approach A's flip kind
    and final measurement basis (XX: phase flips; ZZ: polarisation flips).
    """

    approach: str
    p_abs: float
    rounds: int
    l_z: int | None = None
    l_x: int | None = None
    r_a1: float = DEFAULT_R_A1
    p_qnd: float = DEFAULT_P_QND
    p_dark: float = DEFAULT_P_DARK
    p_loss: float = 0.0
    tau_cycle: float = DEFAULT_TAU_CYCLE
    t2: float = DEFAULT_T2
    detector_eff: float = 1.0
    flip_observable: str = "XX"

    def __post_init__(self) -> None:
        if self.approach not in ("A", "B"):
            raise ParameterError(f"approach must be 'A' or 'B', got {self.approach!r}")
        for name in ("p_abs", "r_a1", "p_qnd", "p_dark", "p_loss", "detector_eff"):
            check_probability(name, getattr(self, name))
        object.__setattr__(self, "rounds", check_count("rounds", self.rounds))
        if not math.isfinite(self.tau_cycle) or self.tau_cycle < 0:
            raise ParameterError(f"tau_cycle must be a nonnegative time, got {self.tau_cycle!r}")
        if not math.isfinite(self.t2) or self.t2 <= 0:
            raise ParameterError(f"t2 must be a positive time, got {self.t2!r}")
        if self.flip_observable not in ("XX", "ZZ"):
            raise ParameterError(
                f"flip_observable must be 'XX' or 'ZZ', got {self.flip_observable!r}"
            )
        if self.approach == "A":
            if self.rounds % 2 != 0:
                raise ParameterError("approach A requires an even number of rounds")
            if self.l_z is not None or self.l_x is not None:
                raise ParameterError("flip periods l_z/l_x apply to approach B only")
        else:
            if self.rounds % 4 != 0:
                raise ParameterError(
                    "approach B requires rounds = 2*l_x = 4*l_z, so rounds must be a"
                    " multiple of 4"
                )
            l_z = self.rounds // 4 if self.l_z is None else check_count("l_z", self.l_z)
            l_x = 2 * l_z if self.l_x is None else check_count("l_x", self.l_x)
            if self.rounds != 4 * l_z or self.rounds != 2 * l_x:
                raise ParameterError(
                    f"approach B requires rounds = 2*l_x = 4*l_z; got rounds={self.rounds},"
                    f" l_z={l_z}, l_x={l_x}"
                )
            object.__setattr__(self, "l_z", l_z)
            object.__setattr__(self, "l_x", l_x)

    @property
    def eta_per_cycle(self) -> float:
        """Per-cycle spin coherence retention exp(-(tau_cycle/t2)^2)."""
        return math.exp(-((self.tau_cycle / self.t2) ** 2))


@dataclass(frozen=True)
class HeraldRecord:
    """One announced outcome: a QND click or a final-parity detection."""

    round: int
    flips_applied: tuple[int, int]
    herald_type: HeraldType
    weight: float
    conditional_13: np.ndarray
    target: BellLabel
    fidelity: float
    false_weight: float = 0.0

    def __post_init__(self) -> None:
        matrix = np.array(self.conditional_13, dtype=np.complex128)
        if matrix.shape != (DIM_PAIR13, DIM_PAIR13):
            raise ParameterError("conditional_13 must be a 4x4 matrix")
        matrix.setflags(write=False)
        object.__setattr__(self, "conditional_13", matrix)


@dataclass(frozen=True)
class ProtocolResult:
    """Aggregated outcome of one run.

    `cumulative_success` covers QND clicks round by round; approach A's
    parity heralds are reported separately in `parity_success` and included
    in `total_success`.  `false_negative_weight` is the absorbed-but-never-
    clicked weight left at the end; `false_positive_weight` is the dark-count
    weight hiding inside the click heralds.  It charges p_dark on all weight
    outside A2 each round: the exposed and the unexposed quarters, A1, and
    photon-lost weight alike, so it is not bounded by
    `analytics.false_positive_bound`, which follows a single chain that is
    absorbable every round.
    """

    params: ProtocolParams
    cumulative_success: tuple[float, ...]
    herald_log: tuple[HeraldRecord, ...]
    total_success: float
    parity_success: float
    failure_weight: float
    residual_weight: float
    false_negative_weight: float
    false_positive_weight: float
    fidelity_per_target: dict[BellLabel, float | None]
    success_per_target: dict[BellLabel, float]

    def pooled_fidelity(self, labels: tuple[BellLabel, ...] = tuple(BellLabel)) -> float | None:
        """Weight-averaged herald fidelity over the given targets."""
        total = 0.0
        acc = 0.0
        for record in self.herald_log:
            if record.target in labels:
                total += record.weight
                acc += record.weight * record.fidelity
        if total <= 0.0:
            return None
        return acc / total

    @property
    def fidelity_phi_pooled(self) -> float | None:
        return self.pooled_fidelity((BellLabel.PHI_PLUS, BellLabel.PHI_MINUS))

    @property
    def fidelity_psi_pooled(self) -> float | None:
        return self.pooled_fidelity((BellLabel.PSI_PLUS, BellLabel.PSI_MINUS))

    @property
    def bell_diagonal(self) -> np.ndarray | None:
        """Average conditional Bell diagonal rotated into each herald's target
        frame (slot 0 = announced target), for relay composition."""
        total = sum(record.weight for record in self.herald_log)
        if total <= 0.0:
            return None
        acc = np.zeros(DIM_PAIR13)
        for record in self.herald_log:
            diag = np.real(np.diagonal(record.conditional_13))
            for k in range(DIM_PAIR13):
                acc[k] += record.weight * diag[k ^ record.target.value]
        return acc / total


def build_schedule(params: ProtocolParams) -> tuple[FlipKind, ...]:
    """Flip applied at the end of each round, per the approach's rule."""
    if params.approach == "A":
        kind = FlipKind.PHASE if params.flip_observable == "XX" else FlipKind.POLARISATION
        return (kind,) * params.rounds
    schedule = []
    for r in range(1, params.rounds + 1):
        phase = r % params.l_z == 0
        pol = r % params.l_x == 0
        if phase and pol:
            schedule.append(FlipKind.BOTH)
        elif phase:
            schedule.append(FlipKind.PHASE)
        elif pol:
            schedule.append(FlipKind.POLARISATION)
        else:
            schedule.append(FlipKind.NONE)
    return tuple(schedule)


def epoch_target(flips_applied: tuple[int, int]) -> BellLabel:
    """Pair-13 Bell state announced by an absorption after the given flip counts.

    With no flips the absorbing photon-spin component rides with phi-; each
    phase flip toggles the sign index and each polarisation flip toggles the
    family.
    """
    n_phase, n_pol = flips_applied
    label = BellLabel.PHI_MINUS
    if n_phase % 2:
        label = label.toggle_sign()
    if n_pol % 2:
        label = label.toggle_family()
    return label


# final-measurement dispatch: observable -> (even slots, odd slots, targets)
_PARITY_TABLE = {
    "XX": ((0, 2), (1, 3), BellLabel.PSI_PLUS, BellLabel.PSI_MINUS),
    "ZZ": ((0, 1), (2, 3), BellLabel.PSI_PLUS, BellLabel.PHI_PLUS),
}


def final_parity_measurement(
    state: JointState,
    observable: str,
    detector_eff: float = 1.0,
    *,
    round_index: int = 0,
    flips_applied: tuple[int, int] = (0, 0),
) -> list[HeraldRecord]:
    """Measure photon and spin 2 of the surviving branch in a product basis.

    Outcomes are grouped by parity; each parity sector that carries weight
    yields one herald.  Both detections succeed with probability detector_eff
    each, so herald weights scale with detector_eff**2; the photon-gone
    sector and undetected events contribute failure weight without a record.
    """
    if observable not in _PARITY_TABLE:
        raise ParameterError(f"observable must be 'XX' or 'ZZ', got {observable!r}")
    detector_eff = check_probability("detector_eff", detector_eff)
    if state.is_empty:
        return []
    even_slots, odd_slots, even_target, odd_target = _PARITY_TABLE[observable]
    efficiency = detector_eff**2
    records = []
    outcomes = (
        (even_slots, even_target, HeraldType.PARITY_EVEN),
        (odd_slots, odd_target, HeraldType.PARITY_ODD),
    )
    for slots, target, herald_type in outcomes:
        idx = (np.arange(DIM_PAIR13)[:, None] * DIM_2P + np.array(slots)[None, :]).reshape(-1)
        block = state.matrix[np.ix_(idx, idx)]
        trace = float(block.trace().real)
        weight = trace * state.weight * efficiency
        if weight <= BRANCH_WEIGHT_FLOOR:
            continue
        tensor = block.reshape(DIM_PAIR13, len(slots), DIM_PAIR13, len(slots))
        conditional = np.einsum("ikjk->ij", tensor) / trace
        fidelity = float(np.real(conditional[target.value, target.value]))
        records.append(
            HeraldRecord(
                round=round_index,
                flips_applied=flips_applied,
                herald_type=herald_type,
                weight=weight,
                conditional_13=conditional,
                target=target,
                fidelity=fidelity,
            )
        )
    return records


def _aggregate_heralds(
    heralds: list[HeraldRecord],
) -> tuple[dict[BellLabel, float | None], dict[BellLabel, float]]:
    fidelity: dict[BellLabel, float | None] = {}
    success: dict[BellLabel, float] = {}
    for label in BellLabel:
        mine = [h for h in heralds if h.target is label]
        success[label] = total = sum(h.weight for h in mine)
        fidelity[label] = sum(h.weight * h.fidelity for h in mine) / total if total > 0.0 else None
    return fidelity, success


def _resolve_schedule(
    params: ProtocolParams, schedule: tuple[FlipKind, ...] | None
) -> tuple[FlipKind, ...]:
    """The flip schedule of one run: build_schedule(params), or a checked override."""
    if schedule is None:
        return build_schedule(params)
    schedule = tuple(schedule)
    if len(schedule) != params.rounds:
        raise ParameterError(
            f"schedule length {len(schedule)} does not match rounds {params.rounds}"
        )
    if not all(isinstance(kind, FlipKind) for kind in schedule):
        raise ParameterError("schedule entries must be FlipKind values")
    return schedule


def run_protocol(
    params: ProtocolParams, schedule: tuple[FlipKind, ...] | None = None
) -> ProtocolResult:
    """Evolve the full branch tree of one run and aggregate its outcomes.

    `schedule` overrides the approach's flip schedule (same length as
    rounds); the default is build_schedule(params).
    """
    return next(_run_pass((params,), schedule))


def _run_pass(
    runs: Sequence[ProtocolParams], schedule: tuple[FlipKind, ...] | None = None
) -> Iterator[ProtocolResult]:
    """Evolve the last of `runs` once, yielding each run's result at its round count.

    `runs` must ascend strictly in rounds and differ in nothing else, and each
    run's schedule must be a prefix of the last one's, as in approach A.
    """
    params = runs[-1]
    schedule = _resolve_schedule(params, schedule)
    pending = iter(runs)
    stop = next(pending)
    eta = params.eta_per_cycle
    state = make_initial_state()
    n_phase = 0
    n_pol = 0
    heralds: list[HeraldRecord] = []
    cumulative: list[float] = []
    clicks_so_far = 0.0

    for r in range(1, params.rounds + 1):
        state = absorption_channel(state, params.p_abs, params.r_a1)
        pre_click_a2 = state.a2_population() if not state.is_empty else 0.0
        pre_click_weight = state.weight
        _, click, noclick = qnd_povm(state, params.p_qnd, params.p_dark)
        if not click.is_empty:
            target = epoch_target((n_phase, n_pol))
            conditional = click.reduced_pair13()
            heralds.append(
                HeraldRecord(
                    round=r,
                    flips_applied=(n_phase, n_pol),
                    herald_type=HeraldType.QND_CLICK,
                    weight=click.weight,
                    conditional_13=conditional,
                    target=target,
                    fidelity=float(np.real(conditional[target.value, target.value])),
                    false_weight=params.p_dark * (1.0 - pre_click_a2) * pre_click_weight,
                )
            )
            clicks_so_far += click.weight
        cumulative.append(clicks_so_far)
        state = noclick
        state = photon_loss_channel(state, params.p_loss)
        state = dephasing_channel(state, eta)
        kind = schedule[r - 1]
        if kind is not FlipKind.NONE:
            state = flip_channel(state, kind)
            if kind in (FlipKind.PHASE, FlipKind.BOTH):
                n_phase += 1
            if kind in (FlipKind.POLARISATION, FlipKind.BOTH):
                n_pol += 1
        if r != stop.rounds:
            continue

        false_negative = state.a2_population() * state.weight if not state.is_empty else 0.0
        records = list(heralds)
        parity_success = failure = residual = 0.0
        if stop.approach == "A":
            parity_records = final_parity_measurement(
                state,
                stop.flip_observable,
                stop.detector_eff,
                round_index=r,
                flips_applied=(n_phase, n_pol),
            )
            records.extend(parity_records)
            parity_success = sum(record.weight for record in parity_records)
            failure = state.weight - parity_success
        else:
            residual = state.weight

        fidelity_per_target, success_per_target = _aggregate_heralds(records)
        yield ProtocolResult(
            params=stop,
            cumulative_success=tuple(cumulative),
            herald_log=tuple(records),
            total_success=clicks_so_far + parity_success,
            parity_success=parity_success,
            failure_weight=failure,
            residual_weight=residual,
            false_negative_weight=false_negative,
            false_positive_weight=sum(record.false_weight for record in records),
            fidelity_per_target=fidelity_per_target,
            success_per_target=success_per_target,
        )
        stop = next(pending, params)
