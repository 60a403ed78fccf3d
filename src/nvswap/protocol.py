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

Engine.  Every channel is linear on the unnormalized density operator, and
the evolving operator is real and nonzero on at most 104 of its 1024 entries
(the initial pattern closed under every channel's Kraus operators).  So each
parameter set compiles, from the weighted Kraus terms in `channels`, two real
maps on that support: one reading the click branch's reduced pair-13 block,
its weight and the A2 population off the absorbed state, and one no-click
round map per flip kind (absorption, no-click, loss, dephasing, flip).  A
round is two matrix-vector products.  The JointState channel functions stay
the readable spec; the test suite runs a round loop on them as the oracle.

Checks.  Every round: the click and no-click weights sum to the input weight
within WEIGHT_ATOL, and the no-click state is symmetric within
HERMITICITY_ATOL.  Every herald conditional: finite, Hermitian, unit trace
and positive semidefinite (`states.check_density`), checked before the
result that holds it is returned.  The final state: a full JointState.  A
breach raises StateValidationError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .channels import (
    ALL_SPINS,
    FlipKind,
    Terms,
    absorption_terms,
    dephasing_terms,
    flip_terms,
    loss_terms,
    qnd_terms,
)

# the JointState spec of a round, still importable from this module
from .channels import (  # noqa: F401
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
    DIM_TOTAL,
    HERMITICITY_ATOL,
    SLOT_A2,
    WEIGHT_ATOL,
    BellLabel,
    JointState,
    ParameterError,
    StateValidationError,
    check_count,
    check_density,
    check_probability,
    initial_amplitudes,
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
    schedule = _resolve_schedule(runs[-1], schedule)
    return _engine(runs[-1]).evolve(runs, schedule, _support().initial)


class _Support:
    """The reachable entries of the density matrix.

    The initial state's nonzero pattern, closed under every Kraus operator of
    every channel, holds 104 of the 1024 entries; the evolving matrix is real
    and stays inside it.  A state is the real vector of those entries in
    row-major order, with its weight folded in (trace = branch weight).
    """

    def __init__(self) -> None:
        click, noclick = qnd_terms(0.5, 0.5)
        channels = [*absorption_terms(0.5, 0.5), click, noclick, loss_terms(0.5)]
        channels += [dephasing_terms(0.5, site) for site in ALL_SPINS]
        channels += [flip_terms(kind) for kind in FlipKind]
        operators = {id(k): k for terms in channels for _, k in terms}
        amplitudes = initial_amplitudes()
        initial = np.outer(amplitudes, amplitudes)
        pattern = initial != 0.0
        while True:
            grown = pattern.copy()
            for k in operators.values():
                nonzero = (k != 0.0).astype(float)
                grown |= nonzero @ pattern @ nonzero.T != 0.0
            if np.array_equal(grown, pattern):
                break
            pattern = grown
        rows, cols = np.nonzero(pattern)
        self.rows, self.cols = rows, cols
        self.initial = initial
        self.trace = (rows == cols).astype(float)
        position = {(r, c): i for i, (r, c) in enumerate(zip(rows, cols))}
        self.transpose = np.array([position[c, r] for r, c in zip(rows, cols)])
        pair_r, slot_r = np.divmod(rows, DIM_2P)
        pair_c, slot_c = np.divmod(cols, DIM_2P)
        # herald_rows: the partial trace over node2p (16 rows, the 4x4 block)
        # and the trace; a2: the A2 population
        same = np.flatnonzero(slot_r == slot_c)
        self.herald_rows = np.zeros((DIM_PAIR13 * DIM_PAIR13 + 1, len(rows)))
        self.herald_rows[pair_r[same] * DIM_PAIR13 + pair_c[same], same] = 1.0
        self.herald_rows[-1] = self.trace
        self.a2 = self.trace * (slot_r == SLOT_A2)
        # K (x) K on the support, M[(a,b),(c,d)] = K[a,c] K[b,d], gathers
        # K[rows_i, rows_j] and K[cols_i, cols_j]; the channels' operators are
        # module constants, so each is lifted once and found by id (the
        # entry keeps K alive, so no other array can take its id)
        gather_rows = (rows[:, None] * DIM_TOTAL + rows[None, :]).ravel()
        gather_cols = (cols[:, None] * DIM_TOTAL + cols[None, :]).ravel()
        self._lifted = {}
        for key, k in operators.items():
            dense = k.take(gather_rows) * k.take(gather_cols)
            where = np.flatnonzero(dense)
            self._lifted[key] = (k, where, dense[where])

    def lift(self, terms: Terms) -> np.ndarray:
        """Superoperator of weighted Kraus terms of the channels on the support."""
        n = len(self.rows)
        out = np.zeros(n * n)
        for w, k in terms:
            _, where, values = self._lifted[id(k)]
            out[where] += w * values
        return out.reshape(n, n)


_support = functools.cache(_Support)


class _Engine:
    """One parameter set's rounds, compiled to real maps on the support.

    A round is absorption, the herald split, then on the no-click branch
    photon loss, dephasing of all three spins and the scheduled flip.  Built
    once per parameter set: `herald`, which reads the click branch's reduced
    pair-13 block (16 rows), its weight and the A2 population off the absorbed
    state, and per flip kind the no-click round map.  Both include the
    absorption, so a round is two matrix-vector products.
    """

    def __init__(
        self, p_abs: float, r_a1: float, p_qnd: float, p_dark: float, p_loss: float, eta: float
    ) -> None:
        support = _support()
        absorb, leak = absorption_terms(p_abs, r_a1)
        absorbed = support.lift(leak) @ support.lift(absorb)
        click, noclick = qnd_terms(p_qnd, p_dark)
        self.herald = np.vstack(
            [support.herald_rows @ support.lift(click) @ absorbed, support.a2 @ absorbed]
        )
        base = support.lift(noclick) @ absorbed
        for terms in [loss_terms(p_loss)] + [dephasing_terms(eta, site) for site in ALL_SPINS]:
            base = support.lift(terms) @ base
        self._maps = {FlipKind.NONE: base}

    def round_map(self, kind: FlipKind) -> np.ndarray:
        if kind not in self._maps:
            self._maps[kind] = _support().lift(flip_terms(kind)) @ self._maps[FlipKind.NONE]
        return self._maps[kind]

    def step(self, state: np.ndarray, weight: float, kind: FlipKind, r: int):
        """Round r on a support vector of the given weight.

        Returns (click block, click weight, A2 population after absorption,
        no-click state after the flip, its weight).  Checks that the two
        branches carry the input weight and that the no-click state is
        symmetric; a no-click weight at or below BRANCH_WEIGHT_FLOOR empties
        the state.
        """
        support = _support()
        heralds = self.herald @ state
        out = self.round_map(kind) @ state
        click = float(heralds[-2])
        noclick = float(support.trace @ out)
        if not abs(click + noclick - weight) <= WEIGHT_ATOL:
            raise StateValidationError(
                f"round {r} does not conserve weight: click {click!r} + no-click"
                f" {noclick!r} != input {weight!r}"
            )
        block = heralds[:-2].reshape(DIM_PAIR13, DIM_PAIR13)
        if noclick <= BRANCH_WEIGHT_FLOOR:
            return block, click, heralds[-1], np.zeros_like(out), 0.0
        asymmetry = np.abs(out - out[support.transpose]).max() / noclick
        if asymmetry > HERMITICITY_ATOL:
            raise StateValidationError(
                f"state matrix is not Hermitian (max asymmetry {asymmetry:.3e})"
            )
        return block, click, heralds[-1], out, noclick

    def evolve(
        self, runs: Sequence[ProtocolParams], schedule: tuple[FlipKind, ...], rho: np.ndarray
    ) -> Iterator[ProtocolResult]:
        """The pass of `_run_pass`, started from the real matrix rho (trace = weight).

        Herald conditionals are checked together before each result is
        yielded; the final state is checked in full as a JointState.
        """
        support = _support()
        pending = iter(runs)
        stop = next(pending)
        state = rho[support.rows, support.cols]
        weight = float(support.trace @ state)
        n_phase = 0
        n_pol = 0
        heralds: list[HeraldRecord] = []
        checked = 0
        cumulative: list[float] = []
        clicks_so_far = 0.0

        for r, kind in enumerate(schedule, start=1):
            block, click, a2, next_state, next_weight = self.step(state, weight, kind, r)
            if click > BRANCH_WEIGHT_FLOOR:
                conditional = block / click
                target = epoch_target((n_phase, n_pol))
                heralds.append(
                    HeraldRecord(
                        round=r,
                        flips_applied=(n_phase, n_pol),
                        herald_type=HeraldType.QND_CLICK,
                        weight=click,
                        conditional_13=conditional,
                        target=target,
                        fidelity=float(conditional[target.value, target.value]),
                        false_weight=stop.p_dark * (weight - a2),
                    )
                )
                clicks_so_far += click
            cumulative.append(clicks_so_far)
            state, weight = next_state, next_weight
            if kind in (FlipKind.PHASE, FlipKind.BOTH):
                n_phase += 1
            if kind in (FlipKind.POLARISATION, FlipKind.BOTH):
                n_pol += 1
            if r != stop.rounds:
                continue

            if checked < len(heralds):
                check_density(np.array([h.conditional_13 for h in heralds[checked:]]))
                checked = len(heralds)
            matrix = np.zeros((DIM_TOTAL, DIM_TOTAL))
            matrix[support.rows, support.cols] = state
            final = JointState.from_unnormalized(matrix)
            false_negative = final.a2_population() * final.weight if not final.is_empty else 0.0
            records = list(heralds)
            parity_success = failure = residual = 0.0
            if stop.approach == "A":
                parity_records = final_parity_measurement(
                    final,
                    stop.flip_observable,
                    stop.detector_eff,
                    round_index=r,
                    flips_applied=(n_phase, n_pol),
                )
                records.extend(parity_records)
                parity_success = sum(record.weight for record in parity_records)
                failure = final.weight - parity_success
            else:
                residual = final.weight

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
            stop = next(pending, runs[-1])


# consecutive runs that differ only in rounds or schedule (approach B's
# candidates, a chain's hops) share one compiled engine
_compile = functools.lru_cache(maxsize=1)(_Engine)


def _engine(params: ProtocolParams) -> _Engine:
    return _compile(
        params.p_abs, params.r_a1, params.p_qnd, params.p_dark, params.p_loss,
        params.eta_per_cycle,
    )
