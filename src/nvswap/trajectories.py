"""Monte-Carlo cross-check for the density-matrix engine.

Runs the same five-step cycle as `run_protocol`, but as a stochastic
unraveling over pure-state trajectories: every channel becomes a random
event (transfer attempt, detector click, photon loss, dephasing kick) whose
branch probabilities follow the Born rule, so ensemble averages converge to
the deterministic weights.  Amplitudes for all live trajectories are kept in
one (n, 32) array and every step is applied with boolean masks, which keeps
1e5 trajectories per run well under a second.

The dynamics here deliberately share only the basis tables with
`channels.py`; branch bookkeeping, collapse logic, and estimators are written
independently so the two implementations can audit each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    DEPHASING_TABLES,
    FLIP_TABLES,
    LOSS_KRAUS,
    ALL_SPINS,
    FlipKind,
)
from .protocol import (
    HeraldType,
    ProtocolParams,
    _PARITY_TABLE,
    _resolve_schedule,
    epoch_target,
)
from .states import (
    DIM_2P,
    DIM_PAIR13,
    DIM_TOTAL,
    SLOT_A2,
    BellLabel,
    check_count,
)

_J3_COLS = np.arange(DIM_PAIR13) * DIM_2P + 3
_J2_COLS = np.arange(DIM_PAIR13) * DIM_2P + 2
_A2_COLS = np.arange(DIM_PAIR13) * DIM_2P + SLOT_A2
_A1_COLS = np.arange(DIM_PAIR13) * DIM_2P + SLOT_A2 + 1
_GONE_COLS = (np.arange(DIM_PAIR13)[:, None] * DIM_2P + np.arange(4, 8)[None, :]).reshape(-1)

_HERALD_NONE = 0
_HERALD_CLICK = 1
_HERALD_PARITY_EVEN = 2
_HERALD_PARITY_ODD = 3

_KIND_BY_CODE = {
    _HERALD_CLICK: HeraldType.QND_CLICK,
    _HERALD_PARITY_EVEN: HeraldType.PARITY_EVEN,
    _HERALD_PARITY_ODD: HeraldType.PARITY_ODD,
}


def _initial_amplitudes(n: int) -> np.ndarray:
    amps = np.zeros((n, DIM_TOTAL), dtype=np.complex128)
    for label in BellLabel:
        amps[:, label.value * DIM_2P + label.toggle_family().value] = 0.5
    return amps


def _collapse_keep(psi: np.ndarray, rows: np.ndarray, cols: np.ndarray, norm_sq: np.ndarray) -> None:
    """Project the selected rows onto the given columns and renormalize."""
    keep = np.zeros(DIM_TOTAL, dtype=bool)
    keep[cols] = True
    sub = psi[rows]
    sub[:, ~keep] = 0.0
    psi[rows] = sub / np.sqrt(norm_sq)[:, None]


def _collapse_drop(psi: np.ndarray, rows: np.ndarray, cols: np.ndarray, norm_sq: np.ndarray) -> None:
    sub = psi[rows]
    sub[:, cols] = 0.0
    psi[rows] = sub / np.sqrt(norm_sq)[:, None]


def _apply_table(psi: np.ndarray, rows: np.ndarray, table: tuple[np.ndarray, np.ndarray]) -> None:
    perm, sign = table
    out = np.empty_like(psi[rows])
    out[:, perm] = psi[rows] * sign[None, :]
    psi[rows] = out


def _target_fidelities(psi: np.ndarray, targets: np.ndarray) -> np.ndarray:
    blocks = np.abs(psi.reshape(len(psi), DIM_PAIR13, DIM_2P)) ** 2
    per_label = blocks.sum(axis=2)
    return per_label[np.arange(len(psi)), targets]


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if len(values) < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(len(values)))


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


@dataclass(frozen=True)
class TrajectoryResult:
    """Sampled analogue of ProtocolResult with standard errors."""

    params: ProtocolParams
    n_trajectories: int
    seed: int | None
    cumulative_success: tuple[float, ...]
    total_success: float
    total_success_se: float
    parity_success: float
    failure_fraction: float
    residual_fraction: float
    false_positive_fraction: float
    false_negative_estimate: float
    success_per_target: dict[BellLabel, float] = field(repr=False)
    fidelity_per_target: dict[BellLabel, float | None] = field(repr=False)
    fidelity_se_per_target: dict[BellLabel, float] = field(repr=False)
    herald_counts: dict[HeraldType, int] = field(repr=False)
    _pooled: tuple[float, float] = field(repr=False)

    @property
    def pooled_fidelity(self) -> float | None:
        if self._pooled[0] < 0:
            return None
        return self._pooled[0]

    @property
    def pooled_fidelity_se(self) -> float:
        return self._pooled[1]

    def success_se(self, label: BellLabel) -> float:
        return _binomial_se(self.success_per_target[label], self.n_trajectories)


def run_trajectories(
    params: ProtocolParams,
    n_trajectories: int,
    seed: int | None = None,
    schedule: tuple[FlipKind, ...] | None = None,
) -> TrajectoryResult:
    """Sample n_trajectories independent runs and aggregate herald statistics."""
    n = check_count("n_trajectories", n_trajectories)
    schedule = _resolve_schedule(params, schedule)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    psi = _initial_amplitudes(n)
    alive = np.arange(n)

    herald_kind = np.zeros(n, dtype=np.int8)
    herald_round = np.zeros(n, dtype=np.int32)
    herald_target = np.full(n, -1, dtype=np.int8)
    herald_fidelity = np.zeros(n, dtype=float)
    herald_false = np.zeros(n, dtype=bool)

    eta = params.eta_per_cycle
    p_kick = 0.5 * (1.0 - eta)
    p_a1 = params.p_abs * params.r_a1
    clicks_by_round = np.zeros(params.rounds, dtype=np.int64)
    n_phase = 0
    n_pol = 0

    for r in range(1, params.rounds + 1):
        m = len(alive)
        if m == 0:
            break

        # absorption attempts: transfer j=3 into the a2 slot, then j=2 into a1
        for p_attempt, src_cols, dst_cols in (
            (params.p_abs, _J3_COLS, _A2_COLS),
            (p_a1, _J2_COLS, _A1_COLS),
        ):
            if p_attempt <= 0.0:
                continue
            u = rng.random(m)
            attempt = np.flatnonzero(u < p_attempt)
            if len(attempt) == 0:
                continue
            pop = np.abs(psi[attempt][:, src_cols]) ** 2
            pop = pop.sum(axis=1)
            v = rng.random(len(attempt))
            hit = v < pop
            hit_rows = attempt[hit]
            if len(hit_rows):
                sub = psi[hit_rows]
                moved = np.zeros_like(sub)
                moved[:, dst_cols] = sub[:, src_cols]
                psi[hit_rows] = moved / np.sqrt(pop[hit])[:, None]
            miss_rows = attempt[~hit]
            if len(miss_rows):
                _collapse_drop(psi, miss_rows, src_cols, 1.0 - pop[~hit])

        # herald measurement: collapse onto/off the a2 slot, then the detector fires
        p2 = (np.abs(psi[:, _A2_COLS]) ** 2).sum(axis=1)
        in_a2 = rng.random(m) < p2
        rows_in = np.flatnonzero(in_a2)
        rows_out = np.flatnonzero(~in_a2)
        if len(rows_in):
            _collapse_keep(psi, rows_in, _A2_COLS, p2[rows_in])
        if len(rows_out):
            _collapse_drop(psi, rows_out, _A2_COLS, 1.0 - p2[rows_out])
        c = rng.random(m)
        clicked = np.where(in_a2, c < params.p_qnd, c < params.p_dark)
        rows_clicked = np.flatnonzero(clicked)
        if len(rows_clicked):
            target = epoch_target((n_phase, n_pol))
            ids = alive[rows_clicked]
            herald_kind[ids] = _HERALD_CLICK
            herald_round[ids] = r
            herald_target[ids] = target.value
            herald_fidelity[ids] = _target_fidelities(
                psi[rows_clicked], np.full(len(rows_clicked), target.value)
            )
            herald_false[ids] = ~in_a2[rows_clicked]
            clicks_by_round[r - 1] += len(rows_clicked)
            keep = ~clicked
            psi = psi[keep]
            alive = alive[keep]
            m = len(alive)
            if m == 0:
                break

        # photon loss: three-outcome collapse on the attempting rows
        if params.p_loss > 0.0:
            attempt = np.flatnonzero(rng.random(m) < params.p_loss)
            if len(attempt):
                sub = psi[attempt]
                a_plus = sub @ LOSS_KRAUS[0].T
                a_minus = sub @ LOSS_KRAUS[1].T
                q_plus = (np.abs(a_plus) ** 2).sum(axis=1)
                q_minus = (np.abs(a_minus) ** 2).sum(axis=1)
                v = rng.random(len(attempt))
                pick_plus = v < q_plus
                pick_minus = (~pick_plus) & (v < q_plus + q_minus)
                pick_gone = ~(pick_plus | pick_minus)
                if pick_plus.any():
                    rows = attempt[pick_plus]
                    psi[rows] = a_plus[pick_plus] / np.sqrt(q_plus[pick_plus])[:, None]
                if pick_minus.any():
                    rows = attempt[pick_minus]
                    psi[rows] = a_minus[pick_minus] / np.sqrt(q_minus[pick_minus])[:, None]
                if pick_gone.any():
                    rows = attempt[pick_gone]
                    q_gone = 1.0 - q_plus[pick_gone] - q_minus[pick_gone]
                    _collapse_keep(psi, rows, _GONE_COLS, q_gone)

        # dephasing: independent bit-flip kicks per spin
        if p_kick > 0.0:
            for site in ALL_SPINS:
                rows = np.flatnonzero(rng.random(m) < p_kick)
                if len(rows):
                    _apply_table(psi, rows, DEPHASING_TABLES[site])

        kind = schedule[r - 1]
        if kind is not FlipKind.NONE:
            _apply_table(psi, np.arange(m), FLIP_TABLES[kind])
            if kind in (FlipKind.PHASE, FlipKind.BOTH):
                n_phase += 1
            if kind in (FlipKind.POLARISATION, FlipKind.BOTH):
                n_pol += 1

    # unheralded trajectories: a2 weight still on board counts as missed
    false_negative = 0.0
    if len(alive):
        false_negative = float((np.abs(psi[:, _A2_COLS]) ** 2).sum()) / n

    parity_count = 0
    failure_count = 0
    residual_count = len(alive)
    if params.approach == "A" and len(alive):
        even_slots, odd_slots, even_target, odd_target = _PARITY_TABLE[params.flip_observable]
        even_cols = (np.arange(DIM_PAIR13)[:, None] * DIM_2P + np.array(even_slots)).reshape(-1)
        odd_cols = (np.arange(DIM_PAIR13)[:, None] * DIM_2P + np.array(odd_slots)).reshape(-1)
        m = len(alive)
        q_even = (np.abs(psi[:, even_cols]) ** 2).sum(axis=1)
        q_odd = (np.abs(psi[:, odd_cols]) ** 2).sum(axis=1)
        v = rng.random(m)
        pick_even = v < q_even
        pick_odd = (~pick_even) & (v < q_even + q_odd)
        detected = rng.random(m) < params.detector_eff**2
        for pick, cols, q, target, code in (
            (pick_even, even_cols, q_even, even_target, _HERALD_PARITY_EVEN),
            (pick_odd, odd_cols, q_odd, odd_target, _HERALD_PARITY_ODD),
        ):
            rows = np.flatnonzero(pick & detected)
            if len(rows) == 0:
                continue
            _collapse_keep(psi, rows, cols, q[rows])
            ids = alive[rows]
            herald_kind[ids] = code
            herald_round[ids] = params.rounds
            herald_target[ids] = target.value
            herald_fidelity[ids] = _target_fidelities(
                psi[rows], np.full(len(rows), target.value)
            )
            parity_count += len(rows)
        failure_count = m - parity_count
        residual_count = 0

    heralded = herald_kind != _HERALD_NONE
    total_heralds = int(heralded.sum())
    total_success = total_heralds / n
    cumulative = tuple(np.cumsum(clicks_by_round) / n)

    success_per_target: dict[BellLabel, float] = {}
    fidelity_per_target: dict[BellLabel, float | None] = {}
    fidelity_se_per_target: dict[BellLabel, float] = {}
    for label in BellLabel:
        sel = heralded & (herald_target == label.value)
        success_per_target[label] = float(sel.sum()) / n
        if sel.any():
            mean, se = _mean_se(herald_fidelity[sel])
            fidelity_per_target[label] = mean
            fidelity_se_per_target[label] = se
        else:
            fidelity_per_target[label] = None
            fidelity_se_per_target[label] = 0.0

    if total_heralds:
        pooled = _mean_se(herald_fidelity[heralded])
    else:
        pooled = (-1.0, 0.0)

    herald_counts = {
        kind: int((herald_kind == code).sum()) for code, kind in _KIND_BY_CODE.items()
    }

    return TrajectoryResult(
        params=params,
        n_trajectories=n,
        seed=seed,
        cumulative_success=cumulative,
        total_success=total_success,
        total_success_se=_binomial_se(total_success, n),
        parity_success=parity_count / n,
        failure_fraction=failure_count / n,
        residual_fraction=residual_count / n,
        false_positive_fraction=float(herald_false.sum()) / n,
        false_negative_estimate=false_negative,
        success_per_target=success_per_target,
        fidelity_per_target=fidelity_per_target,
        fidelity_se_per_target=fidelity_se_per_target,
        herald_counts=herald_counts,
        _pooled=pooled,
    )
