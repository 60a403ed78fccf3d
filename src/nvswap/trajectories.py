"""Monte-Carlo cross-check for the density-matrix engine.

Runs the same five-step cycle as `run_protocol`, but as a stochastic
unraveling over pure-state trajectories: every channel becomes a random
event (transfer attempt, detector click, photon loss, dephasing kick) whose
branch probabilities follow the Born rule, so ensemble averages converge to
the deterministic weights.  Every operator is a signed permutation, a
projection or a real Kraus map, so the amplitudes of all trajectories are
real and kept in one (n, 32) float64 array.  The scheduled flips, which act
on every live row, are not applied to it: they are composed into one
signed-permutation frame (`_Frame`) through which each step reads and writes
the columns it needs, and rows are converted to the true basis only where
whole rows are read (clicks, photon loss, the final parity stage).  The
arithmetic and the draws from the generator are those of a true-basis loop,
so a seed fixes the result.

Each step computes only on the rows it can change, which two masks track.
A `holds_a2` row is pure A2 and any other row holds no A2: only a j=3
transfer hit sets the mask and leaves a pure A2 row, QND misses keep the
row, and the spin kicks and the flips keep slot 4 in place.  A `has_photon`
row holds nothing on slots 4-7 and any other row nothing on slots 0-3: a
transfer hit leaves a pure A2 or A1 row, photon loss maps slots 0-3 to 6-7,
and NV2 dephasing and the flips keep slots 4-7 among themselves.  So the
herald's collapse onto or off A2 is certain and changes no row, and photon
loss has two outcomes, as its gone outcome has weight 0 on a photon row.
The herald step still draws the uniforms that once decided its collapse, so
that a seed keeps its stream; every draw keeps its size and order, so at
most the sign of a zero differs, which no output sees: amplitudes reach
outputs only squared.

The dynamics here deliberately share only the basis tables with
`channels.py` (the flip and dephasing tables, the loss Kraus maps and
`PARITY_TABLE`), and the basis layout and initial state with `states.py`;
branch bookkeeping, collapse logic, and estimators are written independently
so the two implementations can audit each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    DEPHASING_TABLES,
    FLIP_TABLES,
    LOSS_KRAUS,
    PARITY_TABLE,
    ALL_SPINS,
    FlipKind,
)
from .protocol import (
    HeraldType,
    ProtocolParams,
    _resolve_schedule,
    epoch_target,
)
from .states import (
    DIM_2P,
    DIM_TOTAL,
    SLOT_A1,
    SLOT_A2,
    BellLabel,
    check_count,
    check_seed,
    initial_amplitudes,
    slot_columns,
)

_J3_COLS = slot_columns(3)
_J2_COLS = slot_columns(2)
_A2_COLS = slot_columns(SLOT_A2)
_A1_COLS = slot_columns(SLOT_A1)

_HERALD_NONE = 0
_HERALD_CLICK = 1
_HERALD_PARITY_EVEN = 2
_HERALD_PARITY_ODD = 3

_KIND_BY_CODE = {
    _HERALD_CLICK: HeraldType.QND_CLICK,
    _HERALD_PARITY_EVEN: HeraldType.PARITY_EVEN,
    _HERALD_PARITY_ODD: HeraldType.PARITY_ODD,
}


class _Frame:
    """The scheduled flips so far, as one signed permutation of the columns.

    Stored amplitudes relate to the true ones by
    true[:, perm[k]] = sign[k] * stored[:, k].
    """

    def __init__(self) -> None:
        self.perm = np.arange(DIM_TOTAL)
        self.sign = np.ones(DIM_TOTAL)
        self.inv = np.arange(DIM_TOTAL)

    def compose(self, table: tuple[np.ndarray, np.ndarray]) -> None:
        """Follow the frame by the flip true[:, t_perm[c]] <- t_sign[c] * true[:, c]."""
        t_perm, t_sign = table
        self.sign = t_sign[self.perm] * self.sign
        self.perm = t_perm[self.perm]
        self.inv[self.perm] = np.arange(DIM_TOTAL)

    def conjugate(self, table: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The table acting on stored columns as `table` acts on true ones."""
        t_perm, t_sign = table
        perm = self.inv[t_perm[self.perm]]
        return perm, self.sign[perm] * t_sign[self.perm] * self.sign

    def to_true(self, stored: np.ndarray) -> np.ndarray:
        return np.take(stored, self.inv, axis=1) * self.sign[self.inv]

    def from_true(self, true: np.ndarray) -> np.ndarray:
        return np.take(true, self.perm, axis=1) * self.sign


def _collapse_keep(psi: np.ndarray, rows: np.ndarray, cols: np.ndarray, norm_sq: np.ndarray) -> None:
    """Project the selected rows onto the given columns and renormalize."""
    keep = np.zeros(DIM_TOTAL, dtype=bool)
    keep[cols] = True
    sub = psi[rows]
    sub[:, ~keep] = 0.0
    psi[rows] = sub * (1.0 / np.sqrt(norm_sq))[:, None]


def _renormalize(psi: np.ndarray, rows: np.ndarray, norm_sq: np.ndarray) -> None:
    """Scale the selected rows by 1/sqrt(norm_sq) in place, skipping factors of exactly 1.0."""
    factor = 1.0 / np.sqrt(norm_sq)
    scaled = factor != 1.0
    psi[rows[scaled]] *= factor[scaled, None]


def _apply_table(psi: np.ndarray, rows: np.ndarray, table: tuple[np.ndarray, np.ndarray]) -> None:
    perm, sign = table
    out = np.empty_like(psi[rows])
    out[:, perm] = psi[rows] * sign[None, :]
    psi[rows] = out


def _target_fidelities(psi: np.ndarray, target: BellLabel) -> np.ndarray:
    """Weight of each row on the target's pair-13 block (true basis)."""
    block = psi[:, target.value * DIM_2P : (target.value + 1) * DIM_2P]
    return (block**2).sum(axis=1)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if len(values) < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(len(values)))


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
    pooled_fidelity: float | None = field(repr=False)
    pooled_fidelity_se: float = field(repr=False)


def run_trajectories(
    params: ProtocolParams,
    n_trajectories: int,
    seed: int | None = None,
    schedule: tuple[FlipKind, ...] | None = None,
) -> TrajectoryResult:
    """Sample n_trajectories independent runs and aggregate herald statistics;
    `seed` is None (fresh entropy) or a non-negative integer."""
    check_seed(seed)
    n = check_count("n_trajectories", n_trajectories)
    schedule = _resolve_schedule(params, schedule)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    psi = np.tile(initial_amplitudes(), (n, 1))
    frame = _Frame()
    alive = np.arange(n)
    holds_a2 = np.zeros(n, dtype=bool)
    has_photon = np.ones(n, dtype=bool)

    herald_kind = np.zeros(n, dtype=np.int8)
    herald_target = np.full(n, -1, dtype=np.int8)
    herald_fidelity = np.zeros(n, dtype=float)
    herald_false = np.zeros(n, dtype=bool)

    eta = params.eta_per_cycle
    p_kick = 0.5 * (1.0 - eta)
    p_a1 = params.p_abs * params.r_a1
    clicks_by_round = np.zeros(params.rounds, dtype=np.int64)
    n_phase = 0
    n_pol = 0

    # psi rows are indexed by trajectory id and never compacted; every draw
    # of size m covers the live ids in `alive`, in order
    for r in range(1, params.rounds + 1):
        m = len(alive)

        # absorption attempts: transfer j=3 into the a2 slot, then j=2 into a1
        for p_attempt, src_cols, dst_cols, to_a2 in (
            (params.p_abs, _J3_COLS, _A2_COLS, True),
            (p_a1, _J2_COLS, _A1_COLS, False),
        ):
            if p_attempt <= 0.0:
                continue
            attempt = alive[rng.random(m) < p_attempt]
            if len(attempt) == 0:
                continue
            u = rng.random(len(attempt))
            carries = has_photon[attempt]
            attempt, u = attempt[carries], u[carries]
            src = frame.inv[src_cols]
            dst = frame.inv[dst_cols]
            pop = (psi[attempt[:, None], src] ** 2).sum(axis=1)
            hit = u < pop
            hit_ids = attempt[hit]
            if len(hit_ids):
                moved = psi[hit_ids[:, None], src] * (frame.sign[src] * frame.sign[dst])
                psi[hit_ids] = 0.0
                psi[hit_ids[:, None], dst] = moved
                _renormalize(psi, hit_ids, pop[hit])
                has_photon[hit_ids] = False
                holds_a2[hit_ids] = to_a2
            miss_ids = attempt[~hit]
            if len(miss_ids):
                psi[miss_ids[:, None], src] = 0.0
                _renormalize(psi, miss_ids, 1.0 - pop[~hit])

        # herald measurement: the collapse onto or off A2 is certain (see the
        # module docstring); this draw only keeps the stream, and goes when
        # the stream changes (ROADMAP item 6, step 2)
        rng.random(m)
        in_a2 = holds_a2[alive]
        c = rng.random(m)
        clicked = np.where(in_a2, c < params.p_qnd, c < params.p_dark)
        if clicked.any():
            target = epoch_target((n_phase, n_pol))
            ids = alive[clicked]
            herald_kind[ids] = _HERALD_CLICK
            herald_target[ids] = target.value
            herald_fidelity[ids] = _target_fidelities(frame.to_true(psi[ids]), target)
            herald_false[ids] = ~in_a2[clicked]
            clicks_by_round[r - 1] += len(ids)
            alive = alive[~clicked]
            m = len(alive)
            if m == 0:
                break

        # photon loss: two-outcome collapse on the attempting photon rows, in the true basis
        if params.p_loss > 0.0:
            attempt = alive[rng.random(m) < params.p_loss]
            v = rng.random(len(attempt))
            carries = has_photon[attempt]
            has_photon[attempt] = False
            attempt, v = attempt[carries], v[carries]
            if len(attempt):
                sub = frame.to_true(psi[attempt])
                a_plus = sub @ LOSS_KRAUS[0].T
                a_minus = sub @ LOSS_KRAUS[1].T
                q_plus = (a_plus**2).sum(axis=1)
                q_minus = (a_minus**2).sum(axis=1)
                plus = v < q_plus
                for pick, branch, q in ((plus, a_plus, q_plus), (~plus, a_minus, q_minus)):
                    if pick.any():
                        psi[attempt[pick]] = frame.from_true(
                            branch[pick] * (1.0 / np.sqrt(q[pick]))[:, None]
                        )

        # dephasing: independent bit-flip kicks per spin
        if p_kick > 0.0:
            for site in ALL_SPINS:
                kicked = alive[rng.random(m) < p_kick]
                if len(kicked):
                    _apply_table(psi, kicked, frame.conjugate(DEPHASING_TABLES[site]))

        kind = schedule[r - 1]
        if kind is not FlipKind.NONE:
            frame.compose(FLIP_TABLES[kind])
            if kind in (FlipKind.PHASE, FlipKind.BOTH):
                n_phase += 1
            if kind in (FlipKind.POLARISATION, FlipKind.BOTH):
                n_pol += 1

    # from here on psi holds the live rows, in order and in the true basis
    psi = frame.to_true(psi[alive])

    # unheralded trajectories: a2 weight still on board counts as missed
    false_negative = float((psi[:, _A2_COLS] ** 2).sum()) / n

    parity_count = 0
    failure_count = 0
    residual_count = len(alive)
    if params.approach == "A" and len(alive):
        (even_slots, even_target), (odd_slots, odd_target) = PARITY_TABLE[params.flip_observable]
        even_cols, odd_cols = slot_columns(*even_slots), slot_columns(*odd_slots)
        m = len(alive)
        q_even = (psi[:, even_cols] ** 2).sum(axis=1)
        q_odd = (psi[:, odd_cols] ** 2).sum(axis=1)
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
            herald_target[ids] = target.value
            herald_fidelity[ids] = _target_fidelities(psi[rows], target)
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

    pooled = _mean_se(herald_fidelity[heralded]) if total_heralds else (None, 0.0)

    herald_counts = {
        kind: int((herald_kind == code).sum()) for code, kind in _KIND_BY_CODE.items()
    }

    return TrajectoryResult(
        params=params,
        n_trajectories=n,
        seed=seed,
        cumulative_success=cumulative,
        total_success=total_success,
        total_success_se=math.sqrt(total_success * (1.0 - total_success) / n),
        parity_success=parity_count / n,
        failure_fraction=failure_count / n,
        residual_fraction=residual_count / n,
        false_positive_fraction=float(herald_false.sum()) / n,
        false_negative_estimate=false_negative,
        success_per_target=success_per_target,
        fidelity_per_target=fidelity_per_target,
        fidelity_se_per_target=fidelity_se_per_target,
        herald_counts=herald_counts,
        pooled_fidelity=pooled[0],
        pooled_fidelity_se=pooled[1],
    )
