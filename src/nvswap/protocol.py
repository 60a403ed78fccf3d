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
(the initial pattern closed under every channel's Kraus operators).  So a
pass compiles its parameter set, from the weighted Kraus terms in `channels`,
to real maps on that support (`_compile`): one no-click round map per flip
kind it uses (absorption, no-click, loss, dephasing, flip), and one herald
map reading the click branch's reduced pair-13 block, its weight and its
dark-click weight off a round's input state.  Approach A's final parity
measurement is read the same way, through the lifted `channels.parity_terms`,
off each run's final state.  A pass (`_Scan`) evolves a stack of states, one
column per run, where runs whose schedule is a prefix of the longest one
share its column: each round is one matrix-vector product per column,
grouped by flip kind.  The herald readout, the checks and the aggregates are then read
off the stored stack in a few array operations, so `optimize_rounds` scores
all its candidates from one pass and `run_protocol` is the pass with one
column and one stop.  The JointState channel functions stay the readable
spec; the test suite runs a round loop on them as the oracle.

Herald sums have one order (see `ProtocolResult._herald_sums`, the one walk
over a herald log), which `_Scan` keeps too, so every consumer agrees bit
for bit.

Checks, each on every round of every column, reported at the first failing
round: the click and no-click weights sum to the input weight within
WEIGHT_ATOL, and the no-click state is symmetric within HERMITICITY_ATOL.
Every herald conditional and every run's final state: finite, Hermitian,
unit trace and positive semidefinite (`states.check_density`).  A breach
raises StateValidationError before any result is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .channels import (
    A2_PROJECTOR,
    ALL_SPINS,
    PARITY_TABLE,
    FlipKind,
    Terms,
    absorption_terms,
    dephasing_factor,
    dephasing_terms,
    flip_terms,
    kraus_sum,
    loss_terms,
    parity_terms,
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
    WEIGHT_ATOL,
    BellLabel,
    JointState,
    ParameterError,
    StateValidationError,
    check_count,
    check_density,
    check_nonnegative,
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

    Probabilities are per cycle.  Approach B's flip periods are derived from
    rounds = 2*l_x = 4*l_z: `l_z` and `l_x` read rounds/4 and rounds/2 (None
    for approach A).  `flip_observable` selects approach A's flip kind and
    final measurement basis (XX: phase flips; ZZ: polarisation flips).
    """

    approach: str
    p_abs: float
    rounds: int
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
        check_nonnegative("tau_cycle", self.tau_cycle, finite=True)
        check_nonnegative("t2", self.t2, positive=True, finite=True)
        if self.flip_observable not in ("XX", "ZZ"):
            raise ParameterError(
                f"flip_observable must be 'XX' or 'ZZ', got {self.flip_observable!r}"
            )
        if self.approach == "A" and self.rounds % 2 != 0:
            raise ParameterError("approach A requires an even number of rounds")
        if self.approach == "B" and self.rounds % 4 != 0:
            raise ParameterError(
                "approach B requires rounds = 2*l_x = 4*l_z, so rounds must be a"
                " multiple of 4"
            )

    @property
    def l_z(self) -> int | None:
        return self.rounds // 4 if self.approach == "B" else None

    @property
    def l_x(self) -> int | None:
        return self.rounds // 2 if self.approach == "B" else None

    @property
    def eta_per_cycle(self) -> float:
        """Per-cycle spin coherence retention exp(-(tau_cycle/t2)^2)."""
        return dephasing_factor(self.tau_cycle, self.t2)


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
        diagonal = self._pooled_diagonal(labels)
        return None if diagonal is None else float(diagonal[0])

    @property
    def bell_diagonal(self) -> np.ndarray | None:
        """Average conditional Bell diagonal rotated into each herald's target
        frame (slot 0 = announced target), for relay composition."""
        return self._pooled_diagonal(tuple(BellLabel))

    def _pooled_diagonal(self, labels: tuple[BellLabel, ...]) -> np.ndarray | None:
        # the per-target totals of the given targets, added in label order
        weight, diagonal = self._herald_sums()
        chosen = np.isin(np.arange(DIM_PAIR13), labels)
        total = np.cumsum(np.where(chosen, weight[-1], 0.0))[-1]
        if total <= 0.0:
            return None
        return np.cumsum(np.where(chosen[:, None], diagonal[-1], 0.0), axis=0)[-1] / total

    def _herald_sums(self, *types: HeraldType) -> tuple[np.ndarray, np.ndarray]:
        """Running per-target sums over the heralds of the given types (all by
        default), by round: weight[r - 1, t] is the weight of the heralds of
        rounds 1..r announcing target t, and diagonal[r - 1, t, k] the sum of
        their weights times conditional Bell diagonal entry k ^ t (so slot 0
        sums weight times fidelity).

        The one order in which heralds are summed: per target, in herald-log
        order (clicks by round, then parity even and odd); pooled values add
        the per-target totals in label order.
        """
        records = [r for r in self.herald_log if not types or r.herald_type in types]
        # row 0 is the empty sum, row j the j-th record's terms under its target
        terms = np.zeros((len(records) + 1, DIM_PAIR13, 1 + DIM_PAIR13))
        slots = np.arange(DIM_PAIR13)
        for j, record in enumerate(records, start=1):
            diag = np.real(np.diagonal(record.conditional_13))
            terms[j, record.target, 0] = record.weight
            terms[j, record.target, 1:] = record.weight * diag[slots ^ record.target]
        seen = np.searchsorted(
            [record.round for record in records],
            np.arange(1, self.params.rounds + 1),
            side="right",
        )
        sums = np.cumsum(terms, axis=0)[seen]
        return sums[..., 0], sums[..., 1:]


def build_schedule(params: ProtocolParams) -> tuple[FlipKind, ...]:
    """Flip applied at the end of each round, per the approach's rule."""
    if params.approach == "A":
        kind = FlipKind.PHASE if params.flip_observable == "XX" else FlipKind.POLARISATION
        return (kind,) * params.rounds
    # rounds = 2*l_x = 4*l_z: every second phase flip comes with a polarisation flip
    quiet = (FlipKind.NONE,) * (params.l_z - 1)
    return (*quiet, FlipKind.PHASE, *quiet, FlipKind.BOTH) * 2


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


_LABELS = tuple(BellLabel)
# herald type of each final parity outcome, in PARITY_TABLE order
_PARITY_TYPES = (HeraldType.PARITY_EVEN, HeraldType.PARITY_ODD)


def _herald_records(heralds: Iterable[tuple]) -> list[HeraldRecord]:
    """Records of heralds given one per row (round, flips applied, herald type, weight,
    conditional pair-13 block, target, false weight).  Only weights above
    BRANCH_WEIGHT_FLOOR make a record; its fidelity is the conditional's target entry."""
    return [
        HeraldRecord(r, tuple(f), kind, w, cond, _LABELS[t], float(cond[t, t].real), false_w)
        for r, f, kind, w, cond, t, false_w in heralds
        if w > BRANCH_WEIGHT_FLOOR
    ]


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
    terms = parity_terms(observable, detector_eff)
    if state.is_empty:
        return []
    # an outcome at or below BRANCH_WEIGHT_FLOOR comes back empty, of weight 0
    rho, weight = state.matrix, state.weight
    branches = [JointState.from_unnormalized(kraus_sum(rho, t), weight) for t in terms]
    return _herald_records(
        (round_index, flips_applied, kind, branch.weight, branch.reduced_pair13(), target, 0.0)
        for kind, branch, (_, target) in zip(_PARITY_TYPES, branches, PARITY_TABLE[observable])
    )


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
    return _Scan((params,), (_resolve_schedule(params, schedule),)).result(0)


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
        channels += [terms for obs in PARITY_TABLE for terms in parity_terms(obs, 0.5)]
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
        # the (upper, lower) positions of the symmetric off-diagonal pairs
        position = {(r, c): i for i, (r, c) in enumerate(zip(rows, cols))}
        upper = np.flatnonzero(rows < cols)
        self.pairs = upper, np.array([position[cols[i], rows[i]] for i in upper])
        pair_r, slot_r = np.divmod(rows, DIM_2P)
        pair_c, slot_c = np.divmod(cols, DIM_2P)
        # herald_rows: the partial trace over node2p (16 rows, the 4x4 block) and the trace
        same = np.flatnonzero(slot_r == slot_c)
        self.herald_rows = np.zeros((DIM_PAIR13 * DIM_PAIR13 + 1, len(rows)))
        self.herald_rows[pair_r[same] * DIM_PAIR13 + pair_c[same], same] = 1.0
        self.herald_rows[-1] = self.trace
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
        self.a2 = self.trace @ self.lift(((1.0, A2_PROJECTOR),))

    def lift(self, terms: Terms) -> np.ndarray:
        """Superoperator of weighted Kraus terms of the channels on the support."""
        n = len(self.rows)
        out = np.zeros(n * n)
        for w, k in terms:
            _, where, values = self._lifted[id(k)]
            out[where] += w * values
        return out.reshape(n, n)


_support = functools.cache(_Support)


def _compile(
    params: ProtocolParams, codes: Iterable[int]
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """One parameter set's rounds, compiled to real maps on the support.

    A round is absorption, the herald split, then on the no-click branch
    photon loss, dephasing of all three spins and the scheduled flip.
    Returns the herald map, which reads the click branch's reduced pair-13
    block (16 rows), its weight and its dark-click weight (the click branch
    at p_qnd = 0) off the absorbed state, and the no-click round map of each
    given flip-kind code (an index into _KINDS).  Both include the
    absorption, so both act on the state a round starts from.
    """
    support = _support()
    absorb, leak = absorption_terms(params.p_abs, params.r_a1)
    absorbed = support.lift(leak) @ support.lift(absorb)
    click, noclick = qnd_terms(params.p_qnd, params.p_dark)
    dark, _ = qnd_terms(0.0, params.p_dark)
    block = support.herald_rows @ support.lift(click) @ absorbed
    herald = np.vstack([block, support.trace @ support.lift(dark) @ absorbed])
    base = support.lift(noclick) @ absorbed
    eta = params.eta_per_cycle
    for terms in [loss_terms(params.p_loss)] + [dephasing_terms(eta, site) for site in ALL_SPINS]:
        base = support.lift(terms) @ base
    maps = {}
    for code in codes:
        kind = _KINDS[code]
        maps[code] = base if kind is FlipKind.NONE else support.lift(flip_terms(kind)) @ base
    return herald, maps


def _advance(round_map: np.ndarray, states: np.ndarray) -> np.ndarray:
    """One round of a compiled round map on a (k, 104) stack of states.

    A stacked matmul is one matrix-vector product per state, so a state's
    result does not depend on the other states in the stack.
    """
    return np.matmul(round_map, states[:, :, None])[:, :, 0]


_KINDS = tuple(FlipKind)
# (phase flips, polarisation flips) applied by each kind
_FLIP_COUNTS = np.array(
    [
        (kind in (FlipKind.PHASE, FlipKind.BOTH), kind in (FlipKind.POLARISATION, FlipKind.BOTH))
        for kind in _KINDS
    ],
    dtype=int,
)
# epoch_target by flip-count parities
_TARGETS = np.array([[epoch_target((a, b)) for b in (0, 1)] for a in (0, 1)])


def _index(cols: list[int]) -> slice | np.ndarray:
    """Ascending column numbers as a slice where they are consecutive (a view
    instead of a copy)."""
    if cols[-1] - cols[0] == len(cols) - 1:
        return slice(cols[0], cols[-1] + 1)
    return np.array(cols)


class _Scan:
    """One pass of the engine over runs that differ only in rounds, and each
    run's outcome.

    The longest schedule is the first column of a stack of states; a run
    whose schedule is a prefix of it stops on that column, any other run gets
    a column of its own.  So approach A's round counts share one column and approach
    B's have one each.  The maps are compiled once, for the flip kinds the
    schedules use, and the round loop applies, per flip kind present, that
    kind's map to its columns (`_advance`) and stores the states.
    Everything else is read off the stored stack at once: the herald
    readout, the checks (see the module docstring), the branch floor (a
    no-click weight at or below BRANCH_WEIGHT_FLOOR empties the column from
    that round on, as in a round-by-round loop), the cumulative sums, and
    per run the final state, its parity outcomes (approach A) and the
    arrays `optimize_rounds` scores.  `result(i)` builds run i's
    ProtocolResult from those arrays.  `schedules` defaults to each run's
    build_schedule, and `rho`, the initial density matrix, to the protocol's.
    """

    def __init__(
        self,
        runs: Sequence[ProtocolParams],
        schedules: Sequence[tuple[FlipKind, ...]] | None = None,
        rho: np.ndarray | None = None,
    ) -> None:
        support = _support()
        self.runs = tuple(runs)
        params = self.runs[0]
        if schedules is None:
            schedules = [build_schedule(run) for run in runs]
        if rho is None:
            rho = support.initial
        # longest first, so that a round's columns tend to form slices
        columns: list[tuple[FlipKind, ...]] = []
        self.column = np.zeros(len(runs), dtype=int)
        for i in sorted(range(len(runs)), key=lambda i: len(schedules[i]), reverse=True):
            if not columns or columns[0][: len(schedules[i])] != schedules[i]:
                self.column[i] = len(columns)
                columns.append(schedules[i])
        self.stop = np.array([len(schedule) for schedule in schedules])
        n, m = len(columns[0]), len(columns)
        live = np.arange(1, n + 1)[:, None] <= np.array([len(s) for s in columns])

        # the round loop: states[r] is the stack after round r; each round
        # groups its columns by flip kind (codes index _KINDS; past a column's
        # end they stay 0, FlipKind.NONE)
        codes = np.zeros((n, m), dtype=int)
        groups: list[list[list[int]]] = [[[] for _ in _KINDS] for _ in range(n)]
        for c, schedule in enumerate(columns):
            column = [_KINDS.index(kind) for kind in schedule]
            codes[: len(column), c] = column
            for r, code in enumerate(column):
                groups[r][code].append(c)
        plan = [
            (r, code, _index(cols))
            for r, group in enumerate(groups, start=1)
            for code, cols in enumerate(group)
            if cols
        ]
        herald, maps = _compile(params, {code for _, code, _ in plan})
        states = np.zeros((n + 1, m, len(support.rows)))
        states[0] = rho[support.rows, support.cols]
        for r, code, cols in plan:
            states[r, cols] = _advance(maps[code], states[r - 1, cols])
        # flips[r]: (phase, polarisation) flips applied in the first r rounds
        flips = np.zeros((n + 1, m, 2), dtype=int)
        flips[1:] = np.cumsum(_FLIP_COUNTS[codes], axis=0)

        # weights, one dot product per state; the branch floor
        weights = np.matmul(states[:, :, None, :], support.trace[:, None])[:, :, 0, 0]
        noclick = weights[1:].copy()
        floored = live & (noclick <= BRANCH_WEIGHT_FLOOR)
        for c in np.flatnonzero(floored.any(axis=0)):
            r = int(floored[:, c].argmax()) + 1
            states[r:, c] = weights[r:, c] = noclick[r:, c] = 0.0
        before = weights[:-1]

        # herald readout of each round's input state, then the round checks
        heralds = np.zeros((n, m, len(herald)))
        heralds[live] = np.matmul(herald, states[:-1][live][:, :, None])[..., 0]
        click, dark = heralds[..., -2], heralds[..., -1]
        broken = live & ~(np.abs(click + noclick - before) <= WEIGHT_ATOL)
        upper, lower = support.pairs
        skew = states[1:, :, upper]
        skew -= states[1:, :, lower]
        skew = np.abs(skew, out=skew).max(axis=-1) / np.maximum(noclick, BRANCH_WEIGHT_FLOOR)
        skewed = live & (noclick > BRANCH_WEIGHT_FLOOR) & (skew > HERMITICITY_ATOL)
        if (broken | skewed).any():
            r, c = np.argwhere(broken | skewed)[0]
            if broken[r, c]:
                raise StateValidationError(
                    f"round {r + 1} does not conserve weight: click {float(click[r, c])!r}"
                    f" + no-click {float(noclick[r, c])!r} != input {float(before[r, c])!r}"
                )
            raise StateValidationError(
                f"round {r + 1}: state matrix is not Hermitian"
                f" (max asymmetry {skew[r, c]:.3e})"
            )

        # heralds: clicks above the floor, their conditionals checked together
        recorded = live & (click > BRANCH_WEIGHT_FLOOR)
        blocks = heralds[..., :-2].reshape(n, m, DIM_PAIR13, DIM_PAIR13)
        if recorded.any():
            check_density(blocks[recorded] / click[recorded][:, None, None])
        targets = _TARGETS[flips[:-1, :, 0] % 2, flips[:-1, :, 1] % 2]
        # block[t, t] of the target t sits at 5t in the flattened 4x4 block
        target_entry = np.take_along_axis(heralds, (DIM_PAIR13 + 1) * targets[..., None], -1)
        fidelity = target_entry[..., 0] / np.where(recorded, click, 1.0)
        clicks = np.where(recorded, click, 0.0)
        weighted = np.where(recorded, clicks * fidelity, 0.0)
        false_weights = np.where(recorded, dark, 0.0)
        per_target = targets[..., None] == np.arange(DIM_PAIR13)
        self._rounds = (blocks, clicks, false_weights, targets, recorded, flips)
        self._cumulative = np.cumsum(clicks, axis=0)

        # per run: the round it stops at, its final state and parity outcomes
        at = (self.stop - 1, self.column)
        success = np.cumsum(np.where(per_target, clicks[..., None], 0.0), axis=0)[at]
        weighted_sum = np.cumsum(np.where(per_target, weighted[..., None], 0.0), axis=0)[at]
        self._false = np.cumsum(false_weights, axis=0)[at]
        finals = states[self.stop, self.column]
        weight = weights[self.stop, self.column]
        # the floor emptied these runs: final state, weight, A2 weight and
        # parity weights are exactly 0
        empty = weight <= BRANCH_WEIGHT_FLOOR
        matrices = np.zeros((len(runs), DIM_TOTAL, DIM_TOTAL))
        matrices[:, support.rows, support.cols] = finals / np.where(empty, 1.0, weight)[:, None]
        if not empty.all():
            check_density(matrices[~empty])
        # the unnormalised A2 weight, one dot product per run, so that a run's
        # bits do not depend on how many runs the scan holds
        self.false_negative = np.matmul(finals[:, None, :], support.a2[:, None])[:, 0, 0]
        # approach A's final parity outcomes, even then odd, read off each run's final state
        # like a click: the weight (0 at or below the floor, and for B) and the conditional
        self._parity_targets = [target for _, target in PARITY_TABLE[params.flip_observable]]
        sectors = np.zeros((len(self._parity_targets), len(runs), len(support.herald_rows)))
        if params.approach == "A":
            terms = parity_terms(params.flip_observable, params.detector_eff)
            readout = np.stack([support.herald_rows @ support.lift(outcome) for outcome in terms])
            sectors = np.matmul(readout[:, None], finals[None, :, :, None])[..., 0]
        found = sectors[..., -1] > BRANCH_WEIGHT_FLOOR
        self._parity_weights = np.where(found, sectors[..., -1], 0.0)
        conditionals = sectors[..., :-1] / np.where(found, sectors[..., -1], 1.0)[..., None]
        self._parity_conditionals = conditionals.reshape(*found.shape, DIM_PAIR13, DIM_PAIR13)
        # added after the clicks, even then odd, in the order of the herald log
        parity = self._parity_weights.sum(axis=0)
        for target, heralded, conditional in zip(
            self._parity_targets, self._parity_weights, self._parity_conditionals
        ):
            success[:, target] += heralded
            weighted_sum[:, target] += heralded * conditional[:, target, target]
        if params.approach == "A":
            self.failure, self.residual = weight - parity, np.zeros(len(runs))
        else:
            self.failure, self.residual = np.zeros(len(runs)), weight
        self.parity_success = parity
        self.total_success = self._cumulative[at] + parity
        self.success = success
        # nan marks a target without heralds, and a run without any
        self.fidelity = np.where(success > 0.0, weighted_sum, np.nan) / np.where(
            success > 0.0, success, 1.0
        )
        # the per-target totals added in label order, as in pooled_fidelity
        total = np.cumsum(success, axis=1)[:, -1]
        self.pooled = np.where(
            total > 0.0, np.cumsum(weighted_sum, axis=1)[:, -1], np.nan
        ) / np.where(total > 0.0, total, 1.0)

    def result(self, i: int) -> ProtocolResult:
        """The ProtocolResult of run i."""
        run, stop, c = self.runs[i], int(self.stop[i]), int(self.column[i])
        blocks, clicks, false_weights, targets, recorded, flips = self._rounds
        # the clicks, then the parity outcomes, even then odd
        rounds = np.flatnonzero(recorded[:stop, c])
        weights = clicks[rounds, c]
        outcomes = len(self._parity_targets)
        records = _herald_records(
            zip(
                (rounds + 1).tolist() + [stop] * outcomes,
                flips[rounds, c].tolist() + [flips[stop, c].tolist()] * outcomes,
                [HeraldType.QND_CLICK] * len(rounds) + list(_PARITY_TYPES),
                weights.tolist() + self._parity_weights[:, i].tolist(),
                [*(blocks[rounds, c] / weights[:, None, None]), *self._parity_conditionals[:, i]],
                targets[rounds, c].tolist() + self._parity_targets,
                false_weights[rounds, c].tolist() + [0.0] * outcomes,
            )
        )
        success = self.success[i].tolist()
        fidelity_i = self.fidelity[i].tolist()
        return ProtocolResult(
            params=run,
            cumulative_success=tuple(self._cumulative[:stop, c].tolist()),
            herald_log=tuple(records),
            total_success=float(self.total_success[i]),
            parity_success=float(self.parity_success[i]),
            failure_weight=float(self.failure[i]),
            residual_weight=float(self.residual[i]),
            false_negative_weight=float(self.false_negative[i]),
            false_positive_weight=float(self._false[i]),
            fidelity_per_target={
                label: fidelity_i[label] if success[label] > 0.0 else None for label in BellLabel
            },
            success_per_target={label: success[label] for label in BellLabel},
        )
