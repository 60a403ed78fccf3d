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

Engine.  Every channel is linear on the unnormalized density operator, which
stays real and inside 104 of its 1024 entries; these split into 8 blocks
that every channel preserves (`_Support` derives both from the weighted
Kraus terms in `channels`).  A pass takes cells, parameter sets that differ
in p_abs and p_loss only, and compiles them to a herald readout and one
no-click round map per flip kind used, each a stack of 8 zero-padded 16x16
blocks per cell (`_compile`).  It evolves a stack of states, one column per
cell and run, with one matrix-vector product per column and block each
round; each round applies each flip kind's maps to its columns of every
cell at once, the cell's map broadcast over them (`_Scan`).  Heralds,
checks and aggregates are read off the states in a few array operations
per window of rounds, so `run_protocol` is the pass with one column,
`optimize_rounds` scores all its candidates from one pass of one cell, and
`sweep` shares one pass among the cells of a chunk.  Approach A's final
parity measurement is read off each run's final state the same way.  The
JointState channel functions stay the readable spec; the test suite runs a
round loop on them as the oracle.

Herald sums have one order (see `ProtocolResult._herald_sums`, the one walk
over a herald log), which `_Scan` keeps too, so every consumer agrees bit
for bit.

Checks, each on every round of every column, reported at the first failing
round: the click and no-click weights sum to the input weight within
WEIGHT_ATOL, and the no-click state is symmetric within HERMITICITY_ATOL.
Every herald conditional and every run's final state: finite, Hermitian,
unit trace and positive semidefinite (`states.check_density`), each checked
as the direct sum `_Support` proves it is, whose spectrum is the union of its
blocks' spectra: a final state as eight 1x1 and six 4x4 blocks, a
conditional as two 2x2 blocks.  A breach raises StateValidationError before
any result is built.
"""

from __future__ import annotations

import dataclasses
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
# the most states (block stacks) one scan holds at a time: it runs its rounds
# in windows of at most this many, and its readouts and final states fill at
# most as many again (`_chunk_size`); an 11-cell approach-B round-count scan
# holds 5 of 64 rounds at once, and a sweep of such chunks peaks 8% above 1-cell
# scans in resident memory (29-cell approach-A chunks: 16%), mostly compiled maps
_CHUNK_STATES = 17 * 64


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
    return _schedule(params.approach, params.flip_observable, params.rounds)


def _schedule(approach: str, observable: str, rounds: int) -> tuple[FlipKind, ...]:
    if approach == "A":
        kind = FlipKind.PHASE if observable == "XX" else FlipKind.POLARISATION
        return (kind,) * rounds
    # rounds = 2*l_x = 4*l_z: every second phase flip comes with a polarisation flip
    quiet = (FlipKind.NONE,) * (rounds // 4 - 1)
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


def _components(count: int, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each of `count` entries' connected component under the edges sources[e] -
    targets[e], numbered in the order of the components' first entries."""
    label, joined = None, np.arange(count)
    while not np.array_equal(label, joined):  # each takes its neighbours' smallest label
        label, joined = joined, joined.copy()
        np.minimum.at(joined, sources, label[targets])
        np.minimum.at(joined, targets, label[sources])
    return np.unique(label, return_inverse=True)[1]


def _direct_sum(count: int, rows: np.ndarray, cols: np.ndarray, at: np.ndarray) -> list:
    """A count x count matrix whose only nonzeros are its entries (rows[i],
    cols[i]), at position at[i] of a vector, as the direct sum of its indices'
    components under them: per block size s, ascending, the positions of the
    blocks' entries as a (blocks, s, s) stack, each block in index order."""
    part = _components(count, rows, cols)
    size = np.bincount(part)[part]
    order = np.lexsort((part, size))
    where = np.full((count, count), -1)
    where[rows, cols] = at
    groups = [order[size[order] == s].reshape(-1, s) for s in np.flatnonzero(np.bincount(size))]
    return [where[group[:, :, None], group[:, None, :]] for group in groups]


class _Support:
    """The reachable entries of the density matrix, split into invariant blocks.

    A Kraus operator K couples entry (c, d) into (a, b) where K[a, c] K[b, d]
    != 0.  The initial pattern closed under every channel's couplings is the
    support (`rows`, `cols`: 104 entries, where the evolving matrix stays
    real); the couplings' connected components are blocks that every lifted
    operator preserves, and a term that couples two blocks merges them.  A
    map is a (blocks, width, width) stack of zero-padded blocks and a state a
    (blocks, width) stack with its weight folded in; entry i sits at
    `slot[i]` of a state's flat view, which every readout (`trace`, `a2`,
    `herald_rows`, `pairs`, `mirrors`) acts on.
    """

    def __init__(self) -> None:
        click, noclick = qnd_terms(0.5, 0.5)
        channels = [*absorption_terms(0.5, 0.5), click, noclick, loss_terms(0.5)]
        channels += [dephasing_terms(0.5, site) for site in ALL_SPINS]
        channels += [flip_terms(kind) for kind in FlipKind]
        channels += [terms for obs in PARITY_TABLE for terms in parity_terms(obs, 0.5)]
        operators = {id(k): k for terms in channels for _, k in terms}
        # each operator's couplings: flat (a, b) and (c, d), and K[a, c] K[b, d]
        couplings = {}
        for key, k in operators.items():
            a, c = np.nonzero(k)
            out, into = a[:, None] * DIM_TOTAL + a, c[:, None] * DIM_TOTAL + c
            couplings[key] = (out.ravel(), into.ravel(), np.outer(k[a, c], k[a, c]).ravel())
        outs, ins, _ = (np.concatenate(parts) for parts in zip(*couplings.values()))
        amplitudes = initial_amplitudes()
        self.initial = np.outer(amplitudes, amplitudes)
        reached = self.initial.ravel() != 0.0
        while not reached[outs[reached[ins]]].all():
            reached[outs[reached[ins]]] = True
        self.rows, self.cols = rows, cols = np.divmod(np.flatnonzero(reached), DIM_TOTAL)
        entry = np.cumsum(reached) - 1  # an entry's number, by flat index
        on = reached[ins]
        block = _components(len(rows), entry[outs[on]], entry[ins[on]])
        self.blocks, self.width = int(block.max()) + 1, int(np.bincount(block).max())
        # within a block: diagonal entries, then each transposed pair's lead (the
        # entry in the lower block, or the upper one), then the partners in their
        # leads' order, so that every pair sits at equal offsets of two slices
        number = np.arange(len(rows))
        partner = entry[cols * DIM_TOTAL + rows]
        lead = (block < block[partner]) | ((block == block[partner]) & (number < partner))
        rank = np.where(rows == cols, 0, 2 - lead) * len(rows) + np.minimum(number, partner)
        order = np.lexsort((rank, block))
        position = np.empty_like(number)
        position[order] = number - np.searchsorted(block[order], block[order])
        self.slot = block * self.width + position
        # the channels' operators are module constants, so each is lifted
        # once and found by id (the entry keeps K alive, so no other array
        # can take its id): its flat indices into a block stack and values
        self._lifted = {}
        for key, (out, into, values) in couplings.items():
            kept = reached[into]
            where = self.slot[entry[out[kept]]] * self.width + position[entry[into[kept]]]
            self._lifted[key] = (operators[key], where, values[kept])
        self.trace = np.zeros(self.blocks * self.width)
        self.trace[self.slot[rows == cols]] = 1.0
        # the (lead, partner) slots of the transposed pairs, in lead order, and
        # the same as runs of consecutive slots: (lead, partner, pair) slices
        leads = np.flatnonzero(lead)
        leads = leads[np.argsort(self.slot[leads])]
        self.pairs = self.slot[leads], self.slot[partner[leads]]
        cut = np.flatnonzero((np.diff(self.pairs, axis=1) != 1).any(axis=0)) + 1
        runs = zip(*(np.split(slots, cut) for slots in (*self.pairs, np.arange(len(leads)))))
        self.mirrors = [tuple(slice(int(x[0]), int(x[-1]) + 1) for x in run) for run in runs]
        pair_r, slot_r = np.divmod(rows, DIM_2P)
        pair_c, slot_c = np.divmod(cols, DIM_2P)
        # herald_rows: the partial trace over node2p on the entries of the 4x4
        # block it reaches (`pair13`, flat indices; the rest are always 0) and the trace
        same = np.flatnonzero(slot_r == slot_c)
        pair_r, pair_c = pair_r[same], pair_c[same]
        self.pair13, row = np.unique(pair_r * DIM_PAIR13 + pair_c, return_inverse=True)
        self.herald_rows = np.zeros((len(self.pair13) + 1, len(self.trace)))
        self.herald_rows[row, self.slot[same]] = 1.0
        self.herald_rows[-1] = self.trace
        # the direct sums a state (on the flat view) and a conditional (on the
        # pair13 entries) are, and where a conditional's diagonal sits
        self.state_blocks = _direct_sum(DIM_TOTAL, rows, cols, self.slot)
        self.pair13_blocks = _direct_sum(DIM_PAIR13, pair_r, pair_c, row)
        self.diagonal = np.searchsorted(self.pair13, np.arange(DIM_PAIR13) * (DIM_PAIR13 + 1))
        # the herald rows read only the flat view's first `span` entries
        self.span = int(np.flatnonzero(self.herald_rows.any(axis=0))[-1]) + 1
        self.a2 = self.read(self.trace[None], self.lift(((1.0, A2_PROJECTOR),)))[0]

    def lift(self, terms: Terms) -> np.ndarray:
        """Superoperator of weighted Kraus terms of the channels, as a
        (blocks, width, width) stack."""
        out = np.zeros(self.blocks * self.width * self.width)
        for w, k in terms:
            _, where, values = self._lifted[id(k)]
            out[where] += w * values
        return out.reshape(self.blocks, self.width, self.width)

    def read(self, rows: np.ndarray, maps: np.ndarray) -> np.ndarray:
        """Readouts (rows on the flat view) after a block map, or after each
        cell's of a stack of them, one product per block."""
        stacked = rows.reshape(len(rows), self.blocks, self.width).swapaxes(0, 1)
        out = np.matmul(stacked, maps).swapaxes(-3, -2)
        return out.reshape(*out.shape[:-3], len(rows), -1)


_support = functools.cache(_Support)


def _compile(
    cells: Sequence[ProtocolParams], codes: Iterable[int]
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The cells' rounds, compiled to real block maps on the support, with a
    leading cell axis; the cells differ in p_abs and p_loss only.

    A round is absorption, the herald split, then on the no-click branch
    photon loss, dephasing of all three spins and the scheduled flip.
    Returns the herald maps, which read the click branch's reduced pair-13
    block (its `_Support.pair13` entries, the others being always 0), its
    weight and its dark-click weight (the click branch at p_qnd = 0) off the
    absorbed state's flat view, and the no-click round maps of each given
    flip-kind code (an index into _KINDS).  Both include the absorption, so
    both act on the state a round starts from.  The stages every cell shares
    are lifted once and broadcast over the cells.
    """
    support = _support()
    lift, read = support.lift, support.read
    params = cells[0]  # every parameter but p_abs and p_loss
    # the stages that differ between cells, lifted per cell
    stages = zip(*(map(lift, absorption_terms(c.p_abs, c.r_a1)) for c in cells))
    absorb, leak = map(np.array, stages)
    absorbed = leak @ absorb
    click, noclick = qnd_terms(params.p_qnd, params.p_dark)
    dark, _ = qnd_terms(0.0, params.p_dark)
    rows = [read(support.herald_rows, lift(click)), read(support.trace[None], lift(dark))]
    herald = read(np.concatenate(rows), absorbed)
    base = lift(noclick) @ absorbed
    eta = params.eta_per_cycle
    base = np.array([lift(loss_terms(c.p_loss)) for c in cells]) @ base
    for site in ALL_SPINS:
        base = lift(dephasing_terms(eta, site)) @ base
    maps = {}
    for code in codes:
        kind = _KINDS[code]
        maps[code] = base if kind is FlipKind.NONE else lift(flip_terms(kind)) @ base
    return herald, maps


def _advance(round_map: np.ndarray, states: np.ndarray) -> np.ndarray:
    """One round of compiled block maps, (cells, blocks, width, width), on a
    (k, cells, blocks, width) stack of states: each cell's map acts on its
    states.

    A stacked matmul is one matrix-vector product per state and block, so a
    state's result does not depend on the other states in the stack.
    """
    return np.matmul(round_map, states[..., None])[..., 0]


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


def _columns(schedules: Sequence[tuple[FlipKind, ...]]) -> tuple[list, np.ndarray]:
    """The state columns that evolve the schedules, longest first (so that a
    round's columns tend to form slices), and each schedule's column: a
    prefix of the longest stops on its column, any other gets its own."""
    columns: list[tuple[FlipKind, ...]] = []
    column = np.zeros(len(schedules), dtype=int)
    for i in sorted(range(len(schedules)), key=lambda i: len(schedules[i]), reverse=True):
        if not columns or columns[0][: len(schedules[i])] != schedules[i]:
            column[i] = len(columns)
            columns.append(schedules[i])
    return columns, column


def _chunk_size(schedules: Sequence[tuple[FlipKind, ...]]) -> int:
    """The most cells one _Scan of these schedules takes: their herald readouts
    (the herald rows and the dark-click weight, per column and round) and
    final states (a block stack per run) fill at most _CHUNK_STATES block
    stacks, and a window of two rounds holds at most _CHUNK_STATES states."""
    support, (columns, _) = _support(), _columns(schedules)
    stack = support.blocks * support.width
    per_cell = len(columns[0]) * len(columns) * (len(support.herald_rows) + 1)
    per_cell += len(schedules) * stack
    return max(1, min(_CHUNK_STATES * stack // per_cell, _CHUNK_STATES // (2 * len(columns))))


class _Scan:
    """One pass of the engine over a chunk of cells, each on every given
    schedule, and each run's outcome.

    The cells are ProtocolParams that differ in p_abs and p_loss only; run i
    is cell i // len(schedules) on schedule i % len(schedules), at its round
    count (a cell's own `rounds` is not used).  Every cell has the same plan,
    built once: a prefix of the longest schedule stops on its column, any
    other schedule gets its own (`_columns`), so approach A's round counts
    share one column and approach B's have one each.  The maps are compiled
    once, with a cell axis, for the flip kinds the schedules use (`_compile`),
    and each round applies, per flip kind present, that kind's maps to its
    columns of every cell (`_advance`).  The rounds run in windows of at
    most _CHUNK_STATES states; each window's states are read off at once:
    weights, the branch floor (a no-click weight at or below
    BRANCH_WEIGHT_FLOOR empties the column from that round on, as in a
    round-by-round loop), the herald readout, each entry's difference from
    its transpose, and the final states.  Then come the checks (see the
    module docstring) on the final states' and herald conditionals' blocks,
    the cumulative sums, and per run its parity outcomes (approach A) and
    the arrays `analytics` scores.  `result(i)` builds run i's
    ProtocolResult from those arrays.  `rho`, the initial density matrix,
    defaults to the protocol's.
    """

    def __init__(
        self,
        cells: Sequence[ProtocolParams],
        schedules: Sequence[tuple[FlipKind, ...]],
        rho: np.ndarray | None = None,
    ) -> None:
        support = _support()
        self.cells, self.schedules = tuple(cells), tuple(schedules)
        params, k = self.cells[0], len(self.cells)
        if rho is None:
            rho = support.initial
        columns, column = _columns(self.schedules)
        lengths = [len(schedule) for schedule in columns]
        n, m = lengths[0], len(columns)
        # the flat view's column of cell c on schedule column j is j * k + c
        self.column = (column * k + np.arange(k)[:, None]).ravel()
        self.stop = np.array([len(schedule) for schedule in self.schedules] * k)
        live = np.arange(1, n + 1)[:, None] <= np.array(lengths).repeat(k)

        # the plan: per round, its columns grouped by flip kind (codes index
        # _KINDS; past a column's end they stay 0, FlipKind.NONE)
        codes = np.zeros((n, m), dtype=int)
        groups: list[list[list[int]]] = [[[] for _ in _KINDS] for _ in range(n)]
        for c, schedule in enumerate(columns):
            kinds = [_KINDS.index(kind) for kind in schedule]
            codes[: len(kinds), c] = kinds
            for r, code in enumerate(kinds):
                groups[r][code].append(c)
        # the rounds run in windows of `size` rounds, each a list of steps: the
        # round's row in the window, a flip kind and its columns
        size = min(n, max(1, _CHUNK_STATES // (m * k) - 1))
        plan = [
            [
                (r - start, code, _index(cols))
                for r in range(start + 1, min(n, start + size) + 1)
                for code, cols in enumerate(groups[r - 1])
                if cols
            ]
            for start in range(0, n, size)
        ]
        herald, maps = _compile(self.cells, {code for steps in plan for _, code, _ in steps})
        herald = herald[..., : support.span]
        # flips[r]: (phase, polarisation) flips applied in the first r rounds
        flips = np.zeros((n + 1, m, 2), dtype=int)
        flips[1:] = np.cumsum(_FLIP_COUNTS[codes], axis=0)
        flips = flips.repeat(k, axis=1)

        # window[i] holds the states after a window's i-th round, window[0]
        # those it starts from; read off per window: weights, one dot product
        # per state, the floor, the herald readout of each round's input state
        # (in rounds lengths[j + 1] + 1 .. lengths[j] the first j + 1 columns
        # live), each state's largest asymmetry (`_Support.mirrors`) and finals
        window = np.zeros((size + 1, m, k, support.blocks, support.width))
        flat = window.reshape(size + 1, m * k, -1)
        flat[0][:, support.slot] = rho[support.rows, support.cols]
        inputs = window.reshape(size + 1, m, k, -1)[..., : support.span, None]
        weights, noclick, skew = np.zeros((n + 1, m * k)), *np.zeros((2, n, m * k))
        heralds = np.zeros((n, m, k, herald.shape[-2]))
        finals = np.zeros((len(self.stop), support.blocks * support.width))
        ending = (self.stop - 1) // size  # the window each run ends in
        for start, steps in zip(range(0, n, size), plan):
            end = min(n, start + size)
            for row, code, cols in steps:
                window[row, cols] = _advance(maps[code], window[row - 1, cols])
            # the columns live in the window's first round, a prefix of the flat view
            w = k * sum(length > start for length in lengths)
            states = flat[: end - start + 1, :w]
            rows = states[1:]
            # row 0 again: the dot product of the window before
            weights[start : end + 1, :w] = np.matmul(states[:, :, None], support.trace[:, None])[
                ..., 0, 0
            ]
            noclick[start:end, :w] = weights[start + 1 : end + 1, :w]
            floored = live[start:end, :w] & (noclick[start:end, :w] <= BRANCH_WEIGHT_FLOOR)
            for c in np.flatnonzero(floored.any(axis=0)):
                r = int(floored[:, c].argmax())
                rows[r:, c] = weights[start + r + 1 :, c] = noclick[start + r + 1 :, c] = 0.0
            for j, (high, low) in enumerate(zip(lengths, lengths[1:] + [0])):
                low, high = max(low, start), min(high, end)
                if low < high:
                    heralds[low:high, : j + 1] = np.matmul(
                        herald, inputs[low - start : high - start, : j + 1]
                    )[..., 0]
            diff = np.empty((len(support.pairs[0]), end - start, w))
            for lead, partner, pair in support.mirrors:
                np.subtract(rows[..., lead], rows[..., partner], out=diff[pair].transpose(1, 2, 0))
            skew[start:end, :w] = np.abs(diff, out=diff).max(axis=0)
            i = np.flatnonzero(ending == start // size)
            finals[i] = states[self.stop[i] - start, self.column[i]]
            window[0] = window[end - start]
        del window, flat, states, rows, inputs, diff  # before the readouts below
        before = weights[:-1]

        # the round checks
        heralds = heralds.reshape(n, m * k, -1)
        click, dark = heralds[..., -2], heralds[..., -1]
        broken = live & ~(np.abs(click + noclick - before) <= WEIGHT_ATOL)
        skew /= np.maximum(noclick, BRANCH_WEIGHT_FLOOR)
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

        # heralds: clicks above the floor
        recorded = live & (click > BRANCH_WEIGHT_FLOOR)
        blocks = heralds[..., :-2]  # the pair13 entries of each click's block
        targets = _TARGETS[flips[:-1, :, 0] % 2, flips[:-1, :, 1] % 2]
        per_target = targets[..., None] == np.arange(DIM_PAIR13)
        # each block's target entry, block[t, t], off its diagonal
        target_entry = np.where(per_target, blocks[..., support.diagonal], 0.0).sum(axis=-1)
        fidelity = target_entry / np.where(recorded, click, 1.0)
        clicks = np.where(recorded, click, 0.0)
        weighted = np.where(recorded, clicks * fidelity, 0.0)
        false_weights = np.where(recorded, dark, 0.0)
        self._rounds = (blocks, clicks, false_weights, targets, recorded, flips)
        self._cumulative = np.cumsum(clicks, axis=0)

        # per run: the round it stops at, its final state and parity outcomes
        at = (self.stop - 1, self.column)
        success = np.cumsum(np.where(per_target, clicks[..., None], 0.0), axis=0)[at]
        weighted_sum = np.cumsum(np.where(per_target, weighted[..., None], 0.0), axis=0)[at]
        self._false = np.cumsum(false_weights, axis=0)[at]
        weight = weights[self.stop, self.column]
        # the floor emptied these runs: final state, weight, A2 weight and
        # parity weights are exactly 0
        empty = weight <= BRANCH_WEIGHT_FLOOR
        # the unnormalised A2 weight, one dot product per run, so that a run's
        # bits do not depend on how many runs the scan holds
        self.false_negative = np.matmul(finals[:, None, :], support.a2[:, None])[:, 0, 0]
        # approach A's final parity outcomes, even then odd, read off each run's final state
        # like a click: the weight (0 at or below the floor, and for B) and the conditional
        self._parity_targets = [target for _, target in PARITY_TABLE[params.flip_observable]]
        sectors = np.zeros((len(self._parity_targets), len(self.stop), len(support.herald_rows)))
        if params.approach == "A":
            terms = parity_terms(params.flip_observable, params.detector_eff)
            readout = np.stack([support.read(support.herald_rows, support.lift(t)) for t in terms])
            sectors = np.matmul(readout[:, None], finals[None, :, :, None])[..., 0]
        found = sectors[..., -1] > BRANCH_WEIGHT_FLOOR
        self._parity_weights = np.where(found, sectors[..., -1], 0.0)
        scale = np.where(found, sectors[..., -1], 1.0)[..., None]
        self._parity_conditionals = sectors[..., :-1] / scale
        # every herald conditional in one check (clicks, then parity), then the
        # final states, each as the direct sum it is (`_Support`)
        clicked = blocks[recorded] / click[recorded][:, None]
        conditionals = np.concatenate([clicked, self._parity_conditionals[found]])
        check_density(*(conditionals[:, where] for where in support.pair13_blocks))
        full = finals[~empty] / weight[~empty, None]
        check_density(*(full[:, where] for where in support.state_blocks))
        parity = self._parity_weights.sum(axis=0)
        if params.approach == "A":
            # added after the clicks, even then odd, in the order of the herald log
            for target, heralded, conditional in zip(
                self._parity_targets, self._parity_weights, self._parity_conditionals
            ):
                success[:, target] += heralded
                weighted_sum[:, target] += heralded * conditional[:, support.diagonal[target]]
            self.failure, self.residual = weight - parity, np.zeros(len(self.stop))
        else:
            self.failure, self.residual = np.zeros(len(self.stop)), weight
        self.parity_success = parity
        self.total_success = self._cumulative[at] + parity
        # per run and target: heralded weight, weight times fidelity, and
        # fidelity (nan marks a target without heralds)
        self.success, self.weighted = success, weighted_sum
        self.fidelity = np.where(success > 0.0, weighted_sum, np.nan) / np.where(
            success > 0.0, success, 1.0
        )

    def result(self, i: int) -> ProtocolResult:
        """The ProtocolResult of run i."""
        stop, c = int(self.stop[i]), int(self.column[i])
        blocks, clicks, false_weights, targets, recorded, flips = self._rounds
        # the clicks, then the parity outcomes, even then odd
        rounds = np.flatnonzero(recorded[:stop, c])
        weights = clicks[rounds, c]
        outcomes = len(self._parity_targets)
        # each conditional's pair13 entries placed into a 4x4 block of zeros
        entries = [blocks[rounds, c] / weights[:, None], self._parity_conditionals[:, i]]
        conditionals = np.zeros((len(rounds) + outcomes, DIM_PAIR13 * DIM_PAIR13))
        conditionals[:, _support().pair13] = np.concatenate(entries)
        records = _herald_records(
            zip(
                (rounds + 1).tolist() + [stop] * outcomes,
                flips[rounds, c].tolist() + [flips[stop, c].tolist()] * outcomes,
                [HeraldType.QND_CLICK] * len(rounds) + list(_PARITY_TYPES),
                weights.tolist() + self._parity_weights[:, i].tolist(),
                conditionals.reshape(-1, DIM_PAIR13, DIM_PAIR13),
                targets[rounds, c].tolist() + self._parity_targets,
                false_weights[rounds, c].tolist() + [0.0] * outcomes,
            )
        )
        success = self.success[i].tolist()
        return ProtocolResult(
            params=self.params(i),
            cumulative_success=tuple(self._cumulative[:stop, c].tolist()),
            herald_log=tuple(records),
            total_success=float(self.total_success[i]),
            parity_success=float(self.parity_success[i]),
            failure_weight=float(self.failure[i]),
            residual_weight=float(self.residual[i]),
            false_negative_weight=float(self.false_negative[i]),
            false_positive_weight=float(self._false[i]),
            fidelity_per_target=self.fidelity_per_target(i),
            success_per_target={label: success[label] for label in BellLabel},
        )

    def params(self, i: int) -> ProtocolParams:
        """Run i's parameters: its cell's, at its round count."""
        cell, rounds = self.cells[i // len(self.schedules)], int(self.stop[i])
        return cell if cell.rounds == rounds else dataclasses.replace(cell, rounds=rounds)

    def fidelity_per_target(self, i: int) -> dict[BellLabel, float | None]:
        """Run i's heralded fidelity per target, None for a target without heralds."""
        fidelity, success = self.fidelity[i].tolist(), self.success[i].tolist()
        return {label: fidelity[label] if success[label] > 0.0 else None for label in BellLabel}
