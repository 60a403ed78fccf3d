"""Two-dimensional parameter scans and serial relay-chain composition.

The cells of a grid are evolved in chunks, each chunk in one engine pass
(`protocol._Scan`) whose columns are its cells times their round counts.
Each column is still its own run (one matrix-vector product per column,
block and round), so a cell's outputs equal a separate run's bit for bit
and do not depend on the chunking or the order.  Chain fidelities use an
artifact composition rule: each hop's heralded ensemble is flattened to its
Bell-diagonal weights in the target frame and hops are combined by the
XOR convolution that entanglement swapping induces on Bell labels.  That rule
is a modeling choice for end-to-end estimates, not a claim about the full
joint state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .analytics import (
    OBJECTIVE_CONSTRAINED,
    _best_runs,
    _candidate_rounds,
    _candidate_schedules,
    _fidelity_floor,
    check_objective,
)
from .protocol import (
    ProtocolParams,
    ProtocolResult,
    _chunk_size,
    _Scan,
    build_schedule,
    run_protocol,
)
from .states import BellLabel, ParameterError, check_count, check_probability


@dataclass(frozen=True)
class SweepCell:
    p_abs: float
    p_loss: float
    rounds_used: int
    l_z: int | None
    l_x: int | None
    total_success: float
    fidelity_per_target: dict[BellLabel, float | None]


@dataclass(frozen=True)
class SweepGrid:
    approach: str
    p_abs_axis: tuple[float, ...]
    p_loss_axis: tuple[float, ...]
    cells: tuple[tuple[SweepCell, ...], ...]

    def cell(self, i_abs: int, j_loss: int) -> SweepCell:
        return self.cells[i_abs][j_loss]

    def success_cross_section(self, j_loss: int) -> tuple[float, ...]:
        return tuple(row[j_loss].total_success for row in self.cells)

    def rounds_cross_section(self, j_loss: int) -> tuple[int, ...]:
        return tuple(row[j_loss].rounds_used for row in self.cells)

    def iter_cells(self) -> Iterator[SweepCell]:
        for row in self.cells:
            yield from row


def _validate_axis(name: str, axis: Sequence[float]) -> tuple[float, ...]:
    values = tuple(check_probability(name, v) for v in axis)
    if not values:
        raise ParameterError(f"{name} must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ParameterError(f"{name} must be strictly increasing")
    return values


def sweep(
    p_abs_axis: Sequence[float],
    p_loss_axis: Sequence[float],
    approach: str,
    *,
    rounds: int | None = None,
    optimize_l: bool = False,
    objective: str = OBJECTIVE_CONSTRAINED,
    min_fidelity: float | None = None,
    **protocol_kwargs,
) -> SweepGrid:
    """Run the protocol over the outer product of the two axes.

    With optimize_l the round count is re-optimized per cell (rounds must
    then be omitted); otherwise every cell runs the fixed `rounds`.
    `objective` and `min_fidelity` are checked either way.  Each cell equals
    optimize_rounds (or run_protocol) at its p_abs and p_loss.  Cells share
    engine passes, in chunks of at most `protocol._chunk_size` cells.
    """
    abs_axis = _validate_axis("p_abs_axis", p_abs_axis)
    loss_axis = _validate_axis("p_loss_axis", p_loss_axis)
    check_objective(objective)
    min_fidelity = _fidelity_floor(approach, min_fidelity)
    if optimize_l:
        if rounds is not None:
            raise ParameterError("rounds must be omitted when optimize_l is set")
        rounds = _candidate_rounds(approach)[0]
    elif rounds is None:
        raise ParameterError("rounds is required when optimize_l is not set")

    cells = [
        ProtocolParams(approach, p_abs=p_abs, rounds=rounds, p_loss=p_loss, **protocol_kwargs)
        for p_abs in abs_axis
        for p_loss in loss_axis
    ]
    schedules = _candidate_schedules(cells[0]) if optimize_l else [build_schedule(cells[0])]
    size = _chunk_size(schedules)
    found: list[SweepCell] = []
    for start in range(0, len(cells), size):
        scan = _Scan(cells[start : start + size], schedules)
        best = range(len(scan.cells))
        if optimize_l:
            best, _ = _best_runs(scan, objective, min_fidelity)
        found += [_sweep_cell(scan, i) for i in best]
        del scan  # before the next chunk's pass
    rows = [tuple(found[i : i + len(loss_axis)]) for i in range(0, len(found), len(loss_axis))]
    return SweepGrid(
        approach=approach,
        p_abs_axis=abs_axis,
        p_loss_axis=loss_axis,
        cells=tuple(rows),
    )


def _sweep_cell(scan: _Scan, i: int) -> SweepCell:
    params = scan.params(i)
    return SweepCell(
        p_abs=params.p_abs,
        p_loss=params.p_loss,
        rounds_used=params.rounds,
        l_z=params.l_z,
        l_x=params.l_x,
        total_success=float(scan.total_success[i]),
        fidelity_per_target=scan.fidelity_per_target(i),
    )


@dataclass(frozen=True)
class RelayChainSpec:
    """Ordered list of hop parameters for a serial relay."""

    hops: tuple[ProtocolParams, ...]

    def __post_init__(self) -> None:
        if len(self.hops) < 1:
            raise ParameterError("a relay chain needs at least one hop")
        if not all(isinstance(h, ProtocolParams) for h in self.hops):
            raise ParameterError("hops must be ProtocolParams instances")
        object.__setattr__(self, "hops", tuple(self.hops))

    @classmethod
    def uniform(cls, params: ProtocolParams, n_hops: int) -> "RelayChainSpec":
        return cls(hops=(params,) * check_count("n_hops", n_hops))


@dataclass(frozen=True)
class RelayResult:
    """A composed chain.  `success_prefix[n]` and `fidelity_prefix[n]` are
    the chain success and fidelity estimate of the first n+1 hops; the
    fidelity is None from the first hop without heralds on."""

    chain_success: float
    chain_fidelity_estimate: float | None
    chain_diagonal: np.ndarray | None
    hop_results: tuple[ProtocolResult, ...]
    success_prefix: tuple[float, ...]
    fidelity_prefix: tuple[float | None, ...]


def compose_bell_diagonals(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Bell-diagonal weights of the swapped pair, in the corrected frame.

    Swapping two Bell-diagonal pairs with labels drawn from `first` and
    `second` leaves the outer pair Bell-diagonal with label i XOR j (after
    the heralded Pauli correction), so the composed weights are the XOR
    convolution of the inputs.
    """
    a = np.asarray(first, dtype=float)
    b = np.asarray(second, dtype=float)
    if a.shape != (4,) or b.shape != (4,):
        raise ParameterError("bell diagonals must be length-4 vectors")
    out = np.zeros(4)
    for i in range(4):
        for j in range(4):
            out[i ^ j] += a[i] * b[j]
    return out


def relay_chain(spec: RelayChainSpec) -> RelayResult:
    """Compose a serial chain hop by hop: multiply successes, convolve Bell
    diagonals, and keep the prefix after every hop."""
    cache: dict[ProtocolParams, tuple[ProtocolResult, np.ndarray | None]] = {}
    results = []
    success = 1.0
    diagonal: np.ndarray | None = None
    heraldless = False
    success_prefix = []
    fidelity_prefix = []
    for hop in spec.hops:
        if hop not in cache:
            result = run_protocol(hop)
            cache[hop] = (result, result.bell_diagonal)
        result, hop_diagonal = cache[hop]
        results.append(result)
        success *= result.total_success
        heraldless = heraldless or hop_diagonal is None
        if heraldless:
            diagonal = None
        elif diagonal is None:
            diagonal = hop_diagonal.copy()
        else:
            diagonal = compose_bell_diagonals(diagonal, hop_diagonal)
        success_prefix.append(success)
        fidelity_prefix.append(None if diagonal is None else float(diagonal[0]))
    return RelayResult(
        chain_success=success,
        chain_fidelity_estimate=fidelity_prefix[-1],
        chain_diagonal=diagonal,
        hop_results=tuple(results),
        success_prefix=tuple(success_prefix),
        fidelity_prefix=tuple(fidelity_prefix),
    )
