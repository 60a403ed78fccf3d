"""Closed-form error bounds, small physical estimators, and round-count search.

The two bound functions evaluate geometric sums over the round index: a
false negative needs the photon to survive unabsorbed for l rounds and then
be absorbed but never detected, a false positive needs l quiet rounds and
then a dark count.  Both are evaluated through expm1/log1p so the
near-degenerate denominator (ratio -> 1) stays accurate.

Each bound follows one chain of unit weight that is absorbable in every
round.  In approach B that is only the exposed Bell quarter of an epoch, so
`false_positive_bound` is not a bound on `ProtocolResult.false_positive_weight`,
which also books dark clicks on the unexposed quarters, on A1 and on
photon-lost weight.

`optimize_rounds` scores every allowed round count with the full protocol
engine, in one pass over all of them: approach A's round counts are
prefixes of one run, and approach B's are columns of one stack of states,
so each candidate's score is read off per-candidate arrays and only the
winner's result is built.  It is the one-cell case of `_best_runs`, which
scores the cells of a chunk that share one pass (`sweep.sweep`), all
candidates of all cells at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# part of this module's API, stated next to the dephasing channel
from .channels import dephasing_factor  # noqa: F401
from .protocol import ProtocolParams, ProtocolResult, _Scan, _schedule
from .states import ParameterError, check_count, check_nonnegative, check_number, check_probability

OBJECTIVE_CONSTRAINED = "max_success_at_min_fidelity"
OBJECTIVE_WEIGHTED = "weighted"
DEFAULT_MIN_FIDELITY = {"A": 0.96, "B": 0.99}


class NoFeasibleRoundsError(ValueError):
    """No candidate round count satisfied the optimization constraints."""


def _geometric_sum(ratio: float, terms: int) -> float:
    # sum_{l=0}^{terms-1} ratio^l, stable for ratio close to 1
    if ratio == 1.0:
        return float(terms)
    if ratio < 0.5:
        return (1.0 - ratio**terms) / (1.0 - ratio)
    delta = ratio - 1.0
    return math.expm1(terms * math.log1p(delta)) / delta


def false_negative_bound(p_abs: float, p_qnd: float, rounds: int) -> float:
    """Worst-case weight absorbed at some round but never heralded."""
    return false_negative_ratio(p_abs, p_qnd, rounds) * (1.0 - p_qnd)


def false_positive_bound(p_abs: float, p_dark: float, rounds: int) -> float:
    """Weight heralded by a dark count before any absorption, for one chain.

    The chain has unit weight and is absorbable in every one of `rounds`
    rounds: sum over l < rounds of p_dark * q_abs * (q_abs * (1 - p_dark))^l.
    In approach B this describes the exposed quarter of one epoch only; it
    does not bound `ProtocolResult.false_positive_weight`, which charges
    p_dark on all weight outside A2 every round.
    """
    return false_positive_ratio(p_abs, p_dark, rounds) * p_dark


def false_negative_ratio(p_abs: float, p_qnd: float, rounds: int) -> float:
    """false_negative_bound divided by q_qnd, finite even at p_qnd = 1."""
    p_abs = check_probability("p_abs", p_abs)
    ratio = (1.0 - p_abs) * check_probability("p_qnd", p_qnd)
    return p_abs * _geometric_sum(ratio, check_count("rounds", rounds))


def false_positive_ratio(p_abs: float, p_dark: float, rounds: int) -> float:
    """false_positive_bound divided by p_dark, finite even at p_dark = 0."""
    q_abs = 1.0 - check_probability("p_abs", p_abs)
    ratio = q_abs * (1.0 - check_probability("p_dark", p_dark))
    return q_abs * _geometric_sum(ratio, check_count("rounds", rounds))


def lorentzian_suppression(detuning: float, linewidth: float) -> float:
    """Off-resonant excitation factor 1/(1 + (detuning/linewidth)^2)."""
    detuning = check_number("detuning", detuning, "a number", -math.inf, math.inf)
    linewidth = check_nonnegative("linewidth", linewidth, positive=True)
    # inf / inf is nan, which is rejected; a product overflows to inf (factor 0) where ** raises
    ratio = check_nonnegative("|detuning| / linewidth", abs(detuning) / linewidth)
    return 1.0 / (1.0 + ratio * ratio)


def spectral_width(lifetime: float) -> float:
    """Lorentzian linewidth (Hz) of a state with the given lifetime (s)."""
    check_nonnegative("lifetime", lifetime, positive=True)
    return 1.0 / (math.pi * lifetime)


def db_to_probability(loss_db: float) -> float:
    check_nonnegative("loss_db", loss_db)
    return -math.expm1(-loss_db / 10.0 * math.log(10.0))


def probability_to_db(p_loss: float) -> float:
    if check_nonnegative("p_loss", p_loss) >= 1.0:
        raise ParameterError(f"p_loss must lie in [0, 1), got {p_loss!r}")
    return -10.0 * math.log10(1.0 - p_loss)


def check_objective(objective: str) -> str:
    if objective not in (OBJECTIVE_CONSTRAINED, OBJECTIVE_WEIGHTED):
        raise ParameterError(
            f"objective must be {OBJECTIVE_CONSTRAINED!r} or {OBJECTIVE_WEIGHTED!r},"
            f" got {objective!r}"
        )
    return objective


def _candidate_rounds(approach: str) -> tuple[int, ...]:
    step = 2 if approach == "A" else 4  # every round count ProtocolParams allows, up to 64
    return tuple(range(step, 65, step))


def _candidate_schedules(cell: ProtocolParams) -> list:
    """The flip schedule of each candidate round count of the cell's approach."""
    return [
        _schedule(cell.approach, cell.flip_observable, rounds)
        for rounds in _candidate_rounds(cell.approach)
    ]


def _fidelity_floor(approach: str, min_fidelity: float | None) -> float:
    """The checked min_fidelity, or the approach's default."""
    if min_fidelity is None:
        min_fidelity = DEFAULT_MIN_FIDELITY.get(approach, 0.0)
    return check_probability("min_fidelity", min_fidelity)


def _best_runs(scan: _Scan, objective: str, min_fidelity: float) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's best run in a scan of its cells at every candidate round
    count (`_candidate_schedules`), and every run's score.

    The first highest feasible score wins, so ties go to the smaller round
    count.  Raises NoFeasibleRoundsError if a cell has no feasible run.
    """
    if objective == OBJECTIVE_CONSTRAINED:
        # the worst realized per-target fidelity; nan marks a target without heralds
        heralded = ~np.isnan(scan.fidelity)
        worst = np.where(heralded, scan.fidelity, np.inf).min(axis=1)
        feasible = heralded.any(axis=1) & (worst >= min_fidelity)
        scores = scan.total_success
    else:
        # the pooled fidelity (0 without heralds): the per-target totals added
        # in label order, as in ProtocolResult.pooled_fidelity
        total = np.cumsum(scan.success, axis=1)[:, -1]
        pooled = np.where(total > 0.0, np.cumsum(scan.weighted, axis=1)[:, -1], 0.0)
        feasible = np.ones(len(scan.total_success), dtype=bool)
        scores = scan.total_success * (pooled / np.where(total > 0.0, total, 1.0))
    feasible = feasible.reshape(len(scan.cells), -1)
    if not feasible.any(axis=1).all():
        scanned = _candidate_rounds(scan.cells[0].approach)
        raise NoFeasibleRoundsError(
            f"no round count in {scanned[0]}..{scanned[-1]} meets the"
            f" {objective} objective (min_fidelity={min_fidelity})"
        )
    best = np.argmax(np.where(feasible, scores.reshape(feasible.shape), -np.inf), axis=1)
    return best + feasible.shape[1] * np.arange(len(feasible)), scores


@dataclass(frozen=True)
class OptimizeOutcome:
    rounds: int
    l_z: int | None
    l_x: int | None
    score: float
    result: ProtocolResult


def optimize_rounds(
    approach: str,
    p_abs: float,
    *,
    objective: str = OBJECTIVE_CONSTRAINED,
    min_fidelity: float | None = None,
    **protocol_kwargs,
) -> OptimizeOutcome:
    """Scan the approach's round counts (A: 2, 4, .., 64; B: 4, 8, .., 64) and
    return the best one for the chosen objective.

    `max_success_at_min_fidelity` maximizes total_success among candidates
    whose worst realized per-target fidelity stays at or above the
    threshold (0.96 for A, 0.99 for B unless overridden); `weighted`
    maximizes total_success * pooled fidelity with no constraint.  Ties go
    to the smaller round count.  Extra keyword arguments are passed to
    ProtocolParams.  The candidates are evaluated in one engine pass (see
    `protocol._Scan`), whose one cell is this p_abs; a sweep's cells share
    such passes, and score the same.  The winner's result equals
    run_protocol's.
    """
    check_objective(objective)
    min_fidelity = _fidelity_floor(approach, min_fidelity)
    rounds = _candidate_rounds(approach)[0]
    cell = ProtocolParams(approach, p_abs=p_abs, rounds=rounds, **protocol_kwargs)
    scan = _Scan([cell], _candidate_schedules(cell))
    (best,), scores = _best_runs(scan, objective, min_fidelity)
    result = scan.result(best)
    params = result.params
    return OptimizeOutcome(
        rounds=params.rounds,
        l_z=params.l_z,
        l_x=params.l_x,
        score=float(scores[best]),
        result=result,
    )
