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
prefixes of one run, and approach B's are columns of one stack of states
(of a few, for a large candidate set), so each candidate's score is read off
per-candidate arrays and only the winner's result is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# part of this module's API, stated next to the dephasing channel
from .channels import dephasing_factor  # noqa: F401
from .protocol import ProtocolParams, ProtocolResult, _Scan
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
    check_number("detuning", detuning, "a number", -math.inf, math.inf)
    check_nonnegative("linewidth", linewidth, positive=True)
    return 1.0 / (1.0 + (detuning / linewidth) ** 2)


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
    if approach == "A":
        return tuple(range(2, 65, 2))
    return tuple(range(4, 65, 4))


# approach B's round counts are separate columns of a scan, whose stack holds
# (largest rounds + 1) x columns states of about 1.4 KB with their readout: at
# most this many are evaluated at once (the default 16 candidates take 1,040)
_SCAN_STATES = 2048


def _chunks(runs: list[ProtocolParams]) -> Iterator[list[ProtocolParams]]:
    """Runs in ascending rounds, in groups whose stack stays within
    _SCAN_STATES states (a longer run on its own)."""
    chunk: list[ProtocolParams] = []
    for run in runs:
        if chunk and (run.rounds + 1) * (len(chunk) + 1) > _SCAN_STATES:
            yield chunk
            chunk = []
        chunk.append(run)
    yield chunk


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
    candidates: Iterable[int] | None = None,
    **protocol_kwargs,
) -> OptimizeOutcome:
    """Scan round counts and return the best one for the chosen objective.

    `max_success_at_min_fidelity` maximizes total_success among candidates
    whose worst realized per-target fidelity stays at or above the
    threshold (0.96 for A, 0.99 for B unless overridden); `weighted`
    maximizes total_success * pooled fidelity with no constraint.  Ties go
    to the smaller round count.  Extra keyword arguments are passed to
    ProtocolParams.  The candidates are evaluated in one engine pass (see
    `protocol._Scan`; a large set of B candidates in a few, so that memory
    stays bounded), and the winner's result equals run_protocol's.
    """
    check_objective(objective)
    if candidates is None:
        scan: Sequence[int] = _candidate_rounds(approach)
    else:
        scan = sorted(set(check_count("candidate", c) for c in candidates))
        if not scan:
            raise ParameterError("candidates must be a nonempty collection")
    if min_fidelity is None:
        min_fidelity = DEFAULT_MIN_FIDELITY.get(approach, 0.0)
    min_fidelity = check_probability("min_fidelity", min_fidelity)

    runs = [ProtocolParams(approach, p_abs=p_abs, rounds=r, **protocol_kwargs) for r in scan]
    best = None  # (score, scan, index) of the best candidate so far
    for chunk in _chunks(runs) if approach == "B" else (runs,):
        evaluated = _Scan(chunk)
        if objective == OBJECTIVE_CONSTRAINED:
            # the worst realized per-target fidelity; nan marks a target without heralds
            heralded = ~np.isnan(evaluated.fidelity)
            worst = np.where(heralded, evaluated.fidelity, np.inf).min(axis=1)
            feasible = heralded.any(axis=1) & (worst >= min_fidelity)
            scores = evaluated.total_success
        else:
            feasible = np.ones(len(chunk), dtype=bool)
            scores = evaluated.total_success * np.nan_to_num(evaluated.pooled, nan=0.0)
        for i in np.flatnonzero(feasible):
            if best is None or scores[i] > best[0]:
                best = (scores[i], evaluated, i)
    if best is None:
        raise NoFeasibleRoundsError(
            f"no round count in {scan[0]}..{scan[-1]} meets the"
            f" {objective} objective (min_fidelity={min_fidelity})"
        )
    score, evaluated, i = best
    params = evaluated.runs[i]
    return OptimizeOutcome(
        rounds=params.rounds,
        l_z=params.l_z,
        l_x=params.l_x,
        score=float(score),
        result=evaluated.result(i),
    )
