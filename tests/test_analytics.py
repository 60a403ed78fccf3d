import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvswap.protocol
from nvswap.analytics import (
    DEFAULT_MIN_FIDELITY,
    NoFeasibleRoundsError,
    OBJECTIVE_CONSTRAINED,
    OBJECTIVE_WEIGHTED,
    db_to_probability,
    dephasing_factor,
    false_negative_bound,
    false_positive_bound,
    lorentzian_suppression,
    optimize_rounds,
    probability_to_db,
    spectral_width,
)
from nvswap.protocol import ProtocolParams, _Scan, run_protocol
from nvswap.states import ParameterError

from util import NO_SHRINK, NOT_NUMBERS, assert_results_identical

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
round_counts = st.integers(min_value=1, max_value=80)


def oracle_false_negative(p_abs: float, p_qnd: float, rounds: int) -> float:
    with mpmath.workdps(60):
        p_abs_m = mpmath.mpf(p_abs)
        p_qnd_m = mpmath.mpf(p_qnd)
        total = mpmath.fsum(
            ((1 - p_abs_m) * p_qnd_m) ** l for l in range(rounds)
        )
        return float(p_abs_m * (1 - p_qnd_m) * total)


def oracle_false_positive(p_abs: float, p_dark: float, rounds: int) -> float:
    with mpmath.workdps(60):
        p_abs_m = mpmath.mpf(p_abs)
        p_dark_m = mpmath.mpf(p_dark)
        total = mpmath.fsum(
            ((1 - p_abs_m) * (1 - p_dark_m)) ** l for l in range(rounds)
        )
        return float(p_dark_m * (1 - p_abs_m) * total)


class TestBoundFormulas:
    GRID = [
        (0.01, 0.99, 40),
        (0.10, 0.99, 20),
        (0.25, 0.99, 20),
        (0.50, 0.99, 16),
        (0.90, 0.99, 4),
        (1e-9, 1.0 - 1e-9, 64),
        (0.999, 0.5, 3),
    ]

    @pytest.mark.parametrize("p_abs,p_qnd,rounds", GRID)
    def test_false_negative_matches_series(self, p_abs, p_qnd, rounds):
        expected = oracle_false_negative(p_abs, p_qnd, rounds)
        assert false_negative_bound(p_abs, p_qnd, rounds) == pytest.approx(
            expected, rel=1e-12, abs=1e-300
        )

    @pytest.mark.parametrize("p_abs,p_qnd,rounds", GRID)
    def test_false_positive_matches_series(self, p_abs, p_qnd, rounds):
        expected = oracle_false_positive(p_abs, 2e-4, rounds)
        assert false_positive_bound(p_abs, 2e-4, rounds) == pytest.approx(
            expected, rel=1e-12, abs=1e-300
        )

    def test_reference_values(self):
        assert false_negative_bound(0.25, 0.99, 20) / 0.01 == pytest.approx(
            0.9683556, rel=1e-6
        )
        assert false_negative_bound(0.5, 0.99, 16) / 0.01 == pytest.approx(
            0.9900865, rel=1e-6
        )
        assert false_positive_bound(0.9, 2e-4, 4) / 2e-4 == pytest.approx(
            0.1110975, rel=1e-6
        )

    def test_degenerate_inputs(self):
        assert false_negative_bound(0.0, 1.0, 12) == 0.0
        assert false_negative_bound(0.0, 0.3, 12) == 0.0
        assert false_positive_bound(0.0, 0.0, 12) == 0.0
        assert false_positive_bound(0.3, 0.0, 12) == 0.0
        assert false_positive_bound(1.0, 0.1, 12) == 0.0

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ParameterError):
            false_negative_bound(1.2, 0.99, 4)
        with pytest.raises(ParameterError):
            false_negative_bound(0.5, -0.1, 4)
        with pytest.raises(ParameterError):
            false_negative_bound(0.5, 0.99, 0)
        with pytest.raises(ParameterError):
            false_positive_bound(0.5, 2e-4, 2.5)
        with pytest.raises(ParameterError):
            false_positive_bound(0.5, 2e-4, True)

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    def test_rejects_text_or_bool_probabilities(self, value):
        # false_negative_bound("0.5", 0.99, 4) raised a bare TypeError
        with pytest.raises(ParameterError, match="^p_abs must be a probability"):
            false_negative_bound(value, 0.99, 4)
        with pytest.raises(ParameterError, match="^p_qnd must be a probability"):
            false_negative_bound(0.5, value, 4)
        with pytest.raises(ParameterError, match="^p_dark must be a probability"):
            false_positive_bound(0.5, value, 4)

    def test_accepts_integral_rounds(self):
        assert false_negative_bound(0.5, 0.99, np.int32(16)) == false_negative_bound(
            0.5, 0.99, 16
        )
        assert false_positive_bound(0.5, 2e-4, np.int64(16)) == false_positive_bound(
            0.5, 2e-4, 16
        )

    @given(p_abs=probabilities, p_qnd=probabilities, rounds=round_counts)
    @settings(max_examples=200, deadline=None)
    def test_false_negative_nondecreasing_in_rounds(self, p_abs, p_qnd, rounds):
        low = false_negative_bound(p_abs, p_qnd, rounds)
        high = false_negative_bound(p_abs, p_qnd, rounds + 1)
        assert high >= low - 1e-15

    @given(a=probabilities, b=probabilities, p_qnd=probabilities, rounds=round_counts)
    @settings(max_examples=200, deadline=None)
    def test_false_negative_nondecreasing_in_p_abs(self, a, b, p_qnd, rounds):
        lo, hi = sorted((a, b))
        assert false_negative_bound(hi, p_qnd, rounds) >= false_negative_bound(
            lo, p_qnd, rounds
        ) - 1e-12

    @given(a=probabilities, b=probabilities, rounds=round_counts)
    @settings(max_examples=200, deadline=None)
    def test_false_positive_nonincreasing_in_p_abs(self, a, b, rounds):
        lo, hi = sorted((a, b))
        assert false_positive_bound(hi, 2e-4, rounds) <= false_positive_bound(
            lo, 2e-4, rounds
        ) + 1e-12

    @given(p_abs=probabilities, p_dark=probabilities, rounds=round_counts)
    @settings(max_examples=200, deadline=None)
    def test_false_positive_nondecreasing_in_rounds(self, p_abs, p_dark, rounds):
        low = false_positive_bound(p_abs, p_dark, rounds)
        high = false_positive_bound(p_abs, p_dark, rounds + 1)
        assert high >= low - 1e-15


class TestEstimators:
    def test_spectral_width_formula(self):
        assert spectral_width(10e-9) == pytest.approx(1.0 / (math.pi * 1e-8), rel=1e-12)
        assert spectral_width(1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert spectral_width(20e-9) == pytest.approx(spectral_width(10e-9) / 2, rel=1e-12)

    def test_lorentzian_suppression(self):
        assert lorentzian_suppression(0.0, 30e6) == 1.0
        assert lorentzian_suppression(30e6, 30e6) == pytest.approx(0.5, rel=1e-12)
        value = lorentzian_suppression(3e9, spectral_width(10e-9))
        assert value == pytest.approx(1.1256642e-4, rel=1e-6)

    def test_dephasing_factor(self):
        assert dephasing_factor(0.0, 1e-4) == 1.0
        assert dephasing_factor(1e-4, 1e-4) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert 1.0 - dephasing_factor(200e-9, 100e-6) == pytest.approx(4e-6, abs=1e-8)

    def test_db_conversion_anchors(self):
        assert db_to_probability(0.0) == 0.0
        assert db_to_probability(10.0) == pytest.approx(0.9, rel=1e-12)
        assert db_to_probability(0.3) == pytest.approx(0.0667457, rel=1e-5)

    @given(st.floats(min_value=0.0, max_value=0.999, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_db_roundtrip(self, p_loss):
        assert db_to_probability(probability_to_db(p_loss)) == pytest.approx(
            p_loss, abs=1e-12
        )

    @pytest.mark.parametrize(
        "tau, t2", [(math.nan, 1.0), (0.0, math.nan), ("1e-7", 1e-4), (0.0, True)]
    )
    def test_dephasing_factor_rejects_non_numbers_and_nan(self, tau, t2):
        with pytest.raises(ParameterError):
            dephasing_factor(tau, t2)

    @pytest.mark.parametrize(
        "detuning, linewidth", [(0.0, math.nan), (math.nan, 1.0), ("1", 1.0), (0.0, True)]
    )
    def test_lorentzian_suppression_rejects_non_numbers_and_nan(self, detuning, linewidth):
        with pytest.raises(ParameterError):
            lorentzian_suppression(detuning, linewidth)

    @pytest.mark.parametrize("lifetime", [math.nan, True, "1e-8", None])
    def test_spectral_width_rejects_non_numbers_and_nan(self, lifetime):
        with pytest.raises(ParameterError, match="^lifetime must be"):
            spectral_width(lifetime)

    @pytest.mark.parametrize("loss_db", [math.nan, True, "3", None])
    def test_db_to_probability_rejects_non_numbers_and_nan(self, loss_db):
        # True gave 0.2057; "3" raised a bare TypeError
        with pytest.raises(ParameterError, match="^loss_db must be"):
            db_to_probability(loss_db)

    @pytest.mark.parametrize("p_loss", [False, math.nan, "0.1", None])
    def test_probability_to_db_rejects_non_numbers_and_nan(self, p_loss):
        # False gave -0.0
        with pytest.raises(ParameterError, match="^p_loss must"):
            probability_to_db(p_loss)

    def test_estimator_ranges_keep_infinity(self):
        assert db_to_probability(math.inf) == 1.0
        assert spectral_width(math.inf) == 0.0
        assert lorentzian_suppression(math.inf, 1.0) == 0.0
        assert lorentzian_suppression(1.0, math.inf) == 1.0
        assert dephasing_factor(math.inf, 1.0) == 0.0
        assert dephasing_factor(1.0, math.inf) == 1.0
        with pytest.raises(ParameterError):
            probability_to_db(math.inf)

    def test_huge_ratios_give_zero(self):
        # (a / b) ** 2 raised OverflowError once the ratio passed about 1.34e154
        assert dephasing_factor(1e160, 1.0) == 0.0
        assert lorentzian_suppression(1e160, 1.0) == 0.0
        assert lorentzian_suppression(-1e160, 1.0) == 0.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_infinite_over_infinite_rejected(self, sign):
        # inf / inf gave nan
        with pytest.raises(ParameterError, match=r"^tau / t2 must be .*, got nan"):
            dephasing_factor(math.inf, math.inf)
        with pytest.raises(ParameterError, match=r"^\|detuning\| / linewidth must be .*, got nan"):
            lorentzian_suppression(sign * math.inf, math.inf)

    def test_estimator_input_validation(self):
        with pytest.raises(ParameterError):
            spectral_width(0.0)
        with pytest.raises(ParameterError):
            lorentzian_suppression(1.0, 0.0)
        with pytest.raises(ParameterError):
            dephasing_factor(-1.0, 1.0)
        with pytest.raises(ParameterError):
            dephasing_factor(1.0, 0.0)
        with pytest.raises(ParameterError):
            db_to_probability(-0.1)
        with pytest.raises(ParameterError):
            probability_to_db(1.0)


class TestOptimizeRounds:
    def test_a_reference_point(self):
        outcome = optimize_rounds("A", 0.5, p_loss=0.066)
        assert outcome.rounds == 10
        assert outcome.l_z is None and outcome.l_x is None
        assert outcome.score == pytest.approx(outcome.result.total_success)

    def test_b_reference_point(self):
        outcome = optimize_rounds("B", 0.9, p_loss=0.066)
        assert outcome.rounds == 8
        assert outcome.l_z == 2
        assert outcome.l_x == 4

    def test_saturated_success_prefers_smallest(self):
        outcome = optimize_rounds(
            "A", 1.0, r_a1=0.0, p_qnd=1.0, p_dark=0.0, p_loss=0.0, tau_cycle=0.0
        )
        assert outcome.rounds == 2
        assert outcome.score == pytest.approx(1.0, abs=1e-12)

    def test_weighted_objective_on_ideal_params(self):
        outcome = optimize_rounds(
            "A",
            1.0,
            objective=OBJECTIVE_WEIGHTED,
            r_a1=0.0,
            p_qnd=1.0,
            p_dark=0.0,
            p_loss=0.0,
            tau_cycle=0.0,
        )
        assert outcome.rounds == 2
        assert outcome.score == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "approach,candidates",
        [
            ("A", [12, 4, 30, 4, 8]),
            ("A", [70, 2, 66]),
            ("B", [16, 4, 16, 8]),
            ("B", [68, 8]),
        ],
    )
    def test_custom_candidates_match_a_scan_of_separate_runs(self, approach, candidates):
        # any list of runs, repeats and round counts beyond 64 included, scans
        # to the results of separate run_protocol calls
        kwargs = dict(p_loss=0.05, detector_eff=0.9, flip_observable="ZZ")
        runs = [ProtocolParams(approach, p_abs=0.6, rounds=r, **kwargs) for r in candidates]
        scan = _Scan(runs)
        for i, run in enumerate(runs):
            assert_results_identical(scan.result(i), run_protocol(run))

    @given(
        approach=st.sampled_from(["A", "B"]),
        objective=st.sampled_from([OBJECTIVE_CONSTRAINED, OBJECTIVE_WEIGHTED]),
        min_fidelity=st.one_of(st.none(), st.floats(0.5, 0.999)),
        p_abs=st.floats(0.05, 1.0),
        r_a1=st.floats(0.0, 0.01),
        p_qnd=st.floats(0.8, 1.0),
        p_dark=st.floats(0.0, 0.01),
        p_loss=st.floats(0.0, 0.3),
        detector_eff=st.floats(0.5, 1.0),
        tau_cycle=st.floats(0.0, 2e-6),
        flip_observable=st.sampled_from(["XX", "ZZ"]),
    )
    @settings(max_examples=12, deadline=None, phases=NO_SHRINK)
    def test_scan_equals_a_loop_of_separate_runs(
        self, approach, objective, min_fidelity, p_abs, **kwargs
    ):
        floor = DEFAULT_MIN_FIDELITY[approach] if min_fidelity is None else min_fidelity
        best, best_score = None, None
        for rounds in range(2, 65, 2) if approach == "A" else range(4, 65, 4):
            result = run_protocol(ProtocolParams(approach, p_abs=p_abs, rounds=rounds, **kwargs))
            if objective == OBJECTIVE_CONSTRAINED:
                fidelities = [f for f in result.fidelity_per_target.values() if f is not None]
                if not fidelities or min(fidelities) < floor:
                    continue
                score = result.total_success
            else:
                pooled = result.pooled_fidelity()
                score = result.total_success * (0.0 if pooled is None else pooled)
            if best is None or score > best_score:
                best, best_score = result, score
        if best is None:
            with pytest.raises(NoFeasibleRoundsError):
                optimize_rounds(
                    approach, p_abs, objective=objective, min_fidelity=min_fidelity, **kwargs
                )
            return
        outcome = optimize_rounds(
            approach, p_abs, objective=objective, min_fidelity=min_fidelity, **kwargs
        )
        assert outcome.rounds == best.params.rounds
        assert (outcome.l_z, outcome.l_x) == (best.params.l_z, best.params.l_x)
        assert outcome.score == best_score
        assert_results_identical(outcome.result, best)

    @pytest.mark.parametrize(
        "approach,candidates,evolved",
        [
            ("A", None, 64),
            ("A", [10, 4, 22], 22),
            ("B", None, sum(range(4, 65, 4))),
            ("B", [8, 4], 12),
        ],
    )
    def test_absorption_rounds_evolved(self, monkeypatch, approach, candidates, evolved):
        # every round of every column, absorption included, is one state in a
        # stack the compiled engine advances
        column_rounds = []
        advance = nvswap.protocol._advance

        def counting(round_map, states):
            column_rounds.append(len(states))
            return advance(round_map, states)

        monkeypatch.setattr(nvswap.protocol, "_advance", counting)
        if candidates is None:
            optimize_rounds(approach, 0.5, p_loss=0.066, objective=OBJECTIVE_WEIGHTED)
        else:
            _Scan([ProtocolParams(approach, p_abs=0.5, rounds=r, p_loss=0.066) for r in candidates])
        assert sum(column_rounds) == evolved

    @pytest.mark.parametrize("min_fidelity", NOT_NUMBERS)
    def test_text_or_bool_min_fidelity_rejected(self, min_fidelity):
        with pytest.raises(ParameterError, match="^min_fidelity must be a probability"):
            optimize_rounds("B", 0.3, min_fidelity=min_fidelity)

    def test_unreachable_threshold_reported(self):
        with pytest.raises(NoFeasibleRoundsError):
            optimize_rounds(
                "B",
                0.3,
                min_fidelity=0.999999,
                p_dark=0.05,
                p_loss=0.3,
            )

    @pytest.mark.parametrize("min_fidelity", [float("nan"), -0.5, 1.000001, float("inf")])
    def test_invalid_min_fidelity_rejected(self, min_fidelity):
        # nan once passed silently (every fidelity comparison with it is False)
        with pytest.raises(ParameterError, match="min_fidelity"):
            optimize_rounds(
                "B",
                0.3,
                min_fidelity=min_fidelity,
                p_dark=0.05,
                p_loss=0.3,
            )

    def test_invalid_objective_rejected(self):
        with pytest.raises(ParameterError):
            optimize_rounds("A", 0.5, objective="fastest")
