import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nvswap import protocol
from nvswap.analytics import OBJECTIVE_WEIGHTED, optimize_rounds
from nvswap.channels import FlipKind
from nvswap.protocol import (
    HeraldRecord,
    HeraldType,
    ProtocolParams,
    _Scan,
    build_schedule,
    epoch_target,
    final_parity_measurement,
    run_protocol,
)
from nvswap.states import (
    DIM_PAIR13,
    DIM_TOTAL,
    EIGENVALUE_FLOOR,
    SLOT_A1,
    BellLabel,
    JointState,
    ParameterError,
    StateValidationError,
    basis_index,
    check_density,
    make_initial_state,
)
from nvswap.sweep import RelayChainSpec, relay_chain, sweep

from util import (
    BEYOND_INDEX_RANGE,
    HUGE_COUNTS,
    NO_SHRINK,
    NOT_NUMBERS,
    assert_results_close,
    assert_results_identical,
    every_channel_terms,
    reference_run,
    scatter_blocks,
    spec_maps,
    support_superoperator,
)


def ideal_params(approach: str, rounds: int, **overrides) -> ProtocolParams:
    base = dict(
        approach=approach,
        p_abs=1.0,
        rounds=rounds,
        r_a1=0.0,
        p_qnd=1.0,
        p_dark=0.0,
        p_loss=0.0,
        tau_cycle=0.0,
    )
    base.update(overrides)
    return ProtocolParams(**base)


class TestProtocolParams:
    def test_b_periods_default_from_rounds(self):
        params = ProtocolParams("B", p_abs=0.5, rounds=16)
        assert params.l_z == 4
        assert params.l_x == 8

    def test_b_periods_must_match_rounds(self):
        with pytest.raises(ParameterError):
            ProtocolParams("B", p_abs=0.5, rounds=10)

    def test_b_periods_follow_a_replaced_round_count(self):
        params = dataclasses.replace(ProtocolParams("B", p_abs=0.5, rounds=16), rounds=8)
        assert params == ProtocolParams("B", p_abs=0.5, rounds=8)
        assert (params.l_z, params.l_x) == (2, 4)

    def test_flip_periods_are_not_arguments(self):
        with pytest.raises(TypeError):
            ProtocolParams("B", p_abs=0.5, rounds=16, l_z=4)

    def test_a_rounds_must_be_even(self):
        with pytest.raises(ParameterError):
            ProtocolParams("A", p_abs=0.5, rounds=5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            ProtocolParams("C", p_abs=0.5, rounds=4)
        with pytest.raises(ParameterError):
            ProtocolParams("A", p_abs=1.5, rounds=4)
        with pytest.raises(ParameterError):
            ProtocolParams("A", p_abs=0.5, rounds=4, t2=0.0)
        with pytest.raises(ParameterError):
            ProtocolParams("A", p_abs=0.5, rounds=4, tau_cycle=-1e-9)
        with pytest.raises(ParameterError):
            ProtocolParams("A", p_abs=0.5, rounds=4, flip_observable="YY")

    def test_integral_counts_stored_as_int(self):
        params = ProtocolParams("B", p_abs=0.5, rounds=np.int64(16))
        assert type(params.rounds) is int and type(params.l_z) is int
        assert params == ProtocolParams("B", p_abs=0.5, rounds=16)
        assert hash(params) == hash(ProtocolParams("B", p_abs=0.5, rounds=16))
        a = ProtocolParams("A", p_abs=0.5, rounds=np.uint8(4))
        assert type(a.rounds) is int and a.rounds == 4

    @pytest.mark.parametrize("rounds", [True, 16.0, "16", np.float64(16.0), 0, -4])
    def test_rejects_non_integral_or_bool_rounds(self, rounds):
        with pytest.raises(ParameterError):
            ProtocolParams("B", p_abs=0.5, rounds=rounds)

    @pytest.mark.parametrize("rounds", HUGE_COUNTS)
    def test_rejects_rounds_beyond_the_index_range(self, rounds):
        # were accepted, and a run then raised a bare OverflowError
        with pytest.raises(ParameterError, match=f"^rounds {BEYOND_INDEX_RANGE}"):
            ProtocolParams("A", p_abs=0.5, rounds=rounds)

    @pytest.mark.parametrize(
        "field", ["p_abs", "r_a1", "p_qnd", "p_dark", "p_loss", "detector_eff"]
    )
    @pytest.mark.parametrize("value", NOT_NUMBERS)
    def test_rejects_text_or_bool_probabilities(self, field, value):
        # "0.5" was stored as given: run_protocol ran, run_trajectories raised TypeError
        with pytest.raises(ParameterError, match=f"^{field} must be a probability"):
            ProtocolParams("B", rounds=4, **{"p_abs": 0.5, field: value})

    def test_eta_per_cycle(self):
        params = ProtocolParams("A", p_abs=0.5, rounds=4, tau_cycle=200e-9, t2=100e-6)
        assert params.eta_per_cycle == pytest.approx(np.exp(-4e-6), rel=1e-15)
        assert ideal_params("A", 4).eta_per_cycle == 1.0


class TestBuildSchedule:
    def test_b_interleaves_periods(self):
        params = ProtocolParams("B", p_abs=0.5, rounds=8)
        assert build_schedule(params) == (
            FlipKind.NONE,
            FlipKind.PHASE,
            FlipKind.NONE,
            FlipKind.BOTH,
            FlipKind.NONE,
            FlipKind.PHASE,
            FlipKind.NONE,
            FlipKind.BOTH,
        )

    def test_b_minimal_cycle(self):
        params = ProtocolParams("B", p_abs=0.5, rounds=4)
        assert build_schedule(params) == (
            FlipKind.PHASE,
            FlipKind.BOTH,
            FlipKind.PHASE,
            FlipKind.BOTH,
        )

    def test_a_flips_every_round(self):
        assert build_schedule(ProtocolParams("A", p_abs=0.5, rounds=4)) == (
            FlipKind.PHASE,
        ) * 4
        assert build_schedule(
            ProtocolParams("A", p_abs=0.5, rounds=4, flip_observable="ZZ")
        ) == (FlipKind.POLARISATION,) * 4


class TestEpochTarget:
    @pytest.mark.parametrize(
        "flips,expected",
        [
            ((0, 0), BellLabel.PHI_MINUS),
            ((1, 0), BellLabel.PHI_PLUS),
            ((0, 1), BellLabel.PSI_MINUS),
            ((1, 1), BellLabel.PSI_PLUS),
            ((2, 0), BellLabel.PHI_MINUS),
            ((2, 1), BellLabel.PSI_MINUS),
            ((3, 1), BellLabel.PSI_PLUS),
        ],
    )
    def test_flip_count_algebra(self, flips, expected):
        assert epoch_target(flips) is expected


class TestIdealRuns:
    def test_ideal_b_l4_harvests_every_quarter(self):
        result = run_protocol(ideal_params("B", 4))
        assert result.cumulative_success == pytest.approx((0.25, 0.5, 0.75, 1.0), abs=1e-10)
        assert result.total_success == pytest.approx(1.0, abs=1e-10)
        assert result.residual_weight == pytest.approx(0.0, abs=1e-10)
        for label in BellLabel:
            assert result.fidelity_per_target[label] == pytest.approx(1.0, abs=1e-10)
        targets = [record.target for record in result.herald_log]
        assert sorted(t.value for t in targets) == [0, 1, 2, 3]

    def test_ideal_b_distributes_weight_equally(self):
        result = run_protocol(ideal_params("B", 8))
        for label in BellLabel:
            assert result.success_per_target[label] == pytest.approx(0.25, abs=1e-10)

    def test_all_none_schedule_hits_quarter_ceiling(self):
        params = ideal_params("B", 4)
        result = run_protocol(params, schedule=(FlipKind.NONE,) * 4)
        assert result.cumulative_success[-1] == pytest.approx(0.25, abs=1e-10)
        assert result.cumulative_success == pytest.approx((0.25,) * 4, abs=1e-10)

    def test_ideal_a_l2_converts_survivors_by_parity(self):
        result = run_protocol(ideal_params("A", 2))
        assert result.cumulative_success == pytest.approx((0.25, 0.5), abs=1e-12)
        assert result.parity_success == pytest.approx(0.5, abs=1e-12)
        assert result.total_success == pytest.approx(1.0, abs=1e-12)
        assert result.failure_weight == pytest.approx(0.0, abs=1e-12)
        for label in BellLabel:
            assert result.fidelity_per_target[label] == pytest.approx(1.0, abs=1e-12)
        parity_types = {
            record.herald_type for record in result.herald_log
        } & {HeraldType.PARITY_EVEN, HeraldType.PARITY_ODD}
        assert parity_types == {HeraldType.PARITY_EVEN, HeraldType.PARITY_ODD}

    def test_ideal_a_zz_variant(self):
        result = run_protocol(ideal_params("A", 2, flip_observable="ZZ"))
        assert result.total_success == pytest.approx(1.0, abs=1e-12)
        # polarisation flips herald phi-, psi- by click; parity yields psi+, phi+
        click_targets = {
            record.target
            for record in result.herald_log
            if record.herald_type is HeraldType.QND_CLICK
        }
        parity_targets = {
            record.target
            for record in result.herald_log
            if record.herald_type is not HeraldType.QND_CLICK
        }
        assert click_targets == {BellLabel.PHI_MINUS, BellLabel.PSI_MINUS}
        assert parity_targets == {BellLabel.PSI_PLUS, BellLabel.PHI_PLUS}
        for label in BellLabel:
            assert result.fidelity_per_target[label] == pytest.approx(1.0, abs=1e-12)

    def test_b_runs_have_no_parity_stage(self):
        result = run_protocol(ideal_params("B", 8))
        assert result.parity_success == 0.0
        assert all(
            record.herald_type is HeraldType.QND_CLICK for record in result.herald_log
        )


class TestNumberFields:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("tau_cycle", True),
            ("t2", True),
            ("tau_cycle", np.bool_(False)),
            ("tau_cycle", "1e-7"),
            ("t2", b"1e-4"),
            ("tau_cycle", None),
            ("p_abs", None),
            ("t2", math.inf),
            ("tau_cycle", math.nan),
            pytest.param("tau_cycle", 10**400, id="tau_cycle-huge_int"),
            pytest.param("p_abs", 10**400, id="p_abs-huge_int"),
        ],
    )
    def test_rejects_non_numbers_and_non_finite_times(self, field, value):
        # True was accepted as 1 s; None and text raised a bare TypeError, and
        # an int beyond the float range a bare OverflowError
        with pytest.raises(ParameterError, match=f"^{field} must be"):
            ProtocolParams("A", rounds=4, **{"p_abs": 0.5, field: value})

    def test_numeric_times_give_the_same_eta(self):
        plain = ProtocolParams("A", p_abs=0.5, rounds=4, tau_cycle=2e-7, t2=1e-4)
        numpy = ProtocolParams("A", p_abs=0.5, rounds=4, tau_cycle=np.float64(2e-7), t2=1e-4)
        assert numpy.eta_per_cycle == plain.eta_per_cycle
        assert ProtocolParams("A", p_abs=0.5, rounds=4, tau_cycle=0, t2=1).eta_per_cycle == 1.0


def test_herald_record_rejects_a_conditional_that_is_not_4x4():
    conditional = np.eye(8) / 8.0
    with pytest.raises(ParameterError, match="4x4"):
        HeraldRecord(1, (0, 0), HeraldType.QND_CLICK, 0.5, conditional, BellLabel.PHI_MINUS, 0.1)


class TestFinalParityMeasurement:
    @staticmethod
    def make_residual_state() -> JointState:
        amps = np.zeros(DIM_TOTAL, dtype=complex)
        amps[basis_index(BellLabel.PSI_PLUS, 0)] = 1.0 / np.sqrt(2.0)
        amps[basis_index(BellLabel.PSI_MINUS, 1)] = 1.0 / np.sqrt(2.0)
        return JointState(np.outer(amps, amps.conj()), 1.0)

    def test_ideal_residual_splits_even_odd(self):
        records = final_parity_measurement(self.make_residual_state(), "XX", 1.0)
        assert len(records) == 2
        by_type = {record.herald_type: record for record in records}
        even = by_type[HeraldType.PARITY_EVEN]
        odd = by_type[HeraldType.PARITY_ODD]
        assert even.weight == pytest.approx(0.5, abs=1e-12)
        assert odd.weight == pytest.approx(0.5, abs=1e-12)
        assert even.target is BellLabel.PSI_PLUS
        assert odd.target is BellLabel.PSI_MINUS
        assert even.fidelity == pytest.approx(1.0, abs=1e-12)
        assert odd.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_photon_gone_state_yields_nothing(self):
        amps = np.zeros(DIM_TOTAL, dtype=complex)
        amps[basis_index(BellLabel.PHI_MINUS, 4)] = 1.0
        state = JointState(np.outer(amps, amps.conj()), 1.0)
        assert final_parity_measurement(state, "XX", 1.0) == []

    def test_zero_efficiency_yields_nothing(self):
        assert final_parity_measurement(self.make_residual_state(), "XX", 0.0) == []

    def test_efficiency_enters_squared(self):
        records = final_parity_measurement(self.make_residual_state(), "XX", 0.8)
        assert sum(record.weight for record in records) == pytest.approx(0.64, rel=1e-12)

    def test_empty_state_yields_nothing(self):
        assert final_parity_measurement(JointState.empty(), "XX", 1.0) == []

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    def test_rejects_text_or_bool_efficiency(self, value):
        with pytest.raises(ParameterError, match="^detector_eff must be a probability"):
            final_parity_measurement(self.make_residual_state(), "XX", value)

    def test_rejects_bad_observable_and_efficiency(self):
        state = self.make_residual_state()
        with pytest.raises(ParameterError):
            final_parity_measurement(state, "YY", 1.0)
        with pytest.raises(ParameterError):
            final_parity_measurement(state, "XX", 1.5)


class TestNoisyRuns:
    def test_weight_conservation_approach_b(self):
        params = ProtocolParams("B", p_abs=0.5, rounds=16, p_loss=0.066)
        result = run_protocol(params)
        heralds = sum(record.weight for record in result.herald_log)
        assert heralds + result.residual_weight == pytest.approx(1.0, abs=1e-12)
        assert result.failure_weight == 0.0

    def test_weight_conservation_approach_a(self):
        params = ProtocolParams("A", p_abs=0.5, rounds=10, p_loss=0.066, detector_eff=0.9)
        result = run_protocol(params)
        heralds = sum(record.weight for record in result.herald_log)
        assert heralds + result.failure_weight == pytest.approx(1.0, abs=1e-12)
        assert result.residual_weight == 0.0
        assert result.total_success == pytest.approx(heralds, abs=1e-12)

    def test_cumulative_success_nondecreasing(self):
        params = ProtocolParams("B", p_abs=0.3, rounds=24, p_loss=0.066)
        cumulative = run_protocol(params).cumulative_success
        assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))

    def test_error_channels_only_degrade_click_fidelity(self):
        clean = run_protocol(
            ProtocolParams("B", p_abs=0.5, rounds=16, r_a1=0.0, p_dark=0.0, p_loss=0.066)
        )
        dirty = run_protocol(
            ProtocolParams("B", p_abs=0.5, rounds=16, r_a1=1e-2, p_dark=1e-3, p_loss=0.066)
        )
        clean_by_round = {
            record.round: record
            for record in clean.herald_log
            if record.herald_type is HeraldType.QND_CLICK
        }
        for record in dirty.herald_log:
            if record.herald_type is not HeraldType.QND_CLICK:
                continue
            assert record.fidelity <= clean_by_round[record.round].fidelity + 1e-12

    def test_dark_only_run_books_false_positives(self):
        params = ProtocolParams(
            "B", p_abs=0.0, rounds=8, r_a1=0.0, p_qnd=0.99, p_dark=1e-3, p_loss=0.0
        )
        result = run_protocol(params)
        expected_total = 1.0 - (1.0 - 1e-3) ** 8
        assert result.total_success == pytest.approx(expected_total, rel=1e-12)
        assert result.false_positive_weight == pytest.approx(expected_total, rel=1e-12)
        assert result.false_negative_weight == 0.0
        for record in result.herald_log:
            assert record.fidelity == pytest.approx(0.25, abs=1e-12)

    def test_blind_qnd_books_false_negatives(self):
        # each quarter is exposed for exactly two rounds, absorbing 1 - (1/2)^2 of it
        params = ProtocolParams(
            "B",
            p_abs=0.5,
            rounds=8,
            r_a1=0.0,
            p_qnd=0.0,
            p_dark=0.0,
            p_loss=0.0,
            tau_cycle=0.0,
        )
        result = run_protocol(params)
        assert result.herald_log == ()
        assert result.false_negative_weight == pytest.approx(0.75, abs=1e-12)
        assert result.residual_weight == pytest.approx(1.0, abs=1e-12)

    def test_schedule_override_validation(self):
        params = ideal_params("B", 4)
        with pytest.raises(ParameterError):
            run_protocol(params, schedule=(FlipKind.NONE,) * 3)
        with pytest.raises(ParameterError):
            run_protocol(params, schedule=("phase",) * 4)

    def test_bell_diagonal_sums_to_one(self):
        result = run_protocol(ProtocolParams("B", p_abs=0.5, rounds=16, p_loss=0.066))
        diagonal = result.bell_diagonal
        assert diagonal is not None
        assert diagonal.sum() == pytest.approx(1.0, abs=1e-10)
        assert diagonal[0] == pytest.approx(result.pooled_fidelity(), rel=1e-12)


@st.composite
def a_zz_custom_runs(draw):
    rounds = draw(st.sampled_from([4, 6, 10, 16]))
    params = ProtocolParams(
        "A",
        p_abs=draw(st.floats(0.05, 0.9)),
        rounds=rounds,
        p_qnd=draw(st.floats(0.5, 1.0)),
        p_dark=draw(st.floats(0.0, 0.05)),
        p_loss=draw(st.floats(0.0, 0.3)),
        detector_eff=draw(st.floats(0.5, 1.0)),
        flip_observable="ZZ",
    )
    kinds = st.lists(st.sampled_from(list(FlipKind)), min_size=rounds, max_size=rounds)
    return params, tuple(draw(kinds))


class TestHeraldSums:
    """Every consumer sums heralds in one order (per target in herald-log
    order, targets in label order), so these identities hold with ==."""

    @given(case=a_zz_custom_runs())
    @settings(max_examples=25, deadline=None, phases=NO_SHRINK)
    def test_pooled_views_agree_exactly(self, case):
        result = run_protocol(*case)
        clicked = {r.target for r in result.herald_log if r.herald_type is HeraldType.QND_CLICK}
        parity = {r.target for r in result.herald_log if r.herald_type is not HeraldType.QND_CLICK}
        # a target announced by both click and parity heralds
        assume(clicked & parity)
        for label in BellLabel:
            assert result.pooled_fidelity((label,)) == result.fidelity_per_target[label]
        assert result.bell_diagonal[0] == result.pooled_fidelity()


# approach A over every even round count up to 64, from one pass of the longest
EVEN_ROUNDS = tuple(range(2, 65, 2))


class TestPrefixPass:
    @pytest.mark.parametrize("observable", ["XX", "ZZ"])
    @given(
        p_abs=st.floats(0.01, 1.0),
        r_a1=st.floats(0.0, 0.01),
        p_qnd=st.floats(0.8, 1.0),
        p_dark=st.floats(0.0, 0.01),
        p_loss=st.floats(0.001, 0.3),
        detector_eff=st.floats(0.5, 0.999),
        tau_cycle=st.floats(0.0, 2e-6),
    )
    @settings(max_examples=3, deadline=None, phases=NO_SHRINK)
    def test_a_prefixes_equal_separate_runs(self, observable, **kwargs):
        runs = [
            ProtocolParams("A", rounds=rounds, flip_observable=observable, **kwargs)
            for rounds in EVEN_ROUNDS
        ]
        scan = _Scan(runs[:1], [build_schedule(run) for run in runs])
        prefixes = [scan.result(i) for i in range(len(runs))]
        assert [result.params for result in prefixes] == runs
        for params, prefix in zip(runs, prefixes):
            assert_results_identical(prefix, run_protocol(params))

    def test_single_run_pass_is_run_protocol(self):
        params = ProtocolParams("B", p_abs=0.4, rounds=8, p_loss=0.05, detector_eff=0.8)
        only = _Scan([params], [build_schedule(params)]).result(0)
        assert only.params is params
        assert_results_identical(only, run_protocol(params))


def _or_zero(low: float, high: float):
    # exact zeros plus a range kept clear of values whose branch weights could
    # land within rounding of BRANCH_WEIGHT_FLOOR
    return st.one_of(st.just(0.0), st.floats(low, high))


@st.composite
def oracle_cases(draw):
    approach = draw(st.sampled_from(["A", "B"]))
    rounds = draw(st.sampled_from([2, 4, 6, 10, 16] if approach == "A" else [4, 8, 16, 24]))
    params = ProtocolParams(
        approach,
        p_abs=draw(st.floats(0.01, 1.0)),
        rounds=rounds,
        r_a1=draw(_or_zero(1e-5, 0.05)),
        p_qnd=draw(st.one_of(st.just(1.0), st.floats(0.5, 0.999))),
        p_dark=draw(_or_zero(1e-5, 0.05)),
        p_loss=draw(_or_zero(1e-3, 0.3)),
        tau_cycle=draw(_or_zero(1e-8, 5e-6)),
        detector_eff=draw(st.floats(0.5, 1.0)),
        flip_observable=draw(st.sampled_from(["XX", "ZZ"])),
    )
    override = st.lists(st.sampled_from(list(FlipKind)), min_size=rounds, max_size=rounds)
    schedule = draw(st.one_of(st.none(), override.map(tuple)))
    return params, schedule


class TestCompiledEngine:
    """The compiled engine against the JointState round loop in tests/util.py."""

    @given(case=oracle_cases())
    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    def test_matches_joint_state_reference(self, case):
        params, schedule = case
        assert_results_close(run_protocol(params, schedule), reference_run(params, schedule))

    def test_reachable_support(self):
        support = protocol._support()
        assert len(support.rows) == 104
        pattern = np.zeros((DIM_TOTAL, DIM_TOTAL), dtype=bool)
        pattern[support.rows, support.cols] = True
        assert np.array_equal(pattern, pattern.T)
        assert pattern[make_initial_state().matrix != 0].all()

    @staticmethod
    def evolve(rho: np.ndarray) -> list:
        params = ProtocolParams("B", p_abs=0.5, rounds=8, p_loss=0.05)
        scan = protocol._Scan((params,), (build_schedule(params),), rho)
        return [scan.result(0)]

    def test_valid_initial_state_evolves(self):
        (result,) = self.evolve(make_initial_state().matrix.real)
        assert_results_identical(
            result, run_protocol(ProtocolParams("B", p_abs=0.5, rounds=8, p_loss=0.05))
        )

    def test_non_psd_initial_state_raises(self):
        # the initial pattern with doubled coherences: unit trace, symmetric,
        # eigenvalues 1.75 and -0.25 (three times)
        rho = make_initial_state().matrix.real * 2.0
        np.fill_diagonal(rho, np.diag(rho) / 2.0)
        assert np.linalg.eigvalsh(rho)[0] == pytest.approx(-0.25)
        with pytest.raises(StateValidationError, match="negative eigenvalue"):
            self.evolve(rho)

    def test_asymmetric_state_raises_in_its_first_round(self):
        rho = make_initial_state().matrix.real.copy()
        i, j = basis_index(BellLabel.PHI_PLUS, 2), basis_index(BellLabel.PHI_MINUS, 3)
        rho[i, j] += 1e-6
        with pytest.raises(StateValidationError, match="^round 1: .*not Hermitian"):
            self.evolve(rho)

    def test_floored_branch_stays_empty(self):
        # weight 0 but large entries: an absorbable population of 0.5 and a
        # population of -0.5 elsewhere; round 1 clicks, leaving a no-click
        # weight below the floor, so the state is empty from then on even
        # though the rest would click again in round 2
        params = ProtocolParams("B", p_abs=0.5, rounds=8, p_loss=0.05, p_dark=0.0)
        rho = np.zeros((DIM_TOTAL, DIM_TOTAL))
        absorbable = basis_index(BellLabel.PHI_MINUS, 3)
        other = basis_index(BellLabel.PHI_PLUS, 2)
        rho[absorbable, absorbable], rho[other, other] = 0.5, -0.5
        scan = protocol._Scan((params,), (build_schedule(params),), rho)
        result = scan.result(0)
        assert [record.round for record in result.herald_log] == [1]
        assert result.cumulative_success == (result.herald_log[0].weight,) * 8
        assert result.residual_weight == 0.0

    def test_non_finite_state_breaks_conservation(self):
        rho = make_initial_state().matrix.real.copy()
        rho[basis_index(BellLabel.PHI_PLUS, 2), basis_index(BellLabel.PHI_MINUS, 3)] = np.nan
        with pytest.raises(StateValidationError, match="does not conserve weight"):
            self.evolve(rho)

    def test_parity_conditional_is_checked(self):
        # the final state passes (smallest eigenvalue -5e-11), but its even
        # parity outcome, of weight 1e-11, has a conditional with eigenvalue
        # -5; the spec rejects it, and the scan once recorded it
        params = ProtocolParams("A", p_abs=0.0, rounds=2, p_dark=0.0, p_loss=0.0, tau_cycle=0.0)
        rho = np.zeros((DIM_TOTAL, DIM_TOTAL))
        for (i, j), value in {(0, 1): 1.0 - 1e-11, (0, 0): 6e-11, (1, 0): -5e-11}.items():
            rho[basis_index(i, j), basis_index(i, j)] = value
        with pytest.raises(StateValidationError, match="negative eigenvalue"):
            final_parity_measurement(JointState(rho, 1.0), params.flip_observable)
        with pytest.raises(StateValidationError, match="negative eigenvalue"):
            protocol._Scan((params,), (build_schedule(params),), rho)


class TestWindows:
    """A scan holds its rounds in windows of at most _CHUNK_STATES states;
    one round per window gives the same bits as one window for all."""

    @staticmethod
    def scans(monkeypatch, params, rho=None):
        schedules = [build_schedule(params)]
        whole = protocol._Scan((params,), schedules, rho).result(0)
        monkeypatch.setattr(protocol, "_CHUNK_STATES", 2)
        return whole, protocol._Scan((params,), schedules, rho).result(0)

    @pytest.mark.parametrize("approach,rounds", [("A", 10), ("B", 16)])
    def test_one_round_windows_equal_one_window(self, monkeypatch, approach, rounds):
        params = ProtocolParams(approach, p_abs=0.6, rounds=rounds, p_loss=0.05, p_dark=1e-3)
        assert_results_identical(*self.scans(monkeypatch, params))

    def test_a_branch_floored_in_one_window_stays_empty_in_the_next(self, monkeypatch):
        # the state of test_floored_branch_stays_empty: round 1 empties it
        params = ProtocolParams("B", p_abs=0.5, rounds=8, p_loss=0.05, p_dark=0.0)
        rho = np.zeros((DIM_TOTAL, DIM_TOTAL))
        absorbable = basis_index(BellLabel.PHI_MINUS, 3)
        other = basis_index(BellLabel.PHI_PLUS, 2)
        rho[absorbable, absorbable], rho[other, other] = 0.5, -0.5
        whole, windowed = self.scans(monkeypatch, params, rho)
        assert_results_identical(whole, windowed)
        assert [record.round for record in windowed.herald_log] == [1]


def _blocks(support) -> np.ndarray:
    """The block of each support entry."""
    return support.slot // support.width


class TestBlockPartition:
    """The support's invariant blocks, against superoperators built straight
    from channels.kraus_sum (tests/util.py)."""

    @pytest.fixture(scope="class")
    def couplings(self):
        support = protocol._support()
        rows, cols = support.rows, support.cols
        stages = [support_superoperator(terms, rows, cols) for terms in every_channel_terms()]
        return np.nonzero(np.logical_or.reduce([stage != 0.0 for stage in stages]))

    def test_eight_blocks_two_of_16_and_six_of_12(self):
        support = protocol._support()
        assert (support.blocks, support.width) == (8, 16)
        assert sorted(np.bincount(_blocks(support))) == [12] * 6 + [16] * 2

    def test_every_lifted_operator_stays_in_its_blocks(self):
        support = protocol._support()
        block = _blocks(support)
        across = block[:, None] != block[None, :]
        for terms in every_channel_terms():
            for _, kraus in terms:
                stage = support_superoperator(((1.0, kraus),), support.rows, support.cols)
                assert not stage[across].any()
                assert np.array_equal(scatter_blocks(support, support.lift(((1.0, kraus),))), stage)

    def test_transposed_block_pairs_map_onto_each_other(self):
        support = protocol._support()
        upper, lower = support.pairs
        partner = dict(zip(upper.tolist(), lower.tolist()))
        partner |= {b: a for a, b in partner.items()}
        images = {}
        for slot in support.slot.tolist():
            image = partner.get(slot, slot) // support.width
            images.setdefault(slot // support.width, set()).add(image)
        # transposition maps each block onto one block, and is an involution
        assert all(len(image) == 1 for image in images.values())
        swap = {b: image.pop() for b, image in images.items()}
        assert all(swap[swap[b]] == b for b in swap)
        pairs = {frozenset((b, c)) for b, c in swap.items() if b != c}
        assert len(pairs) == 2
        sizes = np.bincount(_blocks(support))
        assert all(sizes[b] == sizes[c] == 12 for b, c in map(tuple, pairs))

    def test_partition_is_the_components_of_the_couplings(self, couplings):
        support = protocol._support()
        assert np.array_equal(protocol._components(len(support.rows), *couplings), _blocks(support))

    def test_an_extra_coupling_merges_the_two_blocks_it_joins(self, couplings):
        support = protocol._support()
        block = _blocks(support)
        first, last = np.flatnonzero(block == 0)[0], np.flatnonzero(block == 7)[-1]
        sources = np.append(couplings[0], last)
        targets = np.append(couplings[1], first)
        merged = protocol._components(len(support.rows), sources, targets)
        assert merged.max() == 6
        assert merged[first] == merged[last]
        # every other pair of entries stays together or apart as before
        rest = ~np.isin(block, (0, 7))
        before = block[rest][:, None] == block[rest][None, :]
        assert np.array_equal(merged[rest][:, None] == merged[rest][None, :], before)


def _dense(support, flat: np.ndarray) -> np.ndarray:
    """A state's flat view as its 32x32 matrix on the support."""
    matrix = np.zeros((DIM_TOTAL, DIM_TOTAL))
    matrix[support.rows, support.cols] = flat[support.slot]
    return matrix


def _random_psd(rng, size: int, smallest: float) -> np.ndarray:
    """A random symmetric size x size block with the given smallest eigenvalue."""
    q, _ = np.linalg.qr(rng.normal(size=(size, size)))
    values = np.r_[smallest, rng.uniform(0.01, 0.1, size - 1)]
    return (q * values) @ q.T


def _verdict(*blocks) -> str | None:
    """check_density's message on the given matrices, None if they pass."""
    try:
        check_density(*blocks)
    except StateValidationError as error:
        return str(error)
    return None


def _block_verdict(smallest: float, *blocks) -> str | None:
    """_verdict on direct sums, asserting that matrices whose smallest
    eigenvalue lies above the floor pass without computing eigenvalues."""
    eigvalsh, computed = np.linalg.eigvalsh, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", lambda m: computed.append(m) or eigvalsh(m))
        verdict = _verdict(*blocks)
    assert not (computed and smallest > EIGENVALUE_FLOOR)
    return verdict


FLOOR = EIGENVALUE_FLOOR
BELOW_FLOOR = np.nextafter(EIGENVALUE_FLOOR, -1.0)


class TestDirectSums:
    """The engine checks a final state as 8 scalars and six 4x4 blocks, and a
    herald conditional as two 2x2 blocks (`_Support.state_blocks`,
    `pair13_blocks`), each in place of the dense matrix they sum to."""

    def test_blocks_cover_the_support_once(self):
        support = protocol._support()
        assert [b.shape for b in support.state_blocks] == [(8, 1, 1), (6, 4, 4)]
        slots = np.concatenate([b.ravel() for b in support.state_blocks])
        assert np.array_equal(np.sort(slots), np.sort(support.slot))
        assert [b.shape for b in support.pair13_blocks] == [(2, 2, 2)]
        positions = support.pair13_blocks[0].ravel()
        assert np.array_equal(np.sort(positions), np.arange(len(support.pair13)))
        # each block is the s x s submatrix of s indices, and the blocks'
        # indices partition the 32
        number = {slot: i for i, slot in enumerate(support.slot.tolist())}
        indices = []
        for stack in support.state_blocks:
            for block in stack:
                entries = [number[slot] for slot in block.ravel().tolist()]
                rows, cols = support.rows[entries], support.cols[entries]
                assert np.array_equal(rows.reshape(block.shape), cols.reshape(block.shape).T)
                assert len(set(rows)) == len(block)
                indices += sorted(set(rows))
        assert sorted(indices) == list(range(DIM_TOTAL))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("stack", [0, 1], ids=["scalar", "block"])
    @pytest.mark.parametrize(
        "smallest,rotated",
        [
            (0.0, False),
            (FLOOR, False),
            (BELOW_FLOOR, False),
            (FLOOR + 1e-14, True),
            (FLOOR - 1e-14, True),
            (-1e-6, True),
        ],
        ids=["zero", "at_floor", "ulp_below", "just_above", "just_below", "negative"],
    )
    def test_state_blocks_agree_with_the_dense_check(self, seed, stack, smallest, rotated):
        # a random direct sum of unit trace; one scalar or 4x4 block has the
        # given smallest eigenvalue.  Its blocks are rotated, or all diagonal,
        # where the dense eigenvalues are exact and the floor itself decides
        support = protocol._support()
        rng = np.random.default_rng(seed)
        flat = np.zeros(support.blocks * support.width)
        chosen = support.state_blocks[stack][rng.integers(6)]
        for at in support.state_blocks:
            for block in at:
                low = smallest if np.array_equal(block, chosen) else rng.uniform(0.01, 0.1)
                values = np.r_[low, rng.uniform(0.01, 0.1, len(block) - 1)]
                flat[block] = _random_psd(rng, len(block), low) if rotated else np.diag(values)
        # unit trace, scaling every block but the chosen one
        others = ~np.isin(np.arange(len(flat)), chosen)
        flat[others] *= (1.0 - np.trace(flat[chosen])) / flat[others & (support.trace == 1.0)].sum()
        states = [flat[None, at] for at in support.state_blocks]
        verdict = _block_verdict(smallest, *states)
        assert verdict == _verdict(_dense(support, flat))
        if smallest >= FLOOR:
            assert verdict is None
        else:
            assert verdict.startswith("state matrix has negative eigenvalue")

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "smallest,rotated",
        [
            (0.0, False),
            (FLOOR, False),
            (BELOW_FLOOR, False),
            (FLOOR + 1e-14, True),
            (FLOOR - 1e-14, True),
            (-1e-6, True),
            (0.3, True),
        ],
        ids=["zero", "at_floor", "ulp_below", "just_above", "just_below", "negative", "valid"],
    )
    def test_conditional_blocks_agree_with_the_dense_check(self, seed, smallest, rotated):
        support = protocol._support()
        rng = np.random.default_rng(seed)
        entries = np.zeros(len(support.pair13))
        for block, low in zip(support.pair13_blocks[0], (smallest, rng.uniform(0.0, 0.2))):
            values = [low, rng.uniform(0.3, 0.5)]
            entries[block] = _random_psd(rng, 2, low) if rotated else np.diag(values)
        second = support.pair13_blocks[0][1]
        entries[second] *= (1.0 - entries[support.diagonal[:2]].sum()) / np.trace(entries[second])
        dense = np.zeros(DIM_PAIR13 * DIM_PAIR13)
        dense[support.pair13] = entries
        verdict = _block_verdict(smallest, entries[None, support.pair13_blocks[0]])
        assert verdict == _verdict(dense.reshape(DIM_PAIR13, DIM_PAIR13))
        if smallest >= FLOOR:
            assert verdict is None
        else:
            assert verdict.startswith("state matrix has negative eigenvalue")

    @pytest.mark.parametrize("kind", ["state", "conditional"])
    @pytest.mark.parametrize(
        "breach,message",
        [
            ("nan", "state matrix contains non-finite entries"),
            ("asymmetry", "state matrix is not Hermitian (max asymmetry 2.000e-09)"),
            ("trace", "state matrix trace is "),
        ],
        ids=["nan", "asymmetry", "trace"],
    )
    def test_blocks_report_the_breaches_the_dense_check_reports(self, kind, breach, message):
        # a valid diagonal state or conditional, broken in its first block
        # that is not 1x1: an off-diagonal entry made nan or 2e-9 larger than
        # its transpose, or every entry scaled by 1 + 1e-9
        support = protocol._support()
        blocks = support.state_blocks if kind == "state" else support.pair13_blocks
        flat = np.zeros(support.blocks * support.width if kind == "state" else len(support.pair13))
        for at in blocks:
            flat[np.diagonal(at, axis1=-2, axis2=-1)] = 1.0
        flat /= flat.sum()
        upper = blocks[-1][0, 0, 1]
        if breach == "trace":
            flat *= 1.0 + 1e-9
        else:
            flat[upper] = np.nan if breach == "nan" else 2e-9
        if kind == "state":
            dense = _dense(support, flat)
        else:
            dense = np.zeros(DIM_PAIR13 * DIM_PAIR13)
            dense[support.pair13] = flat
            dense = dense.reshape(DIM_PAIR13, DIM_PAIR13)
        verdict = _verdict(*(flat[None, at] for at in blocks))
        assert verdict.startswith(message)
        assert _verdict(dense).startswith(message)
        if breach != "trace":
            assert verdict == _verdict(dense)

    @pytest.mark.parametrize("block", range(7))
    def test_a_final_state_negative_inside_one_block_raises(self, block):
        # with nothing absorbed, clicked, lost or dephased a run only flips, so
        # its final state has the initial state's spectrum: 1/32 on the support's
        # diagonal, and in one block a coherence or an A1 population that
        # makes an eigenvalue of -0.01875
        support = protocol._support()
        params = ProtocolParams("B", 0.0, 8, p_qnd=0.0, p_dark=0.0, tau_cycle=0.0)
        rho = np.eye(DIM_TOTAL) / DIM_TOTAL
        if block < 6:
            entry = np.flatnonzero(support.slot == support.state_blocks[1][block, 0, 1])
            i, j = support.rows[entry], support.cols[entry]
            rho[i, j] = rho[j, i] = 0.05
        else:
            a1 = basis_index(BellLabel.PSI_MINUS, SLOT_A1)
            rho[a1, a1] -= 0.05
            rho[0, 0] += 0.05
        message = "^state matrix has negative eigenvalue -1.875e-02$"
        with pytest.raises(StateValidationError, match=message):
            protocol._Scan((params,), (build_schedule(params),), rho)

    @pytest.mark.parametrize("pair", [(0, 1), (2, 3)])
    def test_a_click_conditional_negative_inside_one_block_raises(self, pair):
        # round 1 absorbs every psi- population and clicks on all of it: the
        # click's conditional is diag(1.2, -0.2) on the given pair of labels
        params = ProtocolParams("B", 1.0, 4, r_a1=0.0, p_qnd=1.0, p_dark=0.0, tau_cycle=0.0)
        rho = np.zeros((DIM_TOTAL, DIM_TOTAL))
        for label, value in zip(pair, (0.6, -0.1)):
            rho[basis_index(label, 3), basis_index(label, 3)] = value
        rest = basis_index(pair[0] ^ 2, 0)
        rho[rest, rest] = 0.5
        message = "^state matrix has negative eigenvalue -2.000e-01$"
        with pytest.raises(StateValidationError, match=message):
            protocol._Scan((params,), (build_schedule(params),), rho)


class TestCompiledMaps:
    """_compile's block maps, scattered back to the support, against products
    of stage superoperators built straight from channels.kraus_sum."""

    @pytest.mark.parametrize("approach", ["A", "B"])
    @pytest.mark.parametrize("kind", list(FlipKind))
    def test_maps_equal_the_spec_products(self, approach, kind):
        rng = np.random.default_rng([ord(approach), protocol._KINDS.index(kind)])
        params = ProtocolParams(
            approach,
            p_abs=rng.uniform(0.01, 1.0),
            rounds=4,
            r_a1=rng.uniform(0.0, 0.05),
            p_qnd=rng.uniform(0.5, 1.0),
            p_dark=rng.uniform(0.0, 0.05),
            p_loss=rng.uniform(0.0, 0.3),
            tau_cycle=rng.uniform(0.0, 5e-6),
            detector_eff=rng.uniform(0.5, 1.0),
        )
        support = protocol._support()
        code = protocol._KINDS.index(kind)
        (herald,), maps = protocol._compile([params], [code])
        maps = {code: maps[code][0]}  # the one cell's maps
        spec_herald, spec_round = spec_maps(params, kind, support.rows, support.cols)
        assert np.abs(scatter_blocks(support, maps[code]) - spec_round).max() <= 1e-14
        padding = np.ones(herald.shape[1], dtype=bool)
        padding[support.slot] = False
        assert not herald[:, padding].any()
        # the spec's rows: the 16 entries of the 4x4 block, its trace and the
        # dark-click weight; the engine keeps the block's pair13 entries, and
        # the 8 rows it drops are 0 in the spec, so dropping them loses nothing
        entries = DIM_PAIR13 * DIM_PAIR13
        dropped = np.setdiff1d(np.arange(entries), support.pair13)
        assert len(support.pair13) == len(dropped) == 8
        assert not spec_herald[dropped].any()
        kept = np.r_[support.pair13, entries, entries + 1]
        assert np.abs(herald[:, support.slot] - spec_herald[kept]).max() <= 1e-14


class TestOneBuildPerScan:
    """Each pass compiles its maps once, and only for the flip kinds it uses."""

    @pytest.fixture
    def builds(self, monkeypatch):
        codes_built = []
        compile_maps = protocol._compile

        def counting(params, codes):
            herald, maps = compile_maps(params, codes)
            codes_built.append(sorted(maps))
            return herald, maps

        monkeypatch.setattr(protocol, "_compile", counting)
        return codes_built

    @pytest.mark.parametrize(
        "call",
        [
            lambda: run_protocol(ProtocolParams("B", p_abs=0.5, rounds=16, p_loss=0.066)),
            lambda: optimize_rounds("A", 0.5, p_loss=0.066, objective=OBJECTIVE_WEIGHTED),
            lambda: optimize_rounds("B", 0.5, p_loss=0.066, objective=OBJECTIVE_WEIGHTED),
            lambda: relay_chain(
                RelayChainSpec.uniform(ProtocolParams("B", p_abs=0.5, rounds=8), 3)
            ),
        ],
        ids=["run_protocol", "default_a_scan", "default_b_scan", "uniform_chain"],
    )
    def test_builds_once(self, builds, call):
        call()
        assert len(builds) == 1

    def test_a_xx_scan_builds_the_phase_map_only(self, builds):
        optimize_rounds("A", 0.5, p_loss=0.066, objective=OBJECTIVE_WEIGHTED)
        assert builds == [[protocol._KINDS.index(FlipKind.PHASE)]]

    def test_sweep_builds_once_per_chunk_for_the_kinds_it_uses(self, builds):
        # 3 x 8 optimised B cells are three chunks of up to 11 cells; B's
        # schedules use no polarisation flip on its own
        sweep([0.4, 0.6, 0.8], np.linspace(0.0, 0.1, 8), "B", optimize_l=True)
        used = sorted(protocol._KINDS.index(k) for k in FlipKind if k is not FlipKind.POLARISATION)
        assert builds == [used] * 3
        builds.clear()
        sweep([0.4, 0.6, 0.8], [0.0, 0.05, 0.1], "A", rounds=8, flip_observable="ZZ")
        assert builds == [[protocol._KINDS.index(FlipKind.POLARISATION)]]
