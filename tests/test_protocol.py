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
    HeraldType,
    ProtocolParams,
    _Scan,
    build_schedule,
    epoch_target,
    final_parity_measurement,
    run_protocol,
)
from nvswap.states import (
    DIM_TOTAL,
    BellLabel,
    JointState,
    ParameterError,
    StateValidationError,
    basis_index,
    make_initial_state,
)
from nvswap.sweep import RelayChainSpec, relay_chain

from util import (
    NO_SHRINK,
    NOT_NUMBERS,
    assert_results_close,
    assert_results_identical,
    reference_run,
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
        scan = _Scan(runs)
        prefixes = [scan.result(i) for i in range(len(runs))]
        assert [result.params for result in prefixes] == runs
        for params, prefix in zip(runs, prefixes):
            assert_results_identical(prefix, run_protocol(params))

    def test_single_run_pass_is_run_protocol(self):
        params = ProtocolParams("B", p_abs=0.4, rounds=8, p_loss=0.05, detector_eff=0.8)
        only = _Scan([params]).result(0)
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
