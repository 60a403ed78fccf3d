import dataclasses

import numpy as np
import pytest

from nvswap.channels import ALL_SPINS, DEPHASING_TABLES, FLIP_TABLES, FlipKind
from nvswap.protocol import HeraldType, ProtocolParams, run_protocol
from nvswap.states import DIM_TOTAL, BellLabel, ParameterError
from nvswap.trajectories import _apply_table, _Frame, run_trajectories
from util import BEYOND_INDEX_RANGE, HUGE_COUNTS


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


class TestIdealSampling:
    def test_ideal_b_heralds_every_trajectory(self):
        result = run_trajectories(ideal_params("B", 4), 500, seed=3)
        assert result.total_success == 1.0
        assert result.total_success_se == 0.0
        assert result.residual_fraction == 0.0
        assert result.pooled_fidelity == 1.0
        assert result.pooled_fidelity_se == 0.0
        for label in BellLabel:
            assert result.fidelity_per_target[label] == 1.0
        assert result.herald_counts[HeraldType.QND_CLICK] == 500
        assert result.false_positive_fraction == 0.0
        assert result.false_negative_estimate == 0.0

    def test_ideal_a_converts_survivors(self):
        result = run_trajectories(ideal_params("A", 2), 500, seed=5)
        assert result.total_success == 1.0
        assert result.failure_fraction == 0.0
        assert result.pooled_fidelity == 1.0
        parity = (
            result.herald_counts[HeraldType.PARITY_EVEN]
            + result.herald_counts[HeraldType.PARITY_ODD]
        )
        assert parity == 500 - result.herald_counts[HeraldType.QND_CLICK]
        assert result.parity_success == pytest.approx(parity / 500)

    def test_a_target_with_one_herald_has_zero_se(self):
        result = run_trajectories(ideal_params("B", 4), 1, seed=3)
        (label,) = [label for label in BellLabel if result.success_per_target[label] > 0.0]
        assert result.fidelity_per_target[label] == 1.0
        assert result.fidelity_se_per_target[label] == 0.0
        assert result.pooled_fidelity_se == 0.0

    def test_undetected_parity_stage_heralds_nothing(self):
        result = run_trajectories(ideal_params("A", 2, p_abs=0.3, detector_eff=0.0), 500, seed=7)
        assert result.herald_counts[HeraldType.PARITY_EVEN] == 0
        assert result.herald_counts[HeraldType.PARITY_ODD] == 0
        assert result.parity_success == 0.0
        assert result.failure_fraction + result.total_success == pytest.approx(1.0, abs=1e-12)
        assert result.failure_fraction > 0.0

    def test_dark_clicks_sample_quarter_fidelity(self):
        params = ProtocolParams(
            "B",
            p_abs=0.0,
            rounds=8,
            r_a1=0.0,
            p_qnd=0.99,
            p_dark=0.05,
            p_loss=0.0,
            tau_cycle=0.0,
        )
        result = run_trajectories(params, 2000, seed=11)
        assert result.total_success > 0.2
        assert result.false_positive_fraction == result.total_success
        assert result.pooled_fidelity == pytest.approx(0.25, abs=1e-12)
        assert result.pooled_fidelity_se == pytest.approx(0.0, abs=1e-12)


class TestAccounting:
    def test_fractions_partition_unity_approach_a(self):
        params = ProtocolParams("A", p_abs=0.5, rounds=6, p_loss=0.1, detector_eff=0.8)
        result = run_trajectories(params, 4000, seed=17)
        total = result.total_success + result.failure_fraction + result.residual_fraction
        assert total == pytest.approx(1.0, abs=1e-12)
        assert result.residual_fraction == 0.0
        assert result.failure_fraction > 0.0

    def test_fractions_partition_unity_approach_b(self):
        params = ProtocolParams("B", p_abs=0.3, rounds=8, p_loss=0.1)
        result = run_trajectories(params, 4000, seed=19)
        total = result.total_success + result.residual_fraction
        assert total == pytest.approx(1.0, abs=1e-12)
        assert result.failure_fraction == 0.0

    def test_per_target_success_sums_to_total(self):
        params = ProtocolParams("B", p_abs=0.5, rounds=16, p_loss=0.066)
        result = run_trajectories(params, 4000, seed=23)
        assert sum(result.success_per_target.values()) == pytest.approx(
            result.total_success, abs=1e-12
        )
        assert result.cumulative_success[-1] == pytest.approx(
            result.total_success, abs=1e-12
        )


class TestAgreementWithDensityEngine:
    def test_approach_a_statistics(self):
        params = ProtocolParams("A", p_abs=0.5, rounds=10, p_loss=0.066)
        exact = run_protocol(params)
        sampled = run_trajectories(params, 20_000, seed=29)
        assert abs(sampled.total_success - exact.total_success) < 4 * max(
            sampled.total_success_se, 1e-4
        )
        for label in BellLabel:
            se = max(sampled.fidelity_se_per_target[label], 1e-4)
            assert abs(
                sampled.fidelity_per_target[label] - exact.fidelity_per_target[label]
            ) < 4 * se

    def test_approach_b_statistics(self):
        params = ProtocolParams("B", p_abs=0.3, rounds=24, p_loss=0.066)
        exact = run_protocol(params)
        sampled = run_trajectories(params, 20_000, seed=31)
        assert abs(sampled.total_success - exact.total_success) < 4 * max(
            sampled.total_success_se, 1e-4
        )
        se = max(sampled.pooled_fidelity_se, 1e-4)
        assert abs(sampled.pooled_fidelity - exact.pooled_fidelity()) < 4 * se

    def test_cumulative_curve_tracks_density_engine(self):
        params = ProtocolParams("B", p_abs=0.5, rounds=16, p_loss=0.066)
        exact = run_protocol(params)
        sampled = run_trajectories(params, 20_000, seed=37)
        for mc, det in zip(sampled.cumulative_success, exact.cumulative_success):
            assert abs(mc - det) < 0.015


class TestDeterminism:
    def test_same_seed_reproduces_everything(self):
        params = ProtocolParams("A", p_abs=0.5, rounds=10, p_loss=0.066)
        a = run_trajectories(params, 3000, seed=41)
        b = run_trajectories(params, 3000, seed=41)
        for field in dataclasses.fields(a):
            assert getattr(a, field.name) == getattr(b, field.name), field.name

    def test_different_seeds_differ(self):
        params = ProtocolParams("B", p_abs=0.5, rounds=16, p_loss=0.066)
        a = run_trajectories(params, 3000, seed=43)
        b = run_trajectories(params, 3000, seed=44)
        assert a.total_success != b.total_success


class TestValidation:
    def test_rejects_bad_trajectory_count(self):
        with pytest.raises(ParameterError):
            run_trajectories(ideal_params("B", 4), 0, seed=1)

    @pytest.mark.parametrize("count", [2.5, 2.0, True, "10", -3])
    def test_rejects_non_integral_or_bool_count(self, count):
        with pytest.raises(ParameterError):
            run_trajectories(ideal_params("B", 4), count, seed=1)

    @pytest.mark.parametrize("count", HUGE_COUNTS)
    def test_rejects_a_count_beyond_the_index_range(self, count):
        with pytest.raises(ParameterError, match=f"^n_trajectories {BEYOND_INDEX_RANGE}"):
            run_trajectories(ideal_params("B", 4), count, seed=1)

    def test_accepts_integral_count(self):
        a = run_trajectories(ideal_params("B", 4), np.int64(50), seed=1)
        b = run_trajectories(ideal_params("B", 4), 50, seed=1)
        assert type(a.n_trajectories) is int
        assert a == b

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "7"])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            run_trajectories(ideal_params("B", 4), 10, seed=seed)

    def test_accepts_integral_seed(self):
        a = run_trajectories(ideal_params("B", 4), 50, seed=np.int64(3))
        assert a == run_trajectories(ideal_params("B", 4), 50, seed=3)
        assert run_trajectories(ideal_params("B", 4), 50, seed=0).n_trajectories == 50

    def test_rejects_bad_schedule(self):
        params = ideal_params("B", 4)
        with pytest.raises(ParameterError):
            run_trajectories(params, 10, seed=1, schedule=(FlipKind.NONE,) * 3)
        with pytest.raises(ParameterError):
            run_trajectories(params, 10, seed=1, schedule=("phase",) * 4)

    def test_schedule_override_is_used(self):
        params = ideal_params("B", 4)
        result = run_trajectories(params, 200, seed=2, schedule=(FlipKind.NONE,) * 4)
        assert result.total_success == pytest.approx(
            result.cumulative_success[0], abs=1e-12
        )
        assert 0.15 < result.total_success < 0.35


P, Z, BOTH, NONE = FlipKind.PHASE, FlipKind.POLARISATION, FlipKind.BOTH, FlipKind.NONE

# Output of fixed (params, seed) runs, recorded before the sampler moved to real
# amplitudes and a flip frame (the last two before it skipped rows no event
# can change).  Counts are exact; a change to how the sampler
# draws from its generator, or to any branch decision, shows up here.  Fidelity
# tuples are (phi+, phi-, psi+, psi-, pooled).
PINNED_RUNS = [
    pytest.param(
        dict(approach="A", p_abs=0.2, rounds=64, p_loss=0.066),
        None,
        101,
        [160, 153, 118, 98, 71, 69, 58, 36, 28, 24, 19, 24, 22, 14, 14, 11,
         7, 5, 7, 2, 6, 5, 3, 4, 0, 5, 2, 2, 1, 0, 2, 1,
         1, 3, 0, 1, 3, 0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1,
         0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 2, 0, 0],
        (989, 9, 8),
        28,
        (0.965337643678161, 0.9661904761904762, 1.0, 1.0, 0.9663684559310802),
        0.0,
        id="A-XX-L64",
    ),
    pytest.param(
        # tau_cycle = 20 us: dephasing kicks fire every round, half of them
        # after an odd number of polarisation flips
        dict(approach="A", p_abs=0.3, rounds=20, p_loss=0.05, tau_cycle=20e-6,
             flip_observable="ZZ", detector_eff=0.9),
        None,
        102,
        [227, 250, 146, 138, 89, 89, 51, 46, 37, 29, 22, 22, 21, 17, 11, 6,
         5, 4, 4, 4],
        (1218, 215, 239),
        13,
        (0.5543933054393305, 0.8268080478520936, 0.5162790697674419,
         0.8382920110192836, 0.7520933014354066),
        0.0,
        id="A-ZZ-kicks",
    ),
    pytest.param(
        dict(approach="B", p_abs=0.5, rounds=16, r_a1=0.05, p_dark=0.01, p_loss=0.066,
             tau_cycle=10e-6),
        None,
        103,
        [374, 212, 103, 77, 259, 153, 78, 40, 207, 104, 57, 32, 103, 69, 33, 28],
        (1929, 0, 0),
        283,
        (0.8006289308176101, 0.8646649260226282, 0.7839771101573676, 0.811875,
         0.8263780888197685),
        0.0003333333333333333,
        id="B-leak-dark",
    ),
    pytest.param(
        dict(approach="A", p_abs=0.25, rounds=8, p_loss=0.1, tau_cycle=20e-6),
        (P, Z, BOTH, NONE, BOTH, P, Z, Z),
        104,
        [194, 178, 153, 96, 67, 72, 97, 33],
        (890, 428, 344),
        2,
        (0.9452247191011236, 0.8700854700854702, 0.6194486983154671,
         0.645124716553288, 0.7199659045326915),
        0.0,
        id="A-mixed-schedule",
    ),
    pytest.param(
        # p_qnd = 0.3: QND misses carry A2 amplitude across rounds and leave it
        # on board at the end
        dict(approach="A", p_abs=0.6, rounds=6, p_qnd=0.3, p_loss=0.05),
        None,
        104,
        [141, 210, 199, 195, 154, 148],
        (1047, 619, 576),
        3,
        (0.5443037974683544, 0.6511470985155196, 0.9466882067851373,
         0.9401041666666666, 0.7806274159976212),
        0.085,
        id="A-qnd-misses",
    ),
    pytest.param(
        # heavy loss and dark counts: most live rows have lost their photon
        # when they dark-click or get kicked
        dict(approach="B", p_abs=0.3, rounds=32, p_loss=0.3, p_dark=0.05, tau_cycle=20e-6),
        None,
        105,
        [372, 213, 147, 121, 118, 108, 82, 105, 100, 66, 91, 72, 85, 68, 57, 62,
         63, 65, 50, 43, 43, 40, 42, 33, 36, 34, 37, 34, 20, 27, 28, 23],
        (2485, 0, 0),
        2067,
        (0.30490848585690516, 0.4046208530805687, 0.2918410041841004,
         0.22691292875989447, 0.3425553319919517),
        0.0,
        id="B-photon-less-clicks",
    ),
]


class TestPinnedStream:
    N = 3000

    @pytest.mark.parametrize(
        "overrides, schedule, seed, clicks, counts, false_clicks, fidelities, false_negative",
        PINNED_RUNS,
    )
    def test_same_seed_gives_the_recorded_run(
        self, overrides, schedule, seed, clicks, counts, false_clicks, fidelities, false_negative
    ):
        n = self.N
        result = run_trajectories(ProtocolParams(**overrides), n, seed, schedule=schedule)
        herald_counts = tuple(result.herald_counts[kind] for kind in HeraldType)
        assert herald_counts == counts
        assert result.cumulative_success == tuple(np.cumsum(clicks) / n)
        assert result.total_success == sum(counts) / n
        assert result.parity_success == (counts[1] + counts[2]) / n
        assert result.false_positive_fraction == false_clicks / n
        sampled = tuple(result.fidelity_per_target[label] for label in BellLabel)
        sampled += (result.pooled_fidelity,)
        assert sampled == pytest.approx(fidelities, abs=1e-12)
        assert result.false_negative_estimate == pytest.approx(false_negative, abs=1e-12)


class TestFlipFrame:
    def test_frame_tracks_flips_applied_to_the_data(self):
        rng = np.random.default_rng(61)
        stored = rng.standard_normal((6, DIM_TOTAL))
        rows = np.arange(len(stored))
        true = stored.copy()
        frame = _Frame()
        for kind in (P, Z, Z, BOTH, P, BOTH, BOTH, Z, P):
            _apply_table(true, rows, FLIP_TABLES[kind])
            frame.compose(FLIP_TABLES[kind])
            assert np.array_equal(frame.to_true(stored), true)
            assert np.array_equal(frame.from_true(true), stored)
            for site in ALL_SPINS:
                kicked_true = true.copy()
                _apply_table(kicked_true, rows, DEPHASING_TABLES[site])
                kicked = stored.copy()
                _apply_table(kicked, rows, frame.conjugate(DEPHASING_TABLES[site]))
                assert np.array_equal(frame.to_true(kicked), kicked_true)
