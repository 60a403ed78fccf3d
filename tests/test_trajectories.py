import dataclasses

import numpy as np
import pytest

from nvswap.channels import FlipKind
from nvswap.protocol import HeraldType, ProtocolParams, run_protocol
from nvswap.states import BellLabel, ParameterError
from nvswap.trajectories import run_trajectories


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

    def test_accepts_integral_count(self):
        a = run_trajectories(ideal_params("B", 4), np.int64(50), seed=1)
        b = run_trajectories(ideal_params("B", 4), 50, seed=1)
        assert type(a.n_trajectories) is int
        assert a == b

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
