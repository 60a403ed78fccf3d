import math

import numpy as np
import pytest

from nvswap import trajectories
from nvswap.channels import (
    ALL_SPINS,
    DEPHASING_TABLES,
    FLIP_TABLES,
    LOSS_KRAUS,
    PARITY_TABLE,
    FlipKind,
    SpinSite,
    absorption_channel,
    dephasing_channel,
    flip_channel,
    parity_terms,
    photon_loss_channel,
    photon_present_indices,
    qnd_povm,
    signed_permutation_matrix,
)
from nvswap.protocol import final_parity_measurement
from nvswap.states import (
    DIM_TOTAL,
    SLOT_A1,
    SLOT_A2,
    BellLabel,
    JointState,
    ParameterError,
    basis_index,
    make_initial_state,
    slot_columns,
)
from util import (
    BELL_COLUMNS,
    NOT_NUMBERS,
    PAULI_X,
    PAULI_Z,
    assert_states_close,
    random_joint_state,
    two_qubit_operator_in_bell_basis,
)


def table_as_unitary(perm: np.ndarray, sign: np.ndarray) -> np.ndarray:
    u = np.zeros((DIM_TOTAL, DIM_TOTAL))
    u[perm, np.arange(DIM_TOTAL)] = sign
    return u


def lift_2p_block(bell4: np.ndarray, gone4: np.ndarray) -> np.ndarray:
    """Embed a node2p operator (Bell block + photon-gone block) into 32 dims."""
    op8 = np.zeros((8, 8), dtype=bell4.dtype)
    op8[0:4, 0:4] = bell4
    op8[4:8, 4:8] = gone4
    return np.kron(np.eye(4), op8)


class TestFlipTablesAgainstProductBasisOracle:
    """The signed permutation tables must equal the photon operators
    conjugated into the Bell basis (spin first, photon second)."""

    def test_phase_flip_is_photon_sigma_z(self):
        expected4 = two_qubit_operator_in_bell_basis(np.kron(np.eye(2), PAULI_Z))
        expected = lift_2p_block(expected4, np.eye(4))
        actual = table_as_unitary(*FLIP_TABLES[FlipKind.PHASE])
        assert np.abs(actual - expected).max() <= 1e-15

    def test_polarisation_flip_is_photon_sigma_x(self):
        expected4 = two_qubit_operator_in_bell_basis(np.kron(np.eye(2), PAULI_X))
        expected = lift_2p_block(expected4, np.eye(4))
        actual = table_as_unitary(*FLIP_TABLES[FlipKind.POLARISATION])
        assert np.abs(actual - expected).max() <= 1e-15

    def test_both_is_phase_after_polarisation(self):
        expected4 = two_qubit_operator_in_bell_basis(np.kron(np.eye(2), PAULI_Z @ PAULI_X))
        expected = lift_2p_block(expected4, np.eye(4))
        actual = table_as_unitary(*FLIP_TABLES[FlipKind.BOTH])
        assert np.abs(actual - expected).max() <= 1e-15

    def test_signed_bell_mapping_is_pinned(self):
        # phase: phi+ <-> phi- (+), psi+ <-> psi- (-)
        perm, sign = FLIP_TABLES[FlipKind.PHASE]
        assert list(perm[:8]) == [1, 0, 3, 2, 4, 5, 6, 7]
        assert list(sign[:8]) == [1, 1, -1, -1, 1, 1, 1, 1]
        # polarisation: phi <-> psi at fixed sign, all +
        perm, sign = FLIP_TABLES[FlipKind.POLARISATION]
        assert list(perm[:8]) == [2, 3, 0, 1, 4, 5, 6, 7]
        assert list(sign[:8]) == [1, 1, 1, 1, 1, 1, 1, 1]
        # both: phi+ -> -psi-, phi- -> -psi+, psi+ -> phi-, psi- -> phi+
        perm, sign = FLIP_TABLES[FlipKind.BOTH]
        assert list(perm[:8]) == [3, 2, 1, 0, 4, 5, 6, 7]
        assert list(sign[:8]) == [-1, -1, 1, 1, 1, 1, 1, 1]


class TestFlipChannel:
    def test_none_is_identity(self):
        state = make_initial_state()
        assert flip_channel(state, FlipKind.NONE) is state

    def test_involution(self, rng):
        for kind in (FlipKind.PHASE, FlipKind.POLARISATION):
            state = random_joint_state(rng)
            twice = flip_channel(flip_channel(state, kind), kind)
            assert_states_close(twice, state, atol=1e-12)

    def test_both_twice_restores_sector_blocks(self, rng):
        # BOTH squared puts a relative phase between the photon-present and
        # photon-gone sectors, so it is an involution exactly on states with
        # no cross-sector coherence (which is all the protocol ever produces)
        raw = np.asarray(random_joint_state(rng).matrix).copy()
        present = photon_present_indices()
        gone = np.setdiff1d(np.arange(DIM_TOTAL), present)
        raw[np.ix_(present, gone)] = 0.0
        raw[np.ix_(gone, present)] = 0.0
        state = JointState(raw / raw.trace().real, 1.0)
        twice = flip_channel(flip_channel(state, FlipKind.BOTH), FlipKind.BOTH)
        assert_states_close(twice, state, atol=1e-12)

    def test_both_equals_composition(self, rng):
        state = random_joint_state(rng)
        composed = flip_channel(flip_channel(state, FlipKind.POLARISATION), FlipKind.PHASE)
        direct = flip_channel(state, FlipKind.BOTH)
        assert_states_close(composed, direct, atol=1e-12)

    def test_phase_repairs_psi_minus_with_phi_plus(self):
        # after a phase flip an ideal absorption would herald phi+ on pair 13
        flipped = flip_channel(make_initial_state(), FlipKind.PHASE)
        idx = basis_index(BellLabel.PHI_PLUS, 3)
        assert flipped.matrix[idx, idx].real == pytest.approx(0.25, abs=1e-15)

    def test_polarisation_repairs_psi_minus_with_psi_minus(self):
        flipped = flip_channel(make_initial_state(), FlipKind.POLARISATION)
        idx = basis_index(BellLabel.PSI_MINUS, 3)
        assert flipped.matrix[idx, idx].real == pytest.approx(0.25, abs=1e-15)

    def test_rejects_non_flipkind(self):
        with pytest.raises(TypeError):
            flip_channel(make_initial_state(), "phase")


class TestAbsorptionChannel:
    def test_full_absorption_from_initial_state(self):
        state = absorption_channel(make_initial_state(), p_abs=1.0, r_a1=0.0)
        assert state.a2_population() == pytest.approx(0.25, abs=1e-15)
        a2 = np.arange(4) * 8 + SLOT_A2
        block = state.matrix[np.ix_(a2, a2)]
        conditional = block / block.trace().real
        expected = np.zeros((4, 4))
        expected[BellLabel.PHI_MINUS, BellLabel.PHI_MINUS] = 1.0
        assert np.abs(conditional - expected).max() <= 1e-15

    def test_zero_probability_is_identity(self, rng):
        state = random_joint_state(rng)
        out = absorption_channel(state, p_abs=0.0, r_a1=0.0)
        assert np.array_equal(out.matrix, state.matrix)
        assert out.weight == state.weight

    def test_partial_absorption_populations(self):
        state = absorption_channel(make_initial_state(), p_abs=0.5, r_a1=1e-4)
        assert state.a2_population() == pytest.approx(0.125, rel=1e-12)
        assert state.slot_populations()[SLOT_A1] == pytest.approx(1.25e-5, rel=1e-12)

    def test_source_slot_is_drained(self):
        state = absorption_channel(make_initial_state(), p_abs=1.0, r_a1=0.0)
        assert state.slot_populations()[3] == pytest.approx(0.0, abs=1e-15)

    def test_preserves_validity_and_weight(self, rng):
        for _ in range(20):
            state = random_joint_state(rng, weight=0.7)
            out = absorption_channel(state, rng.uniform(), rng.uniform())
            assert out.weight == state.weight
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_probabilities(self):
        state = make_initial_state()
        with pytest.raises(ParameterError):
            absorption_channel(state, 1.5, 0.0)
        with pytest.raises(ParameterError):
            absorption_channel(state, 0.5, -0.1)


class TestQndPovm:
    def test_composite_click_probability(self):
        absorbed = absorption_channel(make_initial_state(), p_abs=1.0, r_a1=0.0)
        p_click, click, noclick = qnd_povm(absorbed, p_qnd=0.99, p_dark=2e-4)
        expected = 0.99 * 0.25 + 2e-4 * 0.75
        assert p_click == pytest.approx(expected, rel=1e-12)
        assert click.weight == pytest.approx(expected, rel=1e-12)
        assert click.a2_population() == pytest.approx(0.99 * 0.25 / expected, rel=1e-12)
        assert click.weight + noclick.weight == pytest.approx(1.0, abs=1e-15)

    def test_certain_a2_clicks_at_p_qnd(self):
        amps = np.zeros(DIM_TOTAL, dtype=complex)
        amps[basis_index(BellLabel.PHI_MINUS, SLOT_A2)] = 1.0
        state = JointState(np.outer(amps, amps.conj()), 1.0)
        p_click, click, _ = qnd_povm(state, p_qnd=0.99, p_dark=2e-4)
        assert p_click == pytest.approx(0.99, rel=1e-12)
        assert click.a2_population() == pytest.approx(1.0, abs=1e-15)

    def test_nothing_to_detect(self):
        state = make_initial_state()
        p_click, click, noclick = qnd_povm(state, p_qnd=0.99, p_dark=0.0)
        assert p_click == 0.0
        assert click.is_empty
        assert np.abs(noclick.matrix - state.matrix).max() <= 1e-15
        assert noclick.weight == pytest.approx(1.0, abs=1e-15)

    def test_missed_component_persists_in_noclick_branch(self):
        absorbed = absorption_channel(make_initial_state(), p_abs=1.0, r_a1=0.0)
        _, _, noclick = qnd_povm(absorbed, p_qnd=0.99, p_dark=2e-4)
        # the undetected A2 weight stays available for later rounds
        assert noclick.a2_population() * noclick.weight == pytest.approx(
            (1 - 0.99) * 0.25, rel=1e-12
        )

    def test_weight_conservation_random_states(self, rng):
        for _ in range(20):
            state = random_joint_state(rng, weight=rng.uniform(0.1, 1.0))
            p_qnd, p_dark = rng.uniform(), rng.uniform()
            _, click, noclick = qnd_povm(state, p_qnd, p_dark)
            assert click.weight + noclick.weight == pytest.approx(state.weight, abs=1e-12)


class TestPhotonLossChannel:
    def test_kraus_against_product_basis_oracle(self):
        # tracing out the photon = measuring it in the sigma+/- basis
        k_plus, k_minus, k_gone = LOSS_KRAUS
        project_plus = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
        project_minus = np.array([[0, 1.0, 0, 0], [0, 0, 0, 1.0]])
        assert np.abs(k_plus[6:8, 0:4] - project_plus @ BELL_COLUMNS).max() <= 1e-15
        assert np.abs(k_minus[6:8, 0:4] - project_minus @ BELL_COLUMNS).max() <= 1e-15
        total = k_plus.T @ k_plus + k_minus.T @ k_minus + k_gone.T @ k_gone
        assert np.abs(total - np.eye(DIM_TOTAL)).max() <= 1e-15

    def test_complete_loss_of_initial_state(self):
        lost = photon_loss_channel(make_initial_state(), p_loss=1.0)
        pops = lost.slot_populations()
        assert pops[:4].sum() == pytest.approx(0.0, abs=1e-15)
        assert pops[6] == pytest.approx(0.5, abs=1e-15)
        assert pops[7] == pytest.approx(0.5, abs=1e-15)
        assert np.abs(lost.reduced_pair13() - np.eye(4) / 4.0).max() <= 1e-15

    def test_zero_loss_is_identity(self, rng):
        state = random_joint_state(rng)
        out = photon_loss_channel(state, 0.0)
        assert_states_close(out, state, atol=1e-15)

    def test_partial_loss_population(self):
        out = photon_loss_channel(make_initial_state(), p_loss=0.066)
        assert out.slot_populations()[:4].sum() == pytest.approx(0.934, rel=1e-12)

    def test_commutes_with_flips(self, rng):
        for kind in (FlipKind.PHASE, FlipKind.POLARISATION, FlipKind.BOTH):
            state = random_joint_state(rng)
            p = rng.uniform()
            loss_then_flip = flip_channel(photon_loss_channel(state, p), kind)
            flip_then_loss = photon_loss_channel(flip_channel(state, kind), p)
            assert_states_close(loss_then_flip, flip_then_loss, atol=1e-12)


class TestDephasingChannel:
    def test_tables_against_product_basis_oracle(self):
        exchange_first = two_qubit_operator_in_bell_basis(np.kron(PAULI_X, np.eye(2)))
        exchange_second = two_qubit_operator_in_bell_basis(np.kron(np.eye(2), PAULI_X))
        expected_nv1 = np.kron(exchange_first, np.eye(8))
        expected_nv3 = np.kron(exchange_second, np.eye(8))
        gone_nv2 = np.diag([1.0, 1.0, 0.0, 0.0])
        gone_nv2[2, 3] = gone_nv2[3, 2] = 1.0  # bare spin swap, A2/A1 fixed
        expected_nv2 = lift_2p_block(exchange_first, gone_nv2)
        for site, expected in (
            (SpinSite.NV1, expected_nv1),
            (SpinSite.NV3, expected_nv3),
            (SpinSite.NV2, expected_nv2),
        ):
            actual = table_as_unitary(*DEPHASING_TABLES[site])
            assert np.abs(actual - expected).max() <= 1e-15, site

    def test_full_coherence_is_identity(self, rng):
        state = random_joint_state(rng)
        out = dephasing_channel(state, eta=1.0)
        assert np.array_equal(out.matrix, state.matrix)

    def test_complete_dephasing_of_nv1(self):
        # eta=0 mixes the state equally with its spin-exchanged image:
        # phi+ <-> psi+, phi- <-> -psi- on pair 13
        state = make_initial_state()
        amps = np.zeros(DIM_TOTAL, dtype=complex)
        signs = {0: (2, 1.0), 1: (3, -1.0), 2: (0, 1.0), 3: (1, -1.0)}
        for i in range(4):
            partner = [2, 3, 0, 1][i]
            dest, sign = signs[i]
            amps[basis_index(dest, partner)] = 0.5 * sign
        expected = 0.5 * state.matrix + 0.5 * np.outer(amps, amps.conj())
        out = dephasing_channel(state, eta=0.0, targets=(SpinSite.NV1,))
        assert np.abs(out.matrix - expected).max() <= 1e-15

    def test_semigroup_property(self, rng):
        state = random_joint_state(rng)
        eta1, eta2 = 0.7, 0.4
        twice = dephasing_channel(dephasing_channel(state, eta1), eta2)
        once = dephasing_channel(state, eta1 * eta2)
        assert_states_close(twice, once, atol=1e-12)

    def test_sites_commute(self, rng):
        state = random_joint_state(rng)
        order_a = dephasing_channel(
            dephasing_channel(state, 0.3, (SpinSite.NV1,)), 0.3, (SpinSite.NV3,)
        )
        order_b = dephasing_channel(
            dephasing_channel(state, 0.3, (SpinSite.NV3,)), 0.3, (SpinSite.NV1,)
        )
        assert_states_close(order_a, order_b, atol=1e-13)

    def test_a2_population_untouched(self):
        absorbed = absorption_channel(make_initial_state(), p_abs=1.0, r_a1=0.0)
        out = dephasing_channel(absorbed, eta=0.0, targets=ALL_SPINS)
        assert out.a2_population() == pytest.approx(0.25, abs=1e-14)


class TestChannelValiditySweep:
    def test_all_channels_preserve_invariants(self, rng):
        for _ in range(25):
            state = random_joint_state(rng, weight=rng.uniform(0.2, 1.0))
            outputs = [
                absorption_channel(state, rng.uniform(), rng.uniform()),
                photon_loss_channel(state, rng.uniform()),
                dephasing_channel(state, rng.uniform()),
                flip_channel(state, FlipKind.BOTH),
            ]
            _, click, noclick = qnd_povm(state, rng.uniform(), rng.uniform())
            outputs.extend(s for s in (click, noclick) if not s.is_empty)
            for out in outputs:
                matrix = out.matrix
                assert np.abs(matrix - matrix.conj().T).max() <= 1e-12
                assert np.linalg.eigvalsh(matrix)[0] >= -1e-10
                assert np.trace(matrix).real == pytest.approx(1.0, abs=1e-10)


def test_channels_pass_an_empty_branch_through():
    empty = JointState.empty()
    p_click, click, noclick = qnd_povm(empty, 0.99, 0.5)
    assert p_click == 0.0 and click.is_empty and noclick.is_empty
    for out in (
        absorption_channel(empty, 0.5, 0.5),
        photon_loss_channel(empty, 0.5),
        dephasing_channel(empty, 0.5),
        flip_channel(empty, FlipKind.BOTH),
    ):
        assert out is empty


def test_signed_permutation_matrix_conjugates_like_the_table(rng):
    state = random_joint_state(rng)
    perm, sign = FLIP_TABLES[FlipKind.BOTH]
    u = table_as_unitary(perm, sign)
    assert np.array_equal(signed_permutation_matrix(perm, sign), u)
    direct = flip_channel(state, FlipKind.BOTH).matrix
    assert np.abs(direct - u @ state.matrix @ u.conj().T).max() <= 1e-13


@pytest.mark.parametrize("value", NOT_NUMBERS)
def test_channels_reject_text_or_bool_probabilities(value):
    state = make_initial_state()
    calls = [
        lambda: absorption_channel(state, value, 0.0),
        lambda: absorption_channel(state, 0.5, value),
        lambda: qnd_povm(state, value, 0.0),
        lambda: qnd_povm(state, 0.99, value),
        lambda: photon_loss_channel(state, value),
        lambda: dephasing_channel(state, value),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="must be a probability"):
            call()


def diagonal_projector(columns: np.ndarray) -> np.ndarray:
    projector = np.zeros((DIM_TOTAL, DIM_TOTAL))
    projector[columns, columns] = 1.0
    return projector


class TestParityTerms:
    @pytest.mark.parametrize("observable", ["XX", "ZZ"])
    @pytest.mark.parametrize("detector_eff", [1.0, 0.8, 0.0])
    def test_outcomes_split_the_photon_present_sector(self, observable, detector_eff):
        (even,), (odd,) = parity_terms(observable, detector_eff)
        assert even[0] == odd[0] == detector_eff**2
        assert not (even[1] @ odd[1]).any()
        assert np.array_equal(even[1] + odd[1], diagonal_projector(photon_present_indices()))

    @pytest.mark.parametrize("observable", ["XX", "ZZ"])
    def test_projectors_are_the_table_slots_the_sampler_reads(self, observable):
        assert trajectories.PARITY_TABLE is PARITY_TABLE
        for (slots, _), (term,) in zip(PARITY_TABLE[observable], parity_terms(observable, 1.0)):
            assert np.array_equal(term[1], diagonal_projector(slot_columns(*slots)))
        # module constants, so that the engine finds their lift by id
        assert parity_terms(observable, 0.3)[1][0][1] is parity_terms(observable, 0.9)[1][0][1]

    def test_table_slots_and_targets(self):
        assert PARITY_TABLE == {
            "XX": (((0, 2), BellLabel.PSI_PLUS), ((1, 3), BellLabel.PSI_MINUS)),
            "ZZ": (((0, 1), BellLabel.PSI_PLUS), ((2, 3), BellLabel.PHI_PLUS)),
        }

    @pytest.mark.parametrize(
        "observable, detector_eff", [("YY", 1.0), ("XX", 1.5), ("ZZ", "1"), ("XX", math.nan)]
    )
    def test_rejects_bad_observable_or_efficiency_even_for_an_empty_state(
        self, observable, detector_eff
    ):
        with pytest.raises(ParameterError):
            parity_terms(observable, detector_eff)
        with pytest.raises(ParameterError):
            final_parity_measurement(JointState.empty(), observable, detector_eff)
