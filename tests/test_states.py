import numpy as np
import pytest

from nvswap.states import (
    DIM_TOTAL,
    SLOT_A1,
    EIGENVALUE_FLOOR,
    BellLabel,
    JointState,
    ParameterError,
    StateValidationError,
    basis_index,
    check_probability,
    make_initial_state,
    slot_columns,
)
from util import NOT_NUMBERS, random_joint_state


class TestBellLabel:
    def test_four_orthonormal_labels(self):
        assert [label.value for label in BellLabel] == [0, 1, 2, 3]

    def test_toggle_sign(self):
        assert BellLabel.PHI_PLUS.toggle_sign() is BellLabel.PHI_MINUS
        assert BellLabel.PSI_MINUS.toggle_sign() is BellLabel.PSI_PLUS

    def test_toggle_family(self):
        assert BellLabel.PHI_PLUS.toggle_family() is BellLabel.PSI_PLUS
        assert BellLabel.PSI_MINUS.toggle_family() is BellLabel.PHI_MINUS

    def test_compose_is_klein_group(self):
        # phi+ is the identity; every element is its own inverse
        for a in BellLabel:
            assert a.compose(BellLabel.PHI_PLUS) is a
            assert a.compose(a) is BellLabel.PHI_PLUS
        assert BellLabel.PHI_MINUS.compose(BellLabel.PSI_PLUS) is BellLabel.PSI_MINUS


class TestInitialState:
    def test_nonzero_entries(self):
        # equal superposition of the four pairings: each pair-13 label rides
        # with its opposite-family node2p Bell state
        state = make_initial_state()
        expected_indices = [
            basis_index(0, 2),
            basis_index(1, 3),
            basis_index(2, 0),
            basis_index(3, 1),
        ]
        assert expected_indices == [2, 11, 16, 25]
        for row in expected_indices:
            for col in expected_indices:
                assert state.matrix[row, col] == pytest.approx(0.25, abs=0.0)
        mask = np.zeros((DIM_TOTAL, DIM_TOTAL), dtype=bool)
        mask[np.ix_(expected_indices, expected_indices)] = True
        assert not state.matrix[~mask].any()

    def test_phi_minus_psi_minus_population(self):
        state = make_initial_state()
        idx = basis_index(BellLabel.PHI_MINUS, 3)
        assert state.matrix[idx, idx].real == pytest.approx(0.25, abs=0.0)

    def test_pure_unit_weight(self):
        state = make_initial_state()
        assert state.weight == 1.0
        assert np.trace(state.matrix).real == pytest.approx(1.0, abs=1e-15)
        purity = np.trace(state.matrix @ state.matrix).real
        assert purity == pytest.approx(1.0, abs=1e-14)

    def test_reduced_pair13_maximally_mixed(self):
        reduced = make_initial_state().reduced_pair13()
        assert np.abs(reduced - np.eye(4) / 4.0).max() <= 1e-15


class TestJointStateValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(StateValidationError):
            JointState(np.eye(4) / 4.0, 1.0)

    def test_rejects_non_hermitian(self, rng):
        matrix = np.asarray(make_initial_state().matrix).copy()
        matrix[0, 1] += 1e-6
        with pytest.raises(StateValidationError):
            JointState(matrix, 1.0)

    def test_rejects_bad_trace(self):
        with pytest.raises(StateValidationError):
            JointState(np.eye(DIM_TOTAL), 1.0)

    def test_rejects_negative_eigenvalue(self):
        matrix = np.zeros((DIM_TOTAL, DIM_TOTAL), dtype=complex)
        matrix[0, 0] = 1.5
        matrix[1, 1] = -0.5
        with pytest.raises(StateValidationError):
            JointState(matrix, 1.0)

    @staticmethod
    def rotated_state_matrix(rng, smallest: float) -> np.ndarray:
        """A dense unit-trace Hermitian matrix whose smallest eigenvalue is `smallest`."""
        g = rng.standard_normal((DIM_TOTAL, DIM_TOTAL)) + 1j * rng.standard_normal(
            (DIM_TOTAL, DIM_TOTAL)
        )
        unitary, _ = np.linalg.qr(g)
        spectrum = rng.uniform(0.5, 1.5, DIM_TOTAL)
        spectrum *= (1.0 - smallest) / spectrum[1:].sum()
        spectrum[0] = smallest
        matrix = unitary @ np.diag(spectrum) @ unitary.conj().T
        return (matrix + matrix.conj().T) / 2.0

    @pytest.mark.parametrize("smallest", [-2e-10, -1e-3, -0.5])
    def test_rotated_matrix_below_floor_rejected(self, rng, smallest):
        matrix = self.rotated_state_matrix(rng, smallest)
        assert np.linalg.eigvalsh(matrix)[0] < EIGENVALUE_FLOOR
        with pytest.raises(StateValidationError, match="negative eigenvalue"):
            JointState(matrix, 1.0)

    @pytest.mark.parametrize("smallest", [-0.5e-10, 0.0, 1e-3])
    def test_rotated_matrix_at_or_above_floor_accepted(self, rng, smallest):
        matrix = self.rotated_state_matrix(rng, smallest)
        assert np.linalg.eigvalsh(matrix)[0] >= EIGENVALUE_FLOOR
        JointState(matrix, 1.0)

    def test_rejects_negative_or_oversized_weight(self, rng):
        good = random_joint_state(rng).matrix
        with pytest.raises(StateValidationError):
            JointState(good, -0.1)
        with pytest.raises(StateValidationError):
            JointState(good, 1.1)

    def test_empty_branch_must_be_zero(self, rng):
        with pytest.raises(StateValidationError):
            JointState(random_joint_state(rng).matrix, 0.0)
        assert JointState.empty().is_empty

    def test_matrix_is_immutable(self):
        state = make_initial_state()
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 1.0

    def test_from_unnormalized_folds_trace(self, rng):
        base = random_joint_state(rng)
        state = JointState.from_unnormalized(0.3 * base.matrix, weight_scale=0.5)
        assert state.weight == pytest.approx(0.15, rel=1e-12)
        assert np.trace(state.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_from_unnormalized_dust_becomes_empty(self, rng):
        base = random_joint_state(rng)
        state = JointState.from_unnormalized(1e-16 * base.matrix)
        assert state.is_empty


class TestReductions:
    def test_reduced_pair13_matches_loop_oracle(self, rng):
        for _ in range(10):
            state = random_joint_state(rng)
            expected = np.zeros((4, 4), dtype=complex)
            for i in range(4):
                for k in range(4):
                    for j in range(8):
                        expected[i, k] += state.matrix[8 * i + j, 8 * k + j]
            assert np.abs(state.reduced_pair13() - expected).max() <= 1e-14

    def test_slot_populations(self):
        state = make_initial_state()
        pops = state.slot_populations()
        assert pops[:4] == pytest.approx([0.25, 0.25, 0.25, 0.25], abs=1e-15)
        assert pops[4:] == pytest.approx([0.0] * 4, abs=0.0)
        assert pops[:4].sum() == pytest.approx(1.0)
        assert pops[4:].sum() == 0.0
        assert state.a2_population() == 0.0
        assert pops[SLOT_A1] == 0.0


def test_basis_index_bounds():
    assert basis_index(3, 7) == 31
    with pytest.raises(ParameterError):
        basis_index(4, 0)
    with pytest.raises(ParameterError):
        basis_index(0, 8)


class TestCheckProbability:
    @pytest.mark.parametrize("value", NOT_NUMBERS)
    def test_text_and_bools_rejected(self, value):
        with pytest.raises(ParameterError, match=r"^p must be a probability in \[0, 1\], got"):
            check_probability("p", value)

    @pytest.mark.parametrize("value", [0, 1, 0.25, np.float32(0.5), np.int64(1)])
    def test_numbers_returned_as_floats(self, value):
        checked = check_probability("p", value)
        assert type(checked) is float and checked == value


@pytest.mark.parametrize(
    "value",
    [
        bytearray(b"0.5"),
        None,
        float("nan"),
        np.float64("nan"),
        0.5j,
        [0.5],
        pytest.param(10**400, id="huge_int"),
        pytest.param(-(10**400), id="-huge_int"),
    ],
)
def test_check_probability_rejects_other_non_numbers_and_nan(value):
    # a bytearray was converted to 0.5; None, complex and lists raised a bare
    # TypeError, and an int beyond the float range a bare OverflowError
    with pytest.raises(ParameterError, match=r"^p must be a probability in \[0, 1\], got"):
        check_probability("p", value)


@pytest.mark.parametrize("slots", [(3,), (SLOT_A1,), (0, 2), (2, 0), (4, 5, 6, 7)])
def test_slot_columns_are_pair_major_basis_indices(slots):
    columns = slot_columns(*slots)
    assert columns.dtype.kind == "i"
    assert columns.tolist() == [basis_index(i, j) for i in BellLabel for j in slots]
