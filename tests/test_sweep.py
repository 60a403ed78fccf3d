import numpy as np
import pytest

from nvswap import protocol
from nvswap.analytics import (
    OBJECTIVE_CONSTRAINED,
    OBJECTIVE_WEIGHTED,
    NoFeasibleRoundsError,
    _candidate_schedules,
    optimize_rounds,
)
from nvswap.protocol import ProtocolParams, build_schedule, run_protocol
from nvswap.states import ParameterError
from nvswap.sweep import (
    RelayChainSpec,
    compose_bell_diagonals,
    relay_chain,
    sweep,
)
from util import BELL_COLUMNS, BEYOND_INDEX_RANGE, HUGE_COUNTS, NOT_NUMBERS


def ideal_b_params(rounds: int = 4) -> ProtocolParams:
    return ProtocolParams(
        "B",
        p_abs=1.0,
        rounds=rounds,
        r_a1=0.0,
        p_qnd=1.0,
        p_dark=0.0,
        p_loss=0.0,
        tau_cycle=0.0,
    )


def brute_force_swap_diagonal(d1: np.ndarray, d2: np.ndarray, outcome: int) -> tuple[float, np.ndarray]:
    """Explicit 16-dim two-pair swap: project the middle qubits onto a Bell
    outcome and return (probability, Bell-diagonal of the outer pair)."""
    rho1 = (BELL_COLUMNS * d1) @ BELL_COLUMNS.conj().T
    rho2 = (BELL_COLUMNS * d2) @ BELL_COLUMNS.conj().T
    rho = np.kron(rho1, rho2).reshape([2] * 8)
    bm = BELL_COLUMNS[:, outcome].reshape(2, 2)
    post = np.einsum("bc,abcdefgh,fg->adeh", bm.conj(), rho, bm).reshape(4, 4)
    prob = float(np.trace(post).real)
    conditional = post / prob
    in_bell = BELL_COLUMNS.conj().T @ conditional @ BELL_COLUMNS
    return prob, np.real(np.diag(in_bell))


class TestBellDiagonalComposition:
    def test_matches_explicit_swap_up_to_heralded_correction(self, rng):
        for _ in range(5):
            d1 = rng.dirichlet(np.ones(4))
            d2 = rng.dirichlet(np.ones(4))
            expected = compose_bell_diagonals(d1, d2)
            shifts = []
            for outcome in range(4):
                prob, diag = brute_force_swap_diagonal(d1, d2, outcome)
                assert prob == pytest.approx(0.25, abs=1e-12)
                matches = [
                    s
                    for s in range(4)
                    if np.allclose(diag[np.arange(4) ^ s], expected, atol=1e-12)
                ]
                assert len(matches) >= 1
                shifts.append(matches[0])
            # the four outcomes require four distinct Pauli-frame corrections
            assert sorted(shifts) == [0, 1, 2, 3]

    def test_identity_element(self, rng):
        d = rng.dirichlet(np.ones(4))
        identity = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(compose_bell_diagonals(identity, d), d, atol=1e-15)
        assert np.allclose(compose_bell_diagonals(d, identity), d, atol=1e-15)

    def test_commutative_and_associative(self, rng):
        a, b, c = (rng.dirichlet(np.ones(4)) for _ in range(3))
        assert np.allclose(
            compose_bell_diagonals(a, b), compose_bell_diagonals(b, a), atol=1e-15
        )
        assert np.allclose(
            compose_bell_diagonals(a, compose_bell_diagonals(b, c)),
            compose_bell_diagonals(compose_bell_diagonals(a, b), c),
            atol=1e-15,
        )

    def test_rejects_bad_shapes(self):
        with pytest.raises(ParameterError):
            compose_bell_diagonals(np.ones(3), np.ones(4) / 4)


class TestRelayChain:
    def test_ideal_hops_compose_perfectly(self):
        result = relay_chain(RelayChainSpec.uniform(ideal_b_params(), 3))
        assert result.chain_success == pytest.approx(1.0, abs=1e-10)
        assert result.chain_fidelity_estimate == pytest.approx(1.0, abs=1e-10)
        assert len(result.hop_results) == 3

    def test_success_is_multiplicative(self):
        params = ProtocolParams("B", p_abs=0.5, rounds=8, p_loss=0.066)
        single = relay_chain(RelayChainSpec.uniform(params, 1))
        triple = relay_chain(RelayChainSpec.uniform(params, 3))
        assert triple.chain_success == pytest.approx(
            single.chain_success**3, rel=1e-12
        )

    def test_single_hop_reduces_to_protocol_outputs(self):
        params = ProtocolParams("B", p_abs=0.5, rounds=16, p_loss=0.066)
        direct = run_protocol(params)
        result = relay_chain(RelayChainSpec(hops=(params,)))
        assert result.chain_success == pytest.approx(direct.total_success, rel=1e-14)
        assert result.chain_fidelity_estimate == pytest.approx(
            direct.pooled_fidelity(), rel=1e-14
        )
        assert np.allclose(result.chain_diagonal, direct.bell_diagonal, atol=1e-15)

    def test_success_strictly_decreasing_in_hops(self):
        params = ProtocolParams("B", p_abs=0.5, rounds=8, p_loss=0.066)
        successes = [
            relay_chain(RelayChainSpec.uniform(params, n)).chain_success
            for n in range(1, 5)
        ]
        assert all(b < a for a, b in zip(successes, successes[1:]))

    def test_chain_diagonal_normalized(self):
        params = ProtocolParams("B", p_abs=0.5, rounds=8, p_loss=0.066)
        result = relay_chain(RelayChainSpec.uniform(params, 4))
        assert result.chain_diagonal.sum() == pytest.approx(1.0, abs=1e-10)

    def test_mixed_hop_parameters(self):
        hop_a = ProtocolParams("A", p_abs=0.7, rounds=6, p_loss=0.066)
        hop_b = ProtocolParams("B", p_abs=0.5, rounds=8, p_loss=0.066)
        result = relay_chain(RelayChainSpec(hops=(hop_a, hop_b)))
        expected = run_protocol(hop_a).total_success * run_protocol(hop_b).total_success
        assert result.chain_success == pytest.approx(expected, rel=1e-12)

    def test_empty_chain_rejected(self):
        with pytest.raises(ParameterError):
            RelayChainSpec(hops=())
        with pytest.raises(ParameterError):
            RelayChainSpec.uniform(ideal_b_params(), 0)

    @pytest.mark.parametrize("n_hops", [2.5, True, 2.0, "2", -1])
    def test_uniform_rejects_non_count_hops(self, n_hops):
        with pytest.raises(ParameterError, match="n_hops"):
            RelayChainSpec.uniform(ideal_b_params(), n_hops)

    @pytest.mark.parametrize("n_hops", HUGE_COUNTS)
    def test_uniform_rejects_hops_beyond_the_index_range(self, n_hops):
        with pytest.raises(ParameterError, match=f"^n_hops {BEYOND_INDEX_RANGE}"):
            RelayChainSpec.uniform(ideal_b_params(), n_hops)

    def test_rejects_a_hop_that_is_not_protocol_params(self):
        with pytest.raises(ParameterError, match="ProtocolParams"):
            RelayChainSpec(hops=(ideal_b_params(), "B"))

    def test_uniform_accepts_integral_hops(self):
        assert len(RelayChainSpec.uniform(ideal_b_params(), np.int64(2)).hops) == 2

    def test_prefixes_compose_hop_by_hop(self):
        hop_a = ProtocolParams("A", p_abs=0.7, rounds=6, p_loss=0.066)
        hop_b = ProtocolParams("B", p_abs=0.5, rounds=8, p_loss=0.066)
        result = relay_chain(RelayChainSpec(hops=(hop_a, hop_b, hop_a)))
        success, diagonal = 1.0, None
        for n, hop in enumerate((hop_a, hop_b, hop_a)):
            direct = run_protocol(hop)
            success *= direct.total_success
            diagonal = (
                direct.bell_diagonal
                if diagonal is None
                else compose_bell_diagonals(diagonal, direct.bell_diagonal)
            )
            assert result.success_prefix[n] == success
            assert result.fidelity_prefix[n] == float(diagonal[0])
        assert result.chain_success == result.success_prefix[-1]
        assert result.chain_fidelity_estimate == result.fidelity_prefix[-1]
        assert np.array_equal(result.chain_diagonal, diagonal)

    def test_fidelity_prefix_ends_at_first_heraldless_hop(self):
        heralded = ProtocolParams("B", p_abs=0.5, rounds=8, p_loss=0.066)
        silent = ProtocolParams("B", p_abs=0.0, rounds=8, p_dark=0.0)
        result = relay_chain(RelayChainSpec(hops=(heralded, silent, heralded)))
        assert result.fidelity_prefix[0] == run_protocol(heralded).pooled_fidelity()
        assert result.fidelity_prefix[1:] == (None, None)
        assert result.chain_fidelity_estimate is None and result.chain_diagonal is None
        assert result.success_prefix == (result.success_prefix[0], 0.0, 0.0)


class TestSweep:
    @pytest.mark.parametrize("optimize_l", [True, False])
    @pytest.mark.parametrize("min_fidelity", [float("nan"), -0.1, 1.5])
    def test_invalid_min_fidelity_rejected(self, optimize_l, min_fidelity):
        rounds = None if optimize_l else 8
        with pytest.raises(ParameterError, match="min_fidelity"):
            sweep(
                [0.5], [0.066], "B", rounds=rounds, optimize_l=optimize_l,
                min_fidelity=min_fidelity,
            )

    @pytest.mark.parametrize("optimize_l", [True, False])
    def test_invalid_objective_rejected(self, optimize_l):
        # a fixed-L sweep once ignored the objective and returned a grid
        rounds = None if optimize_l else 8
        with pytest.raises(ParameterError, match="objective"):
            sweep([0.5], [0.066], "B", rounds=rounds, optimize_l=optimize_l, objective="bogus")

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    def test_text_or_bool_values_rejected(self, value):
        with pytest.raises(ParameterError, match="^p_abs_axis must be a probability"):
            sweep([value], [0.05], "B", rounds=8)
        with pytest.raises(ParameterError, match="^p_loss_axis must be a probability"):
            sweep([0.5], [value], "B", rounds=8)
        with pytest.raises(ParameterError, match="^min_fidelity must be a probability"):
            sweep([0.5], [0.05], "B", rounds=8, min_fidelity=value)

    def test_axis_validation(self):
        with pytest.raises(ParameterError):
            sweep([], [0.05], "B", rounds=8)
        with pytest.raises(ParameterError):
            sweep([0.5, 0.5], [0.05], "B", rounds=8)
        with pytest.raises(ParameterError):
            sweep([0.9, 0.5], [0.05], "B", rounds=8)
        with pytest.raises(ParameterError):
            sweep([0.5, 1.5], [0.05], "B", rounds=8)
        with pytest.raises(ParameterError):
            sweep([0.5], [0.05], "B")
        with pytest.raises(ParameterError):
            sweep([0.5], [0.05], "B", rounds=8, optimize_l=True)

    def test_fixed_rounds_grid_shape_and_monotonicity(self):
        grid = sweep([0.3, 0.5, 0.7], [0.0, 0.066, 0.2], "B", rounds=8)
        assert len(grid.cells) == 3 and len(grid.cells[0]) == 3
        for i, p_abs in enumerate(grid.p_abs_axis):
            row = [grid.cell(i, j).total_success for j in range(3)]
            assert all(b < a for a, b in zip(row, row[1:]))
        for j in range(3):
            column = grid.success_cross_section(j)
            assert all(b > a for a, b in zip(column, column[1:]))

    def test_cells_record_their_coordinates(self):
        grid = sweep([0.5], [0.066], "A", rounds=10)
        cell = grid.cell(0, 0)
        assert cell.p_abs == 0.5 and cell.p_loss == 0.066
        assert cell.rounds_used == 10
        assert cell.l_z is None and cell.l_x is None

    def test_optimized_cell_matches_direct_optimization(self):
        grid = sweep([0.9], [0.066], "B", optimize_l=True)
        outcome = optimize_rounds("B", 0.9, p_loss=0.066)
        cell = grid.cell(0, 0)
        assert cell.rounds_used == outcome.rounds == 8
        assert cell.l_z == outcome.l_z and cell.l_x == outcome.l_x
        assert cell.total_success == pytest.approx(
            outcome.result.total_success, rel=1e-14
        )

    def test_optimizer_adapts_rounds_across_absorption_axis(self):
        grid = sweep([0.5, 0.9], [0.066], "B", optimize_l=True)
        used = grid.rounds_cross_section(0)
        assert used[0] != used[1]


# every approach and observable has a feasible round count on this grid; its
# 30 cells are two chunks of an optimised approach-A sweep and three of B
CHUNK_P_ABS = (0.45, 0.54, 0.63, 0.72, 0.81, 0.9)
CHUNK_P_LOSS = (0.0, 0.02, 0.04, 0.06, 0.08)
IDEAL = dict(r_a1=0.0, p_qnd=1.0, p_dark=0.0, tau_cycle=0.0)


@pytest.fixture(params=[None, 40], ids=["default_bound", "small_bound"])
def chunk_bound(request, monkeypatch):
    """The default chunk bound, and one that gives chunks of a few cells and
    windows of a few rounds."""
    if request.param is not None:
        monkeypatch.setattr(protocol, "_CHUNK_STATES", request.param)
    return protocol._CHUNK_STATES


def assert_cell_is(cell, rounds: int, result) -> None:
    assert cell.rounds_used == rounds == result.params.rounds
    assert (cell.l_z, cell.l_x) == (result.params.l_z, result.params.l_x)
    assert cell.total_success == result.total_success
    assert cell.fidelity_per_target == result.fidelity_per_target


class TestChunkScan:
    """The cells of a sweep share engine passes, a chunk at a time, and each
    equals a separate optimize_rounds or run_protocol call under ==."""

    @pytest.mark.parametrize("approach,observable", [("A", "XX"), ("A", "ZZ"), ("B", "XX")])
    @pytest.mark.parametrize("objective", [OBJECTIVE_CONSTRAINED, OBJECTIVE_WEIGHTED])
    def test_optimized_cells_equal_optimize_rounds(
        self, chunk_bound, approach, observable, objective
    ):
        kwargs = dict(flip_observable=observable, detector_eff=0.9)
        cell = ProtocolParams(approach, p_abs=0.5, rounds=4, **kwargs)
        chunk = protocol._chunk_size(_candidate_schedules(cell))
        assert chunk < len(CHUNK_P_ABS) * len(CHUNK_P_LOSS)
        grid = sweep(
            CHUNK_P_ABS, CHUNK_P_LOSS, approach, optimize_l=True, objective=objective, **kwargs
        )
        for i, p_abs in enumerate(CHUNK_P_ABS):
            for j, p_loss in enumerate(CHUNK_P_LOSS):
                outcome = optimize_rounds(
                    approach, p_abs, objective=objective, p_loss=p_loss, **kwargs
                )
                assert_cell_is(grid.cell(i, j), outcome.rounds, outcome.result)

    @pytest.mark.parametrize("approach,rounds", [("A", 12), ("B", 16)])
    def test_fixed_rounds_cells_equal_run_protocol(self, chunk_bound, approach, rounds):
        grid = sweep(CHUNK_P_ABS, CHUNK_P_LOSS, approach, rounds=rounds, p_dark=1e-3)
        for i, p_abs in enumerate(CHUNK_P_ABS):
            for j, p_loss in enumerate(CHUNK_P_LOSS):
                params = ProtocolParams(approach, p_abs, rounds, p_loss=p_loss, p_dark=1e-3)
                assert_cell_is(grid.cell(i, j), rounds, run_protocol(params))

    @pytest.mark.parametrize("approach", ["A", "B"])
    def test_floored_cells_equal_optimize_rounds(self, chunk_bound, approach):
        # ideal cells at p_abs = 1 empty their columns at the branch floor
        # mid-run, in some window of rounds
        grid = sweep((0.5, 1.0), (0.0, 0.05), approach, optimize_l=True, **IDEAL)
        for i, p_abs in enumerate(grid.p_abs_axis):
            for j, p_loss in enumerate(grid.p_loss_axis):
                outcome = optimize_rounds(approach, p_abs, p_loss=p_loss, **IDEAL)
                assert_cell_is(grid.cell(i, j), outcome.rounds, outcome.result)

    def test_infeasible_cell_raises_as_optimize_rounds(self, chunk_bound):
        # (0.2, 0.1) has a feasible round count, (0.2, 0.3) none
        with pytest.raises(NoFeasibleRoundsError) as direct:
            optimize_rounds("B", 0.2, p_loss=0.3)
        with pytest.raises(NoFeasibleRoundsError) as swept:
            sweep([0.2, 0.5], [0.1, 0.3], "B", optimize_l=True)
        assert str(swept.value) == str(direct.value)

    @pytest.mark.parametrize(
        "axes,approach,kwargs",
        [
            ((np.linspace(0.4, 0.95, 12), (0.0, 0.05, 0.1)), "B", dict(optimize_l=True)),
            ((np.linspace(0.4, 0.95, 40), np.linspace(0.0, 0.1, 15)), "A", dict(rounds=8)),
            # so short a run that its readouts and final states alone would
            # allow 940 cells, whose two-round windows hold 1,880 states
            ((np.linspace(0.4, 0.95, 40), np.linspace(0.0, 0.1, 15)), "A", dict(rounds=2)),
        ],
        ids=["optimized_b", "fixed_a", "fixed_a_two_rounds"],
    )
    def test_chunks_stay_within_the_chunk_bound(self, monkeypatch, axes, approach, kwargs):
        states_held, chunks = [], []
        advance, compile_maps = protocol._advance, protocol._compile

        def counting(round_map, states):
            # the states advanced, or the window of rounds they are a view of
            held = states if states.base is None else states.base
            states_held.append(held[..., 0, 0].size)
            return advance(round_map, states)

        def chunk(cells, codes):
            chunks.append(len(cells))
            return compile_maps(cells, codes)

        monkeypatch.setattr(protocol, "_advance", counting)
        monkeypatch.setattr(protocol, "_compile", chunk)
        sweep(*axes, approach, **kwargs)
        cell = ProtocolParams(approach, p_abs=0.5, rounds=kwargs.get("rounds", 4))
        fixed = "rounds" in kwargs
        size = protocol._chunk_size([build_schedule(cell)] if fixed else _candidate_schedules(cell))
        cells = len(axes[0]) * len(axes[1])
        assert 1 < size < cells
        assert chunks == [size] * (cells // size) + [cells % size] * (cells % size > 0)
        assert 0 < max(states_held) <= protocol._CHUNK_STATES
