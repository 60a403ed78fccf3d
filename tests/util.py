"""Shared helpers for the test suite."""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import Phase

from nvswap.channels import (
    ALL_SPINS,
    PARITY_TABLE,
    FlipKind,
    Terms,
    absorption_channel,
    absorption_terms,
    dephasing_channel,
    dephasing_terms,
    flip_channel,
    flip_terms,
    kraus_sum,
    loss_terms,
    parity_terms,
    photon_loss_channel,
    qnd_povm,
    qnd_terms,
)
from nvswap.protocol import (
    HeraldRecord,
    HeraldType,
    ProtocolParams,
    ProtocolResult,
    _resolve_schedule,
    epoch_target,
    final_parity_measurement,
)
from nvswap.states import DIM_2P, DIM_PAIR13, DIM_TOTAL, BellLabel, JointState, make_initial_state

# Bell change-of-basis matrix: columns are phi+, phi-, psi+, psi- expressed in
# the product basis |00>, |01>, |10>, |11> (first factor = spin with +1 -> 0,
# second factor = photon with sigma+ -> 0, or a second spin).  Used to build
# independent two-qubit operator oracles for the signed permutation tables.
_S = 1.0 / np.sqrt(2.0)
BELL_COLUMNS = np.array(
    [
        [_S, _S, 0.0, 0.0],
        [0.0, 0.0, _S, _S],
        [0.0, 0.0, _S, -_S],
        [_S, -_S, 0.0, 0.0],
    ]
)

# hypothesis phases without shrinking, for engine property tests: an example
# is slow (many runs, or the JointState oracle), so a failing one would shrink
# for minutes before it is reported
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)

# values float() would turn into a probability, which every check rejects
NOT_NUMBERS = ("0.5", b"0.5", True, np.bool_(False))

# counts beyond the index range, which raised a bare OverflowError where they
# reached numpy or a sequence length (smaller large counts would allocate)
HUGE_COUNTS = (
    pytest.param(sys.maxsize + 1, id="maxsize+1"),
    pytest.param(10**400, id="10**400"),
)
# the start of their rejection message, as a pattern
BEYOND_INDEX_RANGE = r"must be an integer in \[1, sys\.maxsize\]"

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def two_qubit_operator_in_bell_basis(op4: np.ndarray) -> np.ndarray:
    """Rewrite a two-qubit operator from the product basis to the Bell basis."""
    return BELL_COLUMNS.conj().T @ op4 @ BELL_COLUMNS


def random_joint_state(rng: np.random.Generator, weight: float = 1.0) -> JointState:
    """A random full-rank valid state (Wishart construction)."""
    g = rng.standard_normal((DIM_TOTAL, DIM_TOTAL)) + 1j * rng.standard_normal(
        (DIM_TOTAL, DIM_TOTAL)
    )
    matrix = g @ g.conj().T
    return JointState(matrix / matrix.trace().real, weight)


def random_pure_state(rng: np.random.Generator, weight: float = 1.0) -> JointState:
    amps = rng.standard_normal(DIM_TOTAL) + 1j * rng.standard_normal(DIM_TOTAL)
    amps /= np.linalg.norm(amps)
    return JointState(np.outer(amps, amps.conj()), weight)


def assert_states_close(a: JointState, b: JointState, atol: float = 1e-12) -> None:
    assert abs(a.weight - b.weight) <= atol, f"weights differ: {a.weight} vs {b.weight}"
    assert np.abs(a.matrix - b.matrix).max() <= atol


def assert_results_identical(a: ProtocolResult, b: ProtocolResult) -> None:
    """Every ProtocolResult field and every HeraldRecord field equal with ==,
    conditional matrices entry by entry."""
    for field in dataclasses.fields(ProtocolResult):
        if field.name != "herald_log":
            assert getattr(a, field.name) == getattr(b, field.name), field.name
    assert len(a.herald_log) == len(b.herald_log)
    for x, y in zip(a.herald_log, b.herald_log):
        for field in dataclasses.fields(x):
            got, want = getattr(x, field.name), getattr(y, field.name)
            if field.name == "conditional_13":
                assert np.array_equal(got, want), field.name
            else:
                assert got == want, field.name


def assert_results_close(a: ProtocolResult, b: ProtocolResult, atol: float = 1e-12) -> None:
    """Every ProtocolResult field within atol (None where the other is None);
    herald logs equal in length, round, flips, type and target, their
    numbers within atol."""

    def close(got, want, name):
        if got is None or want is None:
            assert got is want, name
        else:
            assert np.abs(np.asarray(got) - np.asarray(want)).max(initial=0.0) <= atol, name

    assert a.params == b.params
    for field in dataclasses.fields(ProtocolResult):
        name = field.name
        if name in ("params", "herald_log"):
            continue
        got, want = getattr(a, name), getattr(b, name)
        if isinstance(got, dict):
            assert got.keys() == want.keys(), name
            for key in got:
                close(got[key], want[key], f"{name}[{key.name}]")
        else:
            assert len(np.atleast_1d(got)) == len(np.atleast_1d(want)), name
            close(got, want, name)
    assert len(a.herald_log) == len(b.herald_log)
    for x, y in zip(a.herald_log, b.herald_log):
        assert (x.round, x.flips_applied, x.herald_type, x.target) == (
            y.round,
            y.flips_applied,
            y.herald_type,
            y.target,
        )
        for name in ("weight", "conditional_13", "fidelity", "false_weight"):
            close(getattr(x, name), getattr(y, name), name)


def per_target(
    heralds: list[HeraldRecord],
) -> tuple[dict[BellLabel, float | None], dict[BellLabel, float]]:
    """Per announced target: the weight-averaged herald fidelity (None without
    heralds) and the total herald weight, summed record by record."""
    success = {label: 0.0 for label in BellLabel}
    weighted = {label: 0.0 for label in BellLabel}
    for record in heralds:
        success[record.target] += record.weight
        weighted[record.target] += record.weight * record.fidelity
    fidelity = {
        label: weighted[label] / success[label] if success[label] > 0.0 else None
        for label in BellLabel
    }
    return fidelity, success


def reference_run(
    params: ProtocolParams, schedule: tuple[FlipKind, ...] | None = None
) -> ProtocolResult:
    """One run evolved branch by branch through the JointState channel layer:
    the readable form of `run_protocol`, used as its oracle."""
    schedule = _resolve_schedule(params, schedule)
    eta = params.eta_per_cycle
    state = make_initial_state()
    n_phase = n_pol = 0
    heralds: list[HeraldRecord] = []
    cumulative: list[float] = []
    clicks_so_far = 0.0
    for r, kind in enumerate(schedule, start=1):
        state = absorption_channel(state, params.p_abs, params.r_a1)
        pre_click_a2 = state.a2_population() if not state.is_empty else 0.0
        pre_click_weight = state.weight
        _, click, noclick = qnd_povm(state, params.p_qnd, params.p_dark)
        if not click.is_empty:
            target = epoch_target((n_phase, n_pol))
            conditional = click.reduced_pair13()
            heralds.append(
                HeraldRecord(
                    round=r,
                    flips_applied=(n_phase, n_pol),
                    herald_type=HeraldType.QND_CLICK,
                    weight=click.weight,
                    conditional_13=conditional,
                    target=target,
                    fidelity=float(np.real(conditional[target.value, target.value])),
                    false_weight=params.p_dark * (1.0 - pre_click_a2) * pre_click_weight,
                )
            )
            clicks_so_far += click.weight
        cumulative.append(clicks_so_far)
        state = photon_loss_channel(noclick, params.p_loss)
        state = dephasing_channel(state, eta)
        state = flip_channel(state, kind)
        n_phase += kind in (FlipKind.PHASE, FlipKind.BOTH)
        n_pol += kind in (FlipKind.POLARISATION, FlipKind.BOTH)

    false_negative = state.a2_population() * state.weight if not state.is_empty else 0.0
    parity_success = failure = residual = 0.0
    if params.approach == "A":
        parity = final_parity_measurement(
            state,
            params.flip_observable,
            params.detector_eff,
            round_index=params.rounds,
            flips_applied=(n_phase, n_pol),
        )
        heralds.extend(parity)
        parity_success = sum(record.weight for record in parity)
        failure = state.weight - parity_success
    else:
        residual = state.weight
    fidelity_per_target, success_per_target = per_target(heralds)
    return ProtocolResult(
        params=params,
        cumulative_success=tuple(cumulative),
        herald_log=tuple(heralds),
        total_success=clicks_so_far + parity_success,
        parity_success=parity_success,
        failure_weight=failure,
        residual_weight=residual,
        false_negative_weight=false_negative,
        false_positive_weight=sum(record.false_weight for record in heralds),
        fidelity_per_target=fidelity_per_target,
        success_per_target=success_per_target,
    )


def every_channel_terms() -> list[Terms]:
    """The weighted Kraus terms of every channel, parity outcomes included, at
    generic parameters (every operator appears with a nonzero weight)."""
    click, noclick = qnd_terms(0.3, 0.2)
    terms = [*absorption_terms(0.4, 0.3), click, noclick, loss_terms(0.25)]
    terms += [dephasing_terms(0.6, site) for site in ALL_SPINS]
    terms += [flip_terms(kind) for kind in FlipKind]
    return terms + [outcome for obs in PARITY_TABLE for outcome in parity_terms(obs, 0.7)]


def support_superoperator(terms: Terms, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The superoperator of weighted Kraus terms on the support entries
    (rows[i], cols[i]): column j is channels.kraus_sum applied to the j-th
    basis matrix, read back on the support.  Independent of the engine's lift;
    asserts that nothing lands off the support."""
    out = np.zeros((len(rows), len(rows)))
    on = np.zeros((DIM_TOTAL, DIM_TOTAL), dtype=bool)
    on[rows, cols] = True
    for j, (r, c) in enumerate(zip(rows, cols)):
        basis = np.zeros((DIM_TOTAL, DIM_TOTAL))
        basis[r, c] = 1.0
        image = kraus_sum(basis, terms)
        assert not image[~on].any(), "a channel leaves the support"
        out[:, j] = image[rows, cols]
    return out


def spec_maps(params: ProtocolParams, kind: FlipKind, rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """One round on the support, as products of stage superoperators built
    straight from channels.kraus_sum: the herald map (the click branch's
    reduced pair-13 block, its weight and its dark-click weight, read off the
    round's input) and the no-click round map with the given flip."""

    def stage(terms: Terms) -> np.ndarray:
        return support_superoperator(terms, rows, cols)

    absorb, leak = absorption_terms(params.p_abs, params.r_a1)
    absorbed = stage(leak) @ stage(absorb)
    click, noclick = qnd_terms(params.p_qnd, params.p_dark)
    dark, _ = qnd_terms(0.0, params.p_dark)
    # the partial trace over node2p and the trace, entry by entry
    reduced = np.zeros((DIM_PAIR13 * DIM_PAIR13, len(rows)))
    for j, (r, c) in enumerate(zip(rows, cols)):
        basis = np.zeros((DIM_TOTAL, DIM_TOTAL))
        basis[r, c] = 1.0
        tensor = basis.reshape(DIM_PAIR13, DIM_2P, DIM_PAIR13, DIM_2P)
        reduced[:, j] = np.einsum("ikjk->ij", tensor).ravel()
    trace = (rows == cols).astype(float)[None]
    clicked = stage(click) @ absorbed
    herald = np.vstack([reduced @ clicked, trace @ clicked, trace @ stage(dark) @ absorbed])
    round_map = stage(noclick) @ absorbed
    round_map = stage(loss_terms(params.p_loss)) @ round_map
    for site in ALL_SPINS:
        round_map = stage(dephasing_terms(params.eta_per_cycle, site)) @ round_map
    return herald, stage(flip_terms(kind)) @ round_map


def scatter_blocks(support, maps: np.ndarray) -> np.ndarray:
    """A (blocks, width, width) stack of block maps as the square map on the
    support entries, asserting that every padding entry is zero."""
    block, position = np.divmod(support.slot, support.width)
    same = block[:, None] == block[None, :]
    i, j = np.nonzero(same)
    kept = np.zeros(maps.shape, dtype=bool)
    kept[block[i], position[i], position[j]] = True
    assert not maps[~kept].any(), "a block map has an entry off its block"
    return np.where(same, maps[block[:, None], position[:, None], position[None, :]], 0.0)
