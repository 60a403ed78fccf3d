"""Command-line front end.

Every command reads a flat key=value config, computes its full output table
in memory, and only then writes it (one file write, so a failed run never
leaves a partial file).  Exit codes: 0 success, 2 bad configuration,
parameters or output path, 3 numerical invariant violation inside the engine.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analytics import (
    NoFeasibleRoundsError,
    false_negative_ratio,
    false_positive_ratio,
    optimize_rounds,
)
from .config import (
    COMMAND_KEYS,
    ConfigError,
    build_protocol_params,
    check_keys,
    get_bool,
    get_float,
    get_float_list,
    get_int,
    get_pairs,
    load_config,
    protocol_kwargs,
    resolve_approach,
)
from .protocol import DEFAULT_P_DARK, DEFAULT_P_QND, HeraldType, run_protocol
from .states import BellLabel, ParameterError, StateValidationError, check_seed
from .sweep import RelayChainSpec, relay_chain, sweep
from .trajectories import run_trajectories

FIDELITY_COLUMNS = (
    "fidelity_phi_plus",
    "fidelity_phi_minus",
    "fidelity_psi_plus",
    "fidelity_psi_minus",
)


def _fmt(value: float | int | str | None) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _csv(header: tuple[str, ...], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _objective_kwargs(options: dict[str, str]) -> dict:
    """The optimizer objective and fidelity floor the config sets."""
    kwargs: dict = {"min_fidelity": get_float(options, "min_fidelity", None)}
    if "objective" in options:
        kwargs["objective"] = options["objective"]
    return kwargs


def cmd_run(options: dict[str, str]) -> str:
    params = build_protocol_params(options)
    trajectories = get_int(options, "trajectories", None)
    seed = get_int(options, "seed", None)
    check_seed(seed)

    # the sampler checks its count before any work, so it runs first
    sampled = (
        run_trajectories(params, trajectories, seed) if trajectories is not None else None
    )
    result = run_protocol(params)

    header = ("round", "cumulative_success") + FIDELITY_COLUMNS
    if sampled is not None:
        header += ("mc_cumulative_success",)
    rows: list[tuple] = []
    # per round, the click heralds' running fidelity per target
    weight, diagonal = result._herald_sums(HeraldType.QND_CLICK)
    for r in range(1, params.rounds + 1):
        row: tuple = (r, result.cumulative_success[r - 1])
        row += tuple(
            diagonal[r - 1, label, 0] / weight[r - 1, label] if weight[r - 1, label] > 0 else None
            for label in BellLabel
        )
        if sampled is not None:
            row += (sampled.cumulative_success[r - 1],)
        rows.append(row)
    summary: tuple = ("total", result.total_success)
    summary += tuple(result.fidelity_per_target[label] for label in BellLabel)
    if sampled is not None:
        summary += (sampled.total_success,)
    rows.append(summary)
    return _csv(header, rows)


def cmd_bounds(options: dict[str, str]) -> str:
    pairs = get_pairs(options, "bounds_pairs")
    p_qnd = get_float(options, "p_qnd", DEFAULT_P_QND)
    p_dark = get_float(options, "p_dark", DEFAULT_P_DARK)
    rows = [
        (
            p_abs,
            rounds,
            false_negative_ratio(p_abs, p_qnd, rounds),
            false_positive_ratio(p_abs, p_dark, rounds),
        )
        for p_abs, rounds in pairs
    ]
    return _csv(("p_abs", "rounds", "fn_over_q_qnd", "fp_over_p_dark"), rows)


def cmd_sweep(options: dict[str, str]) -> str:
    approach = resolve_approach(options)
    grid = sweep(
        get_float_list(options, "p_abs_axis"),
        get_float_list(options, "p_loss_axis"),
        approach,
        rounds=get_int(options, "rounds", None),
        optimize_l=get_bool(options, "optimize_l", False),
        **_objective_kwargs(options),
        **protocol_kwargs(options),
    )
    header = ("p_abs", "p_loss", "approach", "rounds_used", "total_success") + FIDELITY_COLUMNS
    rows = [
        (
            cell.p_abs,
            cell.p_loss,
            approach,
            cell.rounds_used,
            cell.total_success,
        )
        + tuple(cell.fidelity_per_target[label] for label in BellLabel)
        for cell in grid.iter_cells()
    ]
    return _csv(header, rows)


def cmd_chain(options: dict[str, str]) -> str:
    hops = get_int(options, "hops")
    if hops < 1:
        raise ConfigError(f"key 'hops' must be at least 1, got {hops}")
    params = build_protocol_params(options)
    chain = relay_chain(RelayChainSpec.uniform(params, hops))
    rows = list(zip(range(1, hops + 1), chain.success_prefix, chain.fidelity_prefix))
    return _csv(("hops", "chain_success", "chain_fidelity"), rows)


def cmd_optimize(options: dict[str, str]) -> str:
    outcome = optimize_rounds(
        resolve_approach(options),
        get_float(options, "p_abs"),
        **_objective_kwargs(options),
        **protocol_kwargs(options),
    )
    header = ("rounds", "l_z", "l_x", "total_success") + FIDELITY_COLUMNS
    row = (
        outcome.rounds,
        outcome.l_z,
        outcome.l_x,
        outcome.result.total_success,
    ) + tuple(outcome.result.fidelity_per_target[label] for label in BellLabel)
    return _csv(header, [row])


_COMMANDS = {
    "run": cmd_run,
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
    "chain": cmd_chain,
    "optimize": cmd_optimize,
}

# flags that replace the config key of the same name, for each command that has the key
_FLAGS = {
    "approach": dict(choices=("A", "B"), help="override config approach"),
    "seed": dict(type=int, help="Monte-Carlo seed"),
    "trajectories": dict(type=int, help="sample count enabling the Monte-Carlo cross-check column"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvswap",
        description="Simulate the photon-recycling entanglement-swap protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "run": "one protocol run, per-round success and fidelity table",
        "bounds": "closed-form false-negative/false-positive bound table",
        "sweep": "protocol outputs over a p_abs x p_loss grid",
        "chain": "serial relay-chain success and fidelity per hop count",
        "optimize": "search the round count for the best protocol outcome",
    }
    for name, description in descriptions.items():
        cmd = sub.add_parser(name, help=description)
        cmd.add_argument("--config", required=True, help="path to key=value config")
        cmd.add_argument("--out", help="output CSV path (default: stdout)")
        for key, spec in _FLAGS.items():
            if key in COMMAND_KEYS[name]:
                cmd.add_argument(f"--{key}", **spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        options = load_config(args.config)
        check_keys(options, args.command)
        for key in _FLAGS:
            if getattr(args, key, None) is not None:
                options[key] = str(getattr(args, key))
        text = _COMMANDS[args.command](options)
    except (ConfigError, ParameterError, NoFeasibleRoundsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StateValidationError as exc:
        print(f"numerical invariant violation: {exc}", file=sys.stderr)
        return 3
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write output file {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
