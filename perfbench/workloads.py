"""Seeded inputs and operations of the four benchmark workloads.

Every workload is a closed loop with one client: the worker runs one
operation, waits for it, checks it and only then starts the next.  Inputs come
in "mixes", fixed-composition groups drawn from the workload seed; the worker
runs whole mixes, so every seed exercises the same mix of approaches and round
counts and only the continuous parameters move with the seed.  That keeps the
figures comparable across seeds.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import nvswap

import gate
from readme_examples import EXAMPLES, LIGHT_COMMANDS

# mc_sample: A at L=64 applies a flip every round to every live trajectory;
# B at L=16 flips rarely.  The trajectory count sets the sampler's array size.
MC_TRAJECTORIES = 20_000
MC_POINTS = (
    dict(approach="A", p_abs=0.2, rounds=64, p_loss=0.066),
    dict(approach="B", p_abs=0.5, rounds=16, p_loss=0.066),
)

# workload -> (unit of work counted by items_per_s, units per mix)
ITEMS = {
    "sweep_opt": ("cells", 8),
    "point_runs": ("runs", 80),
    "mc_sample": ("trajectories", len(MC_POINTS) * MC_TRAJECTORIES),
    "cli": ("passes", 1),
}
WORKLOADS = tuple(ITEMS)

# (approach, flip_observable) variants; approach B ignores the observable
VARIANTS = (("A", "XX"), ("A", "ZZ"), ("B", "XX"))
ALLOWED_ROUNDS = {"A": tuple(range(2, 65, 2)), "B": tuple(range(4, 65, 4))}

# sweep_opt draws from a region where every variant has a feasible round count
SWEEP_P_ABS = (0.4, 0.95)
SWEEP_P_LOSS = (0.0, 0.12)
POINT_P_ABS = (0.05, 0.95)
POINT_P_LOSS = (0.0, 0.2)


@dataclass
class Op:
    """One closed-loop operation.

    `call` does the timed work; `check` runs untimed afterwards and returns
    (problems, summary), where summary holds the library numbers that the
    recorded reference pins.  `latency` marks operations whose time enters the
    op_p50_ms / op_p90_ms percentiles; `span` names the traced root span.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], Any]]
    latency: bool = True
    span: str = "op"


class Workload:
    """Seeded stream of mixes for one workload."""

    def __init__(self, name: str, seed: int, scratch: Path | None = None) -> None:
        self.name = name
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.scratch = scratch
        self.item_unit, self.items_per_mix = ITEMS[name]
        self._exact: dict = {}
        self._launcher: subprocess.Popen | None = None
        self.child_peak_kib = 0
        # the calibration loop that drifts like this workload's work: the
        # sampler's large arrays drift with the memory system, and cli time is
        # mostly interpreter start-up (see calibration.py)
        self.calibration = {"mc_sample": "large", "cli": "startup"}.get(name, "small")
        if name == "cli":
            for command, (config, _) in EXAMPLES.items():
                (scratch / f"{command}.cfg").write_text(config)

    def next_mix(self, in_process: bool = False) -> list[Op]:
        """The next mix; `in_process` runs cli commands through nvswap.cli.main."""
        return getattr(self, f"_mix_{self.name}")(in_process)

    def open(self) -> None:
        """Start the process that launches cli subprocesses (see launcher.py)."""
        if self.name == "cli":
            self._launcher = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("launcher.py"))],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )

    def close(self) -> None:
        if self._launcher is not None:
            self._launcher.stdin.close()
            self._launcher.wait()
            self._launcher.stdout.close()
            self._launcher = None

    # --- sweep_opt: optimised sweeps over seeded grids, one per variant

    def _mix_sweep_opt(self, in_process: bool) -> list[Op]:
        ops = []
        for approach, observable in VARIANTS:
            # B scans half as many candidates as A, so its grid has twice the
            # cells and every operation costs about the same
            n_loss = 2 if approach == "B" else 1
            abs_axis = tuple(sorted(self.rng.uniform(*SWEEP_P_ABS, size=2).tolist()))
            loss_axis = tuple(sorted(self.rng.uniform(*SWEEP_P_LOSS, size=n_loss).tolist()))
            ops.append(self._sweep_op(approach, observable, abs_axis, loss_axis))
        return ops

    def _sweep_op(self, approach, observable, abs_axis, loss_axis) -> Op:
        def call():
            return nvswap.sweep(
                abs_axis, loss_axis, approach, optimize_l=True, flip_observable=observable
            )

        def check(grid):
            problems, summary = [], []
            for cell in grid.iter_cells():
                if cell.rounds_used not in ALLOWED_ROUNDS[approach]:
                    problems.append(f"rounds_used {cell.rounds_used} not allowed")
                    continue
                direct = nvswap.run_protocol(
                    nvswap.ProtocolParams(
                        approach,
                        p_abs=cell.p_abs,
                        rounds=cell.rounds_used,
                        p_loss=cell.p_loss,
                        flip_observable=observable,
                    )
                )
                problems += gate.cell_problems(cell, direct)
                summary.append([cell.rounds_used, *gate.protocol_summary(direct)])
            if len(summary) != len(abs_axis) * len(loss_axis):
                problems.append(f"grid has {len(summary)} cells")
            return problems, summary

        return Op(f"sweep {approach}-{observable}", call, check)

    # --- point_runs: every (variant, allowed L) once per mix, shuffled

    def _mix_point_runs(self, in_process: bool) -> list[Op]:
        points = [
            (approach, observable, rounds)
            for approach, observable in VARIANTS
            for rounds in ALLOWED_ROUNDS[approach]
        ]
        order = self.rng.permutation(len(points))
        p_abs = self.rng.uniform(*POINT_P_ABS, size=len(points))
        p_loss = self.rng.uniform(*POINT_P_LOSS, size=len(points))
        return [
            self._point_op(*points[k], float(p_abs[i]), float(p_loss[i]))
            for i, k in enumerate(order)
        ]

    def _point_op(self, approach, observable, rounds, p_abs, p_loss) -> Op:
        def call():
            params = nvswap.ProtocolParams(
                approach, p_abs=p_abs, rounds=rounds, p_loss=p_loss, flip_observable=observable
            )
            return nvswap.run_protocol(params)

        def check(result):
            return gate.protocol_problems(result), gate.protocol_summary(result)

        return Op(f"run {approach}-{observable} L={rounds}", call, check)

    # --- mc_sample: one A64 and one B16 sample per operation

    def _mix_mc_sample(self, in_process: bool) -> list[Op]:
        seeds = self.rng.integers(0, 2**63, size=len(MC_POINTS)).tolist()

        def call():
            return [
                nvswap.run_trajectories(nvswap.ProtocolParams(**point), MC_TRAJECTORIES, seed)
                for point, seed in zip(MC_POINTS, seeds)
            ]

        def check(samples):
            problems, summary = [], []
            for k, sampled in enumerate(samples):
                if k not in self._exact:
                    self._exact[k] = nvswap.run_protocol(nvswap.ProtocolParams(**MC_POINTS[k]))
                exact = self._exact[k]
                problems += gate.protocol_problems(exact)
                problems += gate.sampled_problems(sampled, exact)
                summary.append(gate.protocol_summary(exact))
            return problems, summary

        return [Op("trajectories A64+B16", call, check)]

    # --- cli: one pass over the five README examples, in seeded order

    def _mix_cli(self, in_process: bool) -> list[Op]:
        commands = list(EXAMPLES)
        order = self.rng.permutation(len(commands))
        make = self._cli_in_process_op if in_process else self._cli_subprocess_op
        return [make(commands[k]) for k in order]

    def _cli_argv(self, command: str) -> list[str]:
        return [command, "--config", str(self.scratch / f"{command}.cfg")]

    def _cli_subprocess_op(self, command: str) -> Op:
        argv = [sys.executable, "-m", "nvswap", *self._cli_argv(command)]

        def call():
            self._launcher.stdin.write(json.dumps(argv) + "\n")
            self._launcher.stdin.flush()
            stdout, returncode, peak_kib = json.loads(self._launcher.stdout.readline())
            self.child_peak_kib = max(self.child_peak_kib, peak_kib)
            return stdout, returncode

        def check(output):
            return gate.cli_problems(output[0], EXAMPLES[command][1], output[1]), None

        return Op(command, call, check, latency=command in LIGHT_COMMANDS)

    def _cli_in_process_op(self, command: str) -> Op:
        import nvswap.cli

        def call():
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = nvswap.cli.main(self._cli_argv(command))
            return buffer.getvalue(), code

        def check(output):
            return gate.cli_problems(output[0], EXAMPLES[command][1], output[1]), None

        return Op(command, call, check, command in LIGHT_COMMANDS, f"cli.{command}")

