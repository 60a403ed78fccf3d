"""Self-tests of the benchmark: tracer counts, the correctness gate, and the
agreement between BENCHMARK.json, the README and the benchmark code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import nvswap  # noqa: E402
from nvswap import FlipKind, ProtocolParams, build_schedule, run_protocol  # noqa: E402

import calibration  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from readme_examples import EXAMPLES  # noqa: E402
from worker import Tally  # noqa: E402


def _traced(calls) -> dict[str, float]:
    spans = tracer.Tracer()
    spans.install()
    try:
        for call in calls:
            call()
    finally:
        spans.uninstall()
    return spans.layer_metrics()


def _counts(metrics: dict[str, float]) -> dict[str, float]:
    return {
        name: value
        for name, value in metrics.items()
        if tracer.layer_unit(name) in ("count", "ratio")
    }


def test_traced_counts_repeat_for_the_same_seed(monkeypatch):
    monkeypatch.setattr(workloads, "MC_TRAJECTORIES", 2_000)

    def ops():
        points = workloads.Workload("point_runs", 7).next_mix()[:10]
        sweep_b = workloads.Workload("sweep_opt", 7).next_mix()[2]
        sample = workloads.Workload("mc_sample", 7).next_mix()[0]
        return [op.call for op in (*points, sweep_b, sample)]

    first = _counts(_traced(ops()))
    second = _counts(_traced(ops()))
    assert first == second
    assert first["protocol.run_protocol.calls"] > 10
    assert first["analytics.candidates_scanned"] == 4 * 16
    assert first["trajectories.sampled"] == 4_000


def test_tracer_restores_nvswap():
    originals = (nvswap.run_protocol, nvswap.protocol.absorption_channel, nvswap.sweep)
    _traced([])
    assert (nvswap.run_protocol, nvswap.protocol.absorption_channel, nvswap.sweep) == originals


@pytest.mark.parametrize(
    "params",
    [
        ProtocolParams("A", p_abs=0.4, rounds=10, p_loss=0.05),
        ProtocolParams("A", p_abs=0.4, rounds=6, p_loss=0.05, flip_observable="ZZ"),
        ProtocolParams("B", p_abs=0.6, rounds=16, p_loss=0.05),
    ],
)
def test_channel_calls_per_run(params):
    metrics = _traced([lambda: nvswap.run_protocol(params)])
    for channel in ("absorption", "qnd_povm", "photon_loss", "dephasing"):
        assert metrics[f"channels.{channel}.calls"] == params.rounds
    flips = sum(kind is not FlipKind.NONE for kind in build_schedule(params))
    assert metrics["channels.flip.calls"] == flips
    assert metrics["protocol.final_parity.calls"] == (1 if params.approach == "A" else 0)
    assert metrics["protocol.run_protocol.calls"] == 1
    assert metrics["protocol.rounds_evolved"] == params.rounds


def _op(result, check):
    return workloads.Op("perturbed", lambda: result, lambda out: (check(out), None))


def test_gate_counts_perturbed_results_as_failures():
    result = run_protocol(ProtocolParams("B", p_abs=0.5, rounds=16, p_loss=0.066))
    tally = Tally()
    tally.run(_op(result, gate.protocol_problems))
    assert (tally.attempted, tally.failed) == (1, 0)

    heavier = dataclasses.replace(result, total_success=result.total_success + 1e-9)
    fidelities = dict(result.fidelity_per_target)
    fidelities[next(iter(fidelities))] = 1.0 + 1e-9
    too_faithful = dataclasses.replace(result, fidelity_per_target=fidelities)
    for bad in (heavier, too_faithful):
        tally.run(_op(bad, gate.protocol_problems))
    assert (tally.attempted, tally.failed) == (3, 2)

    summary = gate.protocol_summary(result)
    assert gate.reference_problems(summary, summary) == []
    nudged = [summary[0] + 1e-11, *summary[1:]]
    assert gate.reference_problems(nudged, summary)


def test_gate_rejects_a_biased_sample():
    params = ProtocolParams("B", p_abs=0.5, rounds=16, p_loss=0.066)
    exact = run_protocol(params)
    sampled = nvswap.run_trajectories(params, 20_000, seed=3)
    assert gate.sampled_problems(sampled, exact) == []
    shift = 2 * gate.sampling_limit(exact.total_success, sampled.n_trajectories)
    biased = dataclasses.replace(sampled, total_success=sampled.total_success + shift)
    assert gate.sampled_problems(biased, exact)


def test_gate_compares_cli_rows_byte_for_byte():
    expected = EXAMPLES["run"][1]
    full = expected.replace("...\n", "".join(f"{r},x\n" for r in range(3, 16)))
    assert gate.cli_problems(full, expected) == []
    assert gate.cli_problems(full.replace("0.619619", "0.61962"), expected)
    assert gate.cli_problems(full, expected, returncode=2)
    assert gate.cli_problems(expected.replace("...\n", ""), expected)
    bounds = EXAMPLES["bounds"][1]
    assert gate.cli_problems(bounds, bounds) == []
    assert gate.cli_problems(bounds + "\n", bounds)


def test_readme_examples_are_the_readme_ones():
    readme = (ROOT / "README.md").read_text()
    for command, (config, printed) in EXAMPLES.items():
        assert f"```\n{printed}```" in readme, command
        block = re.search(rf"```\n# {command}\.cfg\n(.*?)```", readme, re.S).group(1)
        assert nvswap.parse_config_text(block) == nvswap.parse_config_text(config), command


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, tracer.layer_unit(name)) for name in tracer.layer_metric_names()
    ]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    assert f"z<={gate.Z_LIMIT:g}" in why["mc_sample"]


def test_calibration_follows_the_operation_time():
    calibrator = calibration.Calibrator()
    calibrator.after(0.0)
    assert len(calibrator.times) == 1
    calibrator.after(0.2)
    assert sum(calibrator.times[1:]) >= calibration.SHARE * 0.2
    assert calibrator.scale() == pytest.approx(
        calibration.REFERENCE_S["small"]
        * len(calibrator.times)
        / sum(calibrator.times)
    )


def test_cli_children_run_through_the_launcher(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    workload = workloads.Workload("cli", 1, tmp_path)
    workload.open()
    try:
        ops = {op.name: op for op in workload.next_mix()}
        problems, _ = ops["bounds"].check(ops["bounds"].call())
    finally:
        launcher = workload._launcher
        workload.close()
    assert problems == []
    assert workload.child_peak_kib > 0
    assert launcher.poll() is not None
