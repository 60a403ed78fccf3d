"""nvswap benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of sweep_opt, point_runs, mc_sample, cli, or `all` to run each in
turn.  With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric from a
separate traced run.  The lines before it repeat the metrics by name with unit
and sample count, under the names the workload's documentation uses, plus the
environment record.  See perfbench/README.md for the workloads, the metrics
and which layer metric should move which end-to-end metric.

The script uses the standard library only.  Each measurement runs in a fresh
worker process (worker.py) with BLAS pinned to one thread; nvswap is imported
from ./src of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from envinfo import machine
from tracer import layer_metric_names, layer_unit

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".perfbench"
WORKLOADS = ("sweep_opt", "point_runs", "mc_sample", "cli")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
BLAS_THREADS = "1"

# name, unit; every workload reports every one of them
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("items_per_s", "1/s"),
)
# the names the workloads' documentation uses for the generic metrics
ALIASES = {
    "sweep_opt": {"cells_per_s": "items_per_s"},
    "point_runs": {"run_p50_ms": "op_p50_ms", "run_p90_ms": "op_p90_ms"},
    "mc_sample": {"traj_per_s": "items_per_s"},
    "cli": {"cli_p50_ms": "op_p50_ms", "cli_p90_ms": "op_p90_ms"},
}


class BenchError(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def run_worker(args, deadline: float, *extra: str) -> dict:
    """Run worker.py to completion in its own process group and parse its JSON."""
    argv = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", str(SCRATCH),
        *extra,
    ]
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err}")
    return json.loads(out.splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(args, deadline: float) -> tuple[dict, list[str]]:
    """Untraced run: end-to-end metrics and the report lines that name them.

    Timings are scaled to the calibration loop's reference speed with the
    scale each worker measured (see calibration.py); the report shows the
    wall-clock value beside each scaled one.
    """
    probes = [run_worker(args, deadline, "--setup-only") for _ in range(SETUP_SAMPLES - 1)]
    main = run_worker(args, deadline)
    probes.append(main)
    latencies = main["latencies_ms"]
    if len(latencies) < 2:
        raise BenchError(
            f"only {len(latencies)} operations passed; need 2 for percentiles\n"
            + "\n".join(_problem_lines(main))
        )
    scale = main["scale"]
    walls = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), len(probes)),
        "peak_rss_mb": (main["peak_rss_mb"], 1),
        "op_p50_ms": (statistics.median(latencies), len(latencies)),
        "op_p90_ms": (percentile(latencies, 90), len(latencies)),
        "items_per_s": (main["items"] / main["busy_s"], main["items"]),
    }
    values = {
        "setup_s": statistics.median(p["setup_s"] * p["setup_scale"] for p in probes),
        "peak_rss_mb": walls["peak_rss_mb"][0],
        "op_p50_ms": walls["op_p50_ms"][0] * scale,
        "op_p90_ms": walls["op_p90_ms"][0] * scale,
        "items_per_s": walls["items_per_s"][0] / scale,
    }
    if args.workload == "cli":
        walls["cli_pass_s"] = (statistics.median(main["mix_s"]), len(main["mix_s"]))
        values["cli_pass_s"] = walls["cli_pass_s"][0] * scale
    units = dict(END_TO_END, cli_pass_s="s")
    labels = [(name, name) for name in walls] + list(ALIASES[args.workload].items())
    lines = [f"{'metric':<16} {'value':>14} {'unit':<6} {'samples':>7} {'wall-clock':>14}"]
    lines += [
        f"{label:<16} {values[name]:>14.6g} {units[name]:<6} {walls[name][1]:>7} {walls[name][0]:>14.6g}"
        for label, name in labels
    ]
    lines.append(f"error_rate {main['failed'] / main['attempted']:.6g} ({main['failed']}/{main['attempted']})")
    lines.append(
        f"items: {main['items']} {main['item_unit']} in {main['busy_s']:.3f} s of operations;"
        f" scale {scale:.6g} from {main['calibration_loops']} calibration loops"
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return _result(main, metrics), lines + _env_lines(main) + _problem_lines(main)


def trace(args, deadline: float) -> tuple[dict, list[str]]:
    """Traced run: per-layer metrics."""
    main = run_worker(args, deadline)
    layers = main["layers"]
    metrics = {name: {"value": layers[name], "unit": layer_unit(name)} for name in layer_metric_names()}
    lines = [f"{name:<40} {layers[name]:>14.6g} {layer_unit(name)}" for name in layer_metric_names()]
    lines.append(f"spans: {main['spans_file']}")
    return _result(main, metrics), lines + _env_lines(main) + _problem_lines(main)


def _result(main: dict, metrics: dict) -> dict:
    return {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }


def _env_lines(main: dict) -> list[str]:
    env = {**machine(ROOT), **main["env"]}
    return ["env: " + " ".join(f"{key}={value}" for key, value in env.items())]


def _problem_lines(main: dict) -> list[str]:
    return [f"FAILED {problem}" for problem in main["problems"]]


def run_one(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    result, lines = (trace if args.trace else measure)(args, deadline)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in lines:
        print(line)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "nvswap" / "__init__.py").is_file():
        print(f"error: no nvswap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    try:
        if args.workload != "all":
            result = run_one(args)
        else:
            result = {}
            for name in WORKLOADS:
                result[name] = run_one(argparse.Namespace(**{**vars(args), "workload": name}))
                print()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
