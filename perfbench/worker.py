"""One closed-loop benchmark client, run in a fresh process by run.py.

Usage: worker.py --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
[--setup-only]

The worker imports nvswap, draws its inputs from the seed (this is setup_s),
then runs one operation at a time and gates each output.  Untraced, it runs
whole mixes until `--seconds` of operation time have passed, and after each
operation runs the calibration loop (see calibration.py) to report the scale
that turns its wall times into reference-speed times.  Traced, it runs
the first mix once untraced and once traced, so the counts depend on the seed
alone, and derives the per-layer metrics from the traced pass.  It prints one
JSON object with the raw samples; run.py turns them into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import gate
from envinfo import numerics

DEFAULT_SEED = 1
REFERENCE = Path(__file__).with_name("reference.json")
MAX_PROBLEMS = 20


class Tally:
    """Attempted and failed operations, their latencies and the busy time."""

    def __init__(self, tracer=None, calibrator=None) -> None:
        self.tracer = tracer
        self.calibrator = calibrator
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.latencies_ms: list[float] = []
        self.problems: list[str] = []

    def run(self, op, reference=None) -> float:
        """Time one operation, then gate it untimed; returns its duration."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is None:
                output = op.call()
            else:
                output = self.tracer.call(op.span, op.call, note={"op": op.name})
        except Exception:
            output = None
            problems = [traceback.format_exc(limit=4)]
        else:
            problems = []
        elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        if not problems:
            problems = self._check(op, output, reference)
        if problems:
            self.failed += 1
            self.problems += [f"{op.name}: {p}" for p in problems][: MAX_PROBLEMS - len(self.problems)]
        elif op.latency:
            self.latencies_ms.append(elapsed * 1000.0)
        if self.calibrator is not None:
            self.calibrator.after(elapsed)
        return elapsed

    def _check(self, op, output, reference) -> list[str]:
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            problems, summary = op.check(output)
            if reference is not None:
                problems += gate.reference_problems(summary, reference, "reference")
            return problems
        except Exception:
            return [traceback.format_exc(limit=4)]
        finally:
            if self.tracer is not None:
                self.tracer.paused = False


def _references(workload: str, seed: int) -> list:
    """Recorded library numbers of the first mix, on the default seed only."""
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return []
    return json.loads(REFERENCE.read_text()).get(workload, [])


def _run_mix(tally: Tally, mix, references) -> float:
    elapsed = 0.0
    for index, op in enumerate(mix):
        elapsed += tally.run(op, references[index] if index < len(references) else None)
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import nvswap  # noqa: F401  (the import is part of setup_s)

    import workloads

    scratch = Path(tempfile.mkdtemp(dir=args.scratch))
    try:
        workload = workloads.Workload(args.workload, args.seed, scratch)
        mix = workload.next_mix(in_process=bool(args.trace))
        setup_s = time.perf_counter() - start
        from calibration import Calibrator

        # set-up is interpreter work, so it always uses the small loop
        setup_calibrator = Calibrator()
        setup_calibrator.after(setup_s)
        result = {"setup_s": setup_s, "setup_scale": setup_calibrator.scale()}
        if args.trace and not args.setup_only:
            result.update(_traced(args, mix))
        elif not args.setup_only:
            workload.open()
            try:
                result.update(_untraced(args, workload, mix, Calibrator(workload.calibration)))
            finally:
                workload.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _untraced(args, workload, mix, calibrator) -> dict:
    tally = Tally(calibrator=calibrator)
    references = _references(args.workload, args.seed)
    mix_s = []
    while True:
        mix_s.append(_run_mix(tally, mix, references))
        references = []
        if tally.busy_s >= args.seconds:
            break
        mix = workload.next_mix()
    # ru_maxrss is in KiB on Linux; for cli the largest nvswap child's
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "cli":
        peak_kib = workload.child_peak_kib
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "latencies_ms": tally.latencies_ms,
        "mix_s": mix_s,
        "items": len(mix_s) * workload.items_per_mix,
        "item_unit": workload.item_unit,
        "busy_s": tally.busy_s,
        "scale": calibrator.scale(),
        "calibration_loops": len(calibrator.times),
        "peak_rss_mb": peak_kib / 1024.0,
        "env": numerics(),
    }


def _traced(args, mix) -> dict:
    from tracer import Tracer, import_times

    references = _references(args.workload, args.seed)
    tracer = Tracer()
    plain, traced = Tally(), Tally(tracer)
    untraced_s = traced_s = 0.0
    # each operation runs once untraced and once traced, alternating which
    # goes first so that warm-up favours neither side of overhead_ratio
    for index, op in enumerate(mix):
        reference = references[index] if index < len(references) else None
        for tally in (plain, traced) if index % 2 == 0 else (traced, plain):
            if tally is plain:
                untraced_s += plain.run(op, reference)
                continue
            tracer.install()
            try:
                traced_s += traced.run(op, reference)
            finally:
                tracer.uninstall()
    layers = tracer.layer_metrics()
    layers.update(import_times())
    layers["trace.overhead_ratio"] = traced_s / untraced_s
    env = numerics()
    spans = args.scratch / f"spans_{args.workload}_seed{args.seed}.jsonl"
    tracer.write(spans, {"workload": args.workload, "seed": args.seed, "env": env})
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "problems": plain.problems + traced.problems,
        "layers": layers,
        "spans_file": str(spans),
        "env": env,
    }


if __name__ == "__main__":
    sys.exit(main())
