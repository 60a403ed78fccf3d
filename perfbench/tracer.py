"""In-memory spans around nvswap's public callables, and the per-layer metrics
derived from them.

The tracer replaces each traced function at every name an nvswap module looks
it up by, so calls between modules are caught without touching nvswap's
source.  Spans are kept in a list with the index of their parent span and are
written out once, when the traced run ends.  A layer's self time is its span
durations minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import subprocess
import sys
import time
import tracemalloc

# (module, attribute, span name) of every traced callable
TARGETS = (
    ("nvswap.channels", "absorption_channel", "channels.absorption"),
    ("nvswap.channels", "qnd_povm", "channels.qnd_povm"),
    ("nvswap.channels", "photon_loss_channel", "channels.photon_loss"),
    ("nvswap.channels", "dephasing_channel", "channels.dephasing"),
    ("nvswap.channels", "flip_channel", "channels.flip"),
    ("nvswap.protocol", "run_protocol", "protocol.run_protocol"),
    ("nvswap.protocol", "final_parity_measurement", "protocol.final_parity"),
    ("nvswap.analytics", "optimize_rounds", "analytics.optimize_rounds"),
    ("nvswap.sweep", "sweep", "sweep.sweep"),
    ("nvswap.trajectories", "run_trajectories", "trajectories.run_trajectories"),
)
# layers reported with a call count and self time
COUNTED = (
    "states.joint_state",
    "channels.absorption",
    "channels.qnd_povm",
    "channels.photon_loss",
    "channels.dephasing",
    "channels.flip",
    "protocol.run_protocol",
    "protocol.final_parity",
    "analytics.optimize_rounds",
    "sweep.sweep",
)
CLI_COMMANDS = ("run", "bounds", "sweep", "chain", "optimize")
IMPORTED = (
    "nvswap",
    "nvswap.states",
    "nvswap.channels",
    "nvswap.protocol",
    "nvswap.trajectories",
    "nvswap.analytics",
    "nvswap.sweep",
    "nvswap.config",
    "nvswap.cli",
)
IMPORT_REPEATS = 5


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for layer in COUNTED:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    names += [
        "protocol.rounds_evolved",
        "protocol.heralds",
        "analytics.candidates_scanned",
        "analytics.feasible_ratio",
        "trajectories.run_trajectories.calls",
        "trajectories.run_trajectories.s",
        "trajectories.sampled",
        "trajectories.heralded_ratio",
        "trajectories.peak_alloc_mb",
        "config.self_s",
        *[f"cli.{command}.s" for command in CLI_COMMANDS],
        "import.numpy_ms",
        *[f"import.{module}_ms" for module in IMPORTED],
        "trace.overhead_ratio",
    ]
    return names


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Span:
    __slots__ = ("name", "parent", "start", "end", "note")

    def __init__(self, name: str, parent: int, note: dict) -> None:
        self.name = name
        self.parent = parent
        self.note = note
        self.start = time.perf_counter()
        self.end = self.start


class Tracer:
    """Span recorder; `install` wraps nvswap, `uninstall` restores it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.paused = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, note: dict | None = None, **kwargs):
        """Run fn inside a span named `name`; `note` is stored with the span."""
        if self.paused:
            return fn(*args, **kwargs)
        span = Span(name, self._stack[-1] if self._stack else -1, {} if note is None else note)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        noted = {
            "protocol.run_protocol": _note_run,
            "analytics.optimize_rounds": _note_optimize,
            "trajectories.run_trajectories": _note_trajectories,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if noted is None:
                return self.call(name, fn, *args, **kwargs)
            note: dict = {}
            return self.call(name, noted, fn, note, *args, note=note, **kwargs)

        return wrapper

    def install(self) -> None:
        import nvswap.config
        from nvswap.states import JointState

        for module_name, attr, name in TARGETS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is not None:
                self._replace(fn, self._wrap(fn, name))
        config_functions = [
            fn
            for fn in vars(nvswap.config).values()
            if inspect.isfunction(fn) and fn.__module__ == "nvswap.config"
        ]
        for fn in config_functions:
            self._replace(fn, self._wrap(fn, "config"))
        post_init = JointState.__post_init__
        wrapped = self._wrap(post_init, "states.joint_state")
        JointState.__post_init__ = wrapped
        self._restore.append((JointState, "__post_init__", post_init))

    def _replace(self, original, wrapper) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "nvswap" or name.startswith("nvswap.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path, header: dict) -> None:
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "parent": span.parent,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    **span.note,
                }
                out.write(json.dumps(record) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for span, child_time in zip(spans, covered):
            duration = span.end - span.start
            calls[span.name] = calls.get(span.name, 0) + 1
            total[span.name] = total.get(span.name, 0.0) + duration
            own[span.name] = own.get(span.name, 0.0) + duration - child_time

        metrics: dict[str, float] = {}
        for layer in COUNTED:
            metrics[f"{layer}.calls"] = calls.get(layer, 0)
            metrics[f"{layer}.self_s"] = own.get(layer, 0.0)

        runs = [span for span in spans if span.name == "protocol.run_protocol"]
        metrics["protocol.rounds_evolved"] = sum(span.note.get("rounds", 0) for span in runs)
        metrics["protocol.heralds"] = sum(span.note.get("heralds", 0) for span in runs)
        scanned = feasible = 0
        for span in runs:
            if span.parent < 0 or spans[span.parent].name != "analytics.optimize_rounds":
                continue
            scanned += 1
            floor = spans[span.parent].note.get("floor")
            worst = span.note.get("min_fidelity")
            feasible += floor is None or (worst is not None and worst >= floor)
        metrics["analytics.candidates_scanned"] = scanned
        metrics["analytics.feasible_ratio"] = feasible / scanned if scanned else 0.0

        samples = [span for span in spans if span.name == "trajectories.run_trajectories"]
        sampled = sum(span.note.get("sampled", 0) for span in samples)
        heralded = sum(span.note.get("heralded", 0) for span in samples)
        metrics["trajectories.run_trajectories.calls"] = len(samples)
        metrics["trajectories.run_trajectories.s"] = total.get("trajectories.run_trajectories", 0.0)
        metrics["trajectories.sampled"] = sampled
        metrics["trajectories.heralded_ratio"] = heralded / sampled if sampled else 0.0
        metrics["trajectories.peak_alloc_mb"] = max(
            (span.note.get("peak_alloc_mb", 0.0) for span in samples), default=0.0
        )
        metrics["config.self_s"] = own.get("config", 0.0)
        for command in CLI_COMMANDS:
            metrics[f"cli.{command}.s"] = total.get(f"cli.{command}", 0.0)
        return metrics


def _min_fidelity(result) -> float | None:
    values = [f for f in result.fidelity_per_target.values() if f is not None]
    return min(values) if values else None


def _note_run(fn, note, *args, **kwargs):
    result = fn(*args, **kwargs)
    note["rounds"] = result.params.rounds
    note["heralds"] = len(result.herald_log)
    note["min_fidelity"] = _min_fidelity(result)
    return result


def _note_optimize(fn, note, *args, **kwargs):
    # the weighted objective has no fidelity floor, so every candidate is feasible
    if kwargs.get("objective", "max_success_at_min_fidelity") != "weighted":
        approach = args[0] if args else kwargs.get("approach")
        floor = kwargs.get("min_fidelity")
        if floor is None:
            floor = sys.modules["nvswap.analytics"].DEFAULT_MIN_FIDELITY.get(approach, 0.0)
        note["floor"] = floor
    return fn(*args, **kwargs)


def _note_trajectories(fn, note, *args, **kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    note["sampled"] = result.n_trajectories
    note["heralded"] = round(result.total_success * result.n_trajectories)
    note["peak_alloc_mb"] = peak / 2**20
    return result


def import_times(repeats: int = IMPORT_REPEATS) -> dict[str, float]:
    """Median `-X importtime` figures of `import nvswap.cli` in fresh
    interpreters: cumulative for numpy, self time for each nvswap module."""
    runs = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import nvswap.cli"],
            capture_output=True,
            text=True,
            check=True,
        )
        own, cumulative = {}, {}
        for line in done.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            module = fields[2].strip()
            own[module] = int(fields[0]) / 1000.0
            cumulative[module] = int(fields[1]) / 1000.0
        figures = {"import.numpy_ms": cumulative.get("numpy", 0.0)}
        figures.update({f"import.{m}_ms": own.get(m, 0.0) for m in IMPORTED})
        runs.append(figures)
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}
