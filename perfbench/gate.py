"""Correctness gate applied to every benchmark operation.

Each check returns a list of problems; an empty list means the output passed.
The checks read only public result fields, so they keep working when the
engine behind those fields is rewritten.
"""

from __future__ import annotations

import math

# ProtocolResult weights must add up to the initial unit weight, and library
# numbers must equal the recorded reference values, both to this tolerance.
WEIGHT_TOL = 1e-12
REFERENCE_TOL = 1e-12

# A sampled mean may differ from the exact engine's value mu by at most the
# Bernstein bound for n independent samples in [0, 1] with variance at most
# mu (1 - mu), taken at Z_LIMIT: a correct sampler exceeds it with probability
# below 2 exp(-Z_LIMIT^2 / 2), about 3e-8 at z = 6, on any seed.  The bound uses
# the exact mu rather than the sample's own spread, which understates the
# error when a rare low-fidelity herald happens to be missing from the sample.
# BENCHMARK.json states the same limit.
Z_LIMIT = 6.0

LABELS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


def _fidelities(per_target) -> list[float | None]:
    return [per_target[label] for label in sorted(per_target)]


def protocol_problems(result) -> list[str]:
    """Weight conservation and probability ranges of one ProtocolResult."""
    problems = []
    total = result.total_success + result.failure_weight + result.residual_weight
    if not abs(total - 1.0) <= WEIGHT_TOL:
        problems.append(f"weights sum to {total!r}, not 1")
    if not -WEIGHT_TOL <= result.total_success <= 1.0 + WEIGHT_TOL:
        problems.append(f"total_success {result.total_success!r} outside [0, 1]")
    for label, fidelity in zip(LABELS, _fidelities(result.fidelity_per_target)):
        if fidelity is not None and not -WEIGHT_TOL <= fidelity <= 1.0 + WEIGHT_TOL:
            problems.append(f"fidelity {label} {fidelity!r} outside [0, 1]")
    return problems


def protocol_summary(result) -> list:
    """The library numbers of one ProtocolResult that the reference pins."""
    return [
        result.total_success,
        result.parity_success,
        result.failure_weight,
        result.residual_weight,
        result.false_negative_weight,
        result.false_positive_weight,
        *_fidelities(result.fidelity_per_target),
        *[result.success_per_target[label] for label in sorted(result.success_per_target)],
    ]


def cell_problems(cell, direct) -> list[str]:
    """An optimised sweep cell must report exactly what a direct run at its
    chosen round count gives."""
    problems = protocol_problems(direct)
    if not abs(cell.total_success - direct.total_success) <= WEIGHT_TOL:
        problems.append(
            f"cell total_success {cell.total_success!r} != direct {direct.total_success!r}"
        )
    pairs = zip(LABELS, _fidelities(cell.fidelity_per_target), _fidelities(direct.fidelity_per_target))
    for label, got, want in pairs:
        if (got is None) != (want is None) or (
            got is not None and not abs(got - want) <= WEIGHT_TOL
        ):
            problems.append(f"cell fidelity {label} {got!r} != direct {want!r}")
    return problems


def sampling_limit(mu: float, n: int, z: float = Z_LIMIT) -> float:
    """Bernstein deviation bound of a mean of n samples in [0, 1] with mean mu."""
    variance = min(max(mu * (1.0 - mu), 0.0), 0.25)
    return z * z / (6.0 * n) + math.sqrt((z * z / (6.0 * n)) ** 2 + z * z * variance / n)


def sampled_problems(sampled, exact, z_limit: float = Z_LIMIT) -> list[str]:
    """A TrajectoryResult must agree with run_protocol on total success,
    per-target success and per-target fidelity within the sampling limit."""
    n = sampled.n_trajectories
    problems = []

    def compare(what, got, want, count):
        limit = sampling_limit(want, count, z_limit)
        if not abs(got - want) <= limit:
            problems.append(f"{what}: sampled {got!r} vs exact {want!r} (limit {limit:.3g})")

    compare("total_success", sampled.total_success, exact.total_success, n)
    for label in sorted(exact.success_per_target):
        name = LABELS[label.value]
        compare(f"success {name}", sampled.success_per_target[label], exact.success_per_target[label], n)
        got = sampled.fidelity_per_target[label]
        want = exact.fidelity_per_target[label]
        if got is None or want is None:
            continue
        if not -WEIGHT_TOL <= got <= 1.0 + WEIGHT_TOL:
            problems.append(f"sampled fidelity {name} {got!r} outside [0, 1]")
        # the heralds of one target are independent samples of its fidelity
        heralds = round(sampled.success_per_target[label] * n)
        compare(f"fidelity {name}", got, want, heralds)
    return problems


def cli_problems(stdout: str, expected: str, returncode: int = 0) -> list[str]:
    """CLI output must repeat the README rows byte for byte.

    A README block containing a '...' line shows only its first and last
    rows; those rows must match, with at least one row between them.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    lines = expected.splitlines(keepends=True)
    if "...\n" not in lines:
        return [] if stdout == expected else ["stdout differs from the README"]
    cut = lines.index("...\n")
    head, tail = lines[:cut], lines[cut + 1 :]
    got = stdout.splitlines(keepends=True)
    if (
        len(got) <= len(head) + len(tail)
        or got[: len(head)] != head
        or got[len(got) - len(tail) :] != tail
    ):
        return ["stdout rows differ from the README"]
    return []


def reference_problems(summary, reference, path: str = "") -> list[str]:
    """Nested numbers must equal the reference within REFERENCE_TOL; other
    values must be equal."""
    if isinstance(reference, list):
        if not isinstance(summary, (list, tuple)) or len(summary) != len(reference):
            return [f"{path}: shape differs from the reference"]
        problems = []
        for i, (got, want) in enumerate(zip(summary, reference)):
            problems += reference_problems(got, want, f"{path}[{i}]")
        return problems
    if isinstance(reference, float) and isinstance(summary, (int, float)):
        if abs(summary - reference) <= REFERENCE_TOL:
            return []
    elif summary == reference:
        return []
    return [f"{path}: {summary!r} != reference {reference!r}"]
