"""Flat key=value run configuration.

One option per line, `key = value`, with `#` starting a comment.  Keys carry
explicit units where a unit exists (tau_ns, t2_us, loss_db).  Unknown and
duplicate keys are rejected so that a typo cannot silently fall back to a
default.
"""

from __future__ import annotations

from pathlib import Path

from .analytics import db_to_probability
from .protocol import ProtocolParams

PROTOCOL_KEYS = frozenset(
    {
        "approach",
        "p_abs",
        "rounds",
        "l_z",
        "l_x",
        "r_a1",
        "p_qnd",
        "p_dark",
        "p_loss",
        "loss_db",
        "tau_ns",
        "t2_us",
        "detector_eff",
        "flip_observable",
    }
)

COMMAND_KEYS = {
    "run": PROTOCOL_KEYS | {"seed", "trajectories"},
    "bounds": frozenset({"bounds_pairs", "p_qnd", "p_dark"}),
    "sweep": (PROTOCOL_KEYS - {"p_abs", "p_loss", "loss_db", "l_z", "l_x"})
    | {"p_abs_axis", "p_loss_axis", "optimize_l", "objective", "min_fidelity"},
    "chain": PROTOCOL_KEYS | {"hops"},
    "optimize": (PROTOCOL_KEYS - {"rounds", "l_z", "l_x"})
    | {"objective", "min_fidelity"},
}


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines into a string map; comments start with '#'."""
    options: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if not value:
            raise ConfigError(f"line {lineno}: key {key!r} has no value")
        if key in options:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        options[key] = value
    return options


def load_config(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def check_keys(options: dict[str, str], command: str) -> None:
    allowed = COMMAND_KEYS[command]
    for key in options:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} for command {command!r}")


def get_float(options: dict[str, str], key: str) -> float:
    try:
        return float(options[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected a number, got {options[key]!r}") from exc


def get_int(options: dict[str, str], key: str) -> int:
    value = options[key]
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected an integer, got {value!r}") from exc


def get_bool(options: dict[str, str], key: str) -> bool:
    value = options[key].lower()
    if value in ("true", "yes", "1", "on"):
        return True
    if value in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {options[key]!r}")


def get_float_list(options: dict[str, str], key: str) -> tuple[float, ...]:
    parts = [p.strip() for p in options[key].split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"key {key!r}: expected a comma-separated list of numbers")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected numbers, got {options[key]!r}") from exc


def get_pairs(options: dict[str, str], key: str) -> tuple[tuple[float, int], ...]:
    """Parse 'p_abs:L, p_abs:L, ...' pairs."""
    pairs = []
    for chunk in options[key].split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        left, sep, right = chunk.partition(":")
        if not sep:
            raise ConfigError(f"key {key!r}: expected 'p_abs:rounds' pairs, got {chunk!r}")
        try:
            pairs.append((float(left), int(right)))
        except ValueError as exc:
            raise ConfigError(
                f"key {key!r}: expected 'p_abs:rounds' pairs, got {chunk!r}"
            ) from exc
    if not pairs:
        raise ConfigError(f"key {key!r}: no pairs given")
    return tuple(pairs)


def resolve_loss(options: dict[str, str]) -> float:
    if "p_loss" in options and "loss_db" in options:
        raise ConfigError("give either p_loss or loss_db, not both")
    if "loss_db" in options:
        return db_to_probability(get_float(options, "loss_db"))
    if "p_loss" in options:
        return get_float(options, "p_loss")
    return 0.0


def resolve_approach(options: dict[str, str], override: str | None) -> str:
    approach = override if override is not None else options.get("approach")
    if approach is None:
        raise ConfigError("key 'approach' is required (or pass --approach)")
    if approach not in ("A", "B"):
        raise ConfigError(f"approach must be 'A' or 'B', got {approach!r}")
    return approach


def protocol_kwargs(options: dict[str, str]) -> dict[str, float | str]:
    """The optional ProtocolParams fields the config sets, shared by every command."""
    kwargs: dict[str, float | str] = {}
    for key in ("r_a1", "p_qnd", "p_dark"):
        if key in options:
            kwargs[key] = get_float(options, key)
    if "tau_ns" in options:
        kwargs["tau_cycle"] = get_float(options, "tau_ns") * 1e-9
    if "t2_us" in options:
        kwargs["t2"] = get_float(options, "t2_us") * 1e-6
    if "detector_eff" in options:
        kwargs["detector_eff"] = get_float(options, "detector_eff")
    if "flip_observable" in options:
        kwargs["flip_observable"] = options["flip_observable"]
    return kwargs


def build_protocol_params(
    options: dict[str, str], approach_override: str | None = None
) -> ProtocolParams:
    """Assemble ProtocolParams for the run/chain commands."""
    approach = resolve_approach(options, approach_override)
    if "p_abs" not in options:
        raise ConfigError("key 'p_abs' is required")
    if "rounds" not in options:
        raise ConfigError("key 'rounds' is required")
    kwargs = protocol_kwargs(options)
    if "l_z" in options:
        kwargs["l_z"] = get_int(options, "l_z")
    if "l_x" in options:
        kwargs["l_x"] = get_int(options, "l_x")
    return ProtocolParams(
        approach,
        p_abs=get_float(options, "p_abs"),
        rounds=get_int(options, "rounds"),
        p_loss=resolve_loss(options),
        **kwargs,
    )
