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


# a getter called without a default requires its key
_NO_DEFAULT = object()


def _required(options: dict[str, str], key: str) -> str:
    if key not in options:
        raise ConfigError(f"key {key!r} is required")
    return options[key]


def get_float(options: dict[str, str], key: str, default: object = _NO_DEFAULT) -> float | None:
    if key not in options and default is not _NO_DEFAULT:
        return default
    value = _required(options, key)
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected a number, got {value!r}") from exc


def get_int(options: dict[str, str], key: str, default: object = _NO_DEFAULT) -> int | None:
    if key not in options and default is not _NO_DEFAULT:
        return default
    value = _required(options, key)
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected an integer, got {value!r}") from exc


def get_bool(options: dict[str, str], key: str, default: object = _NO_DEFAULT) -> bool | None:
    if key not in options and default is not _NO_DEFAULT:
        return default
    value = _required(options, key)
    if value.lower() in ("true", "yes", "1", "on"):
        return True
    if value.lower() in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {value!r}")


def get_float_list(options: dict[str, str], key: str) -> tuple[float, ...]:
    value = _required(options, key)
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"key {key!r}: expected a comma-separated list of numbers")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected numbers, got {value!r}") from exc


def get_pairs(options: dict[str, str], key: str) -> tuple[tuple[float, int], ...]:
    """Parse 'p_abs:L, p_abs:L, ...' pairs."""
    pairs = []
    for chunk in _required(options, key).split(","):
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


def resolve_approach(options: dict[str, str]) -> str:
    if "approach" not in options:
        raise ConfigError("key 'approach' is required (or pass --approach)")
    return options["approach"]


def protocol_kwargs(options: dict[str, str]) -> dict[str, float | str]:
    """The optional ProtocolParams fields the config sets, shared by every command."""
    kwargs: dict[str, float | str] = {}
    for key in ("r_a1", "p_qnd", "p_dark", "p_loss", "detector_eff"):
        if key in options:
            kwargs[key] = get_float(options, key)
    for key in ("l_z", "l_x"):
        if key in options:
            kwargs[key] = get_int(options, key)
    if "loss_db" in options:
        if "p_loss" in options:
            raise ConfigError("give either p_loss or loss_db, not both")
        kwargs["p_loss"] = db_to_probability(get_float(options, "loss_db"))
    if "tau_ns" in options:
        kwargs["tau_cycle"] = get_float(options, "tau_ns") * 1e-9
    if "t2_us" in options:
        kwargs["t2"] = get_float(options, "t2_us") * 1e-6
    if "flip_observable" in options:
        kwargs["flip_observable"] = options["flip_observable"]
    return kwargs


def build_protocol_params(options: dict[str, str]) -> ProtocolParams:
    """Assemble ProtocolParams for the run/chain commands."""
    return ProtocolParams(
        resolve_approach(options),
        p_abs=get_float(options, "p_abs"),
        rounds=get_int(options, "rounds"),
        **protocol_kwargs(options),
    )
