"""Flat dotted-key config format.

One `key = value` per line, `#` comments, blank lines ignored. Values coerce
to bool/int/float when they look like one, comma-separated values become
lists, everything else stays a string. The free-text keys in TEXT_KEYS are
the exception: their value is kept verbatim as one string, commas included.
The format is deliberately trivial so run manifests stay diff-friendly and
re-runnable as configs.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields
from typing import Any, get_type_hints

Scalar = bool | int | float | str
Value = Scalar | list[Scalar]

# manifest messages, which may hold commas that are not list separators
TEXT_KEYS = frozenset({"run.error", "run.note"})


class ConfigError(ValueError):
    """Invalid config input; .key names the offending key path when known."""

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(message if key is None else f"{key}: {message}")


class FieldError(ValueError):
    """A dataclass field is out of range; .field names it, and from_config names its key."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field} {message}")


def coerce_scalar(text: str) -> Scalar:
    text = text.strip()
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def coerce_value(text: str, key: str | None = None) -> Value:
    text = text.strip()
    if key in TEXT_KEYS:
        return text
    if "," in text:
        return [coerce_scalar(part) for part in text.split(",") if part.strip() != ""]
    return coerce_scalar(text)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, Value]:
    cfg: dict[str, Value] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        cfg[key] = coerce_value(value, key)
    return cfg


def load_config(path) -> dict[str, Value]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read(), source=str(path))


def apply_overrides(cfg: dict[str, Value], overrides: list[str]) -> dict[str, Value]:
    """Apply --set key=value pairs on top of a parsed config."""
    out = dict(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        out[key] = coerce_value(value, key)
    return out


def format_value(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(format_value(v) for v in value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def format_config(cfg: dict[str, Value]) -> str:
    return "".join(f"{key} = {format_value(cfg[key])}\n" for key in sorted(cfg))


def as_list(value: Value) -> list[Scalar]:
    if isinstance(value, list):
        return value
    return [value]


def get_typed(cfg: dict[str, Value], key: str, kind: type, default: Any = ...) -> Any:
    """Fetch a config value with type checking; dotted key named on error."""
    if key not in cfg:
        if default is ...:
            raise ConfigError("required key missing", key=key)
        return default
    value = cfg[key]
    if isinstance(value, bool) and kind in (int, float):
        raise ConfigError(f"expected {kind.__name__}, got boolean", key=key)
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"expected {kind.__name__}, got {type(value).__name__} ({value!r})", key=key)
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {value!r}", key=key)
    return value


_SCALAR_TYPES = (bool, int, float, str)


def config_fields(cls: type) -> dict[str, type]:
    """The fields of dataclass cls that are config keys, mapped to their types.

    A field is a config key when its annotated type is a scalar and it is
    not marked metadata={"config": False} (running state, say).
    """
    hints = get_type_hints(cls)
    return {
        f.name: hints[f.name]
        for f in fields(cls)
        if hints[f.name] in _SCALAR_TYPES and f.metadata.get("config", True)
    }


def from_config(cls: type, cfg: dict[str, Value], prefix: str) -> Any:
    """Build dataclass cls from the keys prefix + field, typed by its annotations.

    An absent key takes the field's default; a field without one is required.
    A FieldError raised by cls becomes a ConfigError naming prefix + field.
    """
    defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
    kwargs = {
        name: get_typed(cfg, prefix + name, kind, defaults.get(name, ...))
        for name, kind in config_fields(cls).items()
    }
    try:
        return cls(**kwargs)
    except FieldError as err:
        raise ConfigError(str(err), key=prefix + err.field) from err
