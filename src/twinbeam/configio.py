"""Key-value configuration files.

The on-disk format is deliberately plain: `[section]` headers followed
by `key = value` lines, `#` or `;` comments, blank lines ignored.  A
repeated section, like a repeated key within one section, is an error
that names its line.

All frequencies in configuration files are plain frequencies in MHz
(or kHz where the key says so), read by `section_frequency`, which
checks that they stay finite in rad/s.  `angular_from_mhz` and
`angular_from_khz` are the only points where they are converted to
angular frequencies for the model layer.
"""

from __future__ import annotations

import math

__all__ = [
    "ConfigError",
    "parse_sections",
    "check_keys",
    "section_float",
    "section_int",
    "section_frequency",
    "angular_from_mhz",
    "angular_from_khz",
    "mhz_from_angular",
]


class ConfigError(ValueError):
    """Malformed configuration content."""


def parse_sections(text: str) -> dict[str, dict[str, str]]:
    """Parse sectioned key-value text into {section: {key: value}}.

    Keys before any section header, repeated sections, duplicate keys
    within one section, and lines that are neither assignments nor
    headers are errors.
    """
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            current = sections[name] = {}
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: assignment before any [section] header")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in section")
        current[key] = value
    return sections


def check_keys(mapping: dict[str, str], section: str, allowed) -> None:
    """Reject the keys of a section outside allowed, naming them."""
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {', '.join(sorted(unknown))}")


def section_float(mapping: dict[str, str], section: str, key: str, default: float | None) -> float:
    """A key's finite float value, or default where the key is absent, with
    errors that name the offending key."""
    if key not in mapping:
        return default
    raw = mapping[key]
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"section [{section}], key {key!r}: cannot parse {raw!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise ConfigError(f"section [{section}], key {key!r}: value must be finite")
    return value


def section_int(mapping: dict[str, str], section: str, key: str, default: int) -> int:
    """A key's integer value, or default where the key is absent."""
    if key not in mapping:
        return default
    raw = mapping[key]
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"section [{section}], key {key!r}: cannot parse {raw!r} as an integer"
        ) from None


def section_frequency(mapping: dict[str, str], section: str, key: str, default: float | None) -> float:
    """A frequency key's value in MHz (kHz where the key ends in _kHz), or
    default where the key is absent; the value must stay finite in rad/s."""
    value = section_float(mapping, section, key, default)
    unit = "kHz" if key.endswith("_kHz") else "MHz"
    angular = angular_from_khz if unit == "kHz" else angular_from_mhz
    if key in mapping and not math.isfinite(angular(value)):
        raise ConfigError(
            f"section [{section}], key {key!r}: {value} {unit} overflows the float range in rad/s"
        )
    return value


def angular_from_mhz(value_mhz):
    """MHz -> rad/s, of a float or elementwise of an array."""
    return 2.0 * math.pi * value_mhz * 1e6


def angular_from_khz(value_khz: float) -> float:
    """kHz -> rad/s."""
    return 2.0 * math.pi * value_khz * 1e3


def mhz_from_angular(value: float) -> float:
    return value / (2.0 * math.pi * 1e6)
