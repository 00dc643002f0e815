"""Plain-text key=value configuration files.

The shared format is UTF-8, line oriented, one ``key=value`` per line.
Blank lines and lines starting with ``#`` are ignored.  Duplicate and
unknown keys are errors, not warnings, so a typo cannot silently change an
experiment.

Model configs understand::

    model=mermin|clock
    b_convention=aligned|anti_aligned
    p[RRG]=0.125        # mermin only, one line per instruction set

Omitted ``p[...]`` entries default to 0.  The eight probabilities must sum
to 1 within 1e-9; they are renormalized exactly before the model is built.
"""

from __future__ import annotations

from pathlib import Path

from .hv_models import (
    ALIGNED,
    ALL_INSTRUCTION_SETS,
    ANTI_ALIGNED,
    ClockModel,
    LhvModel,
    MerminModel,
)


class ConfigError(ValueError):
    """Malformed configuration (bad syntax, unknown key, bad value)."""


def parse_kv_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_kv(path) -> dict[str, str]:
    return parse_kv_text(Path(path).read_text(encoding="utf-8"))


_PROB_KEYS = {f"p[{s.text}]": i for i, s in enumerate(ALL_INSTRUCTION_SETS)}


def model_from_mapping(mapping: dict[str, str]) -> LhvModel:
    """Build an LHV model from parsed key=value pairs."""
    if "model" not in mapping:
        raise ConfigError("missing required key 'model'")
    kind = mapping["model"]
    convention = mapping.get("b_convention")
    if convention is not None and convention not in (ALIGNED, ANTI_ALIGNED):
        raise ConfigError(f"b_convention must be aligned or anti_aligned, got {convention!r}")

    known = {"model", "b_convention"}
    if kind == "clock":
        unknown = set(mapping) - known
        if unknown:
            raise ConfigError(f"unknown keys for clock model: {sorted(unknown)}")
        return ClockModel(b_convention=convention or ANTI_ALIGNED)

    if kind == "mermin":
        import numpy as np

        probs = np.zeros(8)
        for key, value in mapping.items():
            if key in known:
                continue
            if key not in _PROB_KEYS:
                raise ConfigError(f"unknown key {key!r}")
            try:
                probs[_PROB_KEYS[key]] = float(value)
            except ValueError as exc:
                raise ConfigError(f"bad probability for {key}: {value!r}") from exc
        if np.any(probs < 0):
            raise ConfigError("probabilities must be nonnegative")
        total = probs.sum()
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"instruction-set probabilities sum to {total!r}, not 1")
        return MerminModel(probs / total, b_convention=convention or ALIGNED)

    raise ConfigError(f"unknown model {kind!r}")


def model_from_file(path) -> LhvModel:
    return model_from_mapping(load_kv(path))
