"""Flat key-value configuration files.

Format: one ``key = value`` pair per line; ``#`` starts a comment; arrays go
in brackets, e.g. ``daam.delta = [0.0, 0.0, 0.0, 0.0]``.  Unknown keys are
rejected.  Recognized keys:

    sample_rate     int     audio sample rate in Hz (default 24000)
    hop             int     encoder hop in samples (default 9600)
    levels          [int]   quantizer levels per dimension (default 4 x 128)
    group_size      int     dimensions packed per token (default 7; at most
                            the number of levels, each group's vocabulary at
                            most 2**64)
    lambda_stft     float   STFT loss weight (default 2.0)
    lambda_gan      float   GAN loss weight (default 0.1)
    temperature     float   accepted for config compatibility; has no effect
    daam.k          int     gate mixture components (default 4, at most 256)
    daam.alpha      float   gate modulation strength (default 0.05)
    daam.delta      [float] gate mean offsets (default zeros, length daam.k)
    daam.nu         [float] gate log-scales (default log(0.5), length daam.k)
    mask.ratio      float   masked fraction target (default 0.5)
    mask.span_min   int     minimum mask span (default 2)
    mask.span_max   int     maximum mask span (default: adaptive T // 4)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .daam import DaamParams
from .errors import ConfigError
from .fsq import FsqLevels
from .masking import MaskConfig
from .radix import RadixScheme, build_scheme

__all__ = ["CodecConfig", "parse_config", "load_config", "DEFAULT_CONFIG"]

_SCALAR_KEYS = {
    "sample_rate": int,
    "hop": int,
    "group_size": int,
    "lambda_stft": float,
    "lambda_gan": float,
    "temperature": float,
    "daam.k": int,
    "daam.alpha": float,
    "mask.ratio": float,
    "mask.span_min": int,
    "mask.span_max": int,
}
_ARRAY_KEYS = {
    "levels": int,
    "daam.delta": float,
    "daam.nu": float,
}


@dataclass(frozen=True)
class CodecConfig:
    """Resolved tokenizer configuration."""

    sample_rate: int = 24000
    hop: int = 9600
    levels: FsqLevels = FsqLevels()
    group_size: int = 7
    lambda_stft: float = 2.0
    lambda_gan: float = 0.1
    temperature: float = 1.0  # accepted for compatibility, unused
    daam: DaamParams = DaamParams.init(4)
    mask: MaskConfig = MaskConfig()
    scheme: RadixScheme = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sample_rate < 1:
            raise ConfigError(f"sample_rate must be >= 1, got {self.sample_rate}")
        if self.hop < 1:
            raise ConfigError(f"hop must be >= 1, got {self.hop}")
        try:
            scheme = build_scheme(self.levels, self.group_size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "scheme", scheme)


DEFAULT_CONFIG = CodecConfig()


def _parse_value(key: str, text: str):
    text = text.strip()
    if key in _ARRAY_KEYS:
        if not (text.startswith("[") and text.endswith("]")):
            raise ConfigError(f"{key}: expected a bracketed array, got {text!r}")
        inner = text[1:-1].strip()
        items = [s.strip() for s in inner.split(",")] if inner else []
        caster = _ARRAY_KEYS[key]
        try:
            return [caster(item) for item in items]
        except ValueError as exc:
            raise ConfigError(f"{key}: bad array element ({exc})") from exc
    if key in _SCALAR_KEYS:
        caster = _SCALAR_KEYS[key]
        try:
            return caster(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected {caster.__name__}, got {text!r}") from exc
    raise ConfigError(f"unknown configuration key {key!r}")


def _given(values: dict, **fields: str) -> dict:
    """The values the text sets, keyed by the field each key fills."""
    return {name: values[key] for name, key in fields.items() if key in values}


def parse_config(text: str) -> CodecConfig:
    """Parse configuration text into a :class:`CodecConfig`."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, value)

    try:
        daam = DaamParams.init(
            **_given(
                values,
                k="daam.k",
                gate_strength="daam.alpha",
                mean_offsets="daam.delta",
                log_scales="daam.nu",
            )
        )
        mask = MaskConfig(
            **_given(
                values, mask_ratio="mask.ratio", span_min="mask.span_min", span_max="mask.span_max"
            )
        )
        # keys without a dot are CodecConfig's own fields
        top = {key: value for key, value in values.items() if "." not in key}
        if "levels" in top:
            top["levels"] = FsqLevels(tuple(top["levels"]))
        return CodecConfig(**top, daam=daam, mask=mask)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> CodecConfig:
    """Load a configuration file, or defaults when ``path`` is None."""
    if path is None:
        return DEFAULT_CONFIG
    return parse_config(Path(path).read_text())
