"""Flat key-value configuration files.

Format: one ``key = value`` pair per line; ``#`` starts a comment; arrays go
in brackets, e.g. ``levels = [4, 4, 4, 4]``.  Unknown keys are rejected.
One table, ``_KEYS``, gives each key's type, whether it is an array, and the
field it fills in ``CodecConfig`` or ``MaskConfig`` (the ``mask.`` keys).
Recognized keys:

    sample_rate     int     audio sample rate in Hz (default 24000)
    hop             int     encoder hop in samples (default 9600)
    levels          [int]   quantizer levels per dimension (default 4 x 128)
    group_size      int     dimensions packed per token (default 7; at most
                            the number of levels, each group's vocabulary at
                            most 2**32 and each level at most 65535, the
                            token file's limits)
    lambda_stft     float   STFT loss weight of ``jdtok score`` (default 2.0)
    mask.ratio      float   masked fraction target (default 0.5)
    mask.span_min   int     minimum mask span (default 2)
    mask.span_max   int     maximum mask span (default: adaptive T // 4)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .fsq import FsqLevels
from .losses import DEFAULT_LAMBDA_STFT
from .masking import MaskConfig
from .radix import RadixScheme, build_scheme, token_rate

__all__ = ["CodecConfig", "parse_config", "load_config", "DEFAULT_CONFIG"]

# key -> (element type, is an array, owner, field name).  The owner "codec" is
# CodecConfig itself and "mask" is MaskConfig.
_KEYS = {
    "sample_rate": (int, False, "codec", "sample_rate"),
    "hop": (int, False, "codec", "hop"),
    "levels": (int, True, "codec", "levels"),
    "group_size": (int, False, "codec", "group_size"),
    "lambda_stft": (float, False, "codec", "lambda_stft"),
    "mask.ratio": (float, False, "mask", "mask_ratio"),
    "mask.span_min": (int, False, "mask", "span_min"),
    "mask.span_max": (int, False, "mask", "span_max"),
}


@dataclass(frozen=True)
class CodecConfig:
    """Resolved tokenizer configuration."""

    sample_rate: int = 24000
    hop: int = 9600
    levels: FsqLevels = FsqLevels()
    group_size: int = 7
    lambda_stft: float = DEFAULT_LAMBDA_STFT
    mask: MaskConfig = MaskConfig()
    scheme: RadixScheme = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            token_rate(self.sample_rate, self.hop, 1)  # owns the sample_rate and hop bounds
            scheme = build_scheme(self.levels, self.group_size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not math.isfinite(self.lambda_stft):  # nan would break value equality
            raise ConfigError(f"lambda_stft must be finite, got {self.lambda_stft}")
        object.__setattr__(self, "scheme", scheme)


DEFAULT_CONFIG = CodecConfig()


def _parse_value(key: str, text: str, caster: type, array: bool):
    text = text.strip()
    if not array:
        try:
            return caster(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected {caster.__name__}, got {text!r}") from exc
    if not (text.startswith("[") and text.endswith("]")):
        raise ConfigError(f"{key}: expected a bracketed array, got {text!r}")
    inner = text[1:-1].strip()
    items = [s.strip() for s in inner.split(",")] if inner else []
    try:
        return [caster(item) for item in items]
    except ValueError as exc:
        raise ConfigError(f"{key}: bad array element ({exc})") from exc


def parse_config(text: str) -> CodecConfig:
    """Parse configuration text; each unset key keeps its owner's default."""
    given: dict[str, dict] = {"codec": {}, "mask": {}}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        caster, array, owner, name = _KEYS[key]
        if name in given[owner]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        given[owner][name] = _parse_value(key, value, caster, array)

    try:
        mask = MaskConfig(**given["mask"])
        codec = given["codec"]
        if "levels" in codec:
            codec["levels"] = FsqLevels(tuple(codec["levels"]))
        return CodecConfig(**codec, mask=mask)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> CodecConfig:
    """Load a configuration file, or defaults when ``path`` is None."""
    if path is None:
        return DEFAULT_CONFIG
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:  # a binary file is a bad configuration
        raise ConfigError(str(exc)) from exc
    return parse_config(text)
