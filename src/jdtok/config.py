"""Flat key-value configuration files.

Format: one ``key = value`` pair per line; ``#`` starts a comment; arrays go
in brackets, e.g. ``daam.delta = [0.0, 0.0, 0.0, 0.0]``.  Unknown keys are
rejected.  One table, ``_KEYS``, gives each key's type, whether it is an
array, and the field it fills in ``CodecConfig``, ``DaamParams.init`` (the
``daam.`` keys) or ``MaskConfig`` (the ``mask.`` keys).  Recognized keys:

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

import math
from dataclasses import dataclass, field
from pathlib import Path

from .daam import DaamParams
from .errors import ConfigError
from .fsq import FsqLevels
from .losses import DEFAULT_LAMBDA_GAN, DEFAULT_LAMBDA_STFT
from .masking import MaskConfig
from .radix import RadixScheme, build_scheme, token_rate

__all__ = ["CodecConfig", "parse_config", "load_config", "DEFAULT_CONFIG"]

# key -> (element type, is an array, owner, field name).  The owner "codec" is
# CodecConfig itself, "daam" is DaamParams.init and "mask" is MaskConfig.
_KEYS = {
    "sample_rate": (int, False, "codec", "sample_rate"),
    "hop": (int, False, "codec", "hop"),
    "levels": (int, True, "codec", "levels"),
    "group_size": (int, False, "codec", "group_size"),
    "lambda_stft": (float, False, "codec", "lambda_stft"),
    "lambda_gan": (float, False, "codec", "lambda_gan"),
    "temperature": (float, False, "codec", "temperature"),
    "daam.k": (int, False, "daam", "k"),
    "daam.alpha": (float, False, "daam", "gate_strength"),
    "daam.delta": (float, True, "daam", "mean_offsets"),
    "daam.nu": (float, True, "daam", "log_scales"),
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
    lambda_gan: float = DEFAULT_LAMBDA_GAN
    temperature: float = 1.0  # accepted for compatibility, unused
    daam: DaamParams = DaamParams.init()
    mask: MaskConfig = MaskConfig()
    scheme: RadixScheme = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            token_rate(self.sample_rate, self.hop, 1)  # owns the sample_rate and hop bounds
            scheme = build_scheme(self.levels, self.group_size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for name in ("lambda_stft", "lambda_gan", "temperature"):
            if not math.isfinite(getattr(self, name)):  # nan would break value equality
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
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
    given: dict[str, dict] = {"codec": {}, "daam": {}, "mask": {}}
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
        daam = DaamParams.init(**given["daam"])
        mask = MaskConfig(**given["mask"])
        codec = given["codec"]
        if "levels" in codec:
            codec["levels"] = FsqLevels(tuple(codec["levels"]))
        return CodecConfig(**codec, daam=daam, mask=mask)
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
