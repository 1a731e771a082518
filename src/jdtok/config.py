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
    daam.k          int     gate mixture components (default 4)
    daam.alpha      float   gate modulation strength (default 0.05)
    daam.delta      [float] gate mean offsets (default zeros, length daam.k)
    daam.nu         [float] gate log-scales (default log(0.5), length daam.k)
    mask.ratio      float   masked fraction target (default 0.5)
    mask.span_min   int     minimum mask span (default 2)
    mask.span_max   int     maximum mask span (default: adaptive T // 4)
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .daam import DaamParams
from .errors import ConfigError
from .fsq import FsqLevels
from .masking import MaskConfig
from .radix import build_scheme

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

    def __post_init__(self) -> None:
        if self.sample_rate < 1:
            raise ConfigError(f"sample_rate must be >= 1, got {self.sample_rate}")
        if self.hop < 1:
            raise ConfigError(f"hop must be >= 1, got {self.hop}")
        try:
            build_scheme(self.levels, self.group_size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


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

    k = int(values.get("daam.k", 4))
    delta = values.get("daam.delta")
    nu = values.get("daam.nu")
    if delta is not None and len(delta) != k:
        raise ConfigError(f"daam.delta has {len(delta)} entries but daam.k = {k}")
    if nu is not None and len(nu) != k:
        raise ConfigError(f"daam.nu has {len(nu)} entries but daam.k = {k}")
    try:
        daam = DaamParams(
            mean_offsets=np.asarray(delta, dtype=np.float64)
            if delta is not None
            else np.zeros(k),
            log_scales=np.asarray(nu, dtype=np.float64)
            if nu is not None
            else np.full(k, np.log(0.5)),
            gate_strength=float(values.get("daam.alpha", 0.05)),
        )
        mask = MaskConfig(
            mask_ratio=float(values.get("mask.ratio", 0.5)),
            span_min=int(values.get("mask.span_min", 2)),
            span_max=values.get("mask.span_max"),
        )
        levels = (
            FsqLevels(tuple(values["levels"])) if "levels" in values else FsqLevels()
        )
        return CodecConfig(
            sample_rate=int(values.get("sample_rate", 24000)),
            hop=int(values.get("hop", 9600)),
            levels=levels,
            group_size=int(values.get("group_size", 7)),
            lambda_stft=float(values.get("lambda_stft", 2.0)),
            lambda_gan=float(values.get("lambda_gan", 0.1)),
            temperature=float(values.get("temperature", 1.0)),
            daam=daam,
            mask=mask,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> CodecConfig:
    """Load a configuration file, or defaults when ``path`` is None."""
    if path is None:
        return DEFAULT_CONFIG
    return parse_config(Path(path).read_text())
