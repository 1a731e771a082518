"""Block-structured temporal masking for masked-prediction pretraining.

A mask is a {0,1} vector over frames: 1 marks visible (context) frames,
0 marks masked (target) frames.  Contiguous spans of zeros are placed at
random positions until the requested fraction of the timeline is covered,
which forces downstream predictors to model long-range structure instead of
interpolating single frames.

All randomness comes from numpy's PCG64 generator, so masks are reproducible
bit-for-bit across platforms given (frame count, config, seed).  Batched
generation derives one independent PCG64 substream per row via
``numpy.random.SeedSequence.spawn``.

Each span needs two bounded integers, its length and its start.  They are
not drawn by two scalar ``Generator.integers`` calls: the generator's 32-bit
words are drawn in bulk (``integers(0, 2**32, size=n, dtype=np.uint32)``
returns exactly the words that scalar draws consume) and each is mapped to
its range by numpy's own rule (``_WordStream.integer``).  Masks are therefore
bit-identical to those of the one-call-per-draw loop of earlier versions.  A
caller-supplied generator ends in the state those scalar calls would leave:
it is rewound and advanced by exactly the words the mask used.  The rule
covers ranges of at most 2**32 - 1 values, so ``num_frames`` must be below
2**32 (``ConfigError``, exit 2 on the CLI).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "MaskConfig",
    "generate_block_mask",
    "generate_block_masks",
    "masked_fraction",
]


@dataclass(frozen=True)
class MaskConfig:
    """Hyperparameters of the block-mask distribution.

    Attributes:
        mask_ratio: target fraction of frames to mask, in [0, 1].  The
            generated mask covers at least ``floor(mask_ratio * T)`` frames
            and overshoots that target by at most span_min - 1.
        span_min: minimum span length in frames (>= 1).
        span_max: maximum span length in frames, or None for the adaptive
            rule ``T // 4`` (never below span_min, so short sequences stay
            maskable).
        seed: non-negative seed for the pseudorandom source.
    """

    mask_ratio: float = 0.5
    span_min: int = 2
    span_max: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.mask_ratio <= 1.0:
            raise ConfigError(f"mask_ratio must be in [0, 1], got {self.mask_ratio}")
        if self.span_min < 1:
            raise ConfigError(f"span_min must be >= 1, got {self.span_min}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.span_max is not None and self.span_max < self.span_min:
            raise ConfigError(
                f"span_max ({self.span_max}) must be >= span_min ({self.span_min})"
            )

    def resolved_span_max(self, num_frames: int) -> int:
        """Concrete maximum span for a sequence of ``num_frames`` frames."""
        if self.span_max is None:
            return max(self.span_min, num_frames // 4)
        return self.span_max


_WORD = 1 << 32  # bound of one generator word


class _WordStream:
    """A generator's 32-bit words, drawn in bulk and consumed one at a time.

    Chunks double from 16 words, so a short mask draws few spare words and a
    long one few chunks.  Words are drawn only when the first one is needed.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._words = iter(())
        self._chunk = 16
        self.drawn = 0

    @property
    def used(self) -> int:
        """Words consumed so far; the rest of the last chunk is spare."""
        return self.drawn - operator.length_hint(self._words)

    def _refill(self) -> int:
        self._words = iter(
            self._rng.integers(0, _WORD, size=self._chunk, dtype=np.uint32).tolist()
        )
        self.drawn += self._chunk
        self._chunk *= 2
        return next(self._words)

    def integer(self, lo: int, hi: int) -> int:
        """``int(rng.integers(lo, hi + 1))`` from the same words, for hi - lo <= 2**32 - 2.

        numpy's Lemire rule: ``m = word * n`` for the n values of the range;
        reject while ``m mod 2**32 < (2**32 - n) % n``; return ``lo + (m >> 32)``.
        A range of one value draws no word.
        """
        n = hi - lo + 1
        if n == 1:
            return lo
        word = next(self._words, None)
        m = (self._refill() if word is None else word) * n
        if m & (_WORD - 1) < n:  # the threshold is below n, so only now can it reject
            threshold = (_WORD - n) % n
            while m & (_WORD - 1) < threshold:
                word = next(self._words, None)
                m = (self._refill() if word is None else word) * n
        return lo + (m >> 32)


def _block_mask(
    num_frames: int, cfg: MaskConfig, words: _WordStream, count_overlaps: bool
) -> np.ndarray:
    if not 1 <= num_frames < _WORD:
        raise ConfigError(f"num_frames must be in [1, 2**32), got {num_frames}")
    target = math.floor(cfg.mask_ratio * num_frames)
    if target == 0:
        return np.ones(num_frames, dtype=np.uint8)
    if cfg.span_min > num_frames:
        raise ConfigError(
            f"span_min ({cfg.span_min}) exceeds sequence length ({num_frames})"
        )
    span_max = min(cfg.resolved_span_max(num_frames), num_frames)

    span_min, integer = cfg.span_min, words.integer
    visible = bytearray(b"\x01") * num_frames
    masked = 0
    while masked < target:
        length = integer(span_min, span_max)
        start = integer(0, num_frames - length)
        if count_overlaps:
            masked += length
        else:
            if length > target - masked:  # clip to the remaining need, never below span_min
                length = max(target - masked, span_min)
            masked += visible.count(1, start, start + length)
        visible[start:start + length] = bytes(length)
    return np.frombuffer(visible, dtype=np.uint8)


def generate_block_mask(
    num_frames: int,
    cfg: MaskConfig,
    rng: np.random.Generator | None = None,
    *,
    count_overlaps: bool = False,
) -> np.ndarray:
    """Sample one block mask of length ``num_frames``.

    Spans are drawn until the number of masked frames reaches
    ``floor(mask_ratio * num_frames)``: span length uniform on
    {span_min, ..., min(span_max, T)}, start position uniform on
    {0, ..., T - length}, both ends inclusive.  By default the progress
    counter only counts newly masked frames, which guarantees the target is
    met even when spans overlap, and the applied span is clipped to the
    remaining need (never below span_min) so the target is overshot by at
    most span_min - 1 frames and the mean masked fraction stays tight to
    mask_ratio.  With ``count_overlaps=True`` the loop instead runs the
    legacy literal form (exposed on the CLI as --compat-paper-mask-counter):
    full spans are applied unclipped and the counter adds the whole span
    length regardless of overlap, so the final mask can undershoot the
    target.

    Args:
        num_frames: sequence length T, 1 <= T < 2**32.
        cfg: mask distribution parameters.
        rng: optional generator; defaults to ``PCG64(cfg.seed)``.  It is left
            in the state that drawing each span's length and start by
            ``rng.integers`` leaves.
        count_overlaps: use the legacy span-length counter.

    Returns:
        uint8 array of shape (T,) with 1 = visible, 0 = masked.
    """
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        return _block_mask(num_frames, cfg, _WordStream(rng), count_overlaps)
    state = rng.bit_generator.state
    words = _WordStream(rng)
    mask = _block_mask(num_frames, cfg, words, count_overlaps)
    # rewind, then draw only the words the mask used
    rng.bit_generator.state = state
    rng.integers(0, _WORD, size=words.used, dtype=np.uint32)
    return mask


def generate_block_masks(
    batch: int,
    num_frames: int,
    cfg: MaskConfig,
    *,
    count_overlaps: bool = False,
) -> np.ndarray:
    """Generate a (batch, T) stack of masks, one independent substream per row."""
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    children = np.random.SeedSequence(cfg.seed).spawn(batch)
    rows = [
        _block_mask(
            num_frames,
            cfg,
            _WordStream(np.random.Generator(np.random.PCG64(child))),
            count_overlaps,
        )
        for child in children
    ]
    return np.stack(rows)


def masked_fraction(mask: np.ndarray) -> float:
    """Fraction of masked (zero) entries in a mask vector."""
    mask = np.asarray(mask)
    if mask.size == 0:
        raise ValueError("mask must be non-empty")
    return float(np.count_nonzero(mask == 0) / mask.size)
