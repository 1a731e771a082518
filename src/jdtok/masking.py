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
its range by numpy's own rule (``_WordStream.integer``).  A span's length
and start depend on the words alone, never on the mask, because the start
is drawn for the unclipped length.  So a long mask maps arrays of words to
arrays of spans with the same rule in numpy (``_spans``) and applies runs of
spans at once (``_Walk.walk``); the scalar rule still takes each span whose
draw rejects a word or whose range holds one value, and each span of a
short mask.  Masks are therefore bit-identical to those of the
one-call-per-draw, one-span-at-a-time loop of earlier versions.  The rule
covers ranges of at most 2**32 - 1 values, so ``num_frames`` must be below
2**32 (``ConfigError``, exit 2 on the CLI).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, as_integer

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
        for name in ("span_min", "span_max", "seed"):  # 2.0 too: each feeds integer draws
            value = getattr(self, name)
            if name != "span_max" or value is not None:  # None: the adaptive span_max
                object.__setattr__(self, name, as_integer(name, value, ConfigError))
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
_LOW = _WORD - 1
_MAX_CHUNK = 1 << 13  # words mapped at once: bounds a walk's memory
# A need of this many longest spans is walked in bulk, and after this many
# spans in a row that mask nothing, only spans that can reach a visible frame.
_BULK_SPANS = 16
_NO_WORDS = np.empty(0, dtype=np.uint32)


class _WordStream:
    """A generator's 32-bit words, drawn in bulk and consumed in order.

    ``_array`` holds the unconsumed words.  The scalar rule reads them as
    Python ints through ``_words``, an iterator over a window of the first
    ``_window`` of them.  Chunks double from 16 words up to ``_MAX_CHUNK``,
    so a short mask draws few spare words and a long one few chunks.  Words
    are drawn only when the first one is needed.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._array = _NO_WORDS
        self._words = iter(())
        self._window = 0
        self._chunk = 16

    def _refill(self, count: int) -> None:
        fresh = self._rng.integers(0, _WORD, size=max(count, self._chunk), dtype=np.uint32)
        self._chunk = min(2 * self._chunk, _MAX_CHUNK)
        self._array = np.concatenate((self._array, fresh)) if len(self._array) else fresh

    def _next_window(self) -> int:
        if self._window:
            self._array = self._array[self._window:]
        if not len(self._array):
            self._refill(1)
        window = self._array[:64].tolist()
        self._window = len(window)
        self._words = iter(window)
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
        m = (self._next_window() if word is None else word) * n
        if m & _LOW < n:  # the threshold is below n, so only now can it reject
            threshold = (_WORD - n) % n
            while m & _LOW < threshold:
                word = next(self._words, None)
                m = (self._next_window() if word is None else word) * n
        return lo + (m >> 32)

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` words, not consumed."""
        self.skip(0)
        if len(self._array) < count:
            self._refill(count - len(self._array))
        return self._array[:count]

    def skip(self, count: int) -> None:
        """Consume ``count`` words beyond those the scalar rule read."""
        read = self._window - operator.length_hint(self._words)
        self._array = self._array[read + count:]
        self._words = iter(())
        self._window = 0


def _bounded(words: np.ndarray, n) -> tuple[np.ndarray, np.ndarray]:
    """``_WordStream.integer``'s rule on an array of words, for n values (scalar or per word).

    Returns each word's offset into its range and whether the rule rejects
    the word.  Each scalar draw skips the rejected words and takes the next.
    """
    m = words.astype(np.uint64) * n  # below 2**64: no wrap
    low = m & _LOW
    rejected = low < n  # only these can fall below the threshold (2**32 - n) % n
    if rejected.any():
        at = np.flatnonzero(rejected)
        near = n if np.ndim(n) == 0 else n[at]
        rejected[at] = low[at] < (_WORD - near) % near
    return m >> 32, rejected


def _spans(
    words: np.ndarray, span_min: int, span_max: int, num_frames: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """(lengths, starts, words used) of the leading spans that draw one word per integer.

    A span's length and start depend on the words alone, never on the mask,
    because the start is drawn for the unclipped length.  Mapping stops
    before the first span whose draw rejects a word or whose start has one
    possible value (length T, which draws no word); the scalar rule takes it.
    """
    if span_min == span_max:  # the length draws no word
        lengths = np.full(len(words), span_min, dtype=np.uint64)
        irregular = np.zeros(len(words), dtype=bool)
        start_words = words
    else:
        pairs = len(words) // 2
        lengths, irregular = _bounded(words[:2 * pairs:2], span_max - span_min + 1)
        lengths += np.uint64(span_min)
        start_words = words[1:2 * pairs:2]
    starts, rejected = _bounded(start_words, (num_frames + 1) - lengths)
    irregular |= rejected
    if span_max == num_frames:
        irregular |= lengths == num_frames
    count = int(np.argmax(irregular)) if irregular.any() else len(lengths)
    per_span = 1 if span_min == span_max else 2
    return (lengths[:count].astype(np.intp), starts[:count].astype(np.intp),
            per_span * count)


class _Walk:
    """The span loop's state: the visible frames, the masked count and the target.

    ``step`` applies one span as the scalar loop of earlier versions does;
    ``walk`` applies a run of spans with the same result.
    """

    __slots__ = ("visible", "masked", "target", "span_min", "count_overlaps")

    def __init__(self, num_frames: int, target: int, span_min: int, count_overlaps: bool) -> None:
        self.visible = bytearray(b"\x01") * num_frames
        self.masked = 0
        self.target = target
        self.span_min = span_min
        self.count_overlaps = count_overlaps

    @property
    def frames(self) -> np.ndarray:
        """The visible flags as an array over the same bytes."""
        return np.frombuffer(self.visible, dtype=np.uint8)

    def step(self, length: int, start: int) -> int:
        """Apply one span; return what it adds to the masked count."""
        if self.count_overlaps:
            added = length
        else:
            need = self.target - self.masked
            if length > need:  # clip to the remaining need, never below span_min
                length = max(need, self.span_min)
            added = self.visible.count(1, start, start + length)
        self.masked += added
        self.visible[start:start + length] = bytes(length)
        return added

    def _apply(self, lengths: np.ndarray, starts: np.ndarray) -> None:
        """Mask whole spans in one fancy assignment.

        The frame index steps by 1 within a span and jumps from a span's
        last frame to the next span's start, so one running sum of steps
        gives every index, in one array.
        """
        ends = np.cumsum(lengths)
        index = np.ones(ends[-1], dtype=np.intp)
        index[0] = starts[0]
        index[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
        self.frames[np.cumsum(index, out=index)] = 0

    def _reaching(self, lengths: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Indices of the spans that may reach a visible frame; no other span changes the mask.

        Spans are clipped to the need of now, which later steps only shrink.
        """
        frames = self.frames
        visible = np.append(np.flatnonzero(frames), len(frames))
        ends = starts + np.minimum(lengths, max(self.target - self.masked, self.span_min))
        return np.flatnonzero(visible[np.searchsorted(visible, starts)] < ends)

    def walk(self, lengths: np.ndarray, starts: np.ndarray, idle: int) -> int:
        """Apply spans in order until they run out or the target is met.

        Under the legacy counter that is every span through the one whose
        running length sum reaches the target.  Under the default counter,
        every leading span whose running sum fits the need is applied
        unclipped, then the masked count is the count of zeros; a span
        longer than the need takes the scalar step.  ``idle`` counts the
        latest spans that masked nothing; once it reaches ``_BULK_SPANS``,
        only the spans that may reach a visible frame are stepped.  Returns
        the new ``idle``.
        """
        sums = np.cumsum(lengths)
        if self.count_overlaps:
            count = int(np.searchsorted(sums, self.target - self.masked)) + 1
            self._apply(lengths[:count], starts[:count])
            self.masked += int(sums[min(count, len(sums)) - 1])
            return 0
        i = 0
        while i < len(lengths) and idle < _BULK_SPANS and self.masked < self.target:
            done = int(sums[i - 1]) if i else 0
            fit = int(np.searchsorted(sums, done + self.target - self.masked, side="right"))
            if fit > i:
                before = self.masked
                self._apply(lengths[i:fit], starts[i:fit])
                self.masked = len(self.visible) - np.count_nonzero(self.frames)
                idle = idle + fit - i if self.masked == before else 0
                i = fit
            else:
                idle = idle + 1 if self.step(int(lengths[i]), int(starts[i])) == 0 else 0
                i += 1
        if i < len(lengths) and self.masked < self.target:  # the spans pile up near the target
            last = i - 1 - idle
            for j in (i + self._reaching(lengths[i:], starts[i:])).tolist():
                if self.masked >= self.target:
                    break
                if self.step(int(lengths[j]), int(starts[j])):
                    last = j
            idle = len(lengths) - 1 - last
        return idle


def _block_mask(
    num_frames: int, cfg: MaskConfig, words: _WordStream, count_overlaps: bool
) -> np.ndarray:
    num_frames = as_integer("num_frames", num_frames, ConfigError)
    if not 1 <= num_frames < _WORD:
        raise ConfigError(f"num_frames must be in [1, 2**32), got {num_frames}")
    target = math.floor(cfg.mask_ratio * num_frames)
    if target == 0:
        return np.ones(num_frames, dtype=np.uint8)
    if cfg.span_min > num_frames:
        raise ConfigError(
            f"span_min ({cfg.span_min}) exceeds sequence length ({num_frames})"
        )
    if target == num_frames and not count_overlaps:
        # the default loop ends only once every frame is masked
        return np.zeros(num_frames, dtype=np.uint8)
    span_min = cfg.span_min
    span_max = min(cfg.resolved_span_max(num_frames), num_frames)

    walk = _Walk(num_frames, target, span_min, count_overlaps)
    step, integer = walk.step, words.integer
    idle = 0  # the latest spans that masked nothing
    while walk.masked < target:
        need = target - walk.masked
        if idle >= _BULK_SPANS or need >= _BULK_SPANS * span_max:
            # two words a span: as many spans again as lay idle, or the need's mean spans
            wanted = 4 * idle if idle >= _BULK_SPANS else 4 * need // (span_min + span_max)
            lengths, starts, used = _spans(
                words.peek(min(wanted, _MAX_CHUNK)), span_min, span_max, num_frames
            )
            words.skip(used)
            if used:
                idle = walk.walk(lengths, starts, idle)
                continue
        length = integer(span_min, span_max)
        idle = 0 if step(length, integer(0, num_frames - length)) else idle + 1
    return walk.frames


def generate_block_mask(
    num_frames: int, cfg: MaskConfig, *, count_overlaps: bool = False
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

    Where many spans remain, they are mapped in bulk from arrays of words
    and applied in runs; the scalar rule still runs at a rejected word or a
    one-value range.  Near the target, only spans that can reach a visible
    frame are applied, since no other span changes the mask.  Under the
    default counter a target of every frame returns all zeros at once, as
    the loop reaches only after about T**2 draws.  Every mask equals that of
    the one-span-at-a-time loop.

    Args:
        num_frames: sequence length T, 1 <= T < 2**32.
        cfg: mask distribution parameters; draws come from ``PCG64(cfg.seed)``.
        count_overlaps: use the legacy span-length counter.

    Returns:
        uint8 array of shape (T,) with 1 = visible, 0 = masked.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    return _block_mask(num_frames, cfg, _WordStream(rng), count_overlaps)


def generate_block_masks(batch: int, num_frames: int, cfg: MaskConfig) -> np.ndarray:
    """Generate a (batch, T) stack of masks, one independent substream per row."""
    batch = as_integer("batch", batch, ConfigError)
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    children = np.random.SeedSequence(cfg.seed).spawn(batch)
    rows = [
        _block_mask(
            num_frames,
            cfg,
            _WordStream(np.random.Generator(np.random.PCG64(child))),
            count_overlaps=False,
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
