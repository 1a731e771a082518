import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jdtok.errors import ConfigError
from jdtok.masking import (
    MaskConfig,
    _WordStream,
    generate_block_mask,
    generate_block_masks,
    masked_fraction,
)


def reference_block_mask(num_frames, cfg, rng=None, *, count_overlaps=False):
    """The loop of earlier versions, one scalar rng.integers call per draw (oracle)."""
    if num_frames < 1:
        raise ConfigError(f"num_frames must be >= 1, got {num_frames}")
    target = math.floor(cfg.mask_ratio * num_frames)
    mask = np.ones(num_frames, dtype=np.uint8)
    if target == 0:
        return mask
    if cfg.span_min > num_frames:
        raise ConfigError("span_min exceeds sequence length")
    span_max = min(cfg.resolved_span_max(num_frames), num_frames)
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
    masked = 0
    while masked < target:
        length = int(rng.integers(cfg.span_min, span_max + 1))
        start = int(rng.integers(0, num_frames - length + 1))
        if count_overlaps:
            end = min(start + length, num_frames)
            masked += end - start
        else:
            length = min(length, max(target - masked, cfg.span_min))
            end = min(start + length, num_frames)
            masked += int(np.count_nonzero(mask[start:end]))
        mask[start:end] = 0
    return mask


def zero_runs(mask):
    """Lengths of maximal zero runs, computed by direct scan (oracle)."""
    runs, cur = [], 0
    for v in mask:
        if v == 0:
            cur += 1
        elif cur:
            runs.append(cur)
            cur = 0
    if cur:
        runs.append(cur)
    return runs


class TestGenerateBlockMask:
    def test_zero_ratio_is_all_ones(self):
        cfg = MaskConfig(mask_ratio=0.0, seed=1)
        mask = generate_block_mask(100, cfg)
        assert mask.shape == (100,)
        assert np.all(mask == 1)

    def test_single_span_when_target_equals_span(self):
        # floor(0.25 * 8) = 2 and spans are fixed at length 2, so exactly
        # one contiguous pair of zeros must appear.
        cfg = MaskConfig(mask_ratio=0.25, span_min=2, span_max=2, seed=3)
        mask = generate_block_mask(8, cfg)
        assert int(np.count_nonzero(mask == 0)) == 2
        assert zero_runs(mask) == [2]

    def test_count_bounds_over_seeds(self):
        for seed in range(100):
            cfg = MaskConfig(mask_ratio=0.5, span_min=2, span_max=25, seed=seed)
            mask = generate_block_mask(100, cfg)
            count = int(np.count_nonzero(mask == 0))
            assert 50 <= count <= 74

    def test_deterministic_replay(self):
        cfg = MaskConfig(mask_ratio=0.4, span_min=3, span_max=17, seed=99)
        a = generate_block_mask(222, cfg)
        b = generate_block_mask(222, cfg)
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        masks = [
            generate_block_mask(200, MaskConfig(seed=s)) for s in range(8)
        ]
        assert any(not np.array_equal(masks[0], m) for m in masks[1:])

    def test_full_ratio_masks_everything(self):
        cfg = MaskConfig(mask_ratio=1.0, span_min=1, span_max=4, seed=5)
        mask = generate_block_mask(37, cfg)
        assert np.all(mask == 0)

    def test_adaptive_span_max_resolution(self):
        cfg = MaskConfig()
        assert cfg.resolved_span_max(1000) == 250
        assert cfg.resolved_span_max(7) == 2  # never below span_min

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mask_ratio=-0.1),
            dict(mask_ratio=1.5),
            dict(span_min=0),
            dict(span_min=5, span_max=4),
            dict(seed=-1),
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigError):
            MaskConfig(**kwargs)

    @pytest.mark.parametrize(
        "call, name, value",
        [
            (lambda: MaskConfig(span_min=2.5), "span_min", 2.5),
            (lambda: MaskConfig(span_min=2.0), "span_min", 2.0),
            (lambda: MaskConfig(span_max=10.0), "span_max", 10.0),
            (lambda: MaskConfig(seed=1.5), "seed", 1.5),
            (lambda: MaskConfig(seed=0.0), "seed", 0.0),
            (lambda: generate_block_mask(100.0, MaskConfig()), "num_frames", 100.0),
            (lambda: generate_block_masks(2.0, 100, MaskConfig()), "batch", 2.0),
            (lambda: generate_block_masks(2, 100.0, MaskConfig()), "num_frames", 100.0),
        ],
    )
    def test_float_where_an_integer_belongs_is_a_config_error(self, call, name, value):
        # rejected up front, not as a TypeError from the draws or SeedSequence
        with pytest.raises(ConfigError) as info:
            call()
        assert str(info.value) == f"{name} must be an integer, got {value}"

    def test_numpy_integers_are_stored_as_python_ints(self):
        cfg = MaskConfig(span_min=np.int64(3), span_max=np.uint16(9), seed=np.int32(4))
        assert cfg == MaskConfig(span_min=3, span_max=9, seed=4)
        assert all(type(v) is int for v in (cfg.span_min, cfg.span_max, cfg.seed))
        np.testing.assert_array_equal(
            generate_block_mask(np.int64(100), cfg), generate_block_mask(100, cfg)
        )
        np.testing.assert_array_equal(
            generate_block_masks(np.int64(2), np.uint32(100), cfg),
            generate_block_masks(2, 100, cfg),
        )

    def test_span_min_longer_than_sequence(self):
        cfg = MaskConfig(mask_ratio=0.5, span_min=10, span_max=10, seed=0)
        with pytest.raises(ConfigError):
            generate_block_mask(4, cfg)
        # harmless when nothing needs masking
        assert np.all(generate_block_mask(4, MaskConfig(mask_ratio=0.0, span_min=10, span_max=10)) == 1)

    def test_compat_counter_can_undershoot(self):
        # The literal counter adds full span lengths even on overlap; seed 1
        # at this size demonstrably stops short of the target.
        cfg = MaskConfig(mask_ratio=0.5, span_min=2, span_max=25, seed=1)
        strict = generate_block_mask(100, cfg)
        legacy = generate_block_mask(100, cfg, count_overlaps=True)
        assert int(np.count_nonzero(strict == 0)) >= 50
        assert int(np.count_nonzero(legacy == 0)) < 50

    def test_zero_runs_at_least_span_min(self):
        for seed in range(50):
            cfg = MaskConfig(mask_ratio=0.5, span_min=3, span_max=11, seed=seed)
            runs = zero_runs(generate_block_mask(97, cfg))
            assert all(r >= 3 for r in runs)

    @settings(max_examples=60, deadline=None)
    @given(
        frames=st.integers(4, 300),
        ratio=st.floats(0.0, 1.0),
        span_min=st.integers(1, 4),
        extra=st.integers(0, 20),
        seed=st.integers(0, 2**32),
    )
    def test_mask_properties(self, frames, ratio, span_min, extra, seed):
        cfg = MaskConfig(
            mask_ratio=ratio, span_min=span_min, span_max=span_min + extra, seed=seed
        )
        if int(np.floor(ratio * frames)) > 0 and span_min > frames:
            with pytest.raises(ConfigError):
                generate_block_mask(frames, cfg)
            return
        mask = generate_block_mask(frames, cfg)
        assert set(np.unique(mask)) <= {0, 1}
        count = int(np.count_nonzero(mask == 0))
        target = int(np.floor(ratio * frames))
        span_max = min(span_min + extra, frames)
        assert target <= count <= min(frames, target + span_max - 1)
        assert np.array_equal(mask, generate_block_mask(frames, cfg))


class TestBulkDraws:
    """Masks drawn from the bulk word stream equal those of the scalar loop."""

    @settings(max_examples=150, deadline=None)
    @given(
        frames=st.integers(1, 3000),
        ratio=st.floats(0.0, 1.0),
        span_min=st.integers(1, 6),
        extra=st.one_of(st.none(), st.integers(0, 300)),
        seed=st.integers(0, 2**64 - 1),
        count_overlaps=st.booleans(),
    )
    def test_same_mask_as_scalar_loop(self, frames, ratio, span_min, extra, seed, count_overlaps):
        # extra=None is the adaptive span_max
        span_max = None if extra is None else span_min + extra
        cfg = MaskConfig(mask_ratio=ratio, span_min=span_min, span_max=span_max, seed=seed)
        try:
            want = reference_block_mask(frames, cfg, count_overlaps=count_overlaps)
        except ConfigError:
            with pytest.raises(ConfigError):
                generate_block_mask(frames, cfg, count_overlaps=count_overlaps)
            return
        got = generate_block_mask(frames, cfg, count_overlaps=count_overlaps)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("count_overlaps", [False, True])
    @pytest.mark.parametrize("span_max", [8, None])
    def test_same_long_mask_as_scalar_loop(self, count_overlaps, span_max):
        cfg = MaskConfig(mask_ratio=0.5, span_min=2, span_max=span_max, seed=11)
        np.testing.assert_array_equal(
            generate_block_mask(100_000, cfg, count_overlaps=count_overlaps),
            reference_block_mask(100_000, cfg, count_overlaps=count_overlaps),
        )

    def test_batch_rows_match_scalar_loop(self):
        cfg = MaskConfig(mask_ratio=0.5, span_min=2, seed=5)
        children = np.random.SeedSequence(5).spawn(4)
        want = [
            reference_block_mask(1024, cfg, np.random.Generator(np.random.PCG64(c)))
            for c in children
        ]
        np.testing.assert_array_equal(generate_block_masks(4, 1024, cfg), np.stack(want))

    @pytest.mark.parametrize("seed", [0, 77, 2**63 + 5])
    @pytest.mark.parametrize("count_overlaps", [False, True])
    @pytest.mark.parametrize("ratio", [0.0, 0.5, 0.95])
    def test_mask_comes_from_the_seeded_pcg64(self, seed, count_overlaps, ratio):
        cfg = MaskConfig(mask_ratio=ratio, span_min=2, span_max=40, seed=seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        np.testing.assert_array_equal(
            generate_block_mask(3000, cfg, count_overlaps=count_overlaps),
            reference_block_mask(3000, cfg, rng, count_overlaps=count_overlaps),
        )

    @pytest.mark.parametrize("span_max", [8, None])
    @pytest.mark.parametrize("ratio", [0.0, 0.5, 0.95])
    def test_batch_rows_come_from_the_spawned_children(self, span_max, ratio):
        cfg = MaskConfig(mask_ratio=ratio, span_min=2, span_max=span_max, seed=9)
        children = np.random.SeedSequence(9).spawn(3)
        want = [
            reference_block_mask(1000, cfg, np.random.Generator(np.random.PCG64(c)))
            for c in children
        ]
        np.testing.assert_array_equal(generate_block_masks(3, 1000, cfg), np.stack(want))

    @staticmethod
    def check_integers(seed, lo, hi, draws):
        stream_rng = np.random.Generator(np.random.PCG64(seed))
        scalar_rng = np.random.Generator(np.random.PCG64(seed))
        words = _WordStream(stream_rng)
        got = [words.integer(lo, hi) for _ in range(draws)]
        want = [int(scalar_rng.integers(lo, hi + 1)) for _ in range(draws)]
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        lo=st.integers(-(2**40), 2**40),
        width=st.one_of(
            st.integers(0, 64), st.integers(0, 2**32 - 2), st.integers(2**31, 2**32 - 2)
        ),
    )
    def test_integer_equals_rng_integers(self, seed, lo, width):
        self.check_integers(seed, lo, lo + width, 60)

    @pytest.mark.parametrize(
        "width",
        [
            0,  # one value: no word drawn
            1,
            2**31,  # n = 2**31 + 1 rejects nearly half of all words
            2**31 + 2**30,
            3 * 10**9,
            2**32 - 2,  # the widest range the rule covers
        ],
    )
    def test_integer_on_rejection_heavy_ranges(self, width):
        self.check_integers(2024, 0, width, 500)

    def test_integer_rejects_exactly_below_the_threshold(self):
        # n = 2**31 + 1 is its own inverse mod 2**32, and its threshold is
        # (2**32 - n) % n = 2**31 - 1, so word (t * n) % 2**32 leaves t.
        n = 2**31 + 1
        threshold = 2**31 - 1
        below, at, top = ((t * n) % 2**32 for t in (threshold - 1, threshold, 2**32 - 1))

        class FixedWords:
            """Stands in for a Generator: its first chunk of words is given."""

            def __init__(self, *words):
                self.words = list(words)

            def integers(self, lo, hi, size, dtype):
                return np.array(self.words + [top] * (size - len(self.words)), dtype=dtype)

        words = _WordStream(FixedWords(below, at))
        assert words.integer(5, 5 + n - 1) == 5 + (at * n >> 32)
        words = _WordStream(FixedWords(at))
        assert words.integer(0, n - 1) == at * n >> 32

    @pytest.mark.parametrize("frames", [2**32, 2**32 + 1, 10**12])
    @pytest.mark.parametrize("ratio", [0.0, 0.5])
    def test_frame_bound_raises_before_allocating(self, frames, ratio):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="2\\*\\*32"):
                generate_block_mask(frames, MaskConfig(mask_ratio=ratio))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_mask_is_writable(self):
        mask = generate_block_mask(64, MaskConfig(seed=3))
        mask[:] = 1
        assert np.all(mask == 1)


class TestBatchedMasks:
    def test_rows_are_independent_and_deterministic(self):
        cfg = MaskConfig(seed=11)
        batch = generate_block_masks(6, 400, cfg)
        assert batch.shape == (6, 400)
        assert any(
            not np.array_equal(batch[0], batch[i]) for i in range(1, 6)
        )
        assert np.array_equal(batch, generate_block_masks(6, 400, cfg))

    def test_batch_rows_meet_target(self):
        cfg = MaskConfig(mask_ratio=0.5, seed=2)
        batch = generate_block_masks(4, 100, cfg)
        counts = np.count_nonzero(batch == 0, axis=1)
        assert np.all(counts >= 50)


class TestMaskedFraction:
    def test_all_visible(self):
        assert masked_fraction(np.ones(10)) == 0.0

    def test_all_masked(self):
        assert masked_fraction(np.zeros(10)) == 1.0

    def test_counting(self):
        mask = np.ones(12)
        mask[[2, 5, 9]] = 0
        assert masked_fraction(mask) == 0.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            masked_fraction(np.ones(0))
