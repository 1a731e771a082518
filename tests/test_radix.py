import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jdtok.errors import ValidationError
from jdtok.fsq import FsqLevels
from jdtok.radix import (
    RadixScheme,
    TokenStream,
    build_scheme,
    pack_frames,
    pack_group,
    token_rate,
    unpack_frames,
    unpack_group,
)


def positional_value(indices, radices):
    """Independent oracle: explicit positional sum with radix products."""
    total = 0
    for k, i in enumerate(indices):
        total += i * math.prod(radices[k + 1 :])
    return total


def pack_frame(indices, scheme: RadixScheme) -> list[int]:
    """Scalar oracle: pack one frame of D indices, group by group."""
    indices = list(indices)
    if len(indices) != scheme.dim:
        raise ValueError(f"expected {scheme.dim} indices, got {len(indices)}")
    padded = indices + [0] * scheme.pad_count
    g = scheme.group_size
    return [
        pack_group(padded[i : i + g], group)
        for i, group in zip(range(0, len(padded), g), scheme.group_radices)
    ]


def unpack_frame(tokens, scheme: RadixScheme) -> list[int]:
    """Scalar oracle: invert :func:`pack_frame`, dropping the pad digits."""
    tokens = list(tokens)
    if len(tokens) != scheme.group_count:
        raise ValueError(f"expected {scheme.group_count} tokens, got {len(tokens)}")
    digits: list[int] = []
    for token, group in zip(tokens, scheme.group_radices):
        digits.extend(unpack_group(token, group))
    return digits[: scheme.dim]


class TestPackGroup:
    def test_worked_example(self):
        assert pack_group([2, 1, 3, 0, 2, 1, 3], [4] * 7) == 10023

    def test_all_zero(self):
        assert pack_group([0, 0, 0], [5, 9, 2]) == 0

    def test_maximum_value(self):
        assert pack_group([3] * 7, [4] * 7) == 16383
        assert 4**7 - 1 == 16383

    def test_matches_positional_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            radices = [int(r) for r in rng.integers(1, 9, size=rng.integers(1, 9))]
            digits = [int(rng.integers(0, r)) for r in radices]
            assert pack_group(digits, radices) == positional_value(digits, radices)

    def test_out_of_range_digit(self):
        with pytest.raises(ValidationError, match="position 1"):
            pack_group([0, 3, 0], [4, 3, 4])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pack_group([0, 0], [4])


class TestUnpackGroup:
    def test_worked_example_inverse(self):
        assert unpack_group(10023, [4] * 7) == [2, 1, 3, 0, 2, 1, 3]

    def test_zero(self):
        assert unpack_group(0, [4, 3, 2]) == [0, 0, 0]

    def test_exhaustive_small(self):
        radices = [4, 3, 2]
        seen = set()
        for digits in itertools.product(*(range(r) for r in radices)):
            token = pack_group(list(digits), radices)
            assert unpack_group(token, radices) == list(digits)
            seen.add(token)
        assert seen == set(range(24))

    def test_out_of_range_token(self):
        with pytest.raises(ValidationError):
            unpack_group(24, [4, 3, 2])

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=8), st.integers(0, 10**6))
    def test_round_trip(self, radices, salt):
        prod = math.prod(radices)
        token = salt % prod
        digits = unpack_group(token, radices)
        assert all(0 <= d < r for d, r in zip(digits, radices))
        assert pack_group(digits, radices) == token


class TestLexOrder:
    def test_tuple_order_equals_token_order(self):
        radices = [3, 5, 2, 4]
        tuples = sorted(itertools.product(*(range(r) for r in radices)))
        tokens = [pack_group(list(t), radices) for t in tuples]
        assert tokens == sorted(tokens)
        assert tokens == list(range(math.prod(radices)))


class TestPadNeutrality:
    def test_radix_one_insertion_preserves_token(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            radices = [int(r) for r in rng.integers(2, 8, size=5)]
            digits = [int(rng.integers(0, r)) for r in radices]
            token = pack_group(digits, radices)
            pos = int(rng.integers(0, 6))
            padded_r = radices[:pos] + [1] + radices[pos:]
            padded_d = digits[:pos] + [0] + digits[pos:]
            assert pack_group(padded_d, padded_r) == token


class TestScheme:
    def test_default_layout(self):
        scheme = build_scheme(FsqLevels(), group_size=7)
        assert scheme.dim == 128
        assert scheme.group_count == 19
        assert scheme.pad_count == 5
        assert scheme.group_products[0] == 16384
        assert scheme.group_products[-1] == 16  # two real radix-4 digits
        assert all(p == 16384 for p in scheme.group_products[:-1])

    def test_exact_fit(self):
        scheme = build_scheme([4] * 7, group_size=7)
        assert scheme.group_count == 1
        assert scheme.pad_count == 0

    def test_one_extra_dimension(self):
        scheme = build_scheme([4] * 8, group_size=7)
        assert scheme.group_count == 2
        assert scheme.pad_count == 6
        assert scheme.group_products[1] == 4

    def test_product_overflow_rejected(self):
        with pytest.raises(ValueError, match="smaller group size"):
            build_scheme([2**33, 2**33], group_size=2)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            RadixScheme(radices=(4, 4), group_size=0)
        with pytest.raises(ValueError):
            RadixScheme(radices=(4, 0), group_size=2)

    def test_group_larger_than_dimensions_rejected(self):
        with pytest.raises(ValueError, match="exceeds the 2 dimensions"):
            RadixScheme(radices=(4, 4), group_size=3)
        assert RadixScheme(radices=(4, 4), group_size=2).group_count == 1

    def test_derived_layout_built_once(self):
        scheme = build_scheme([5, 4, 3, 2, 7], group_size=3)
        assert scheme.padded_radices == (5, 4, 3, 2, 7, 1)
        assert scheme.group_radices == ((5, 4, 3), (2, 7, 1))
        assert scheme.group_products == (60, 14)
        assert scheme.group_radices is scheme.group_radices
        # derived fields take no part in equality, hashing or repr
        assert scheme == RadixScheme(radices=(5, 4, 3, 2, 7), group_size=3)
        assert hash(scheme) == hash(RadixScheme(radices=(5, 4, 3, 2, 7), group_size=3))
        assert repr(scheme) == "RadixScheme(radices=(5, 4, 3, 2, 7), group_size=3)"


class TestFrames:
    def test_frame_layout_and_round_trip(self):
        scheme = build_scheme(FsqLevels(), group_size=7)
        rng = np.random.default_rng(2)
        frame = [int(rng.integers(0, 4)) for _ in range(128)]
        tokens = pack_frame(frame, scheme)
        assert len(tokens) == 19
        assert all(t < 16384 for t in tokens[:-1])
        assert tokens[-1] < 16
        assert unpack_frame(tokens, scheme) == frame

    def test_zero_frame(self):
        scheme = build_scheme(FsqLevels(), group_size=7)
        assert pack_frame([0] * 128, scheme) == [0] * 19

    def test_vectorized_matches_scalar(self):
        scheme = build_scheme([5, 4, 3, 2, 7], group_size=3)
        rng = np.random.default_rng(3)
        frames = np.stack(
            [rng.integers(0, r, size=50) for r in scheme.radices], axis=1
        )
        tokens = pack_frames(frames, scheme)
        for f in range(50):
            assert list(tokens[f]) == pack_frame(list(frames[f]), scheme)
        back = unpack_frames(tokens, scheme)
        np.testing.assert_array_equal(back, frames)

    def test_empty_stream(self):
        scheme = build_scheme([5, 4, 3, 2, 7], group_size=3)
        back = unpack_frames(np.zeros((0, 2), dtype=np.uint64), scheme)
        assert back.shape == (0, 5)
        assert pack_frames(back, scheme).shape == (0, 2)

    def test_bulk_round_trip(self):
        scheme = build_scheme(FsqLevels(), group_size=7)
        rng = np.random.default_rng(4)
        frames = rng.integers(0, 4, size=(10_000, 128))
        back = unpack_frames(pack_frames(frames, scheme), scheme)
        np.testing.assert_array_equal(back, frames)

    def test_bad_digit_names_frame_and_dimension(self):
        scheme = build_scheme([4, 4], group_size=2)
        frames = np.zeros((3, 2), dtype=np.int64)
        frames[2, 1] = 4
        with pytest.raises(ValidationError, match="frame 2, dimension 1"):
            pack_frames(frames, scheme)

    def test_bad_token_names_frame_and_group(self):
        scheme = build_scheme([4, 4], group_size=2)
        tokens = np.zeros((3, 1), dtype=np.uint64)
        tokens[1, 0] = 16
        with pytest.raises(ValidationError, match="frame 1, group 0"):
            unpack_frames(tokens, scheme)


class TestTokenStream:
    def test_rejects_out_of_vocabulary(self):
        scheme = build_scheme([4, 4], group_size=2)
        with pytest.raises(ValidationError, match="frame 0, group 0"):
            TokenStream(tokens=np.array([[16]]), scheme=scheme, frame_rate_hz=2.5)

    def test_rate_property(self):
        scheme = build_scheme(FsqLevels(), group_size=7)
        stream = TokenStream(
            tokens=np.zeros((4, 19), dtype=np.uint64), scheme=scheme, frame_rate_hz=2.5
        )
        assert stream.tokens_per_second == 47.5
        assert stream.frame_count == 4


class TestVocabularyBound:
    """Each group accepts tokens up to its largest, product - 1, and no further."""

    @pytest.mark.parametrize("check", ["stream", "unpack"])
    def test_largest_token_accepted_next_rejected(self, check):
        scheme = build_scheme([5, 4, 3, 2, 7], group_size=3)  # products 60, 14

        def run(tokens):
            if check == "stream":
                return TokenStream(tokens=tokens, scheme=scheme, frame_rate_hz=2.5)
            return unpack_frames(tokens, scheme)

        run(np.array([[59, 13]], dtype=np.uint64))
        with pytest.raises(ValidationError, match="group 1 exceeds the group vocabulary 14"):
            run(np.array([[59, 14]], dtype=np.uint64))

    def test_full_width_vocabulary_round_trips(self):
        # 2**64 tokens per group: the all-ones frame packs to 2**64 - 1
        scheme = build_scheme([2] * 64, group_size=64)
        assert scheme.group_products == (1 << 64,)
        frame = np.ones((1, 64), dtype=np.int64)
        tokens = pack_frames(frame, scheme)
        assert int(tokens[0, 0]) == (1 << 64) - 1
        stream = TokenStream(tokens=tokens, scheme=scheme, frame_rate_hz=2.5)
        np.testing.assert_array_equal(unpack_frames(stream.tokens, scheme), frame)


class TestTokenRate:
    def test_headline_rate(self):
        assert token_rate(24000, 9600, 19) == (2.5, 47.5)

    def test_unit_rate(self):
        assert token_rate(24000, 24000, 1) == (1.0, 1.0)

    def test_hop_from_stride_chain(self):
        assert 8 * 8 * 5 * 5 * 6 == 9600
        frame_rate, _ = token_rate(24000, 8 * 8 * 5 * 5 * 6, 19)
        assert frame_rate == 2.5

    def test_no_packing_baseline(self):
        _, tps = token_rate(24000, 9600, 128)
        assert tps == 320.0

    def test_zero_hop_rejected(self):
        with pytest.raises(ValueError):
            token_rate(24000, 0, 19)
