import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jdtok.errors import ValidationError
from jdtok.fsq import FsqLevels, fsq_boundaries
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
    radices = scheme.padded_radices
    return [pack_group(padded[i : i + g], radices[i : i + g]) for i in range(0, len(padded), g)]


def unpack_frame(tokens, scheme: RadixScheme) -> list[int]:
    """Scalar oracle: invert :func:`pack_frame`, dropping the pad digits."""
    tokens = list(tokens)
    if len(tokens) != scheme.group_count:
        raise ValueError(f"expected {scheme.group_count} tokens, got {len(tokens)}")
    g, radices = scheme.group_size, scheme.padded_radices
    digits: list[int] = []
    for i, token in zip(range(0, len(radices), g), tokens):
        digits.extend(unpack_group(token, radices[i : i + g]))
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
        assert scheme.levels == FsqLevels()  # the radices as the level list that checked them
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
            build_scheme([2] * 33, group_size=33)

    def test_token_file_limits(self):
        # a radix is a u16 and a token a u32 in the token file
        assert build_scheme([65535], 1).token_dtype == np.uint16
        with pytest.raises(ValueError, match=r"^radices above 65535 are not serializable \(got 65536\)$"):
            build_scheme([65536], 1)
        with pytest.raises(ValueError, match=r"^radices above 65535 are not serializable \(got 6700417\)$"):
            build_scheme([641, 6700417], 2)  # 2**32 + 1 needs a radix above 65535
        assert build_scheme([256] * 4, 4).token_dtype == np.uint32  # 2**32
        # 2**32 + 4, the smallest vocabulary above 2**32 of radices up to 65535
        with pytest.raises(ValueError, match=f"^group 0 vocabulary {2**32 + 4} exceeds the 32-bit token width"):
            build_scheme([1321, 2501, 325, 4], 4)

    @pytest.mark.parametrize(
        "radices, group_size, dtype",
        [([4] * 128, 7, np.uint16), ([2] * 16, 16, np.uint16), ([2] * 17, 17, np.uint32), ([2] * 17, 16, np.uint16)],
    )
    def test_token_dtype_is_the_narrowest_that_holds_every_vocabulary(self, radices, group_size, dtype):
        scheme = build_scheme(radices, group_size)
        assert scheme.token_dtype == dtype
        assert pack_frames(np.zeros((1, len(radices)), dtype=np.int64), scheme).dtype == dtype

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            RadixScheme(radices=(4, 4), group_size=0)
        with pytest.raises(ValueError):
            RadixScheme(radices=(4, 0), group_size=2)

    @pytest.mark.parametrize("group_size", [7.0, 2.5])
    def test_fractional_group_size_rejected(self, group_size):
        with pytest.raises(ValueError) as info:
            RadixScheme(radices=(4,) * 14, group_size=group_size)
        assert type(info.value) is ValueError
        assert str(info.value) == f"group_size must be an integer, got {group_size}"

    def test_group_size_is_stored_as_a_python_int(self):
        scheme = RadixScheme(radices=(4,) * 14, group_size=np.int64(7))
        assert type(scheme.group_size) is int
        assert scheme == build_scheme([4] * 14, 7)

    def test_group_larger_than_dimensions_rejected(self):
        with pytest.raises(ValueError, match="exceeds the 2 dimensions"):
            RadixScheme(radices=(4, 4), group_size=3)
        assert RadixScheme(radices=(4, 4), group_size=2).group_count == 1

    def test_derived_layout_built_once(self):
        scheme = build_scheme([5, 4, 3, 2, 7], group_size=3)
        assert scheme.padded_radices == (5, 4, 3, 2, 7, 1)
        assert scheme.group_products == (60, 14)
        # derived fields take no part in equality, hashing or repr
        assert scheme == RadixScheme(radices=(5, 4, 3, 2, 7), group_size=3)
        assert hash(scheme) == hash(RadixScheme(radices=(5, 4, 3, 2, 7), group_size=3))
        assert repr(scheme) == "RadixScheme(radices=(5, 4, 3, 2, 7), group_size=3)"

    def test_keeps_the_levels_that_built_it(self, monkeypatch):
        levels = FsqLevels((5, 4, 3, 2, 7))
        checks = []
        check = FsqLevels.__post_init__
        monkeypatch.setattr(FsqLevels, "__post_init__", lambda self: checks.append(check(self)))
        scheme = build_scheme(levels, group_size=3)
        assert scheme.levels is levels and not checks  # the list is not checked again
        # a plain tuple is checked once, into a new FsqLevels
        plain = RadixScheme(radices=(5, 4, 3, 2, 7), group_size=3)
        assert len(checks) == 1 and plain.levels == levels
        assert scheme.radices == plain.radices == (5, 4, 3, 2, 7)
        assert scheme == plain and hash(scheme) == hash(plain)
        assert repr(scheme) == repr(plain)


class TestOneLevelRule:
    """Every radix is a level count, so FsqLevels alone checks the list."""

    MESSAGES = {
        (): "need at least one dimension",
        (4, 0): "all levels must be >= 1, got (4, 0)",
        (-1,): "all levels must be >= 1, got (-1,)",
        # a float level is rejected, not truncated to (4, 2) or (2,)
        (4.7, 2.2): "levels must be integers, got (4.7, 2.2)",
        (2.5,): "levels must be integers, got (2.5,)",
        (4.0, 4): "levels must be integers, got (4.0, 4)",
    }

    @pytest.mark.parametrize("group_size", [0, 1, 7])
    @pytest.mark.parametrize("levels", list(MESSAGES))
    @pytest.mark.parametrize(
        "make",
        [
            lambda levels, g: FsqLevels(levels),
            lambda levels, g: RadixScheme(radices=levels, group_size=g),
            lambda levels, g: build_scheme(levels, group_size=g),
        ],
        ids=["FsqLevels", "RadixScheme", "build_scheme"],
    )
    def test_rejected_with_the_same_plain_value_error(self, make, levels, group_size):
        # the level list is checked before the group size, whatever that is
        with pytest.raises(ValueError) as info:
            make(levels, group_size)
        assert type(info.value) is ValueError
        assert str(info.value) == self.MESSAGES[levels]

    def test_boundaries_take_the_same_rule(self):
        with pytest.raises(ValueError) as info:
            fsq_boundaries(0)
        assert type(info.value) is ValueError
        assert str(info.value) == "all levels must be >= 1, got (0,)"
        assert fsq_boundaries(1).tolist() == [0.0]
        with pytest.raises(ValueError, match=r"^levels must be integers, got \(2\.5,\)$"):
            fsq_boundaries(2.5)


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
        assert tokens.dtype == back.dtype == np.uint16
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
        with pytest.raises(ValidationError, match=r"^index 4 out of range for dimension 1 \(level 4\) at frame 2$"):
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

    @pytest.mark.parametrize("bits", [16, 32])
    def test_full_width_vocabulary_round_trips(self, bits):
        # 2**bits tokens per group: the all-ones frame packs to the dtype's largest
        scheme = build_scheme([2] * bits, group_size=bits)
        assert scheme.group_products == (1 << bits,)
        frame = np.ones((1, bits), dtype=np.int64)
        tokens = pack_frames(frame, scheme)
        assert tokens.dtype == scheme.token_dtype == np.dtype(f"uint{bits}")
        assert int(tokens[0, 0]) == (1 << bits) - 1
        stream = TokenStream(tokens=tokens, scheme=scheme, frame_rate_hz=2.5)
        back = unpack_frames(stream.tokens, scheme)
        assert back.dtype == scheme.token_dtype
        np.testing.assert_array_equal(back, frame)


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

    def test_bound_of_one_accepted(self):
        # hop and sample_rate of exactly 1 are valid: the bound is >= 1, not > 1
        assert token_rate(24000, 1, 2) == (24000.0, 48000.0)
        assert token_rate(1, 1, 3) == (1.0, 3.0)
        assert token_rate(1.0, 4, 1) == (0.25, 0.25)

    def test_zero_hop_rejected(self):
        with pytest.raises(ValueError):
            token_rate(24000, 0, 19)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, value):
        with pytest.raises(ValueError) as info:
            token_rate(24000, value, 19)
        assert str(info.value) == f"hop must be finite, got {value}"
        with pytest.raises(ValueError) as info:
            token_rate(value, 9600, 19)
        assert str(info.value) == f"sample_rate must be finite, got {value}"

    @pytest.mark.parametrize("value", [2.5, 9600.0, 0.5, np.float64(9600)])
    def test_fractional_hop_rejected(self, value):
        # a sample count: an integral float is rejected too, before the >= 1 bound
        with pytest.raises(ValueError) as info:
            token_rate(24000, value, 19)
        assert str(info.value) == f"hop must be an integer, got {value}"

    def test_numpy_integer_hop_accepted(self):
        assert token_rate(24000, np.int64(9600), 19) == (2.5, 47.5)


INT_DTYPES = [np.uint8, np.uint16, np.uint32, np.uint64, np.int8, np.int16, np.int32, np.int64]
NON_INT_DTYPES = [np.float64, np.float32, np.bool_]
UNEVEN = build_scheme([5, 4, 3, 2, 7], group_size=3)  # products 60, 14
FULL_U16 = build_scheme([2] * 16, group_size=16)  # product 2**16
FULL_U32 = build_scheme([2] * 32, group_size=32)  # product 2**32


def outcome(call):
    """``None`` if ``call()`` returns, else the type and message it raised."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the outcome itself is compared
        return type(exc), str(exc)
    return None


def token_cases(dtype):
    """(name, scheme, tokens, expected): expected is None or (type, message part)."""
    big = np.iinfo(dtype).max if np.issubdtype(dtype, np.integer) else 1
    low = np.iinfo(dtype).min if np.issubdtype(dtype, np.integer) else 0
    width = (ValueError, "expected a [frames, 2] token array")
    return [
        ("largest", UNEVEN, [[59, 13], [0, 0]], None),
        ("group 1 at product", UNEVEN, [[59, 14]], (ValidationError, "frame 0, group 1 exceeds the group vocabulary 14")),
        ("group 0 at product", UNEVEN, [[0, 0], [60, 0]], (ValidationError, "frame 1, group 0 exceeds the group vocabulary 60")),
        ("one-dimensional", UNEVEN, [59, 13], width),
        ("one group short", UNEVEN, [[0], [0]], width),
        ("one group over", UNEVEN, [[0, 0, 0]], width),
        ("no frames", UNEVEN, np.zeros((0, 2)), None),
        ("full width, largest of dtype", FULL_U32, [[big], [0]], None if big < 2**32 else (ValidationError, f"token {big} at frame 0, group 0 exceeds the group vocabulary {2**32}")),
        ("smallest of dtype", UNEVEN, [[low, 0]], None if low == 0 else (ValidationError, f"token {low} at frame 0, group 0 is negative")),
        ("full width, smallest of dtype", FULL_U32, [[0], [low]], None if low == 0 else (ValidationError, f"token {low} at frame 1, group 0 is negative")),
        ("full width, no frames", FULL_U32, np.zeros((0, 1)), None),
    ]


class TestOneTokenValidator:
    """TokenStream and unpack_frames check tokens through one function."""

    @pytest.mark.parametrize("dtype", INT_DTYPES + NON_INT_DTYPES, ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("case", range(len(token_cases(np.int8))))
    def test_same_outcome_from_both_callers(self, dtype, case):
        _, scheme, tokens, expected = token_cases(dtype)[case]
        tokens = np.array(tokens, dtype=dtype)
        stream = outcome(lambda: TokenStream(tokens=tokens, scheme=scheme, frame_rate_hz=2.5))
        assert stream == outcome(lambda: unpack_frames(tokens, scheme))
        if np.issubdtype(dtype, np.integer):
            if expected is None:
                assert stream is None
            else:
                assert stream[0] is expected[0]
                assert expected[1] in stream[1]
        elif tokens.ndim == 2 and tokens.shape[1] == scheme.group_count:
            assert stream == (ValidationError, f"tokens must be integers, got dtype {tokens.dtype}")

    @pytest.mark.parametrize("scheme", [FULL_U16, FULL_U32], ids=["2**16", "2**32"])
    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64, np.int64], ids=lambda d: np.dtype(d).name)
    def test_top_token_of_a_full_vocabulary_is_accepted(self, scheme, dtype):
        top = scheme.group_products[0] - 1
        tokens = np.array([[top]], dtype=dtype)
        stream = TokenStream(tokens=tokens, scheme=scheme, frame_rate_hz=2.5)
        assert stream.tokens.dtype == scheme.token_dtype
        assert int(stream.tokens[0, 0]) == top
        np.testing.assert_array_equal(unpack_frames(tokens, scheme), np.ones((1, scheme.dim)))

    @pytest.mark.parametrize("scheme", [build_scheme([4] * 7, 7), FULL_U16, FULL_U32], ids=["16384", "2**16", "2**32"])
    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64], ids=lambda d: np.dtype(d).name)
    def test_negative_token_is_named_as_given(self, scheme, dtype):
        # -1 narrowed to the token dtype would be its largest value: at a full
        # vocabulary, a valid token
        with pytest.raises(ValidationError, match="^token -1 at frame 0, group 0 is negative$"):
            TokenStream(np.array([[-1]], dtype=dtype), scheme, 2.5)
        with pytest.raises(ValidationError, match="^token -1 at frame 0, group 0 is negative$"):
            unpack_frames(np.array([[-1]], dtype=dtype), scheme)

    def test_wide_token_is_compared_before_it_is_narrowed(self):
        # 2**32 + 5 as uint32 would be 5, a valid token
        tokens = np.array([[7], [2**32 + 5]], dtype=np.uint64)
        message = f"^token {2**32 + 5} at frame 1, group 0 exceeds the group vocabulary {2**32}$"
        with pytest.raises(ValidationError, match=message):
            TokenStream(tokens, FULL_U32, 2.5)
        with pytest.raises(ValidationError, match=message):
            unpack_frames(tokens, FULL_U32)

    @pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: np.dtype(d).name)
    def test_stream_stores_the_token_dtype_and_unpacks_alike(self, dtype):
        tokens = np.array([[59, 13], [7, 0]], dtype=dtype)
        stream = TokenStream(tokens=tokens, scheme=UNEVEN, frame_rate_hz=2.5)
        assert stream.tokens.dtype == UNEVEN.token_dtype == np.uint16
        np.testing.assert_array_equal(stream.tokens, tokens)
        back = unpack_frames(tokens, UNEVEN)
        assert back.dtype == np.uint16
        np.testing.assert_array_equal(back, unpack_frames(tokens.astype(np.uint64), UNEVEN))

    def test_stream_keeps_an_array_of_the_token_dtype(self):
        tokens = np.array([[59, 13], [7, 0]], dtype=np.uint16)
        assert TokenStream(tokens=tokens, scheme=UNEVEN, frame_rate_hz=2.5).tokens is tokens


class TestPackDigits:
    """pack_frames checks digits once and names each one as the caller gave it."""

    @pytest.mark.parametrize(
        "frame, dim, digit",
        [
            (1, 4, 7),  # padded last group (2, 7, 1), at its radix
            (2, 4, -1),
            (0, 3, -1),
            (1, 3, 2),
            (2, 1, -1),  # full first group (5, 4, 3)
            (0, 0, 5),
            (2, 2, np.iinfo(np.int64).min),
        ],
    )
    def test_bad_digit_names_frame_and_real_dimension(self, frame, dim, digit):
        frames = np.zeros((3, 5), dtype=np.int64)
        frames[frame, dim] = digit
        with pytest.raises(ValidationError) as info:
            pack_frames(frames, UNEVEN)
        radix = UNEVEN.radices[dim]
        assert str(info.value) == (
            f"index {digit} out of range for dimension {dim} (level {radix}) at frame {frame}"
        )

    def test_first_bad_digit_is_named(self):
        frames = np.zeros((3, 5), dtype=np.int64)
        frames[1, 4] = 7
        frames[1, 0] = 9
        frames[0, 3] = -1
        with pytest.raises(ValidationError, match=r"^index -1 out of range for dimension 3 \(level 2\) at frame 0$"):
            pack_frames(frames, UNEVEN)

    def test_unsigned_digit_is_named_as_given(self):
        frames = np.zeros((1, 5), dtype=np.uint64)
        frames[0, 2] = (1 << 64) - 1
        with pytest.raises(ValidationError, match=f"^index {(1 << 64) - 1} out of range for dimension 2 "):
            pack_frames(frames, UNEVEN)

    def test_largest_digits_pack(self):
        largest = np.array([[4, 3, 2, 1, 6]])
        np.testing.assert_array_equal(pack_frames(largest, UNEVEN), [[59, 13]])

    @pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: np.dtype(d).name)
    def test_every_integer_width_packs_alike(self, dtype):
        rng = np.random.default_rng(5)
        frames = np.stack([rng.integers(0, r, size=40) for r in UNEVEN.radices], axis=1)
        np.testing.assert_array_equal(
            pack_frames(frames.astype(dtype), UNEVEN), pack_frames(frames, UNEVEN)
        )

    @pytest.mark.parametrize("dtype", NON_INT_DTYPES, ids=lambda d: np.dtype(d).name)
    def test_non_integer_digits_rejected(self, dtype):
        # 3.9 and 1.2 once truncated to 3 and 1, packing to token 13
        frames = np.array([[3.9, 1.2]]).astype(dtype)
        with pytest.raises(ValidationError, match=f"indices must be integers, got dtype {np.dtype(dtype)}"):
            pack_frames(frames, build_scheme([4, 4], 2))

    @pytest.mark.parametrize(
        "radices, group_size",
        [([65535], 1), ([1, 65535], 2), ([65535, 1], 2), ([3, 65535], 1), ([65535, 65535], 2), ([5, 1, 65535, 1, 4], 2)],
    )
    def test_widest_radix_round_trips(self, radices, group_size):
        scheme = build_scheme(radices, group_size)
        rows = [[r - 1 for r in radices], [0] * len(radices), [r // 2 for r in radices]]
        frames = np.array(rows, dtype=np.uint64)
        tokens = pack_frames(frames, scheme)
        assert tokens.tolist() == [pack_frame(row, scheme) for row in rows]
        back = unpack_frames(tokens, scheme)
        assert back.dtype == scheme.token_dtype
        np.testing.assert_array_equal(back, frames)
        # a negative digit narrowed to the token dtype would be in range: it is compared as given
        d = radices.index(max(radices))
        signed = np.zeros((1, len(radices)), dtype=np.int64)
        signed[0, d] = np.iinfo(np.int64).min
        with pytest.raises(ValidationError, match=f"^index {signed[0, d]} out of range for dimension {d} "):
            pack_frames(signed, scheme)
