"""The codec kernels against the algorithms they replaced, kept here as oracles.

``pack_frames`` once built its padded digits frame-major as
[frames, groups, group_size], then digit-major as a zero-filled
[groups * group_size, frames] copy multiplied by a [groups, 1] column of
radices per digit position; ``unpack_frames`` ran ``divmod`` against a
[groups, 1] column of radices per digit position; ``fsq_dequantize``
broadcast a [D, 1] column of levels; the threshold count made one gather
per level and multiplied every step's comparison by its step; the lattice
was one expression with a temporary per operation; and the snap took its
indices and values in one pass.  Each kernel must equal its old form exactly and name the same first
bad value, in the one message and order of fsq's digit check.  The radix
oracles compute in uint64 and int64, as the kernels once did: packed tokens
and unpacked digits must equal theirs in value, in the scheme's token dtype,
and a threshold count its int64 oracle's, in the level's digit dtype.
The CLI's token and lattice bytes of one seeded stream are pinned per scheme.
"""

import hashlib

import numpy as np
import pytest
from test_cli import SCHEMES, write_config

from jdtok.cli import main
from jdtok.errors import ValidationError
from jdtok.fileio import write_feature_file
from jdtok.fsq import (
    FsqLevels,
    _checked_indices,
    _count_thresholds,
    _digit_dtype,
    _identity,
    _lattice,
    _thresholds,
    fsq_dequantize,
    fsq_indices,
    fsq_quantize,
    quantize_projected,
)
from jdtok.radix import _checked_tokens, build_scheme, pack_frames, unpack_frames

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
# the splitter stride of the threshold count is 8 at 17 levels, 16 at 33,
# 64 at 255 and 256, 128 at 257 and 512 at 1025
LEVELS = [*range(1, 18), 33, 255, 256, 257, 1025, 65535]
# every scheme of the CLI tests, plus full 2**16 and 2**32 vocabularies, whose
# largest token is the largest of the token dtype
RADIX_SCHEMES = {
    **SCHEMES,
    "vocabulary 2**16": ([2] * 16, 16),
    "vocabulary 2**32": ([256, 256, 256, 256, 3], 4),
}


def radix_table(scheme):
    """The padded radices as a uint64 [groups, group_size] table."""
    table = np.array(scheme.padded_radices, dtype=np.uint64)
    return table.reshape(scheme.group_count, scheme.group_size)


def frame_major_pack(indices, scheme):
    """The former pack_frames: padded digits as [frames, groups, group_size]."""
    indices = np.asarray(indices)
    radices = radix_table(scheme)
    frames = indices.shape[0]
    padded = np.zeros((frames, *radices.shape), dtype=np.uint64)
    padded.reshape(frames, radices.size)[:, : scheme.dim] = indices
    bad = padded > radices - np.uint64(1)  # a negative digit wraps above every radix
    if np.any(bad):
        f, g, k = np.argwhere(bad)[0]
        d = g * scheme.group_size + k
        raise ValidationError(
            f"index {indices[f, d]} out of range for dimension {d} "
            f"(level {scheme.radices[d]}) at frame {f}"
        )
    tokens = np.zeros((frames, scheme.group_count), dtype=np.uint64)
    for pos in range(scheme.group_size):
        tokens = tokens * radices[None, :, pos] + padded[:, :, pos]
    return tokens


def padded_column_pack(indices, scheme):
    """The former pack_frames: a zero-filled digit-major copy, times a [groups, 1] radix column."""
    indices = np.asarray(indices)
    _checked_indices(indices.T, scheme.levels)
    radices = radix_table(scheme)
    frames = indices.shape[0]
    padded = np.zeros((radices.size, frames), dtype=np.uint64)
    padded[: scheme.dim] = indices.T
    digits = padded.reshape(*radices.shape, frames)
    tokens = digits[:, 0].copy()
    for pos in range(1, scheme.group_size):
        tokens *= radices[:, pos, None]
        tokens += digits[:, pos]
    return tokens.T


def column_divmod_unpack(tokens, scheme):
    """The former unpack_frames: divmod by a [groups, 1] column of radices per position."""
    tokens = _checked_tokens(tokens, scheme).astype(np.uint64)
    radices = radix_table(scheme)
    digits = np.empty((scheme.group_count, scheme.group_size, tokens.shape[0]), dtype=np.int64)
    rem = tokens.T
    for pos in range(scheme.group_size - 1, 0, -1):
        rem, _ = np.divmod(rem, radices[:, pos, None], out=(None, digits[:, pos]))
    digits[:, 0] = rem
    return digits.reshape(len(scheme.padded_radices), -1)[: scheme.dim].T


def lattice_expression(index, level):
    """The former _lattice: one expression, a temporary per operation."""
    return (2.0 * index - level + 1) / level


def column_dequantize(indices, levels):
    """The former fsq_dequantize: a [D, 1] column of levels broadcast over frames."""
    indices = np.asarray(indices)
    lvl = np.asarray(levels.levels)[:, None]
    bad = (indices < 0) | (indices >= lvl)
    if np.any(bad):
        t, d = np.argwhere(bad.T)[0]  # the earliest frame, then the lowest dimension
        raise ValidationError(
            f"index {indices[d, t]} out of range for dimension {d} "
            f"(level {levels.levels[d]}) at frame {t}"
        )
    return lattice_expression(indices, lvl)


def multiply_count(x, table):
    """The former _count_thresholds: every step's comparison times its step."""
    step = table.size // 2
    if step == 0:
        return np.zeros(x.shape, dtype=np.int64)
    index = np.multiply(x >= table[step - 1], step, dtype=np.int64)
    while step > 1:
        step //= 2
        index += (x >= table[step - 1 :].take(index)) * step
    return index


def outcome(call):
    try:
        return call()
    except ValidationError as exc:
        return str(exc)


def same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def same_values(a, b, dtype):
    """``a`` is of ``dtype`` and equals the oracle's ``b`` in shape and value, or both name one error."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.dtype == dtype and a.shape == b.shape and np.array_equal(a, b)


def random_digits(radices, frames, dtype, seed):
    """[frames, D] in-range digits of ``dtype``, each below min(radix, dtype's top + 1)."""
    rng = np.random.default_rng(seed)
    top = np.iinfo(dtype).max
    cols = [
        rng.integers(0, min(r - 1, top), size=frames, dtype=np.uint64, endpoint=True)
        for r in radices
    ]
    return np.stack(cols, axis=1).astype(dtype) if cols else np.zeros((frames, 0), dtype)


class TestPackOracle:
    @pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("name", RADIX_SCHEMES)
    def test_matches_frame_major_pack(self, name, dtype):
        radices, group_size = RADIX_SCHEMES[name]
        scheme = build_scheme(radices, group_size)
        for frames in (0, 1, 7, 20, 512, 513):
            digits = random_digits(radices, frames, dtype, seed=frames)
            wider = np.ascontiguousarray(random_digits(radices, frames + 9, dtype, seed=frames).T)
            # as given, as the transpose of a [D, frames] array, as the CLI passes it,
            # and as the transpose of a frame slice of a wider [D, F] array
            for given in (digits, np.ascontiguousarray(digits.T).T, wider[:, 4 : 4 + frames].T):
                packed = pack_frames(given, scheme)
                assert same_values(packed, frame_major_pack(given, scheme), scheme.token_dtype)
                assert same_values(packed, padded_column_pack(given, scheme), scheme.token_dtype)

    @pytest.mark.parametrize("name", RADIX_SCHEMES)
    def test_largest_digits_match(self, name):
        radices, group_size = RADIX_SCHEMES[name]
        scheme = build_scheme(radices, group_size)
        top = np.array([[r - 1 for r in radices]] * 3, dtype=np.uint64)
        packed = pack_frames(top, scheme)
        assert same_values(packed, frame_major_pack(top, scheme), scheme.token_dtype)
        assert same_values(packed, padded_column_pack(top, scheme), scheme.token_dtype)

    @pytest.mark.parametrize("name", RADIX_SCHEMES)
    def test_bad_digits_name_the_same_first_one(self, name):
        radices, group_size = RADIX_SCHEMES[name]
        scheme = build_scheme(radices, group_size)
        rng = np.random.default_rng(3)
        for trial in range(40):
            digits = random_digits(radices, 9, np.int64, seed=trial)
            for _ in range(1 + trial % 5):
                f, d = rng.integers(9), rng.integers(len(radices))
                bad = [-1, radices[d], radices[d] + 7, np.iinfo(np.int64).min]
                digits[f, d] = rng.choice(bad)
            expected = outcome(lambda: frame_major_pack(digits, scheme))
            assert same(outcome(lambda: pack_frames(digits, scheme)), expected)
            assert same(outcome(lambda: padded_column_pack(digits, scheme)), expected)

    def test_frame_order_not_digit_order(self):
        # frame 0 holds a bad last digit, frame 1 a bad first digit: digit-major
        # order would name frame 1, dimension 0
        scheme = build_scheme([5, 4, 3, 2, 7], 3)
        digits = np.zeros((3, 5), dtype=np.int64)
        digits[0, 4] = 7
        digits[1, 0] = 5
        digits[2, 2] = -1
        message = "index 7 out of range for dimension 4 (level 7) at frame 0"
        with pytest.raises(ValidationError) as info:
            pack_frames(digits, scheme)
        assert str(info.value) == message
        assert outcome(lambda: frame_major_pack(digits, scheme)) == message

    def test_negative_digit_of_the_widest_radix_in_frame_order(self):
        scheme = build_scheme([5, 1, 65535, 1, 4], 2)
        digits = np.zeros((2, 5), dtype=np.int64)
        digits[1, 0] = 5
        digits[0, 2] = -3
        with pytest.raises(ValidationError) as info:
            pack_frames(digits, scheme)
        message = "index -3 out of range for dimension 2 (level 65535) at frame 0"
        assert str(info.value) == message
        assert outcome(lambda: frame_major_pack(digits, scheme)) == str(info.value)


class TestUnpackOracle:
    @pytest.mark.parametrize("frames", [0, 1, 511, 512, 513])
    @pytest.mark.parametrize("name", RADIX_SCHEMES)
    def test_matches_column_divmod(self, name, frames):
        scheme = build_scheme(*RADIX_SCHEMES[name])
        rng = np.random.default_rng(frames)
        top = np.array([p - 1 for p in scheme.group_products], dtype=np.uint64)
        random = np.stack(
            [rng.integers(0, t, size=frames, dtype=np.uint64, endpoint=True) for t in top], axis=1
        )
        for tokens in (random, np.tile(top, (frames, 1))):  # random, and each group's largest
            expected = column_divmod_unpack(tokens, scheme)
            # as a library caller may give them, and in the token dtype, as a token file holds them
            for given in (tokens, tokens.astype(scheme.token_dtype)):
                assert same_values(unpack_frames(given, scheme), expected, scheme.token_dtype)


class TestFsqOracles:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("level", LEVELS)
    def test_count_matches_multiply_by_step(self, level, dtype):
        rng = np.random.default_rng(level)
        for transform in (np.tanh, _identity):
            table = _thresholds(level, transform, dtype)
            finite = table[np.isfinite(table)]
            near = [finite, np.nextafter(finite, -np.inf), np.nextafter(finite, np.inf)]
            x = np.concatenate([*near, 3 * rng.standard_normal(600), [-30.0, 0.0, 30.0]])
            x = x.astype(dtype).reshape(1, -1)
            digit = _digit_dtype(level)
            assert same_values(_count_thresholds(x, table), multiply_count(x, table), digit)
            empty = np.zeros((3, 0), dtype=dtype)
            assert same_values(_count_thresholds(empty, table), multiply_count(empty, table), digit)

    @pytest.mark.parametrize("level", [4, 5, 65535])
    def test_indices_of_a_frame_slice_match_a_contiguous_copy(self, level):
        # the CLI snaps data[:, block], a strided view of the whole [D, F] stream
        rng = np.random.default_rng(level)
        data = (2 * rng.standard_normal((6, 1500))).astype(np.float32)
        levels = FsqLevels((level,) * 6)
        block = data[:, 512:1024]
        assert not block.flags.c_contiguous
        expected = fsq_indices(np.ascontiguousarray(block), levels)
        assert same(fsq_indices(block, levels), expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("level", [*LEVELS, "mixed"])
    def test_indices_and_values_match_the_take(self, level, dtype):
        rng = np.random.default_rng(7)
        levels = FsqLevels(tuple(LEVELS)) if level == "mixed" else FsqLevels((level,) * 3)
        for quantize, transform in ((fsq_quantize, np.tanh), (quantize_projected, _identity)):
            tables = [_thresholds(L, transform, dtype) for L in sorted(set(levels.levels))]
            finite = np.concatenate([t[np.isfinite(t)] for t in tables])
            near = [finite, np.nextafter(finite, -np.inf), np.nextafter(finite, np.inf)]
            cols = np.concatenate([*near, 3 * rng.standard_normal(300), [-30.0, 0.0, 30.0]])
            x = np.tile(cols.astype(dtype), (levels.dim, 1))  # every row sees every threshold
            index, values = quantize(x, levels)
            if quantize is fsq_quantize:
                assert same(fsq_indices(x, levels), index)
                alone, none = fsq_quantize(x, levels, with_values=False)
                assert same(alone, index) and none is None
            take = np.stack(
                [lattice_expression(np.arange(L), L)[row] for L, row in zip(levels.levels, index)]
            )
            assert same(values, take)

    @pytest.mark.parametrize("level", LEVELS)
    def test_lattice_matches_expression(self, level):
        index = np.arange(level)
        assert same(_lattice(index, level), lattice_expression(index, level))
        column = index[:, None]
        assert same(_lattice(column, level), lattice_expression(column, np.int64(level)))

    @pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: np.dtype(d).name)
    def test_dequantize_matches_column_broadcast(self, dtype):
        fits = [level for level in LEVELS if level - 1 <= np.iinfo(dtype).max]
        mixed = [
            fits,
            (8, 5, 5, 5) * 4,  # as the FSQ paper recommends
            (3, 2**53 + 1, 6),  # float64 rounds the level
            (5, 2**64, 1, 4),  # uint64 digits
        ]
        for levels in [FsqLevels((level,) * 3) for level in fits] + [*map(FsqLevels, mixed)]:
            for frames in (0, 1, 300):
                idx = random_digits(levels.levels, frames, dtype, seed=frames).T
                expected = column_dequantize(idx, levels)
                if expected.dtype == object:  # a 2**64 level: a column of Python ints
                    expected = expected.astype(np.float64)
                assert same(fsq_dequantize(idx, levels), expected)

    @pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: np.dtype(d).name)
    def test_out_of_range_names_the_same_first_index(self, dtype):
        levels = FsqLevels((4, 1, 7, 2, 16, 3))
        rng = np.random.default_rng(np.dtype(dtype).itemsize)
        for trial in range(30):
            idx = random_digits(levels.levels, 12, dtype, seed=trial).T.copy()
            for _ in range(1 + trial % 4):
                d, t = rng.integers(6), rng.integers(12)
                idx[d, t] = np.iinfo(dtype).max if trial % 2 or np.iinfo(dtype).min == 0 else -1
            expected = outcome(lambda: column_dequantize(idx, levels))
            assert same(outcome(lambda: fsq_dequantize(idx, levels)), expected)
        # a row whose max reaches its level, then another row bad at an earlier frame
        idx = np.zeros((6, 12), dtype=dtype)
        idx[4, 5] = 16
        message = "index 16 out of range for dimension 4 (level 16) at frame 5"
        assert outcome(lambda: fsq_dequantize(idx, levels)) == message
        assert outcome(lambda: column_dequantize(idx, levels)) == message
        idx[5, 2] = -1 if np.iinfo(dtype).min < 0 else np.iinfo(dtype).max
        message = f"index {idx[5, 2]} out of range for dimension 5 (level 3) at frame 2"
        assert outcome(lambda: fsq_dequantize(idx, levels)) == message
        assert outcome(lambda: column_dequantize(idx, levels)) == message

    def test_first_out_of_range_under_mixed_levels(self):
        levels = FsqLevels((4, 1, 7, 2, 16, 3))
        idx = np.zeros((6, 10), dtype=np.int64)
        idx[4, 0] = 16  # the earliest frame, though a later dimension
        idx[5, 5] = 3
        idx[2, 5] = 7  # the same frame, a lower dimension
        idx[1, 8] = -1
        message = "index 16 out of range for dimension 4 (level 16) at frame 0"
        with pytest.raises(ValidationError) as info:
            fsq_dequantize(idx, levels)
        assert str(info.value) == message
        assert outcome(lambda: column_dequantize(idx, levels)) == message
        idx[4, 0] = 0
        message = "index 7 out of range for dimension 2 (level 7) at frame 5"
        assert outcome(lambda: fsq_dequantize(idx, levels)) == message

    def test_largest_unsigned_index_is_named_as_given(self):
        idx = np.zeros((2, 3), dtype=np.uint64)
        idx[1, 2] = 2**64 - 1
        message = f"index {2**64 - 1} out of range for dimension 1 (level 4) at frame 2"
        assert outcome(lambda: fsq_dequantize(idx, FsqLevels((4, 4)))) == message


class TestOneDigitRule:
    """A bad digit is named alike by pack_frames ([frames, D]) and fsq_dequantize ([D, T])."""

    def test_earliest_frame_then_lowest_dimension(self):
        scheme = build_scheme([5, 4, 3, 2, 7], 3)
        digits = np.zeros((3, 5), dtype=np.int64)
        digits[1, 0] = 5
        digits[0, 4] = 7
        digits[0, 2] = -1
        message = "index -1 out of range for dimension 2 (level 3) at frame 0"
        assert outcome(lambda: pack_frames(digits, scheme)) == message
        assert outcome(lambda: fsq_dequantize(digits.T, scheme.levels)) == message

    @pytest.mark.parametrize("name", RADIX_SCHEMES)
    def test_same_message_for_the_same_digits(self, name):
        radices, group_size = RADIX_SCHEMES[name]
        scheme = build_scheme(radices, group_size)
        rng = np.random.default_rng(11)
        for trial in range(20):
            digits = random_digits(radices, 6, np.int64, seed=trial)
            for _ in range(1 + trial % 3):
                f, d = rng.integers(6), rng.integers(len(radices))
                digits[f, d] = rng.choice([-1, radices[d]])
            packed = outcome(lambda: pack_frames(digits, scheme))
            assert isinstance(packed, str)
            dequantized = outcome(lambda: fsq_dequantize(np.ascontiguousarray(digits.T), scheme.levels))
            assert packed == dequantized


# SHA-256 of the token and lattice files of one seeded 1027-frame stream, per
# scheme, as written by the frame-major pack and the column dequantize
PINNED = {
    "default": (
        "9f2ae5cfa457a41073489854ca64bdc49441fbb7bcd4aa725c56d0353d5d7608",
        "4f57e05f9a08b9cf58a9a2f5360fcbd5ef05af2bbfbed1a4da9de90767ebc1b4",
    ),
    "uneven": (
        "fc8edd9eb56c981e7a3ff2c03c50f6cef3776ea08eb15f961a5ef0e6fdd69cd2",
        "48c92d471678b10ba804fcc65dc9d6d7f5aec8f18788f056371f05634ea4921b",
    ),
    "u32": (
        "13937bf324fa97483f1df4404722f84799949f1598911ec81c288415e32d67bc",
        "70c1742c6ecb4ab068b20d92e7a2cdfb23defa719ae5d172aa1aaf73c5274648",
    ),
    "wide": (
        "f0fa0a1a3cd06b79c7530f60eff11f63c7f15a37051ac4cee1b6f3b360de7b16",
        "dfa73048b22221c83d34fbb8b9e69cd236cd1a4506f427089cde7701ff24b0f9",
    ),
    "mixed": (
        "32e3a44483aacaaa3c18e7e8ffeb37e80a3ce1afaad616e84e5154cd28716924",
        "f44fe2fbda1cd4c1dad5b320b595910d7afdc5686f253b65e523ef9362149377",
    ),
    "u16digits": (
        "25e9fa80c9de53331d0ea522ee93b14d50a13ce2f08ff804eab0dee2dd26c03b",
        "8b67040dae1fd39ecd192ee9d795d251f5c4f84c9fe3c121bb769a32de37c972",
    ),
}


@pytest.mark.parametrize("name", SCHEMES)
def test_cli_bytes_are_pinned(tmp_path, capsys, name):
    levels, group_size = SCHEMES[name]
    cfg = write_config(tmp_path / "c.cfg", levels, group_size)
    feat, tok, back = tmp_path / "f.jdf", tmp_path / "t.jdt", tmp_path / "b.jdf"
    data = np.random.default_rng(1027).standard_normal((len(levels), 1027)).astype(np.float32)
    write_feature_file(feat, data, 2.5)
    assert main(["tokenize", "--config", cfg, "--in", str(feat), "--out", str(tok)]) == 0
    assert main(["detokenize", "--in", str(tok), "--out", str(back)]) == 0
    capsys.readouterr()
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (tok, back))
    assert digests == PINNED[name]
