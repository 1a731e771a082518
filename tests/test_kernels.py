"""The codec kernels against the algorithms they replaced, kept here as oracles.

``pack_frames`` once built its padded digits frame-major as
[frames, groups, group_size]; ``unpack_frames`` ran ``divmod`` against a
[groups, 1] column of radices per digit position; ``fsq_dequantize``
broadcast a [D, 1] column of levels; the threshold count multiplied every
step's comparison by its step; the lattice was one expression with a
temporary per operation; and the snap took its indices and values in one
pass.  Each kernel must equal its old form exactly and name the same first
bad value.
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
    _count_thresholds,
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
LEVELS = [*range(1, 18), 255, 256, 65535]
# every scheme of the CLI tests, plus 2**64 radices, alone and among others
PACK_SCHEMES = {
    **SCHEMES,
    "radix 2**64": ([2**64], 1),
    "2**64 among others": ([5, 1, 2**64, 1, 4], 2),
}
# and a radix above 2**63, whose digits need uint64
UNPACK_SCHEMES = {**PACK_SCHEMES, "radix 2**63 + 1": ([2**63 + 1, 1, 7, 3], 2)}


def frame_major_pack(indices, scheme):
    """The former pack_frames: padded digits as [frames, groups, group_size]."""
    indices = np.asarray(indices)
    radices = scheme._table
    frames = indices.shape[0]
    padded = np.zeros((frames, *radices.shape), dtype=np.uint64)
    padded.reshape(frames, radices.size)[:, : scheme.dim] = indices
    bad = padded > radices - np.uint64(1)
    if scheme._wide:
        bad.reshape(frames, radices.size)[:, : scheme.dim] |= indices < 0
    if np.any(bad):
        f, g, k = np.argwhere(bad)[0]
        d = g * scheme.group_size + k
        raise ValidationError(
            f"digit {indices[f, d]} at frame {f}, dimension {d} out of range "
            f"for radix {scheme.radices[d]}"
        )
    tokens = np.zeros((frames, scheme.group_count), dtype=np.uint64)
    for pos in range(scheme.group_size):
        tokens = tokens * radices[None, :, pos] + padded[:, :, pos]
    return tokens


def column_divmod_unpack(tokens, scheme):
    """The former unpack_frames: divmod by a [groups, 1] column of radices per position."""
    tokens = _checked_tokens(tokens, scheme)
    radices = np.maximum(scheme._table, np.uint64(1))
    digits = np.empty(
        (scheme.group_count, scheme.group_size, tokens.shape[0]),
        dtype=np.uint64 if scheme._wide else np.int64,
    )
    rem = tokens.T
    for pos in range(scheme.group_size - 1, 0, -1):
        rem, _ = np.divmod(rem, radices[:, pos, None], out=(None, digits[:, pos]))
    digits[:, 0] = rem
    if scheme._wide:
        for g, pos in np.argwhere(scheme._table == 0):
            digits[g] = 0
            digits[g, pos] = tokens[:, g]
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
        d, t = np.argwhere(bad)[0]
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
    @pytest.mark.parametrize("name", PACK_SCHEMES)
    def test_matches_frame_major_pack(self, name, dtype):
        radices, group_size = PACK_SCHEMES[name]
        scheme = build_scheme(radices, group_size)
        for frames in (0, 1, 7, 513):
            digits = random_digits(radices, frames, dtype, seed=frames)
            # as given, and as the transpose of a [D, frames] array, as the CLI passes it
            for given in (digits, np.ascontiguousarray(digits.T).T):
                assert same(pack_frames(given, scheme), frame_major_pack(given, scheme))

    @pytest.mark.parametrize("name", PACK_SCHEMES)
    def test_largest_digits_match(self, name):
        radices, group_size = PACK_SCHEMES[name]
        scheme = build_scheme(radices, group_size)
        top = np.array([[r - 1 for r in radices]] * 3, dtype=np.uint64)
        assert same(pack_frames(top, scheme), frame_major_pack(top, scheme))

    @pytest.mark.parametrize("name", PACK_SCHEMES)
    def test_bad_digits_name_the_same_first_one(self, name):
        radices, group_size = PACK_SCHEMES[name]
        scheme = build_scheme(radices, group_size)
        rng = np.random.default_rng(3)
        signed = max(radices) < 2**63
        for trial in range(40):
            digits = random_digits(radices, 9, np.int64 if signed else np.uint64, seed=trial)
            for _ in range(1 + trial % 5):
                f, d = rng.integers(9), rng.integers(len(radices))
                if signed:
                    bad = [-1, radices[d], radices[d] + 7, np.iinfo(np.int64).min]
                    digits[f, d] = rng.choice(bad)
                elif radices[d] < 2**64:
                    digits[f, d] = np.uint64(2**64 - 1)
            expected = outcome(lambda: frame_major_pack(digits, scheme))
            assert same(outcome(lambda: pack_frames(digits, scheme)), expected)

    def test_frame_order_not_digit_order(self):
        # frame 0 holds a bad last digit, frame 1 a bad first digit: digit-major
        # order would name frame 1, dimension 0
        scheme = build_scheme([5, 4, 3, 2, 7], 3)
        digits = np.zeros((3, 5), dtype=np.int64)
        digits[0, 4] = 7
        digits[1, 0] = 5
        digits[2, 2] = -1
        message = "digit 7 at frame 0, dimension 4 out of range for radix 7"
        with pytest.raises(ValidationError) as info:
            pack_frames(digits, scheme)
        assert str(info.value) == message
        assert outcome(lambda: frame_major_pack(digits, scheme)) == message

    def test_negative_digit_of_a_2_64_radix_in_frame_order(self):
        scheme = build_scheme([5, 1, 2**64, 1, 4], 2)
        digits = np.zeros((2, 5), dtype=np.int64)
        digits[1, 0] = 5
        digits[0, 2] = -3
        with pytest.raises(ValidationError) as info:
            pack_frames(digits, scheme)
        message = f"digit -3 at frame 0, dimension 2 out of range for radix {2**64}"
        assert str(info.value) == message
        assert outcome(lambda: frame_major_pack(digits, scheme)) == str(info.value)


class TestUnpackOracle:
    @pytest.mark.parametrize("frames", [0, 1, 511, 512, 513])
    @pytest.mark.parametrize("name", UNPACK_SCHEMES)
    def test_matches_column_divmod(self, name, frames):
        scheme = build_scheme(*UNPACK_SCHEMES[name])
        rng = np.random.default_rng(frames)
        top = np.array([p - 1 for p in scheme.group_products], dtype=np.uint64)
        random = np.stack(
            [rng.integers(0, t, size=frames, dtype=np.uint64, endpoint=True) for t in top], axis=1
        )
        for tokens in (random, np.tile(top, (frames, 1))):  # random, and each group's largest
            assert same(unpack_frames(tokens, scheme), column_divmod_unpack(tokens, scheme))


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
            assert same(_count_thresholds(x, table), multiply_count(x, table))

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
        mixed = FsqLevels(tuple(fits))
        for levels in [FsqLevels((level,) * 3) for level in fits] + [mixed]:
            for frames in (0, 1, 300):
                idx = random_digits(levels.levels, frames, dtype, seed=frames).T
                assert same(fsq_dequantize(idx, levels), column_dequantize(idx, levels))

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

    def test_first_out_of_range_under_mixed_levels(self):
        levels = FsqLevels((4, 1, 7, 2, 16, 3))
        idx = np.zeros((6, 10), dtype=np.int64)
        idx[4, 0] = 16  # an earlier frame, but a later dimension
        idx[2, 5] = 7
        idx[1, 8] = -1
        message = "index -1 out of range for dimension 1 (level 1) at frame 8"
        with pytest.raises(ValidationError) as info:
            fsq_dequantize(idx, levels)
        assert str(info.value) == message
        assert outcome(lambda: column_dequantize(idx, levels)) == message
        idx[1, 8] = 0
        message = "index 7 out of range for dimension 2 (level 7) at frame 5"
        assert outcome(lambda: fsq_dequantize(idx, levels)) == message

    def test_largest_unsigned_index_is_named_as_given(self):
        idx = np.zeros((2, 3), dtype=np.uint64)
        idx[1, 2] = 2**64 - 1
        message = f"index {2**64 - 1} out of range for dimension 1 (level 4) at frame 2"
        assert outcome(lambda: fsq_dequantize(idx, FsqLevels((4, 4)))) == message


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
