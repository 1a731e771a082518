import dataclasses
import os
import re
import struct
import tempfile
import threading
import tracemalloc
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jdtok.config
from jdtok import fileio, losses
from jdtok.config import _KEYS, CodecConfig, load_config, parse_config
from jdtok.errors import ConfigError, FormatError, ValidationError
from jdtok.fileio import (
    FEATURE_MAGIC,
    read_feature_file,
    read_token_file,
    write_feature_file,
    write_mask_file,
    write_token_file,
)
from jdtok.fsq import FsqLevels
from jdtok.masking import MaskConfig
from jdtok.radix import TokenStream, build_scheme

BAD_RATES = [float("nan"), float("inf"), float("-inf"), 0.0, -2.5]
FEATURE_RATE_OFFSET = 20  # frame_rate_hz in a JDF1 header
TOKEN_RATE_OFFSET = 32  # frame_rate_hz in a JDT1 header
TOKEN_HEADER_SIZE = 40  # a JDT1 header before its radix table


def set_rate(path, offset, rate):
    """Overwrite a written container's frame_rate_hz, as a corrupt file would hold it."""
    raw = bytearray(path.read_bytes())
    raw[offset : offset + 8] = struct.pack("<d", rate)
    path.write_bytes(bytes(raw))


class TestFeatureFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "f.jdf"
        data = np.random.default_rng(0).standard_normal((3, 17)).astype(np.float32)
        write_feature_file(path, data, 2.5)
        back, rate = read_feature_file(path)
        assert rate == 2.5
        np.testing.assert_array_equal(back, data)

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.jdf"
        write_feature_file(path, np.zeros((128, 0), dtype=np.float32), 2.5)
        back, _ = read_feature_file(path)
        assert back.shape == (128, 0)

    def test_deterministic_bytes(self, tmp_path):
        data = np.random.default_rng(1).standard_normal((4, 9)).astype(np.float32)
        a, b = tmp_path / "a.jdf", tmp_path / "b.jdf"
        write_feature_file(a, data, 48.0)
        write_feature_file(b, data, 48.0)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.jdf"
        write_feature_file(path, np.zeros((1, 4), dtype=np.float32), 1.0)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_feature_file(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.jdf"
        write_feature_file(path, np.ones((2, 8), dtype=np.float32), 1.0)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(FormatError, match="payload"):
            read_feature_file(path)

    def test_header_survives_round_trip(self, tmp_path):
        path = tmp_path / "h.jdf"
        write_feature_file(path, np.zeros((7, 11), dtype=np.float32), 12.5)
        raw = path.read_bytes()
        assert raw[:4] == FEATURE_MAGIC
        back, rate = read_feature_file(path)
        assert back.shape == (7, 11)
        assert rate == 12.5

    def test_read_holds_the_payload_once(self, tmp_path):
        path = tmp_path / "big.jdf"
        data = np.random.default_rng(5).standard_normal((128, 20_000)).astype(np.float32)
        write_feature_file(path, data, 2.5)
        tracemalloc.start()
        try:
            back, _ = read_feature_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * data.nbytes
        np.testing.assert_array_equal(back, data)
        assert back.flags.writeable

    def test_read_from_a_pipe_holds_the_payload_once(self, tmp_path):
        # a pipe's size reads as 0: the reader grows one buffer as the bytes arrive
        path = tmp_path / "big.jdf"
        data = np.random.default_rng(5).standard_normal((128, 20_000)).astype(np.float32)
        write_feature_file(path, data, 2.5)
        view = memoryview(path.read_bytes())
        r, w = os.pipe()

        def feed():
            with open(w, "wb", buffering=0) as sink:
                for at in range(0, len(view), 1 << 16):
                    sink.write(view[at : at + (1 << 16)])

        writer = threading.Thread(target=feed)
        tracemalloc.start()
        try:
            writer.start()
            back, rate = read_feature_file(f"/dev/fd/{r}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            writer.join()
            os.close(r)
        assert peak < 1.25 * data.nbytes
        np.testing.assert_array_equal(back, data)
        assert rate == 2.5
        assert back.flags.writeable

    @pytest.mark.parametrize("frames", [2**61, 2**62, 2**64 - 1])
    def test_zero_channels_of_unaddressable_frames_rejected(self, tmp_path, frames):
        # the payload is empty, as the header says, but numpy cannot shape it
        path = tmp_path / "z.jdf"
        path.write_bytes(struct.pack("<4sIIQd", FEATURE_MAGIC, 1, 0, frames, 2.5))
        with pytest.raises(FormatError, match=f"frame count {frames} exceeds"):
            read_feature_file(path)

    def test_zero_channels_round_trip(self, tmp_path):
        path = tmp_path / "z.jdf"
        write_feature_file(path, np.zeros((0, 7), dtype=np.float32), 2.5)
        assert read_feature_file(path)[0].shape == (0, 7)

    @pytest.mark.parametrize("rate", BAD_RATES)
    def test_unusable_frame_rate_rejected(self, tmp_path, rate):
        path = tmp_path / "r.jdf"
        write_feature_file(path, np.zeros((2, 3), dtype=np.float32), 2.5)
        set_rate(path, FEATURE_RATE_OFFSET, rate)
        with pytest.raises(FormatError, match="frame rate"):
            read_feature_file(path)


class TestTokenFile:
    def test_round_trip_default_scheme(self, tmp_path):
        scheme = build_scheme(FsqLevels(), group_size=7)
        rng = np.random.default_rng(2)
        tokens = np.concatenate(
            [
                rng.integers(0, 16384, size=(50, 18), dtype=np.uint64),
                rng.integers(0, 16, size=(50, 1), dtype=np.uint64),
            ],
            axis=1,
        )
        stream = TokenStream(tokens=tokens, scheme=scheme, frame_rate_hz=2.5)
        path = tmp_path / "t.jdt"
        write_token_file(path, stream)
        back = read_token_file(path)
        np.testing.assert_array_equal(back.tokens, stream.tokens)
        assert back.scheme == scheme
        assert back.frame_rate_hz == 2.5

    def test_width_selection(self, tmp_path):
        # product 16384 fits 16 bits; 2**17 needs 32
        small = build_scheme([4] * 7, group_size=7)
        big = build_scheme([2] * 17, group_size=17)
        s_stream = TokenStream(np.zeros((1, 1), dtype=np.uint64), small, 1.0)
        b_stream = TokenStream(np.zeros((1, 1), dtype=np.uint64), big, 1.0)
        p16, p32 = tmp_path / "s.jdt", tmp_path / "b.jdt"
        write_token_file(p16, s_stream)
        write_token_file(p32, b_stream)
        assert read_token_file(p16).tokens.shape == (1, 1)
        assert read_token_file(p32).tokens.shape == (1, 1)
        # payload widths differ: 2 bytes vs 4 bytes for the single token
        base16 = p16.stat().st_size - 2 * 7
        base32 = p32.stat().st_size - 2 * 17
        assert base16 - 2 == base32 - 4

    @pytest.mark.parametrize(
        "radices, group_size, width",
        [([65535], 1, 16), ([2] * 16, 16, 16), ([2] * 17, 17, 32), ([65535, 65535], 2, 32), ([2] * 32, 32, 32)],
    )
    def test_token_width_is_the_scheme_token_dtype(self, tmp_path, radices, group_size, width):
        scheme = build_scheme(radices, group_size)
        assert scheme.token_dtype == np.dtype(f"uint{width}")
        path = tmp_path / "w.jdt"
        write_token_file(path, TokenStream(np.zeros((2, 1), dtype=np.uint64), scheme, 1.0))
        assert struct.unpack_from("<I", path.read_bytes(), 20)[0] == width
        back = read_token_file(path)
        assert back.tokens.dtype == scheme.token_dtype
        assert back.scheme == scheme

    @pytest.mark.parametrize(
        "radices, group_size, message",
        [
            ([65536], 1, "radices above 65535 are not serializable \\(got 65536\\)"),
            ([2**64], 1, "radices above 65535"),
            ([2] * 33, 33, "group 0 vocabulary 8589934592 exceeds the 32-bit token width"),
            ([2] * 64, 64, "exceeds the 32-bit token width"),
        ],
    )
    def test_scheme_rejects_what_the_format_cannot_hold(self, radices, group_size, message):
        with pytest.raises(ValueError, match=message) as info:
            build_scheme(radices, group_size)
        assert type(info.value) is ValueError

    def test_u32_payload_of_a_u16_scheme_reads_as_its_u16_twin(self, tmp_path):
        scheme = build_scheme([5, 4, 3, 2, 7], group_size=3)  # products 60, 14
        tokens = np.array([[59, 13], [0, 0], [17, 9]], dtype=np.uint16)
        u16, u32 = tmp_path / "a.jdt", tmp_path / "b.jdt"
        write_token_file(u16, TokenStream(tokens, scheme, 2.5))
        header = TOKEN_HEADER_SIZE + 2 * scheme.dim
        raw = bytearray(u16.read_bytes()[:header])
        raw[20:24] = struct.pack("<I", 32)
        u32.write_bytes(bytes(raw) + tokens.astype("<u4").tobytes())
        twin, back = read_token_file(u16), read_token_file(u32)
        assert back.tokens.dtype == twin.tokens.dtype == np.uint16
        np.testing.assert_array_equal(back.tokens, twin.tokens)
        assert back.scheme == twin.scheme and back.frame_rate_hz == twin.frame_rate_hz
        # each token is checked before it is narrowed: 2**16 + 5 is not read as 5
        u32.write_bytes(bytes(raw) + np.array([[59, 13], [2**16 + 5, 0], [17, 9]], "<u4").tobytes())
        with pytest.raises(ValidationError, match=f"^token {2**16 + 5} at frame 1, group 0 exceeds"):
            read_token_file(u32)

    def test_radices_beyond_a_32_bit_vocabulary_rejected(self, tmp_path):
        # u16 radices whose product is 2**32 + 4: no jdtok command writes such a file
        path = tmp_path / "v.jdt"
        header = struct.pack("<4sIIIIIQd", b"JDT1", 1, 1, 4, 4, 32, 0, 2.5)
        path.write_bytes(header + struct.pack("<4H", 1321, 2501, 325, 4))
        message = f"invalid radix table (group 0 vocabulary {2**32 + 4} exceeds the 32-bit token width"
        with pytest.raises(FormatError, match=re.escape(message)):
            read_token_file(path)

    def test_tampered_token_detected(self, tmp_path):
        scheme = build_scheme([4, 4], group_size=2)
        stream = TokenStream(np.zeros((3, 1), dtype=np.uint64), scheme, 1.0)
        path = tmp_path / "tamper.jdt"
        write_token_file(path, stream)
        raw = bytearray(path.read_bytes())
        raw[-2:] = (255).to_bytes(2, "little")  # frame 2 token -> 255 >= 16
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="frame 2, group 0"):
            read_token_file(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.jdt"
        path.write_bytes(b"XXXX" + bytes(60))
        with pytest.raises(FormatError, match="magic"):
            read_token_file(path)

    def test_truncated_radices(self, tmp_path):
        scheme = build_scheme([4] * 7, group_size=7)
        stream = TokenStream(np.zeros((2, 1), dtype=np.uint64), scheme, 1.0)
        path = tmp_path / "trunc.jdt"
        write_token_file(path, stream)
        path.write_bytes(path.read_bytes()[:44])
        with pytest.raises(FormatError):
            read_token_file(path)

    def test_deterministic_bytes(self, tmp_path):
        scheme = build_scheme(FsqLevels(), group_size=7)
        tokens = np.arange(38, dtype=np.uint64).reshape(2, 19) % 16
        a, b = tmp_path / "a.jdt", tmp_path / "b.jdt"
        for p in (a, b):
            write_token_file(p, TokenStream(tokens, scheme, 2.5))
        assert a.read_bytes() == b.read_bytes()

    def test_group_larger_than_dimensions_rejected(self, tmp_path):
        path = tmp_path / "g.jdt"
        header = struct.pack("<4sIIIIIQd", b"JDT1", 1, 1, 10**6, 1, 16, 0, 2.5)
        path.write_bytes(header + struct.pack("<H", 4))
        with pytest.raises(FormatError, match="exceeds the 1 dimensions"):
            read_token_file(path)

    def test_zero_radix_rejected(self, tmp_path):
        path = tmp_path / "z.jdt"
        header = struct.pack("<4sIIIIIQd", b"JDT1", 1, 1, 2, 2, 16, 0, 2.5)
        path.write_bytes(header + struct.pack("<HH", 4, 0))
        with pytest.raises(FormatError, match=re.escape("all levels must be >= 1, got (4, 0)")):
            read_token_file(path)

    @pytest.mark.parametrize("rate", BAD_RATES)
    def test_unusable_frame_rate_rejected(self, tmp_path, rate):
        scheme = build_scheme([4, 4], group_size=2)
        path = tmp_path / "r.jdt"
        stream = TokenStream(np.zeros((3, 1), dtype=np.uint64), scheme, 2.5)
        write_token_file(path, stream)
        set_rate(path, TOKEN_RATE_OFFSET, rate)
        with pytest.raises(FormatError, match="frame rate"):
            read_token_file(path)


class TestMaskFile:
    def test_bytes_are_mask_values(self, tmp_path):
        path = tmp_path / "m.bin"
        write_mask_file(path, np.array([1, 0, 0, 1, 1], dtype=np.uint8))
        assert path.read_bytes() == bytes([1, 0, 0, 1, 1])

    def test_rejects_non_binary(self, tmp_path):
        path = tmp_path / "m.bin"
        for bad in (2, 0.5, -1, np.nan):
            with pytest.raises(ValidationError):
                write_mask_file(path, np.array([0, 1, bad]))
        assert not path.exists()

    @pytest.mark.parametrize("mask", [
        np.array([True, False, False, True]),
        np.array([1.0, 0.0, 0.0, 1.0]),
        np.array([1.0, -0.0, 0.0, 1.0], dtype=np.float32),
    ], ids=["bool", "float64", "float32"])
    def test_accepts_bool_and_float_masks(self, tmp_path, mask):
        path = tmp_path / "m.bin"
        write_mask_file(path, mask)
        assert path.read_bytes() == bytes([1, 0, 0, 1])


class TestRewrite:
    """Writers overwrite an existing output in place and cut it to length."""

    def test_shorter_rewrite_leaves_only_new_bytes(self, tmp_path):
        path = tmp_path / "m.bin"
        write_mask_file(path, np.ones(1000, dtype=np.uint8))
        write_mask_file(path, np.array([0, 1, 0], dtype=np.uint8))
        assert path.read_bytes() == bytes([0, 1, 0])

    def test_new_file_mode_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_mask_file(tmp_path / "m.bin", np.ones(3, dtype=np.uint8))
        finally:
            os.umask(old)
        assert (tmp_path / "m.bin").stat().st_mode & 0o777 == 0o640

    def test_failed_rewrite_leaves_no_old_bytes(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"old" * 100)
        with pytest.raises(TypeError):  # the second part is not a buffer
            fileio._write(path, b"new", object())
        assert path.read_bytes() == b""

    def test_non_regular_output(self):
        write_mask_file(os.devnull, np.ones(10, dtype=np.uint8))


class TestWriterRates:
    """Writers refuse the frame rates their readers reject, before opening the output."""

    @pytest.mark.parametrize("rate", BAD_RATES)
    def test_unusable_frame_rate_leaves_output_alone(self, tmp_path, rate):
        feat, tok = tmp_path / "f.jdf", tmp_path / "t.jdt"
        for path in (feat, tok):
            path.write_bytes(b"old bytes")
        with pytest.raises(ValidationError, match="frame rate"):
            write_feature_file(feat, np.zeros((2, 3), dtype=np.float32), rate)
        scheme = build_scheme([4, 4], group_size=2)
        with pytest.raises(ValidationError, match="frame rate"):
            write_token_file(tok, TokenStream(np.zeros((3, 1), dtype=np.uint64), scheme, rate))
        assert feat.read_bytes() == tok.read_bytes() == b"old bytes"


class TestConfig:
    def test_defaults(self):
        cfg = CodecConfig()
        assert cfg.sample_rate == 24000
        assert cfg.hop == 9600
        assert cfg.levels.dim == 128
        assert cfg.group_size == 7
        assert cfg.lambda_stft == 2.0

    def test_canonical_file_parses(self):
        from pathlib import Path

        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "default.cfg")
        assert cfg.levels.levels == (4,) * 128
        assert cfg.lambda_stft == 2.0
        assert cfg.mask.mask_ratio == 0.5
        assert cfg.mask.span_max is None

    def test_round_trip_values(self):
        text = """
        sample_rate = 16000
        hop = 320
        levels = [4, 4, 8]
        group_size = 3
        lambda_stft = 0.5
        mask.ratio = 0.3
        mask.span_min = 1
        mask.span_max = 9
        """
        cfg = parse_config(text)
        assert cfg.sample_rate == 16000
        assert cfg.levels.levels == (4, 4, 8)
        assert cfg.lambda_stft == 0.5
        assert cfg.mask.mask_ratio == 0.3
        assert cfg.mask.span_max == 9

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# comment only\n\nsample_rate = 8000  # trailing\n")
        assert cfg.sample_rate == 8000

    @pytest.mark.parametrize(
        "text",
        [
            "unknown_key = 3",
            # keys that were parsed and stored, but read by no command
            "temperature = 1.0",
            "lambda_gan = 0.1",
            "daam.k = 4",
            "daam.alpha = 0.05",
            "daam.delta = [0.0, 0.0, 0.0, 0.0]",
            "daam.nu = [0.0, 0.0, 0.0, 0.0]",
            "sample_rate = notanumber",
            "levels = 4",
            "sample_rate = 1\nsample_rate = 2",
            "mask.ratio = 1.5",
            "just some words",
        ],
    )
    def test_invalid_configs(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize("key", ["sample_rate", "hop"])
    def test_rate_below_one_is_a_config_error(self, key):
        with pytest.raises(ConfigError) as info:
            parse_config(f"{key} = 0")
        assert str(info.value) == f"{key} must be >= 1, got 0"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", ["sample_rate", "hop"])
    def test_non_finite_rate_is_a_config_error(self, key, value):
        with pytest.raises(ConfigError) as info:
            CodecConfig(**{key: value})
        assert str(info.value) == f"{key} must be finite, got {value}"

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(hop=2.5), "hop must be an integer, got 2.5"),
            (dict(hop=9600.0), "hop must be an integer, got 9600.0"),
            (dict(group_size=7.0), "group_size must be an integer, got 7.0"),
        ],
    )
    def test_fractional_hop_or_group_size_is_a_config_error(self, kwargs, message):
        with pytest.raises(ConfigError) as info:
            CodecConfig(**kwargs)
        assert str(info.value) == message

    def test_undecodable_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"levels = [4]\n\xff\xfe\n")
        with pytest.raises(ConfigError, match="can't decode"):
            load_config(path)

    def test_group_larger_than_dimensions(self):
        with pytest.raises(ConfigError, match="group_size"):
            parse_config("levels = [4, 4, 4]\n")  # group_size defaults to 7
        assert parse_config("levels = [4, 4, 4]\ngroup_size = 3\n").group_size == 3

    def test_token_file_limits(self):
        # the packing scheme's own limits, the token file's, surface as configuration errors
        with pytest.raises(ConfigError, match="exceeds the 32-bit token width"):
            parse_config("levels = [65535, 65535, 65535]\ngroup_size = 3\n")
        assert parse_config("levels = [65535, 65535, 65535]\ngroup_size = 2\n")
        with pytest.raises(ConfigError, match=re.escape("radices above 65535 are not serializable (got 65536)")):
            parse_config("levels = [4, 65536]\ngroup_size = 1\n")


# a non-default value for every configuration key, the attribute of the parsed
# CodecConfig it must land in, and that attribute's expected value
KEY_SAMPLES = {
    "sample_rate": ("16000", "sample_rate", 16000),
    "hop": ("320", "hop", 320),
    "levels": ("[4, 4, 8, 3, 5, 6, 7]", "levels", FsqLevels((4, 4, 8, 3, 5, 6, 7))),
    "group_size": ("8", "group_size", 8),
    "lambda_stft": ("3.5", "lambda_stft", 3.5),
    "mask.ratio": ("0.3", "mask.mask_ratio", 0.3),
    "mask.span_min": ("3", "mask.span_min", 3),
    "mask.span_max": ("9", "mask.span_max", 9),
}


class TestConfigKeys:
    """Every key of the one key table reaches its owner's field and is type-checked."""

    @pytest.mark.parametrize("key", sorted(_KEYS))
    def test_value_reaches_its_field(self, key):
        text, path, want = KEY_SAMPLES[key]
        got = attrgetter(path)(parse_config(f"{key} = {text}"))
        default = attrgetter(path)(CodecConfig())
        if isinstance(got, np.ndarray):
            np.testing.assert_array_equal(got, want)
            assert not np.array_equal(default, want)
        else:
            assert got == want
            assert default != want

    @pytest.mark.parametrize("key", sorted(_KEYS))
    def test_wrong_type_names_the_key(self, key):
        text = "[wrong]" if _KEYS[key][1] else "wrong"
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            parse_config(f"{key} = {text}")

    def test_documented_keys_are_the_table(self):
        documented = re.findall(r"^    (\S+) +\[?(?:int|float)\]? ", jdtok.config.__doc__, re.M)
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        listed = section.split("Keys:", 1)[1].split("Omitted keys", 1)[0]
        assert documented == list(_KEYS)
        assert re.findall(r"`([a-z_.]+)`", listed) == list(_KEYS)
        assert set(KEY_SAMPLES) == set(_KEYS)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key, message",
        [
            ("lambda_stft", "lambda_stft must be finite"),
            ("mask.ratio", "mask_ratio must be in [0, 1]"),
        ],
    )
    def test_non_finite_scalar_is_a_config_error(self, key, message, value):
        with pytest.raises(ConfigError) as info:
            parse_config(f"{key} = {value}")
        assert str(info.value) == f"{message}, got {float(value)}"

    FLOAT_KEYS = sorted(k for k, (kind, array, *_) in _KEYS.items() if kind is float and not array)

    @settings(max_examples=200, deadline=None)
    @given(entries=st.dictionaries(st.sampled_from(FLOAT_KEYS), st.floats()))
    def test_every_accepted_config_equals_its_reparse(self, entries):
        text = "".join(f"{key} = {value!r}\n" for key, value in entries.items())
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        twin = parse_config(text)
        assert cfg == twin
        assert hash(cfg) == hash(twin)

    def test_loss_weight_defaults_to_the_losses_module(self):
        assert CodecConfig().lambda_stft == losses.DEFAULT_LAMBDA_STFT


class TestConfigDefaults:
    """Each default lives only in the dataclass that owns its field."""

    def test_empty_text_gives_the_defaults(self):
        assert parse_config("") == CodecConfig()
        assert hash(parse_config("")) == hash(CodecConfig())

    def test_canonical_file_gives_the_defaults(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"
        assert load_config(path) == CodecConfig()

    def test_unset_mask_keys_take_the_mask_defaults(self):
        cfg = parse_config("mask.span_min = 3\nmask.ratio = 0.2")
        assert cfg.mask == MaskConfig(mask_ratio=0.2, span_min=3)

    def test_every_compared_field_is_compared(self):
        base = CodecConfig()
        others = {
            "sample_rate": 16000,
            "hop": 320,
            "levels": FsqLevels((4,) * 127),
            "group_size": 8,
            "lambda_stft": 1.0,
            "mask": MaskConfig(span_min=3),
        }
        assert set(others) == {f.name for f in dataclasses.fields(CodecConfig) if f.compare}
        for name, value in others.items():
            assert dataclasses.replace(base, **{name: value}) != base, name


class TestConfigScheme:
    def test_scheme_is_built_from_levels_and_group_size(self):
        cfg = parse_config("levels = [5, 4, 3, 2, 7]\ngroup_size = 3")
        assert cfg.scheme == build_scheme(cfg.levels, cfg.group_size)
        assert cfg.scheme.group_products == (60, 14)
        assert dataclasses.replace(cfg, group_size=1).scheme.group_count == 5

    def test_scheme_is_derived_not_given(self):
        cfg = CodecConfig()
        assert "scheme" not in repr(cfg)
        twin = CodecConfig()
        object.__setattr__(twin, "scheme", build_scheme(cfg.levels, 1))
        assert twin == cfg
        with pytest.raises(TypeError):
            CodecConfig(scheme=cfg.scheme)


def _seed_files():
    """One small valid feature file, token file and configuration, as bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        feat, tok = Path(tmp) / "f.jdf", Path(tmp) / "t.jdt"
        data = np.random.default_rng(9).standard_normal((3, 5)).astype(np.float32)
        write_feature_file(feat, data, 2.5)
        scheme = build_scheme([4, 3, 1, 5, 2], 2)
        tokens = np.array([[0, 2, 1], [11, 4, 0], [5, 3, 1]], dtype=np.uint64)
        write_token_file(tok, TokenStream(tokens, scheme, 2.5))
        config = (
            b"levels = [4, 3, 5]\ngroup_size = 2\nlambda_stft = 0.5\n"
            b"mask.span_max = 9\nmask.ratio = 0.25  # comment\n"
        )
        return {"feature": feat.read_bytes(), "token": tok.read_bytes(), "config": config}


SEEDS = _seed_files()


def hostile(seed: bytes):
    """Truncations, byte mutations and random bytes around a valid file."""
    edits = st.lists(
        st.tuples(st.integers(0, len(seed) - 1), st.integers(0, 255)), min_size=1, max_size=8
    )

    def mutate(pairs):
        raw = bytearray(seed)
        for at, value in pairs:
            raw[at] = value
        return bytes(raw)

    return st.one_of(
        st.integers(0, len(seed) - 1).map(lambda n: seed[:n]),
        edits.map(mutate),
        st.binary(max_size=4 * len(seed)),
    )


def assert_rejected_in_bounded_memory(read, size):
    """``read()`` returns or raises a documented error, allocating O(size)."""
    tracemalloc.start()
    try:
        read()
    except (FormatError, ValidationError, ConfigError):
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < (64 << 10) + 16 * size


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "input"


class TestHostileInput:
    @settings(max_examples=300, deadline=None)
    @given(raw=hostile(SEEDS["feature"]))
    def test_feature_reader(self, scratch_file, raw):
        scratch_file.write_bytes(raw)
        assert_rejected_in_bounded_memory(lambda: read_feature_file(scratch_file), len(raw))

    @settings(max_examples=300, deadline=None)
    @given(raw=hostile(SEEDS["token"]))
    def test_token_reader(self, scratch_file, raw):
        scratch_file.write_bytes(raw)
        assert_rejected_in_bounded_memory(lambda: read_token_file(scratch_file), len(raw))

    @settings(max_examples=300, deadline=None)
    @given(raw=hostile(SEEDS["config"]))
    def test_config_parser(self, raw):
        text = raw.decode("latin-1")  # every byte string is some text
        assert_rejected_in_bounded_memory(lambda: parse_config(text), len(raw))
