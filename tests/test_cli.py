import hashlib
import os
import stat
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import jdtok.fsq
from jdtok.cli import _BLOCK_FRAMES as B, _vocab_summary, build_parser, main
from jdtok.fileio import (
    read_feature_file,
    read_token_file,
    write_feature_file,
    write_token_file,
)
from jdtok.fsq import FsqLevels, fsq_boundaries, fsq_dequantize, fsq_quantize
from jdtok.masking import MaskConfig, generate_block_mask
from jdtok.radix import TokenStream, build_scheme, pack_frames, unpack_frames

CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "default.cfg")


def write_features(path, frames, channels=128, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((channels, frames)).astype(np.float32)
    write_feature_file(path, data, 2.5)
    return data


def set_rate(path, offset, rate):
    """Overwrite a written container's frame_rate_hz, as a corrupt file would hold it."""
    raw = bytearray(path.read_bytes())
    raw[offset : offset + 8] = struct.pack("<d", rate)
    path.write_bytes(bytes(raw))


class TestTokenize:
    def test_round_trip_and_summary(self, tmp_path, capsys):
        feat = tmp_path / "f.jdf"
        tok = tmp_path / "t.jdt"
        back = tmp_path / "b.jdf"
        write_features(feat, 10)
        assert main(["tokenize", "--config", CONFIG, "--in", str(feat), "--out", str(tok)]) == 0
        out = capsys.readouterr().out
        assert "frames: 10" in out
        assert "tokens/sec: 47.5" in out
        stream = read_token_file(tok)
        assert stream.tokens.shape == (10, 19)
        assert main(["detokenize", "--in", str(tok), "--out", str(back)]) == 0
        values, rate = read_feature_file(back)
        assert rate == 2.5
        assert set(np.unique(values)) <= {-0.75, -0.25, 0.25, 0.75}

    def test_empty_feature_file(self, tmp_path, capsys):
        feat = tmp_path / "f.jdf"
        tok = tmp_path / "t.jdt"
        write_features(feat, 0)
        assert main(["tokenize", "--config", CONFIG, "--in", str(feat), "--out", str(tok)]) == 0
        assert "frames: 0" in capsys.readouterr().out
        assert read_token_file(tok).tokens.shape == (0, 19)

    def test_corrupted_magic_exits_3_without_output(self, tmp_path, capsys):
        feat = tmp_path / "f.jdf"
        tok = tmp_path / "t.jdt"
        write_features(feat, 4)
        raw = bytearray(feat.read_bytes())
        raw[:4] = b"JUNK"
        feat.write_bytes(bytes(raw))
        assert main(["tokenize", "--config", CONFIG, "--in", str(feat), "--out", str(tok)]) == 3
        assert not tok.exists()
        assert "error" in capsys.readouterr().err

    def test_truncated_payload_exits_3_without_output(self, tmp_path, capsys):
        feat = tmp_path / "f.jdf"
        tok = tmp_path / "t.jdt"
        write_features(feat, 4)
        feat.write_bytes(feat.read_bytes()[:-4])
        assert main(["tokenize", "--config", CONFIG, "--in", str(feat), "--out", str(tok)]) == 3
        assert not tok.exists()
        assert "payload size" in capsys.readouterr().err

    def test_reads_features_from_a_pipe(self, tmp_path):
        feat = tmp_path / "f.jdf"
        tok = tmp_path / "t.jdt"
        write_features(feat, 3)
        proc = subprocess.run(
            [sys.executable, "-m", "jdtok", "tokenize", "--in", "/dev/stdin", "--out", str(tok)],
            input=feat.read_bytes(),
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert read_token_file(tok).frame_count == 3

    def test_missing_input_exits_5(self, tmp_path, capsys):
        tok = tmp_path / "t.jdt"
        assert main(["tokenize", "--in", str(tmp_path / "absent.jdf"), "--out", str(tok)]) == 5
        assert not tok.exists()
        assert "absent.jdf" in capsys.readouterr().err

    def test_channel_mismatch_exits_4(self, tmp_path, capsys):
        feat = tmp_path / "f.jdf"
        write_features(feat, 5, channels=64)
        code = main(["tokenize", "--config", CONFIG, "--in", str(feat), "--out", str(tmp_path / "t.jdt")])
        assert code == 4
        assert "64 channels" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mask.ratio = 2.0\n")
        feat = tmp_path / "f.jdf"
        write_features(feat, 2)
        assert main(["tokenize", "--config", str(cfg), "--in", str(feat), "--out", str(tmp_path / "t.jdt")]) == 2


class TestDetokenize:
    def test_tampered_token_exits_4(self, tmp_path, capsys):
        feat = tmp_path / "f.jdf"
        tok = tmp_path / "t.jdt"
        write_features(feat, 3)
        assert main(["tokenize", "--config", CONFIG, "--in", str(feat), "--out", str(tok)]) == 0
        raw = bytearray(tok.read_bytes())
        raw[-2:] = (0xFFFF).to_bytes(2, "little")  # 65535 >= any group product
        tok.write_bytes(bytes(raw))
        assert main(["detokenize", "--in", str(tok), "--out", str(tmp_path / "b.jdf")]) == 4
        assert "frame" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, 0.0, -2.5])
    def test_unusable_frame_rate_exits_3_without_output(self, tmp_path, capsys, rate):
        feat = tmp_path / "f.jdf"
        tok = tmp_path / "t.jdt"
        back = tmp_path / "b.jdf"
        write_features(feat, 3)
        set_rate(feat, 20, rate)  # frame_rate_hz in a JDF1 header
        assert main(["tokenize", "--config", CONFIG, "--in", str(feat), "--out", str(tok)]) == 3
        assert not tok.exists()
        scheme = build_scheme(FsqLevels(), 7)
        write_token_file(tok, TokenStream(np.zeros((3, 19), dtype=np.uint64), scheme, 2.5))
        set_rate(tok, 32, rate)  # frame_rate_hz in a JDT1 header
        assert main(["detokenize", "--in", str(tok), "--out", str(back)]) == 3
        assert not back.exists()
        assert "frame rate" in capsys.readouterr().err

    def test_tokenize_after_detokenize_is_stable(self, tmp_path, capsys):
        feat = tmp_path / "f.jdf"
        tok1 = tmp_path / "t1.jdt"
        back1 = tmp_path / "b1.jdf"
        tok2 = tmp_path / "t2.jdt"
        back2 = tmp_path / "b2.jdf"
        write_features(feat, 64, seed=5)
        main(["tokenize", "--config", CONFIG, "--in", str(feat), "--out", str(tok1)])
        main(["detokenize", "--in", str(tok1), "--out", str(back1)])
        main(["tokenize", "--config", CONFIG, "--in", str(back1), "--out", str(tok2)])
        main(["detokenize", "--in", str(tok2), "--out", str(back2)])
        # idempotent after the first quantization, at both file levels
        assert tok1.read_bytes() == tok2.read_bytes()
        assert back1.read_bytes() == back2.read_bytes()


class TestInfo:
    def test_default_report(self, capsys):
        assert main(["info", "--config", CONFIG]) == 0
        out = capsys.readouterr().out
        assert "frame rate: 2.5 Hz" in out
        assert "groups per frame: 19" in out
        assert "pad dims 5" in out
        assert "tokens/sec: 47.5" in out
        assert "per-token vocabulary: 16384" in out
        assert "bits/sec: 665" in out
        assert "no-packing baseline: 320 tokens/sec" in out

    def test_group_size_one_baseline(self, tmp_path, capsys):
        cfg = tmp_path / "g1.cfg"
        cfg.write_text("group_size = 1\n")
        assert main(["info", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "tokens/sec: 320" in out
        assert "per-token vocabulary: 4" in out

    def test_codec_comparison_hop(self, tmp_path, capsys):
        cfg = tmp_path / "encodec.cfg"
        cfg.write_text("sample_rate = 24000\nhop = 320\n")
        assert main(["info", "--config", str(cfg)]) == 0
        assert "frame rate: 75 Hz" in capsys.readouterr().out

    def test_defaults_without_config(self, capsys):
        assert main(["info"]) == 0
        assert "tokens/sec: 47.5" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["sample_rate", "hop"])
    def test_rate_below_one_exits_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "rate.cfg"
        cfg.write_text(f"{key} = 0\n")
        assert main(["info", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key} must be >= 1, got 0\n"


    @pytest.mark.parametrize("text", ["daam.alpha = nan", "lambda_stft = inf", "temperature = -inf"])
    def test_non_finite_scalar_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(text + "\n")
        assert main(["info", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err


class TestVocabSummary:
    @pytest.mark.parametrize(
        "levels, group_size, want",
        [
            ([4] * 128, 7, "18 x 16384, 1 x 16"),
            ([5, 4, 3, 2, 7], 3, "1 x 60, 1 x 14"),
            ([7, 7, 3, 7], 1, "2 x 7, 1 x 3, 1 x 7"),  # runs, not counts
        ],
    )
    def test_runs_of_equal_vocabularies(self, levels, group_size, want):
        assert _vocab_summary(build_scheme(levels, group_size).group_products) == want


class TestScore:
    def write_wave(self, path, data, rate=24000.0):
        write_feature_file(path, data[None, :].astype(np.float32), rate)

    def test_self_score_is_zero(self, tmp_path, capsys):
        wav = tmp_path / "a.jdf"
        self.write_wave(wav, np.random.default_rng(0).standard_normal(4096))
        assert main(["score", "--ref", str(wav), "--hyp", str(wav)]) == 0
        out = capsys.readouterr().out
        assert "l1: 0" in out
        assert "stft total: 0" in out

    def test_doubled_signal_matches_identity(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(24000)
        ref, hyp = tmp_path / "ref.jdf", tmp_path / "hyp.jdf"
        self.write_wave(ref, x)
        self.write_wave(hyp, 2 * x)
        assert main(["score", "--ref", str(ref), "--hyp", str(hyp)]) == 0
        out = capsys.readouterr().out
        total = float(out.split("stft total: ")[1].splitlines()[0])
        assert abs(total - 5 * (1 + np.log(2))) / (5 * (1 + np.log(2))) < 1e-3

    def test_stdout_independent_of_cpu_count(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(5 * 24000)
        ref, hyp = tmp_path / "ref.jdf", tmp_path / "hyp.jdf"
        self.write_wave(ref, x)
        self.write_wave(hyp, x + 0.1 * rng.standard_normal(x.size))
        outs = []
        for count in (1, 2):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid, n=count: set(range(n)), raising=False
            )
            assert main(["score", "--ref", str(ref), "--hyp", str(hyp)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and "stft total: " in outs[0]

    def test_length_mismatch_exits_4(self, tmp_path):
        a, b = tmp_path / "a.jdf", tmp_path / "b.jdf"
        self.write_wave(a, np.zeros(4096))
        self.write_wave(b, np.zeros(4097))
        assert main(["score", "--ref", str(a), "--hyp", str(b)]) == 4

    def test_rate_mismatch_exits_4(self, tmp_path):
        a, b = tmp_path / "a.jdf", tmp_path / "b.jdf"
        self.write_wave(a, np.zeros(4096), rate=24000.0)
        self.write_wave(b, np.zeros(4096), rate=16000.0)
        assert main(["score", "--ref", str(a), "--hyp", str(b)]) == 4

    def test_multichannel_rejected(self, tmp_path):
        a, b = tmp_path / "a.jdf", tmp_path / "b.jdf"
        write_feature_file(a, np.zeros((2, 4096), dtype=np.float32), 24000.0)
        self.write_wave(b, np.zeros(4096))
        assert main(["score", "--ref", str(a), "--hyp", str(b)]) == 4

    def score_rejected(self, tmp_path, capsys, ref, hyp):
        a, b = tmp_path / "ref.jdf", tmp_path / "hyp.jdf"
        self.write_wave(a, ref)
        self.write_wave(b, hyp)
        assert main(["score", "--ref", str(a), "--hyp", str(b)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_silent_reference_exits_4(self, tmp_path, capsys):
        hyp = np.random.default_rng(2).standard_normal(4096)
        err = self.score_rejected(tmp_path, capsys, np.zeros(4096), hyp)
        assert "silent reference" in err

    def test_shorter_than_largest_fft_exits_4(self, tmp_path, capsys):
        x = np.random.default_rng(3).standard_normal(2047)
        err = self.score_rejected(tmp_path, capsys, x, x)
        assert "shorter than the fft size" in err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_exits_4(self, tmp_path, capsys, bad):
        x = np.random.default_rng(4).standard_normal(4096)
        y = x.copy()
        y[100] = bad
        err = self.score_rejected(tmp_path, capsys, x, y)
        assert "non-finite" in err


def differing_mask_seed(frames):
    """A seed whose mask depends on the counter mode."""
    return next(
        s
        for s in range(50)
        if not np.array_equal(
            generate_block_mask(frames, MaskConfig(seed=s)),
            generate_block_mask(frames, MaskConfig(seed=s), count_overlaps=True),
        )
    )


class TestMask:
    def test_mask_bytes_match_library(self, tmp_path, capsys):
        out = tmp_path / "m.bin"
        assert main(["mask", "--frames", "100", "--seed", "7", "--out", str(out)]) == 0
        expected = generate_block_mask(100, MaskConfig(seed=7))
        assert out.read_bytes() == expected.tobytes()
        assert "masked fraction" in capsys.readouterr().out

    def test_compat_counter_changes_output(self, tmp_path):
        # the CLI flag reproduces the legacy library behavior
        seed = differing_mask_seed(100)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert main(["mask", "--frames", "100", "--seed", str(seed), "--out", str(a)]) == 0
        assert main([
            "mask", "--frames", "100", "--seed", str(seed), "--out", str(b),
            "--compat-paper-mask-counter",
        ]) == 0
        assert a.read_bytes() != b.read_bytes()
        legacy = generate_block_mask(100, MaskConfig(seed=seed), count_overlaps=True)
        assert b.read_bytes() == legacy.tobytes()

    def test_uses_config_mask_section(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("mask.ratio = 0.25\nmask.span_min = 2\nmask.span_max = 2\n")
        out = tmp_path / "m.bin"
        assert main(["mask", "--config", str(cfg), "--frames", "8", "--seed", "3", "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert raw.count(0) == 2


# SHA-256 of `jdtok mask` output, computed with the one-scalar-draw-per-value
# loop of earlier versions: (frames, ratio, span_min, span_max or None for
# the adaptive rule, seed, --compat-paper-mask-counter) -> digest.  A change
# in mask bits, from this package or from numpy, fails here.
GOLDEN_MASKS = [
    ((1000, 0.5, 2, None, 7, False), "f806930ab144717b57c6f9c353f80686ef8587cb54b8040494987f77b0676933"),
    ((1000, 0.5, 2, None, 7, True), "8e3a278097f46553ccda497baa5e01d32407ca48fad8c2de75ec3a2e73b423b3"),
    ((100000, 0.5, 2, 8, 11, False), "e1edcd363b6eed6ec3316422849ba87a9172deb4cefa94a9a6198e9a70d2916f"),
    ((100000, 0.5, 2, 8, 11, True), "8b906ef93bea3b837137d7d22c1fa3f4c51fceabef3dcf16d6493baa915244d4"),
    ((37, 1.0, 1, 4, 5, False), "ab24a95f44ceca5d2aed4b6d056adddd8539f44c6cd6ca506534e830c82ea8a8"),
    ((4096, 0.3, 3, 17, 2**40 + 3, False), "774fa2ab3de30b6a99dfb047d0c34e8dc5f9f3dc3b6fa8ad2cd60c77accc2cf6"),
    ((50000, 0.9, 5, 5000, 123, True), "1119f402594733a349854b9b7e51f9e80b60ad20c797b1a35d49ffc7bcfde70a"),
    ((3000, 0.65, 1, 1, 3, False), "6cec2f42bfef9b6d4830ed871b52bba512be5db3d840efdb93956c782a05e6ff"),
    ((1, 1.0, 1, None, 0, False), "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
]


class TestGoldenMasks:
    @pytest.mark.parametrize("case, digest", GOLDEN_MASKS, ids=[str(c) for c, _ in GOLDEN_MASKS])
    def test_mask_digest(self, tmp_path, capsys, case, digest):
        frames, ratio, span_min, span_max, seed, compat = case
        cfg = tmp_path / "m.cfg"
        cfg.write_text(
            f"mask.ratio = {ratio}\nmask.span_min = {span_min}\n"
            + ("" if span_max is None else f"mask.span_max = {span_max}\n")
        )
        out = tmp_path / "m.bin"
        argv = ["mask", "--config", str(cfg), "--frames", str(frames), "--seed", str(seed),
                "--out", str(out)] + (["--compat-paper-mask-counter"] if compat else [])
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestMaskFrameBound:
    @pytest.mark.parametrize("frames", [2**32, 10**12])
    def test_exits_2_without_output_in_bounded_memory(self, tmp_path, capsys, frames):
        out = tmp_path / "m.bin"
        code, peak = traced_peak(["mask", "--frames", str(frames), "--out", str(out)])
        assert code == 2
        assert peak < 1 << 20
        assert not out.exists()
        assert "2**32" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jdtok", "info", "--config", CONFIG],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "47.5" in proc.stdout

    def test_console_script_call_reads_sys_argv(self, monkeypatch, capsys):
        # the [project.scripts] entry point calls main() with argv=None
        monkeypatch.setattr(sys, "argv", ["jdtok", "info", "--config", CONFIG])
        assert main() == 0
        assert "tokens/sec: 47.5" in capsys.readouterr().out


class TestConfigOption:
    """--config is declared once and shared by the commands that read a config."""

    def help_lines(self, monkeypatch, capsys, command):
        monkeypatch.setenv("COLUMNS", "200")  # one line per option
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        return [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]

    @pytest.mark.parametrize("command", ["tokenize", "info", "score", "mask"])
    def test_in_the_help_of_each_config_command(self, monkeypatch, capsys, command):
        lines = self.help_lines(monkeypatch, capsys, command)
        assert "--config CONFIG configuration file (defaults used if omitted)" in lines

    def test_not_in_the_help_of_detokenize(self, monkeypatch, capsys):
        lines = self.help_lines(monkeypatch, capsys, "detokenize")
        assert not any("--config" in line for line in lines)


class TestSharedParser:
    """Every main() call in a process parses with one parser; nothing one
    call sets may reach the next."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_flag_does_not_stick(self, tmp_path):
        seed = differing_mask_seed(100)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        argv = ["mask", "--frames", "100", "--seed", str(seed)]
        assert main(argv + ["--out", str(a), "--compat-paper-mask-counter"]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        expected = generate_block_mask(100, MaskConfig(seed=seed), count_overlaps=False)
        assert b.read_bytes() == expected.tobytes()

    def test_config_does_not_stick(self, tmp_path, capsys):
        feat, tok = tmp_path / "f.jdf", tmp_path / "t.jdt"
        write_features(feat, 5)
        g1 = write_config(tmp_path / "g1.cfg", [4] * 128, 1)
        assert main(["tokenize", "--config", g1, "--in", str(feat), "--out", str(tok)]) == 0
        assert read_token_file(tok).tokens.shape == (5, 128)
        capsys.readouterr()
        assert main(["tokenize", "--in", str(feat), "--out", str(tok)]) == 0
        assert "tokens/sec: 47.5" in capsys.readouterr().out
        assert read_token_file(tok).tokens.shape == (5, 19)

    def test_rejected_call_leaves_no_values(self, tmp_path, capsys):
        out = tmp_path / "m.bin"
        alone = subprocess.run(
            [sys.executable, "-m", "jdtok", "mask", "--frames", "100", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert alone.returncode == 0
        out.unlink()
        with pytest.raises(SystemExit) as exc:
            main(["mask", "--frames", "100", "--seed", "5"])  # no --out
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["mask", "--frames", "100", "--out", str(out)]) == 0
        assert capsys.readouterr().out == alone.stdout
        assert out.read_bytes() == generate_block_mask(100, MaskConfig(seed=0)).tobytes()

    def test_help_twice(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["tokenize", "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("usage: jdtok tokenize")


# (levels, group size): the default layout; uneven radices including 1 with
# 37 dimensions, not a multiple of the group size; one 2**17-token group
# (32-bit tokens); the widest serializable radix, two dimensions per 32-bit token
SCHEMES = {
    "default": ([4] * 128, 7),
    "uneven": ([1, 2, 3, 4, 5, 7, 8] * 5 + [3, 1], 5),
    "u32": ([2] * 17, 17),
    "wide": ([65535] * 4, 2),
}


def whole_array_tokens(data, levels, group_size, rate):
    """Token file bytes from one whole-array quantize and pack, joined by hand."""
    scheme = build_scheme(levels, group_size)
    indices, _ = fsq_quantize(data, FsqLevels(levels))
    tokens = pack_frames(indices.T, scheme)
    width = 16 if max(scheme.group_products) <= 1 << 16 else 32
    header = struct.pack(
        "<4sIIIIIQd", b"JDT1", 1, scheme.group_count, group_size, len(levels),
        width, tokens.shape[0], rate,
    )
    payload = tokens.astype(f"<u{width // 8}").tobytes()
    return header + np.array(levels, dtype="<u2").tobytes() + payload


def whole_array_lattice(token_path):
    """Feature file bytes from one whole-array unpack and dequantize."""
    stream = read_token_file(token_path)
    indices = unpack_frames(stream.tokens, stream.scheme)
    values = fsq_dequantize(indices.T, FsqLevels(stream.scheme.radices))
    header = struct.pack(
        "<4sIIQd", b"JDF1", 1, values.shape[0], values.shape[1], stream.frame_rate_hz
    )
    return header + values.astype("<f4").tobytes()


def write_config(path, levels, group_size):
    path.write_text(f"levels = {list(levels)}\ngroup_size = {group_size}\n")
    return str(path)


class TestBlocks:
    """The commands walk 512-frame blocks; their bytes must not show it."""

    @pytest.mark.parametrize("frames", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("name", SCHEMES)
    def test_matches_whole_array_composition(self, tmp_path, capsys, name, frames):
        levels, group_size = SCHEMES[name]
        cfg = write_config(tmp_path / "c.cfg", levels, group_size)
        feat, tok, back = tmp_path / "f.jdf", tmp_path / "t.jdt", tmp_path / "b.jdf"
        data = write_features(feat, frames, channels=len(levels), seed=frames)
        assert main(["tokenize", "--config", cfg, "--in", str(feat), "--out", str(tok)]) == 0
        assert tok.read_bytes() == whole_array_tokens(data, levels, group_size, 2.5)
        assert main(["detokenize", "--in", str(tok), "--out", str(back)]) == 0
        assert back.read_bytes() == whole_array_lattice(tok)
        assert f"frames: {frames}" in capsys.readouterr().out

    def test_nan_in_last_block_exits_4_without_output(self, tmp_path, capsys):
        feat, tok = tmp_path / "f.jdf", tmp_path / "t.jdt"
        data = np.random.default_rng(6).standard_normal((128, 2 * B + 3)).astype(np.float32)
        data[70, -1] = np.nan
        write_feature_file(feat, data, 2.5)
        assert main(["tokenize", "--config", CONFIG, "--in", str(feat), "--out", str(tok)]) == 4
        assert not tok.exists()
        assert "non-finite" in capsys.readouterr().err

    def test_bad_token_in_last_block_exits_4_without_output(self, tmp_path, capsys):
        feat, tok, back = tmp_path / "f.jdf", tmp_path / "t.jdt", tmp_path / "b.jdf"
        write_features(feat, 2 * B + 3, seed=7)
        assert main(["tokenize", "--config", CONFIG, "--in", str(feat), "--out", str(tok)]) == 0
        raw = bytearray(tok.read_bytes())
        raw[-2:] = (0xFFFF).to_bytes(2, "little")  # last frame, last group
        tok.write_bytes(bytes(raw))
        assert main(["detokenize", "--in", str(tok), "--out", str(back)]) == 4
        assert not back.exists()
        assert f"frame {2 * B + 2}" in capsys.readouterr().err


class TestPipes:
    """A stream read from a pipe gives the bytes of the same stream read from its file."""

    FRAMES = 2 * B + 3  # a 526 kB feature payload: more than one 64 KiB pipe buffer

    def run(self, command, src, out, *extra):
        argv = [sys.executable, "-m", "jdtok", command, *extra, "--in", "/dev/stdin"]
        argv += ["--out", str(out)]
        proc = subprocess.run(argv, input=src.read_bytes(), capture_output=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_tokenize_and_detokenize_match_the_file_path_run(self, tmp_path, capsys):
        feat, tok, back = tmp_path / "f.jdf", tmp_path / "t.jdt", tmp_path / "b.jdf"
        write_features(feat, self.FRAMES, seed=11)
        assert main(["tokenize", "--config", CONFIG, "--in", str(feat), "--out", str(tok)]) == 0
        assert main(["detokenize", "--in", str(tok), "--out", str(back)]) == 0
        printed = capsys.readouterr().out
        piped_tok, piped_back = tmp_path / "pt.jdt", tmp_path / "pb.jdf"
        stdout = self.run("tokenize", feat, piped_tok, "--config", CONFIG)
        stdout += self.run("detokenize", tok, piped_back)
        assert piped_tok.read_bytes() == tok.read_bytes()
        assert piped_back.read_bytes() == back.read_bytes()
        assert stdout.decode() == printed


class TestShrinkingInput:
    """A file that ends before the size ``fstat`` reported is malformed (exit 3)."""

    @pytest.mark.parametrize("command", ["tokenize", "detokenize"])
    def test_exits_3_without_output(self, tmp_path, capsys, monkeypatch, command):
        feat, tok, out = tmp_path / "f.jdf", tmp_path / "t.jdt", tmp_path / "out"
        write_features(feat, 5)
        assert main(["tokenize", "--in", str(feat), "--out", str(tok)]) == 0
        capsys.readouterr()
        src = feat if command == "tokenize" else tok
        inode, real_fstat = src.stat().st_ino, os.fstat

        def fstat(fd):  # the input reports 4 bytes more than it holds
            result = real_fstat(fd)
            if result.st_ino != inode:
                return result
            fields = list(result)
            fields[stat.ST_SIZE] += 4
            return os.stat_result(fields)

        monkeypatch.setattr(os, "fstat", fstat)
        assert main([command, "--in", str(src), "--out", str(out)]) == 3
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{src}: file shrank while it was read" in captured.err


def nearest_indices(projected, level, chunk=16):
    """Brute-force argmin over the whole lattice, ``chunk`` frames at a time."""
    lattice = fsq_boundaries(level)
    out = np.empty(projected.shape, dtype=np.int64)
    for lo in range(0, projected.shape[1], chunk):
        v = projected[:, lo : lo + chunk, None]
        out[:, lo : lo + chunk] = np.argmin(np.abs(v - lattice), axis=2)
    return out


class TestWideLevels:
    def test_each_tokenize_of_a_round_trip_is_the_nearest_point(self, tmp_path, capsys):
        # a second tokenize of 65535-level lattice values is not the first:
        # tanh moves them to other points, so each pass is checked on its own
        levels, group_size = [65535] * 4, 2
        scheme = build_scheme(levels, group_size)
        cfg = write_config(tmp_path / "c.cfg", levels, group_size)
        feat, tok1, back, tok2 = (tmp_path / n for n in ("f.jdf", "1.jdt", "b.jdf", "2.jdt"))
        data = write_features(feat, B + 3, channels=4, seed=8)
        lattice = fsq_boundaries(65535).astype(np.float32)
        for src, tok in ((feat, tok1), (back, tok2)):
            assert main(["tokenize", "--config", cfg, "--in", str(src), "--out", str(tok)]) == 0
            expect = nearest_indices(np.tanh(data.astype(np.float64)), 65535)
            tokens = read_token_file(tok).tokens
            np.testing.assert_array_equal(tokens, pack_frames(expect.T, scheme))
            assert main(["detokenize", "--in", str(tok), "--out", str(back)]) == 0
            data, _ = read_feature_file(back)
            np.testing.assert_array_equal(data, lattice[expect])


def traced_peak(argv):
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Peak allocation stays O(file + block) for a 20 000-frame stream."""

    FRAMES = 20_000
    PAYLOAD = 4 * 128 * FRAMES  # float32 feature payload, in and out

    def test_detokenize_below_twice_the_output(self, tmp_path, capsys):
        feat, tok, back = tmp_path / "f.jdf", tmp_path / "t.jdt", tmp_path / "b.jdf"
        write_features(feat, self.FRAMES)
        assert main(["tokenize", "--in", str(feat), "--out", str(tok)]) == 0
        code, peak = traced_peak(["detokenize", "--in", str(tok), "--out", str(back)])
        assert code == 0
        assert peak < 2 * self.PAYLOAD

    def test_tokenize_below_three_times_the_input(self, tmp_path, capsys):
        feat, tok = tmp_path / "f.jdf", tmp_path / "t.jdt"
        write_features(feat, self.FRAMES)
        code, peak = traced_peak(["tokenize", "--in", str(feat), "--out", str(tok)])
        assert code == 0
        assert peak < 3 * self.PAYLOAD


class TestHostileTokenHeader:
    @pytest.mark.parametrize("group_size", [10**6, 2**32 - 1])
    def test_group_larger_than_dimensions_exits_3_in_bounded_memory(
        self, tmp_path, capsys, group_size
    ):
        # 42 bytes: one dimension of radix 4 claiming one group of group_size
        tok, back = tmp_path / "t.jdt", tmp_path / "b.jdf"
        header = struct.pack("<4sIIIIIQd", b"JDT1", 1, 1, group_size, 1, 16, 0, 2.5)
        tok.write_bytes(header + struct.pack("<H", 4))
        code, peak = traced_peak(["detokenize", "--in", str(tok), "--out", str(back)])
        assert code == 3
        assert peak < 1 << 20
        assert not back.exists()
        assert "exceeds" in capsys.readouterr().err

    def test_zero_radix_exits_3_without_output(self, tmp_path, capsys):
        tok, back = tmp_path / "t.jdt", tmp_path / "b.jdf"
        header = struct.pack("<4sIIIIIQd", b"JDT1", 1, 1, 2, 2, 16, 0, 2.5)
        tok.write_bytes(header + struct.pack("<HH", 4, 0))
        assert main(["detokenize", "--in", str(tok), "--out", str(back)]) == 3
        assert not back.exists()
        err = capsys.readouterr().err
        assert "invalid radix table (all levels must be >= 1, got (4, 0))" in err


class TestConfigGroupSize:
    def test_group_larger_than_dimensions_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "few.cfg"
        cfg.write_text("levels = [4, 4, 4]\n")  # group_size defaults to 7
        assert main(["info", "--config", str(cfg)]) == 2
        assert "group_size" in capsys.readouterr().err


class TestConfigGateComponents:
    @pytest.mark.parametrize("k", [257, 10**6, 10**9])
    def test_huge_k_exits_2_in_bounded_memory(self, tmp_path, capsys, k):
        cfg = tmp_path / "k.cfg"
        cfg.write_text(f"daam.k = {k}\n")
        code, peak = traced_peak(["info", "--config", str(cfg)])
        assert code == 2
        assert peak < 1 << 20
        assert "256" in capsys.readouterr().err


class TestFullWidthVocabulary:
    def test_tokenize_exits_2_without_output_or_traceback(self, tmp_path):
        # [2] * 64 in one group: a 2**64 vocabulary, beyond the 32-bit width
        cfg = write_config(tmp_path / "c.cfg", [2] * 64, 64)
        feat, tok = tmp_path / "f.jdf", tmp_path / "t.jdt"
        write_features(feat, 3, channels=64)
        proc = subprocess.run(
            [sys.executable, "-m", "jdtok", "tokenize", "--config", cfg,
             "--in", str(feat), "--out", str(tok)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "exceeds the 32-bit token width" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not tok.exists()

    def test_info_reports_64_bits_per_token(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", [2] * 64, 64)
        proc = subprocess.run(
            [sys.executable, "-m", "jdtok", "info", "--config", cfg],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "bits/sec: 160\n" in proc.stdout
        assert "Traceback" not in proc.stderr


class TestExitCodesFromErrorTypes:
    """Exit codes come from the error types alone; a bare ValueError is a fault."""

    def test_negative_mask_seed_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "m.bin"
        assert main(["mask", "--frames", "10", "--seed", "-1", "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be >= 0, got -1" in captured.err

    def test_bare_value_error_propagates(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a fault in the program")

        monkeypatch.setattr("jdtok.cli.fsq_indices", broken)
        feat, tok = tmp_path / "f.jdf", tmp_path / "t.jdt"
        write_features(feat, 3)
        with pytest.raises(ValueError, match="a fault in the program"):
            main(["tokenize", "--in", str(feat), "--out", str(tok)])

    def test_tokenize_snaps_through_fsq_quantize(self, tmp_path, monkeypatch, capsys):
        # bench/tracer.py times the snap by wrapping jdtok.fsq.fsq_quantize
        calls, original = [], jdtok.fsq.fsq_quantize

        def recorded(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr("jdtok.fsq.fsq_quantize", recorded)
        feat, tok = tmp_path / "f.jdf", tmp_path / "t.jdt"
        write_features(feat, B + 1)
        assert main(["tokenize", "--in", str(feat), "--out", str(tok)]) == 0
        assert calls == [{"with_values": False}] * 2  # one per block, no values built

    @pytest.mark.parametrize("levels", [[70000, 70000], [2**64]], ids=["70000-levels", "2**64-radix"])
    def test_unserializable_scheme_exits_2_before_reading_input(self, tmp_path, capsys, levels):
        cfg = write_config(tmp_path / "c.cfg", levels, 1)
        out = tmp_path / "t.jdt"
        missing = str(tmp_path / "missing.jdf")  # exit 5 if it were opened
        assert main(["tokenize", "--config", cfg, "--in", missing, "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"radices above 65535 are not serializable (got {levels[0]})" in captured.err
        assert main(["info", "--config", cfg]) == 0
        assert f"per-token vocabulary: {levels[0]}" in capsys.readouterr().out

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"\xff\xfe")
        assert main(["info", "--config", str(cfg)]) == 2
        assert "can't decode" in capsys.readouterr().err

    def test_zero_channel_header_of_unaddressable_frames_exits_3(self, tmp_path, capsys):
        feat, tok = tmp_path / "f.jdf", tmp_path / "t.jdt"
        feat.write_bytes(struct.pack("<4sIIQd", b"JDF1", 1, 0, 2**63, 2.5))
        assert main(["tokenize", "--in", str(feat), "--out", str(tok)]) == 3
        assert not tok.exists()
        assert "exceeds the addressable size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ref, hyp, message",
        [
            (np.zeros(0), np.zeros(0), "empty waveform"),
            (np.full(4096, np.nan), np.zeros(4096), "non-finite"),
            (np.r_[np.ones(4095), np.inf], np.ones(4096), "non-finite"),
        ],
        ids=["empty", "nan-reference", "inf-reference"],
    )
    def test_score_rejections_exit_4(self, tmp_path, capsys, ref, hyp, message):
        a, b = tmp_path / "ref.jdf", tmp_path / "hyp.jdf"
        write_feature_file(a, ref[None, :].astype(np.float32), 24000.0)
        write_feature_file(b, hyp[None, :].astype(np.float32), 24000.0)
        assert main(["score", "--ref", str(a), "--hyp", str(b)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
