import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jdtok.cli import main
from jdtok.fileio import (
    read_feature_file,
    read_token_file,
    write_feature_file,
    write_token_file,
)
from jdtok.fsq import FsqLevels
from jdtok.masking import MaskConfig, generate_block_mask
from jdtok.radix import TokenStream, build_scheme

CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "default.cfg")


def write_features(path, frames, channels=128, seed=0, rate=2.5):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((channels, frames)).astype(np.float32)
    write_feature_file(path, data, rate)
    return data


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
        write_features(feat, 3, rate=rate)
        assert main(["tokenize", "--config", CONFIG, "--in", str(feat), "--out", str(tok)]) == 3
        assert not tok.exists()
        scheme = build_scheme(FsqLevels(), 7)
        write_token_file(tok, TokenStream(np.zeros((3, 19), dtype=np.uint64), scheme, rate))
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


class TestMask:
    def test_mask_bytes_match_library(self, tmp_path, capsys):
        out = tmp_path / "m.bin"
        assert main(["mask", "--frames", "100", "--seed", "7", "--out", str(out)]) == 0
        expected = generate_block_mask(100, MaskConfig(seed=7))
        assert out.read_bytes() == expected.tobytes()
        assert "masked fraction" in capsys.readouterr().out

    def test_compat_counter_changes_output(self, tmp_path):
        # find a seed where overlap makes the two modes disagree, then
        # check the CLI flag reproduces the legacy library behavior
        seed = next(
            s
            for s in range(50)
            if not np.array_equal(
                generate_block_mask(100, MaskConfig(seed=s)),
                generate_block_mask(100, MaskConfig(seed=s), count_overlaps=True),
            )
        )
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


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jdtok", "info", "--config", CONFIG],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "47.5" in proc.stdout
