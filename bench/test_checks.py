"""The benchmark's checks accept the program's outputs and reject corrupted ones.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench/test_checks.py -q

Each test produces a real output with the program on a small input, shows
that the check passes, then corrupts the output in one place (one token,
one lattice value, one printed score, one mask frame, one gradient entry,
one loss) and shows that the check fails.
"""

import contextlib
import io
import os
import re
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from jdtok import cli  # noqa: E402
from jdtok.daam import DaamParams, daam_gate, daam_gate_grad, gattn_modulate  # noqa: E402
from jdtok.ema import collapse_std, ema_update  # noqa: E402
from jdtok.losses import jepa_masked_mse  # noqa: E402
from jdtok.masking import MaskConfig, generate_block_mask  # noqa: E402

LEVELS = [4] * 128
GROUP = 7


def run(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.fixture
def codec(tmp_path):
    rng = np.random.default_rng(3)
    features = (rng.standard_normal((128, 40)) * 1.5).astype(np.float32)
    feat, tok, lat, retok = (str(tmp_path / n) for n in ("f.jdf", "t.jdt", "l.jdf", "r.jdt"))
    with open(feat, "wb") as f:
        f.write(checks.encode_feature_file(features, 2.5))
    out = {"features": features}
    out["tok_stdout"] = run(["tokenize", "--in", feat, "--out", tok])
    out["det_stdout"] = run(["detokenize", "--in", tok, "--out", lat])
    run(["tokenize", "--in", lat, "--out", retok])
    for key, path in (("tok", tok), ("lat", lat), ("retok", retok)):
        with open(path, "rb") as f:
            out[key] = f.read()
    return out


def test_packing_matches_worked_example():
    digits = np.array([[2, 1, 3, 0, 2, 1, 3], [3] * 7]).T
    assert checks.pack_tokens(digits, [4] * 7, 7).ravel().tolist() == [10023, 16383]


def test_closed_form_indices_are_the_nearest_lattice_points():
    z = np.random.default_rng(1).standard_normal((3, 5000)) * 2.0
    levels = [2, 3, 5]
    got = checks.fsq_indices(z, levels)
    for d, lv in enumerate(levels):
        lattice = (2.0 * np.arange(lv) - lv + 1) / lv
        want = np.argmin(np.abs(np.tanh(z[d])[:, None] - lattice[None, :]), axis=1)
        assert np.array_equal(got[d], want)


def test_tokenize_check_rejects_one_flipped_token(codec):
    args = (codec["features"], 2.5, LEVELS, GROUP)
    checks.check_tokenize(codec["tok_stdout"], codec["tok"], *args)
    raw = bytearray(codec["tok"])
    raw[-7] ^= 0x01  # low bit of one 16-bit token near the end
    with pytest.raises(CheckError, match="token mismatch"):
        checks.check_tokenize(codec["tok_stdout"], bytes(raw), *args)


def test_tokenize_check_rejects_wrong_summary(codec):
    args = (codec["features"], 2.5, LEVELS, GROUP)
    bad = codec["tok_stdout"].replace("tokens/sec: 47.5", "tokens/sec: 45")
    with pytest.raises(CheckError, match="tokens/sec"):
        checks.check_tokenize(bad, codec["tok"], *args)


def test_detokenize_check_rejects_value_moved_one_step(codec):
    checks.check_detokenize(codec["det_stdout"], codec["lat"], codec["features"], 2.5, LEVELS)
    values, rate = checks.decode_feature_file(codec["lat"])
    moved = values.copy()
    moved[5, 7] += np.float32(0.5) if moved[5, 7] < 0.5 else np.float32(-0.5)
    with pytest.raises(CheckError):
        checks.check_detokenize(codec["det_stdout"], checks.encode_feature_file(moved, rate),
                                codec["features"], 2.5, LEVELS)
    off = values.copy()
    off[0, 0] += np.float32(0.01)
    with pytest.raises(CheckError, match="off the lattice"):
        checks.check_detokenize(codec["det_stdout"], checks.encode_feature_file(off, rate),
                                codec["features"], 2.5, LEVELS)


def test_retokenize_check_rejects_one_byte(codec):
    checks.check_same_bytes(codec["tok"], codec["retok"], "re-tokenized")
    raw = bytearray(codec["retok"])
    raw[-1] ^= 0x01
    with pytest.raises(CheckError):
        checks.check_same_bytes(codec["tok"], bytes(raw), "re-tokenized")


def _score_pair(tmp_path, scale):
    rng = np.random.default_rng(8)
    ref = (0.2 * rng.standard_normal(6000)).astype(np.float32)
    hyp = ref * np.float32(scale) if scale else ref + (0.01 * rng.standard_normal(6000)).astype(np.float32)
    paths = []
    for name, wave in (("ref.jdf", ref), ("hyp.jdf", hyp)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "wb") as f:
            f.write(checks.encode_feature_file(wave[None, :], 24000))
    return ref, hyp, run(["score", "--ref", paths[0], "--hyp", paths[1]])


def _perturb_field(stdout: str, field: str) -> str:
    """Scale the first printed ``field=value`` at fft size 512 by 1.001."""
    return re.sub(rf"(fft=512 hop=128: .*?\b{field}=)(\S+)",
                  lambda m: m.group(1) + f"{float(m.group(2)) * 1.001:.6g}", stdout, count=1)


@pytest.mark.parametrize("scale", [0.25, 4.0, None])
def test_score_check_rejects_one_perturbed_value(tmp_path, scale):
    ref, hyp, stdout = _score_pair(tmp_path, scale)
    checks.check_score(stdout, ref, hyp, scale)
    for field in ("sc", "log_mag"):
        with pytest.raises(CheckError):
            checks.check_score(_perturb_field(stdout, field), ref, hyp, scale)
    lines = stdout.splitlines()
    lines[0] = f"l1: {float(lines[0].split(': ')[1]) * 1.001:.6g}"
    with pytest.raises(CheckError, match="l1"):
        checks.check_score("\n".join(lines) + "\n", ref, hyp, scale)


def test_own_stft_matches_centred_frames():
    x = np.arange(10.0)
    assert checks.reflect_pad(x, 3).tolist() == [3, 2, 1] + list(range(10)) + [8, 7, 6]
    assert checks.stft_mag(np.random.default_rng(0).standard_normal(3000), 256, 64).shape == (47, 129)


@pytest.mark.parametrize("compat", [False, True])
def test_mask_check_rejects_one_toggled_frame(tmp_path, compat):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("mask.span_max = 8\n")
    out = str(tmp_path / "m.bin")
    argv = ["mask", "--config", str(cfg), "--frames", "3000", "--seed", "5", "--out", out]
    stdout = run(argv + (["--compat-paper-mask-counter"] if compat else []))
    with open(out, "rb") as f:
        raw = f.read()
    checks.check_mask_cli(stdout, raw, 3000, 0.5, 2, 8, compat)
    for frame in (0, 1500, 2999):
        toggled = bytearray(raw)
        toggled[frame] ^= 1
        with pytest.raises(CheckError):
            checks.check_mask_cli(stdout, bytes(toggled), 3000, 0.5, 2, 8, compat)


def test_mask_properties_reject_short_runs_and_stray_values():
    mask = generate_block_mask(1000, MaskConfig(span_max=8, seed=2))
    checks.check_mask(mask, 1000, 0.5, 2, 8, compat=False)
    ones = np.flatnonzero(mask == 1)
    lonely = next(i for i in ones[1:-1] if mask[i - 1] == 1 and mask[i + 1] == 1)
    short = mask.copy()
    short[lonely] = 0  # a zero run of one frame
    with pytest.raises(CheckError):
        checks.check_mask(short, 1000, 0.5, 2, 8, compat=False)
    stray = mask.copy()
    stray[3] = 2
    with pytest.raises(CheckError, match="other than 0 and 1"):
        checks.check_mask(stray, 1000, 0.5, 2, 8, compat=False)
    with pytest.raises(CheckError, match="covers"):
        checks.check_mask(np.ones(1000, np.uint8), 1000, 0.5, 2, 8, compat=False)


@pytest.fixture
def gate_case():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(64) * 2.0
    params = DaamParams(rng.uniform(-0.5, 0.5, 4), rng.uniform(-1.5, 0.5, 4), 0.05)
    return x, params


def test_gate_and_gradient_checks_reject_one_entry(gate_case):
    x, params = gate_case
    off, log = params.mean_offsets, params.log_scales
    gate = daam_gate(x, params)
    checks.check_gate(gate, x, off, log)
    bad_gate = gate.copy()
    bad_gate[10] *= 1.0001
    with pytest.raises(CheckError):
        checks.check_gate(bad_gate, x, off, log)

    d_off, d_log, d_in = daam_gate_grad(x, params)
    cols = [3, 40]
    args = (daam_gate, DaamParams, x, off, log, 0.05)
    checks.check_gate_gradients(*args, d_off, d_log, d_in[:, cols], cols)
    for block in range(3):
        grads = [d_off.copy(), d_log.copy(), d_in[:, cols].copy()]
        grads[block][1, 1] *= 1.001
        with pytest.raises(CheckError, match="finite differences"):
            checks.check_gate_gradients(*args, *grads, cols)


def test_step_loss_checks_reject_perturbed_values(gate_case):
    x, params = gate_case
    rng = np.random.default_rng(9)
    feats = rng.standard_normal((6, 64))
    target = feats + 0.1 * rng.standard_normal(feats.shape)
    y = gattn_modulate(feats, x, params)
    gate = daam_gate(x, params)
    checks.check_modulated(y, feats, gate, 0.05)
    with pytest.raises(CheckError):
        checks.check_modulated(y * (1 + 1e-9), feats, gate, 0.05)

    mask = generate_block_mask(64, MaskConfig(seed=1))
    loss = jepa_masked_mse(y, target, mask)
    checks.check_masked_mse(loss, y, target, mask)
    with pytest.raises(CheckError, match="masked mse"):
        checks.check_masked_mse(loss * (1 + 1e-9), y, target, mask)

    tgt, onl = {"a": rng.standard_normal(4)}, {"a": rng.standard_normal(4)}
    moved = ema_update(tgt, onl, 0.99)
    checks.check_ema(moved, tgt, onl, 0.99)
    moved["a"][2] += 1e-9
    with pytest.raises(CheckError, match="EMA"):
        checks.check_ema(moved, tgt, onl, 0.99)

    preds = rng.standard_normal((3, 5, 20))
    value, warn = collapse_std(preds)
    checks.check_collapse(value, warn, preds)
    with pytest.raises(CheckError, match="collapse"):
        checks.check_collapse(value * (1 + 1e-9), warn, preds)
    with pytest.raises(CheckError, match="warning"):
        checks.check_collapse(value, not warn, preds)


def test_bad_rate_detokenize_counts_as_failed_until_rejected(tmp_path):
    import run as bench_run

    op = {"kind": "cli", "out": str(tmp_path / "o.jdf"), "expect_rc": 3}
    assert not bench_run.outcome_ok(op, {"rc": 0, "exists": True})
    assert not bench_run.outcome_ok(op, {"rc": 3, "exists": True})
    assert bench_run.outcome_ok(op, {"rc": 3, "exists": False})
