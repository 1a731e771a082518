import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jdtok import losses
from jdtok.errors import ValidationError
from jdtok.losses import (
    _BLOCK_SAMPLES,
    _frames,
    _hann_periodic,
    _reflect_pad,
    STFT_RESOLUTIONS,
    DiscriminatorOutputs,
    gan_losses,
    jepa_masked_mse,
    l1_loss,
    log_magnitude_l1,
    multi_res_stft,
    spectral_convergence,
    total_stage2,
)


class TestMaskedMse:
    def test_zero_on_identical(self):
        pred = np.random.default_rng(0).standard_normal((4, 10))
        mask = np.ones(10)
        mask[3:6] = 0
        assert jepa_masked_mse(pred, pred, mask) == 0.0

    def test_single_position_arithmetic(self):
        pred = np.zeros((1, 5))
        target = np.zeros((1, 5))
        pred[0, 2] = 2.0
        mask = np.ones(5)
        mask[2] = 0
        assert jepa_masked_mse(pred, target, mask) == 4.0

    def test_visible_positions_never_contribute(self):
        rng = np.random.default_rng(1)
        pred = rng.standard_normal((3, 20))
        target = rng.standard_normal((3, 20))
        mask = np.ones(20)
        mask[5:9] = 0
        base = jepa_masked_mse(pred, target, mask)
        tampered = pred.copy()
        tampered[:, mask == 1] += rng.standard_normal((3, 16)) * 100
        assert jepa_masked_mse(tampered, target, mask) == base  # bit exact

    def test_duplicated_channels_leave_loss_unchanged(self):
        rng = np.random.default_rng(2)
        pred = rng.standard_normal((2, 12))
        target = rng.standard_normal((2, 12))
        mask = np.ones(12)
        mask[[0, 4, 7]] = 0
        a = jepa_masked_mse(pred, target, mask)
        b = jepa_masked_mse(np.vstack([pred, pred]), np.vstack([target, target]), mask)
        np.testing.assert_allclose(b, a, rtol=1e-15)

    def test_empty_mask_set_rejected(self):
        with pytest.raises(ValueError, match="empty mask set"):
            jepa_masked_mse(np.zeros((1, 4)), np.zeros((1, 4)), np.ones(4))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            jepa_masked_mse(np.zeros((1, 4)), np.zeros((1, 5)), np.ones(4))

    @pytest.mark.parametrize("bad_target", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("bad_pred", ["nan", "inf", "-inf"])
    def test_non_finite_pair_without_a_warning(self, bad_pred, bad_target):
        # warnings are errors here: inf - inf warned
        pred, target = np.zeros((2, 4)), np.ones((2, 4))
        pred[1, 2], target[1, 2] = float(bad_pred), float(bad_target)
        error = float(bad_pred) - float(bad_target)
        got = jepa_masked_mse(pred, target, np.array([1, 0, 0, 1]))
        np.testing.assert_equal(got, (error * error + 3.0) / 4)


class TestL1:
    def test_identical(self):
        x = np.random.default_rng(3).standard_normal(100)
        assert l1_loss(x, x) == 0.0

    def test_constant_offset(self):
        x = np.random.default_rng(4).standard_normal(50)
        assert abs(l1_loss(x + 0.5, x) - 0.5) < 1e-12

    def test_two_sample(self):
        assert l1_loss(np.array([0.0, 0.0]), np.array([1.0, -1.0])) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            l1_loss(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "signalling nan"])
    def test_non_finite_sample_gives_nan_without_a_warning(self, bad):
        # warnings are errors here: a signalling NaN cast to float64, or inf - inf, warned
        x = np.random.default_rng(5).standard_normal(64).astype(np.float32)
        y = x.copy()
        if bad == "signalling nan":
            y.view(np.uint32)[7] = 0x7F800001
        else:
            x[7] = y[7] = float(bad)
        assert np.isnan(l1_loss(y, x))
        assert np.isnan(l1_loss(x, y))


def loop_reflect_pad(signals, fft_size):
    """Oracle: ``_reflect_pad``'s row-by-row reflect fill, in float64."""
    length = signals[0].size
    if length < fft_size:
        raise ValidationError(
            f"input of {length} samples is shorter than the fft size {fft_size}"
        )
    pad = fft_size // 2
    out = np.empty((len(signals), length + 2 * pad))
    for row, signal in zip(out, signals):
        row[pad : pad + length] = signal
        row[:pad] = signal[pad:0:-1]
        row[pad + length :] = signal[-2 : -pad - 2 : -1]
    return out


def float64_l1(x_hat, x):
    """Oracle: the ``l1_loss`` that copied both inputs to float64 before subtracting."""
    x_hat = np.asarray(x_hat, dtype=np.float64).ravel()
    x = np.asarray(x, dtype=np.float64).ravel()
    if x_hat.shape != x.shape:
        raise ValidationError(f"length mismatch: {x_hat.shape[0]} vs {x.shape[0]}")
    if x.size == 0:
        raise ValidationError("empty waveform")
    return float(np.mean(np.abs(x_hat - x)))


def stft_magnitude(x, fft_size, hop):
    """Magnitude spectrogram [bins, frames] of a 1-D waveform: the whole-signal
    oracle of the blocked ``multi_res_stft``.

    Frames are centred (reflect padding by fft_size // 2 on both ends),
    hopped by ``hop`` and weighted by a periodic Hann window; bins =
    fft_size // 2 + 1.
    """
    padded = loop_reflect_pad([np.ravel(x)], fft_size)
    frames = _frames(padded, fft_size, fft_size, hop)[0]
    return np.abs(np.fft.rfft(frames * _hann_periodic(fft_size), axis=1)).T


def reference_dft_magnitude(frame, window):
    """Direct-evaluation DFT oracle, independent of the fft path."""
    n = frame.size
    wx = frame * window
    k = np.arange(n // 2 + 1)
    basis = np.exp(-2j * np.pi * k[:, None] * np.arange(n)[None, :] / n)
    return np.abs(basis @ wx)


class TestStftMagnitude:
    def test_zero_signal(self):
        s = stft_magnitude(np.zeros(1024), 256, 64)
        assert s.shape[0] == 129
        assert np.all(s == 0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            stft_magnitude(np.zeros(100), 256, 64)

    def test_bin_centered_cosine_dominates_single_bin(self):
        # cos is symmetric about both ends when (T-1) spans an integer
        # number of half periods, so reflect padding continues the tone
        # exactly and every frame is a pure bin-8 sinusoid.
        n_fft, bin_idx = 256, 8
        t = np.arange(16 * 256 + 1)
        x = np.cos(2 * np.pi * bin_idx * t / n_fft)
        s = stft_magnitude(x, n_fft, 64)
        for frame in range(s.shape[1]):
            col = s[:, frame]
            peak = col[bin_idx]
            others = np.delete(col, [bin_idx - 1, bin_idx, bin_idx + 1])
            assert peak >= 100 * others.max()

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(700)
        n_fft, hop = 128, 32
        s = stft_magnitude(x, n_fft, hop)
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n_fft) / n_fft)
        padded = np.pad(x, n_fft // 2, mode="reflect")
        n_frames = (padded.size - n_fft) // hop + 1
        assert s.shape == (n_fft // 2 + 1, n_frames)
        for f in range(0, n_frames, 3):
            frame = padded[f * hop : f * hop + n_fft]
            np.testing.assert_allclose(
                s[:, f], reference_dft_magnitude(frame, window), atol=1e-9
            )


class TestStftResolutions:
    def test_five_pairs(self):
        assert STFT_RESOLUTIONS == ((2048, 512), (1024, 256), (512, 128), (256, 64), (128, 32))
        assert all(type(n) is int for pair in STFT_RESOLUTIONS for n in pair)

    def test_widest_first_and_within_a_block(self):
        # multi_res_stft pads once for the first entry, and each resolution
        # steps _BLOCK_SAMPLES // fft_size >= 1 frames per block
        ffts = [fft_size for fft_size, _ in STFT_RESOLUTIONS]
        assert ffts[0] == max(ffts)
        assert all(1 <= hop <= fft_size <= _BLOCK_SAMPLES for fft_size, hop in STFT_RESOLUTIONS)


class TestFramesFromTheWidestPadding:
    """Frames cut from the one buffer padded for the widest fft equal the
    frames of a signal reflect-padded for their own fft size; odd sizes and
    hop = fft too."""

    @pytest.mark.parametrize(
        "fft_size, hop", list(STFT_RESOLUTIONS) + [(301, 301), (128, 40), (33, 33), (2, 2)]
    )
    def test_equal_to_own_padding(self, fft_size, hop):
        x = np.random.default_rng(fft_size).standard_normal(5000)
        widest = STFT_RESOLUTIONS[0][0]
        frames = _frames(_reflect_pad([x], widest), widest, fft_size, hop)[0]
        padded = np.pad(x, fft_size // 2, mode="reflect")
        n_frames = (padded.size - fft_size) // hop + 1
        want = np.stack([padded[f * hop : f * hop + fft_size] for f in range(n_frames)])
        assert np.array_equal(frames, want)


class TestSpectralConvergence:
    def test_identical(self):
        s = np.random.default_rng(7).random((10, 5)) + 0.1
        assert spectral_convergence(s, s) == 0.0

    def test_zero_hypothesis(self):
        s = np.random.default_rng(8).random((10, 5)) + 0.1
        assert spectral_convergence(s, np.zeros_like(s)) == 1.0

    def test_positive_scaling_identity(self):
        s = np.random.default_rng(9).random((6, 7)) + 0.5
        for a in (0.5, 2.0, 3.5):
            np.testing.assert_allclose(
                spectral_convergence(s, a * s), abs(a - 1.0), rtol=1e-12
            )

    def test_silent_reference_rejected(self):
        with pytest.raises(ValueError, match="silent"):
            spectral_convergence(np.zeros((3, 3)), np.ones((3, 3)))


class TestLogMagnitude:
    def test_identical(self):
        s = np.random.default_rng(10).random((4, 4)) + 0.1
        assert log_magnitude_l1(s, s) == 0.0

    def test_euler_scaling_gives_one(self):
        s = np.random.default_rng(11).random((8, 3)) + 0.1
        np.testing.assert_allclose(log_magnitude_l1(s, np.e * s), 1.0, rtol=1e-12)

    def test_floor_keeps_result_finite(self):
        value = log_magnitude_l1(np.zeros((2, 2)), np.ones((2, 2)))
        assert np.isfinite(value)
        np.testing.assert_allclose(value, -np.log(1e-7), rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            log_magnitude_l1(np.ones((2, 2)), np.ones((2, 3)))


class TestMultiResStft:
    def test_zero_on_identical(self):
        x = np.random.default_rng(12).standard_normal(4096)
        total, per = multi_res_stft(x, x)
        assert total == 0.0
        assert per == [(0.0, 0.0)] * 5

    def test_doubling_identity(self):
        x = np.random.default_rng(13).standard_normal(24000)
        total, per = multi_res_stft(2 * x, x)
        expected = 5 * (1 + np.log(2))
        np.testing.assert_allclose(total, expected, rtol=1e-3)
        for sc, mag in per:
            np.testing.assert_allclose(sc, 1.0, rtol=1e-12)
            np.testing.assert_allclose(mag, np.log(2), rtol=1e-3)

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_scaling_identity(self, a):
        # analytic value per resolution: |a - 1| + |log a|
        x = np.random.default_rng(16).standard_normal(24000)
        total, _ = multi_res_stft(a * x, x)
        expected = 5 * (abs(a - 1) + abs(np.log(a)))
        np.testing.assert_allclose(total, expected, rtol=1e-3)

    def test_total_dominates_terms(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(4096)
        y = x + 0.1 * rng.standard_normal(4096)
        total, per = multi_res_stft(y, x)
        assert total >= 0
        for sc, mag in per:
            assert total >= sc and total >= mag

    def test_hop_multiple_shift_invariance(self):
        # guard bands of zeros at both ends keep every nonzero sample more
        # than half the widest fft away from the reflect-padded edges, so
        # rolling both signals by a hop multiple permutes frames without
        # changing their contents
        rng = np.random.default_rng(15)
        body = rng.standard_normal(4096)
        guard = np.zeros(2048)
        x = np.concatenate([guard, body, guard])
        y = np.concatenate([guard, body + 0.05 * rng.standard_normal(4096), guard])
        base_total, base_per = multi_res_stft(y, x)
        shift = 512  # a multiple of every hop
        assert all(shift % hop == 0 for _, hop in STFT_RESOLUTIONS)
        total, per = multi_res_stft(np.roll(y, shift), np.roll(x, shift))
        np.testing.assert_allclose(total, base_total, rtol=1e-9)
        np.testing.assert_allclose(per, base_per, rtol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            multi_res_stft(np.zeros(4096), np.zeros(4097))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["hyp", "ref"])
    def test_non_finite_rejected(self, bad, which):
        x = np.random.default_rng(17).standard_normal(4096)
        y = x.copy()
        (y if which == "hyp" else x)[1000] = bad
        with pytest.raises(ValueError, match="non-finite"):
            multi_res_stft(y, x)

    def test_silent_reference_rejected(self):
        with pytest.raises(ValueError, match="silent reference"):
            multi_res_stft(np.ones(4096), np.zeros(4096))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="shorter than the fft size"):
            multi_res_stft(np.ones(2047), np.ones(2047))

    def test_peak_memory_is_signal_plus_block(self):
        # whole per-resolution spectrograms would peak near 13x the signal
        rng = np.random.default_rng(18)
        x = rng.standard_normal(240_000)
        y = x + 0.1 * rng.standard_normal(x.size)
        tracemalloc.start()
        try:
            multi_res_stft(y, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * x.nbytes

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2100)
        y = rng.standard_normal(2100)
        total, per = multi_res_stft(y, x)
        assert total >= 0
        assert all(sc >= 0 and mag >= 0 for sc, mag in per)


def composed_stft(x_hat, x):
    """Per-resolution (sc, log_mag) from the public spectrogram functions."""
    per = []
    for fft_size, hop in STFT_RESOLUTIONS:
        s_ref = stft_magnitude(x, fft_size, hop)
        s_hat = stft_magnitude(x_hat, fft_size, hop)
        per.append((
            spectral_convergence(s_ref, s_hat),
            log_magnitude_l1(s_ref, s_hat),
        ))
    return per


def block_boundary_lengths():
    """Lengths that fill whole blocks at some resolution, and +-1 sample and frame."""
    lengths = []
    for fft_size, hop in STFT_RESOLUTIONS:
        # frames = n // hop + 1 = 2 blocks of _BLOCK_SAMPLES // fft_size;
        # n - 1 drops the last frame, n + hop adds a one-frame block
        n = (2 * (_BLOCK_SAMPLES // fft_size) - 1) * hop
        lengths += [n - 1, n, n + 1, n + hop]
    return lengths


class TestBlockedMatchesComposition:
    """The blocked multi_res_stft against whole spectrograms, rtol 1e-12."""

    def check(self, x_hat, x):
        total, per = multi_res_stft(x_hat, x)
        want = composed_stft(x_hat, x)
        np.testing.assert_allclose(per, want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(total, sum(sc + mag for sc, mag in want), rtol=1e-12)

    def noisy_pair(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        return x + 0.2 * rng.standard_normal(n), x

    def test_length_equal_to_largest_fft(self):
        self.check(*self.noisy_pair(2048, 19))

    @pytest.mark.parametrize("n", block_boundary_lengths())
    def test_block_boundaries(self, n):
        self.check(*self.noisy_pair(n, n))

    def test_silent_stretches_engage_the_floor(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(20000)
        y = x + 0.2 * rng.standard_normal(x.size)
        x[3000:9000] = 0.0
        y[6000:14000] = 0.0
        assert (stft_magnitude(x, 2048, 512) < 1e-7).any()
        assert (stft_magnitude(y, 2048, 512) < 1e-7).any()
        self.check(y, x)

    def test_float32_inputs(self):
        y, x = self.noisy_pair(9000, 22)
        self.check(y.astype(np.float32), x.astype(np.float32))

    @pytest.mark.parametrize("a", [0.25, 0.5, 2.0, 4.0])
    def test_scaled_copies(self, a):
        x = np.random.default_rng(23).standard_normal(12000)
        self.check(a * x, x)


PAIR_DTYPES = {
    "float32": (np.float32, np.float32),
    "float64": (np.float64, np.float64),
    "mixed": (np.float32, np.float64),
    "int16": (np.int16, np.int16),
}
ORACLE_FFTS = [2048, 301, 33, 2]


def typed_pair(dtypes, n):
    """(x_hat, x) of ``n`` seeded samples each, in the named pair of dtypes."""
    rng = np.random.default_rng(n)
    pair = []
    for dtype in dtypes:
        if np.issubdtype(dtype, np.integer):
            pair.append(rng.integers(-(2**15), 2**15, n).astype(dtype))
        else:
            pair.append(rng.standard_normal(n).astype(dtype))
    return tuple(pair)


def oracle_lengths(ffts):
    """(fft, n) for n = fft, fft + 1 and 5000 samples."""
    return [(fft, n) for fft in ffts for n in (fft, fft + 1, 5000)]


class TestAgainstTheFloat64Oracles:
    """The pad in the signals' own dtype and the L1 of one float64 difference
    equal the float64 copies they replaced, float32 results after an exact
    cast to float64, and so does the multi-resolution loss built on them."""

    @pytest.mark.parametrize("fft_size, n", oracle_lengths(ORACLE_FFTS))
    @pytest.mark.parametrize("name", PAIR_DTYPES)
    def test_reflect_pad(self, name, fft_size, n):
        pair = typed_pair(PAIR_DTYPES[name], n)
        padded = _reflect_pad(pair, fft_size)
        assert padded.dtype == np.result_type(*pair)
        assert np.array_equal(padded.astype(np.float64), loop_reflect_pad(pair, fft_size))

    def test_reflect_pad_allocates_only_its_output(self):
        # no copy of the inputs is alive while the output is filled
        pair = typed_pair(PAIR_DTYPES["float32"], 240_000)
        tracemalloc.start()
        try:
            padded = _reflect_pad(pair, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < padded.nbytes + (64 << 10)

    @pytest.mark.parametrize("n", sorted({n for _, n in oracle_lengths(ORACLE_FFTS)}))
    @pytest.mark.parametrize("name", PAIR_DTYPES)
    def test_l1_loss(self, name, n):
        pair = typed_pair(PAIR_DTYPES[name], n)
        assert l1_loss(*pair) == float64_l1(*pair)

    @pytest.mark.parametrize("n", [2048, 2049, 5000])
    @pytest.mark.parametrize("name", PAIR_DTYPES)
    def test_multi_res_stft(self, monkeypatch, name, n):
        pair = typed_pair(PAIR_DTYPES[name], n)
        got = multi_res_stft(*pair)
        monkeypatch.setattr(losses, "_reflect_pad", loop_reflect_pad)
        assert got == multi_res_stft(*pair)


def set_cpus(monkeypatch, count):
    """Make ``os.sched_getaffinity`` report ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestSpreadOverCpus:
    """The blocks run on one thread per usable CPU; the result is the same bits."""

    def noisy_pair(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        return x + 0.2 * rng.standard_normal(n), x

    @pytest.mark.parametrize("n", [2048, 2049, 16383, 16384, 16385, 240_000])
    def test_equal_to_one_cpu(self, monkeypatch, n):
        y, x = self.noisy_pair(n)
        set_cpus(monkeypatch, 1)
        want = multi_res_stft(y, x)
        for count in (2, 3, 8):
            set_cpus(monkeypatch, count)
            assert multi_res_stft(y, x) == want

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_blocks_leave_the_caller_only_with_more_cpus(self, monkeypatch, count):
        threads = set()
        log_distance = losses._log_distance

        def recording(*args):
            threads.add(threading.get_ident())
            return log_distance(*args)

        monkeypatch.setattr(losses, "_log_distance", recording)
        set_cpus(monkeypatch, count)
        multi_res_stft(*self.noisy_pair(40_000))
        # the pool may hand two runs to one thread, never more threads than CPUs
        assert len(threads) <= count
        assert (threading.get_ident() in threads) == (count == 1)


class TestGanLosses:
    def test_perfect_fool_zeroes_generator(self):
        real = DiscriminatorOutputs(scores=[np.ones((2, 3)), np.ones(4)])
        fake = DiscriminatorOutputs(scores=[np.ones((2, 3)), np.ones(4)])
        out = gan_losses(real, fake)
        assert out.generator == 0.0

    def test_identical_features_zero_matching(self):
        feats = [[np.arange(6.0).reshape(2, 3)], [np.ones(5), np.zeros(2)]]
        real = DiscriminatorOutputs(scores=[np.ones(1), np.ones(1)], features=feats)
        fake = DiscriminatorOutputs(
            scores=[np.zeros(1), np.zeros(1)],
            features=[[a.copy() for a in layer] for layer in feats],
        )
        assert gan_losses(real, fake).feature_matching == 0.0

    def test_ideal_discriminator_zero_loss(self):
        real = DiscriminatorOutputs(scores=[np.ones((3,))])
        fake = DiscriminatorOutputs(scores=[np.zeros((3,))])
        out = gan_losses(real, fake)
        assert out.discriminator == 0.0
        assert out.generator == 1.0  # (0 - 1)^2 averaged

    def test_hand_computed_case(self):
        real = DiscriminatorOutputs(
            scores=[np.array([1.0, 0.5])], features=[[np.array([1.0, 3.0])]]
        )
        fake = DiscriminatorOutputs(
            scores=[np.array([0.5, 0.0])], features=[[np.array([2.0, 1.0])]]
        )
        out = gan_losses(real, fake)
        np.testing.assert_allclose(out.generator, (0.25 + 1.0) / 2)
        np.testing.assert_allclose(out.feature_matching, (1.0 + 2.0) / 2)
        np.testing.assert_allclose(out.discriminator, 0.25 / 2 + 0.25 / 2)

    def test_structure_mismatch(self):
        real = DiscriminatorOutputs(scores=[np.ones(2)])
        with pytest.raises(ValueError):
            gan_losses(real, DiscriminatorOutputs(scores=[np.ones(2), np.ones(2)]))
        with pytest.raises(ValueError):
            gan_losses(real, DiscriminatorOutputs(scores=[np.ones(3)]))
        with pytest.raises(ValueError):
            gan_losses(
                DiscriminatorOutputs(scores=[np.ones(2)], features=[[np.ones(2)]]),
                DiscriminatorOutputs(scores=[np.ones(2)], features=[[np.ones(3)]]),
            )


class TestTotalStage2:
    def test_weighted_sum(self):
        assert total_stage2(1.0, 2.0, 3.0) == 1.0 + 2.0 * 2.0 + 0.1 * 3.0

    def test_defaults_drop_gan(self):
        assert total_stage2(0.5, 1.0) == 2.5
