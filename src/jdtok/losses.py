"""Training and evaluation losses.

Stage 1 exposes the masked latent MSE (prediction scored only on masked
frames, targets treated as constants).  Stage 2 exposes waveform L1, a
multi-resolution STFT loss (spectral convergence plus log-magnitude L1 at
five FFT sizes), and least-squares GAN reductions computed as pure functions
of caller-supplied discriminator outputs.  Nothing here owns a network; all
functions are stateless reductions over arrays.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, as_integer

__all__ = [
    "StftConfig",
    "DiscriminatorOutputs",
    "GanLosses",
    "jepa_masked_mse",
    "l1_loss",
    "spectral_convergence",
    "log_magnitude_l1",
    "multi_res_stft",
    "gan_losses",
    "total_stage2",
]

DEFAULT_LAMBDA_STFT = 2.0
DEFAULT_LAMBDA_GAN = 0.1
MAGNITUDE_FLOOR = 1e-7


@dataclass(frozen=True)
class StftConfig:
    """Multi-resolution STFT settings: five FFT sizes with 4x overlap.

    Magnitudes are floored at ``MAGNITUDE_FLOOR`` before the log.
    """

    fft_sizes: tuple[int, ...] = (2048, 1024, 512, 256, 128)
    hop_sizes: tuple[int, ...] = (512, 256, 128, 64, 32)

    def __post_init__(self) -> None:
        # each size a Python int: 256.0 is rejected, not truncated
        fft_sizes = tuple(as_integer("fft size", n) for n in self.fft_sizes)
        hop_sizes = tuple(as_integer("hop size", h) for h in self.hop_sizes)
        object.__setattr__(self, "fft_sizes", fft_sizes)
        object.__setattr__(self, "hop_sizes", hop_sizes)
        if len(self.fft_sizes) != len(self.hop_sizes):
            raise ValueError("fft_sizes and hop_sizes must have equal length")
        if any(n < 1 for n in self.fft_sizes) or any(h < 1 for h in self.hop_sizes):
            raise ValueError("fft and hop sizes must be positive")
        if any(h > n for n, h in zip(self.fft_sizes, self.hop_sizes)):
            raise ValueError("hop size must not exceed fft size")


def jepa_masked_mse(pred: np.ndarray, target: np.ndarray, mask: np.ndarray) -> float:
    """Mean squared error over masked frames only.

    ``pred`` and ``target`` are [C, T]; ``mask`` is the {0,1} frame mask with
    0 marking masked (scored) positions.  The result is the squared error
    summed over masked frames and channels, divided by (masked count * C).
    Visible frames never enter the computation, so perturbing them leaves the
    loss bit-identical; the target is treated as a constant (stop-gradient
    contract), so no gradient with respect to it is ever defined here.
    """
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    mask = np.asarray(mask)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    if mask.ndim != 1 or mask.shape[0] != pred.shape[1]:
        raise ValueError(
            f"mask length {mask.shape} does not match time axis {pred.shape[1]}"
        )
    masked = mask == 0
    n_mask = int(np.count_nonzero(masked))
    if n_mask == 0:
        raise ValueError("empty mask set: no masked positions to score")
    diff = pred[:, masked] - target[:, masked]
    return float(np.sum(diff * diff) / (n_mask * pred.shape[0]))


def l1_loss(x_hat: np.ndarray, x: np.ndarray) -> float:
    """Mean absolute sample error between two equal-length waveforms."""
    x_hat = np.asarray(x_hat, dtype=np.float64).ravel()
    x = np.asarray(x, dtype=np.float64).ravel()
    if x_hat.shape != x.shape:
        raise ValidationError(f"length mismatch: {x_hat.shape[0]} vs {x.shape[0]}")
    if x.size == 0:
        raise ValidationError("empty waveform")
    return float(np.mean(np.abs(x_hat - x)))


def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


# Samples per signal that one block of the multi-resolution loss transforms:
# max(1, _BLOCK_SAMPLES // fft_size) frames, so a block's windowed frames,
# spectrum and magnitudes stay in cache whatever the resolution.
_BLOCK_SAMPLES = 1 << 14


def _reflect_pad(signals, fft_size: int) -> np.ndarray:
    """[len(signals), n + 2*(fft_size // 2)] rows, each signal reflect-padded.

    The equal-length 1-D signals of n samples are mirrored by fft_size // 2
    at both ends without repeating the edge sample, as
    ``np.pad(mode="reflect")`` does.  The float64 rows hold the frames of
    every fft size up to ``fft_size`` (see ``_frames``).
    """
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


def _frames(padded: np.ndarray, padded_fft: int, fft_size: int, hop: int) -> np.ndarray:
    """Strided [rows, frames, fft_size] view of centred frames hopped by ``hop``.

    ``padded`` comes from ``_reflect_pad`` for an fft of ``padded_fft`` >=
    ``fft_size`` samples; the surplus padding is trimmed, so frame f starts
    at sample f*hop - fft_size // 2 of the signal.
    """
    cut = padded_fft // 2 - fft_size // 2
    centred = padded[:, cut : padded.shape[1] - cut]
    return np.lib.stride_tricks.sliding_window_view(centred, fft_size, axis=1)[:, ::hop]


def _convergence(diff_energy: float, ref_energy: float) -> float:
    """sqrt(diff_energy / ref_energy): the spectral convergence of two sums."""
    if ref_energy == 0.0:
        raise ValidationError("reference magnitudes are all zero (silent reference)")
    return float(np.sqrt(diff_energy / ref_energy))


def _log_distance(s_ref: np.ndarray, s_hat: np.ndarray) -> float:
    """Sum of |log(max(s_hat, f) / max(s_ref, f))| over all elements, f = MAGNITUDE_FLOOR."""
    ratio = np.maximum(s_hat, MAGNITUDE_FLOOR) / np.maximum(s_ref, MAGNITUDE_FLOOR)
    return np.abs(np.log(ratio, out=ratio), out=ratio).sum()


def spectral_convergence(s_ref: np.ndarray, s_hat: np.ndarray) -> float:
    """Relative Frobenius error ||s_hat - s_ref||_F / ||s_ref||_F."""
    s_ref = np.asarray(s_ref, dtype=np.float64)
    s_hat = np.asarray(s_hat, dtype=np.float64)
    if s_ref.shape != s_hat.shape:
        raise ValueError(f"shape mismatch: {s_ref.shape} vs {s_hat.shape}")
    diff = (s_hat - s_ref).ravel()
    ref = s_ref.ravel()
    return _convergence(diff @ diff, ref @ ref)


def log_magnitude_l1(s_ref: np.ndarray, s_hat: np.ndarray) -> float:
    """Mean absolute log-magnitude difference, floored at ``MAGNITUDE_FLOOR`` before the log."""
    s_ref = np.asarray(s_ref, dtype=np.float64)
    s_hat = np.asarray(s_hat, dtype=np.float64)
    if s_ref.shape != s_hat.shape:
        raise ValueError(f"shape mismatch: {s_ref.shape} vs {s_hat.shape}")
    return float(_log_distance(s_ref, s_hat) / s_ref.size)


def _map_in_runs(fn, items: list) -> list:
    """``[fn(*item) for item in items]``, one strided run per usable CPU.

    The CPUs are those the process may run on now.  Run ``w`` of ``workers``
    holds items ``w, w + workers, ...``, so where the cost of an item follows
    its position (the STFT blocks, by resolution), every run gets an equal
    share of each kind.  Each run is computed on its own thread; the results
    come back in item order, and every thread has ended when this returns.
    """
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    workers = min(len(affinity(0)) if affinity else 1, len(items))
    if workers <= 1:
        return [fn(*item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    results: list = [None] * len(items)
    with ThreadPoolExecutor(workers) as pool:
        runs = [
            pool.submit(lambda run: [fn(*item) for item in run], items[w::workers])
            for w in range(workers)
        ]
        for w, run in enumerate(runs):
            results[w::workers] = run.result()
    return results


def multi_res_stft(
    x_hat: np.ndarray, x: np.ndarray, cfg: StftConfig = StftConfig()
) -> tuple[float, list[tuple[float, float]]]:
    """Sum of spectral-convergence and log-magnitude losses over resolutions.

    Returns (total, per-resolution list of (sc, log_mag) pairs), equal to
    ``spectral_convergence`` and ``log_magnitude_l1`` of the centred,
    reflect-padded, periodic-Hann magnitude spectrograms of both signals.
    Both waveforms must be finite and of equal length of at least the
    largest FFT size.

    No spectrogram is built: both signals are reflect-padded once into one
    float64 buffer, and each resolution walks its frames in blocks of about
    ``_BLOCK_SAMPLES`` samples per signal.  Every block of every resolution
    yields three terms (difference energy, reference energy, log distance);
    the blocks are spread over the CPUs the process may use, one strided
    run each, and the terms are then added in block order.  The arithmetic
    and the order of the sums do not depend on the CPU count, so neither
    does the result, bit for bit.  Memory is O(signal + workers x block):
    the [2, n + fft] float64 buffer plus one block's frames, spectrum and
    magnitudes per worker.
    """
    x_hat = np.ravel(x_hat)
    x = np.ravel(x)
    if x_hat.shape != x.shape:
        raise ValidationError(f"length mismatch: {x_hat.shape[0]} vs {x.shape[0]}")
    if not (np.isfinite(x_hat).all() and np.isfinite(x).all()):
        raise ValidationError("input contains non-finite values")
    widest = max(cfg.fft_sizes)
    padded = _reflect_pad([x_hat, x], widest)
    resolutions = []
    blocks = []
    for fft_size, hop in zip(cfg.fft_sizes, cfg.hop_sizes):
        frames = _frames(padded, widest, fft_size, hop)
        step = max(1, _BLOCK_SAMPLES // fft_size)
        starts = range(0, frames.shape[1], step)
        resolutions.append((frames.shape[1], fft_size, len(starts)))
        win = _hann_periodic(fft_size)
        blocks += [(frames[:, start : start + step], win) for start in starts]

    def block_terms(block: np.ndarray, win: np.ndarray):
        s_hat, s_ref = np.abs(np.fft.rfft(block * win))
        diff = (s_hat - s_ref).ravel()
        ref = s_ref.ravel()
        return diff @ diff, ref @ ref, _log_distance(s_ref, s_hat)

    terms = iter(_map_in_runs(block_terms, blocks))
    per_resolution: list[tuple[float, float]] = []
    total = 0.0
    for n_frames, fft_size, n_blocks in resolutions:
        diff_energy = ref_energy = log_sum = 0.0
        for diff_term, ref_term, log_term in itertools.islice(terms, n_blocks):
            diff_energy += diff_term
            ref_energy += ref_term
            log_sum += log_term
        sc = _convergence(diff_energy, ref_energy)
        mag = float(log_sum / (n_frames * (fft_size // 2 + 1)))
        per_resolution.append((sc, mag))
        total += sc + mag
    return total, per_resolution


@dataclass(frozen=True)
class DiscriminatorOutputs:
    """Scores and per-layer features from a bank of discriminators.

    ``scores[d]`` is discriminator d's score tensor; ``features[d][l]`` is
    its layer-l feature tensor.  Real and generated passes must produce
    matching structures.
    """

    scores: list[np.ndarray]
    features: list[list[np.ndarray]] = field(default_factory=list)


class GanLosses(NamedTuple):
    generator: float
    feature_matching: float
    discriminator: float


def _check_structures(real: DiscriminatorOutputs, fake: DiscriminatorOutputs) -> None:
    if len(real.scores) != len(fake.scores):
        raise ValueError(
            f"discriminator count mismatch: {len(real.scores)} vs {len(fake.scores)}"
        )
    for d, (r, f) in enumerate(zip(real.scores, fake.scores)):
        if np.shape(r) != np.shape(f):
            raise ValueError(f"score shape mismatch at discriminator {d}")
    if len(real.features) != len(fake.features):
        raise ValueError("feature structure mismatch between real and fake outputs")
    for d, (rl, fl) in enumerate(zip(real.features, fake.features)):
        if len(rl) != len(fl):
            raise ValueError(f"layer count mismatch at discriminator {d}")
        for layer, (r, f) in enumerate(zip(rl, fl)):
            if np.shape(r) != np.shape(f):
                raise ValueError(
                    f"feature shape mismatch at discriminator {d}, layer {layer}"
                )


def gan_losses(real: DiscriminatorOutputs, fake: DiscriminatorOutputs) -> GanLosses:
    """Least-squares GAN reductions over supplied discriminator outputs.

    generator:         sum_d mean((D_d(fake) - 1)^2)
    feature_matching:  sum_d sum_l mean(|D_d^l(real) - D_d^l(fake)|)
    discriminator:     sum_d [mean((D_d(real) - 1)^2) + mean(D_d(fake)^2)]

    Expectations are realized as arithmetic means over each tensor's
    elements and summed across discriminators (and layers).
    """
    _check_structures(real, fake)
    gen = 0.0
    disc = 0.0
    for r, f in zip(real.scores, fake.scores):
        r = np.asarray(r, dtype=np.float64)
        f = np.asarray(f, dtype=np.float64)
        gen += float(np.mean((f - 1.0) ** 2))
        disc += float(np.mean((r - 1.0) ** 2) + np.mean(f**2))
    feat = 0.0
    for rl, fl in zip(real.features, fake.features):
        for r, f in zip(rl, fl):
            r = np.asarray(r, dtype=np.float64)
            f = np.asarray(f, dtype=np.float64)
            feat += float(np.mean(np.abs(r - f)))
    return GanLosses(generator=gen, feature_matching=feat, discriminator=disc)


def total_stage2(
    l_rec: float,
    l_stft: float,
    l_gan: float = 0.0,
    lambda_stft: float = DEFAULT_LAMBDA_STFT,
    lambda_gan: float = DEFAULT_LAMBDA_GAN,
) -> float:
    """Weighted stage-2 objective: l_rec + lambda_stft*l_stft + lambda_gan*l_gan.

    ``l_gan`` is the generator-side total (adversarial + feature matching).
    """
    return l_rec + lambda_stft * l_stft + lambda_gan * l_gan
