"""Seeded inputs and the round of operations for each benchmark workload.

A round is a fixed list of operations; a run repeats whole rounds, so every
count per round (and the share of failed operations) is the same in every
run.  Each workload's round holds its own operations plus one small probe of
every other user-facing path, so that every end-to-end metric is measured on
every workload; the probe inputs are the same shapes on every workload.

Operation records are plain JSON: ``kind`` is ``cli`` (an in-process
``jdtok.cli.main(argv)`` call) or ``train`` (a library-level training-step
loop); ``cat`` names the end-to-end metric it feeds; ``work`` is its size in
that metric's unit; ``check`` tells the checker what the output must be.
"""

from __future__ import annotations

import os

import numpy as np

from checks import encode_feature_file, encode_token_file, fsq_indices, pack_tokens

WORKLOADS = ("corpus_long", "corpus_clips", "score", "pretrain")

LEVELS = [4] * 128  # configs/default.cfg: 128 dimensions of 4 levels
GROUP_SIZE = 7  # packed 7 per token: 19 groups
FRAME_RATE = 2.5  # 24 kHz audio, 9600-sample hop
SAMPLE_RATE = 24000
MASK_RATIO, MASK_SPAN_MIN, MASK_SPAN_MAX = 0.5, 2, 8
DEFAULT_CONFIG = os.path.join("configs", "default.cfg")

LONG_FRAMES = 90_000  # 10 h at 2.5 Hz
CLIP_COUNT, CLIP_MIN, CLIP_MAX = 64, 20, 400
SCORE_SHORT_S, SCORE_LONG_S = 10, 60
TRAIN = {"batch": 4, "channels": 32, "frames": 1024, "steps": 6}
PRETRAIN_MASK_FRAMES = 100_000

PROBE_FRAMES = 10_000  # its tokenize peak stays below the pretrain gate gradient's
PROBE_SCORE_S, PROBE_SCORE_REPEATS = 10, 3  # 0.1 s each; repeats give samples
PROBE_TRAIN = {"batch": 2, "channels": 16, "frames": 512, "steps": 6}
PROBE_MASK_FRAMES = 100_000

# Token files whose header rate is not a usable frame rate.  detokenize must
# reject each with exit 3 and leave no output.  They are built from a fixed
# clip, so they do not depend on the workload seed.
BAD_RATES = (float("nan"), float("inf"), float("-inf"), 0.0, -2.5)
BAD_RATE_SEED, BAD_RATE_FRAMES = 20251, 12


class Inputs:
    """Writes generated inputs under ``workdir`` and builds operation records."""

    def __init__(self, workdir: str, seed: int) -> None:
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self._n = 0

    def path(self, stem: str) -> str:
        self._n += 1
        return os.path.join(self.workdir, f"{self._n:04d}-{stem}")

    def features(self, frames: int) -> str:
        rng = self.rng
        scale = rng.uniform(0.5, 2.0, size=(len(LEVELS), 1))
        data = (rng.standard_normal((len(LEVELS), frames)) * scale).astype(np.float32)
        path = self.path("feat.jdf")
        with open(path, "wb") as f:
            f.write(encode_feature_file(data, FRAME_RATE))
        return path

    def codec_ops(self, frames: int, config: str | None) -> list[dict]:
        """tokenize, detokenize, then tokenize the lattice file again."""
        feat = self.features(frames)
        tok, lat, retok = self.path("tok.jdt"), self.path("lat.jdf"), self.path("retok.jdt")
        cfg = ["--config", config] if config else []
        return [
            {"kind": "cli", "cat": "tokenize", "work": frames, "out": tok,
             "argv": ["tokenize", *cfg, "--in", feat, "--out", tok],
             "check": {"type": "tokenize", "features": feat}},
            {"kind": "cli", "cat": "detokenize", "work": frames, "out": lat,
             "argv": ["detokenize", "--in", tok, "--out", lat],
             "check": {"type": "detokenize", "features": feat}},
            {"kind": "cli", "cat": "tokenize", "work": frames, "out": retok,
             "argv": ["tokenize", *cfg, "--in", lat, "--out", retok],
             "check": {"type": "same_bytes", "other": tok}},
        ]

    def bad_rate_ops(self) -> list[dict]:
        rng = np.random.default_rng(BAD_RATE_SEED)
        frames = rng.standard_normal((len(LEVELS), BAD_RATE_FRAMES))
        tokens = pack_tokens(fsq_indices(frames, LEVELS), LEVELS, GROUP_SIZE)
        ops = []
        for rate in BAD_RATES:
            src, out = self.path("badrate.jdt"), self.path("badrate-out.jdf")
            with open(src, "wb") as f:
                f.write(encode_token_file(tokens, LEVELS, GROUP_SIZE, rate))
            ops.append({"kind": "cli", "cat": "bad_detokenize", "work": 0, "out": out,
                        "expect_rc": 3, "argv": ["detokenize", "--in", src, "--out", out],
                        "check": {"type": "rejected"}})
        return ops

    def score_op(self, seconds: int, scale: float | None) -> dict:
        """A mono pair: hyp = scale * ref, or ref plus noise when scale is None."""
        n = seconds * SAMPLE_RATE
        t = np.arange(n) / SAMPLE_RATE
        f0 = self.rng.uniform(90.0, 250.0)
        envelope = 0.5 + 0.5 * np.sin(2 * np.pi * self.rng.uniform(2.0, 6.0) * t) ** 2
        ref = 0.3 * envelope * sum(np.sin(2 * np.pi * f0 * h * t) / h for h in range(1, 6))
        ref = (ref + 0.05 * self.rng.standard_normal(n)).astype(np.float32)
        if scale is None:
            hyp = (ref + 0.01 * self.rng.standard_normal(n)).astype(np.float32)
        else:
            hyp = (ref * np.float32(scale)).astype(np.float32)
        paths = []
        for name, data in (("ref.jdf", ref), ("hyp.jdf", hyp)):
            paths.append(self.path(name))
            with open(paths[-1], "wb") as f:
                f.write(encode_feature_file(data[None, :], SAMPLE_RATE))
        return {"kind": "cli", "cat": "score", "work": seconds, "out": None,
                "argv": ["score", "--ref", paths[0], "--hyp", paths[1]],
                "check": {"type": "score", "ref": paths[0], "hyp": paths[1], "scale": scale}}

    def mask_config(self) -> str:
        path = self.path("mask.cfg")
        with open(path, "w") as f:
            f.write(f"mask.ratio = {MASK_RATIO}\nmask.span_min = {MASK_SPAN_MIN}\n"
                    f"mask.span_max = {MASK_SPAN_MAX}\n")
        return path

    def mask_ops(self, frames: int) -> list[dict]:
        cfg = self.mask_config()
        ops = []
        for compat in (False, True):
            out = self.path("mask.bin")
            seed = int(self.rng.integers(0, 2**31))
            argv = ["mask", "--config", cfg, "--frames", str(frames), "--seed", str(seed),
                    "--out", out] + (["--compat-paper-mask-counter"] if compat else [])
            ops.append({"kind": "cli", "cat": "mask", "work": frames, "out": out, "argv": argv,
                        "check": {"type": "mask", "frames": frames, "ratio": MASK_RATIO,
                                  "span_min": MASK_SPAN_MIN, "span_max": MASK_SPAN_MAX,
                                  "compat": compat}})
        return ops

    def train_op(self, batch: int, channels: int, frames: int, steps: int) -> dict:
        """Features, EMA targets and gate parameters for a training-step loop."""
        rng = self.rng
        x = rng.standard_normal((batch, channels, frames)) * rng.uniform(0.5, 2.0, (batch, channels, 1))
        target = x + 0.3 * rng.standard_normal(x.shape)
        path = self.path("train.npz")
        np.savez(path, x=x, target=target, w_proj=rng.standard_normal(channels) / np.sqrt(channels),
                 offsets=rng.uniform(-0.5, 0.5, 4), log_scales=rng.uniform(-1.5, 0.5, 4))
        cols = sorted(int(c) for c in rng.choice(frames, size=3, replace=False))
        return {"kind": "train", "cat": "train_step", "work": steps, "out": None,
                "inputs": path, "artifacts": self.path("train-check.npz"), "steps": steps,
                "alpha": 0.05, "tau": 0.99, "lr": 0.5, "ratio": MASK_RATIO,
                "span_min": MASK_SPAN_MIN, "mask_seed": int(rng.integers(0, 2**31)),
                "check_steps": [0, steps - 1], "grad_cols": cols, "check": {"type": "train"}}

    def probes(self) -> dict[str, list[dict]]:
        """One operation of every path, sized so that it is not dominated by per-call cost."""
        score = self.score_op(PROBE_SCORE_S, 0.5)
        return {
            "codec": self.codec_ops(PROBE_FRAMES, None),
            "score": [score] * PROBE_SCORE_REPEATS,
            "train": [self.train_op(**PROBE_TRAIN)],
            "mask": self.mask_ops(PROBE_MASK_FRAMES) + self.mask_ops(PROBE_MASK_FRAMES),
        }

    def warmup(self) -> list[dict]:
        """Every path once on small inputs, so first-call costs fall outside the timing."""
        return (self.codec_ops(200, DEFAULT_CONFIG) + [self.score_op(1, 0.5)]
                + [self.train_op(batch=1, channels=4, frames=64, steps=1)] + self.mask_ops(2000))


def build(workload: str, workdir: str, seed: int) -> tuple[list[dict], list[dict]]:
    """(round, warm-up) operation lists for ``workload`` with inputs under ``workdir``."""
    inp = Inputs(workdir, seed)
    if workload == "corpus_long":
        own, skip = inp.codec_ops(LONG_FRAMES, None), ("codec",)
    elif workload == "corpus_clips":
        own, skip = [], ("codec",)
        for frames in inp.rng.integers(CLIP_MIN, CLIP_MAX + 1, size=CLIP_COUNT):
            own += inp.codec_ops(int(frames), DEFAULT_CONFIG)
        own += inp.bad_rate_ops()
    elif workload == "score":
        scales = inp.rng.choice([0.25, 0.5, 2.0, 4.0], size=2)
        own = [inp.score_op(SCORE_SHORT_S, float(scales[0])), inp.score_op(SCORE_SHORT_S, None),
               inp.score_op(SCORE_LONG_S, float(scales[1])), inp.score_op(SCORE_LONG_S, None)]
        skip = ("score",)
    elif workload == "pretrain":
        own = [inp.train_op(**TRAIN)] + inp.mask_ops(PRETRAIN_MASK_FRAMES)
        skip = ("train", "mask")
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    probes = [op for kind, ops in inp.probes().items() if kind not in skip for op in ops]
    return own + probes, inp.warmup()
