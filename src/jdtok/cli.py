"""Command-line front end: tokenize, detokenize, info, score, mask.

Exit codes: 0 success, 2 bad configuration, 3 malformed input file,
4 semantic validation failure (out-of-range token/index, mismatched
streams), 5 I/O failure.  Any other error is a fault in the program: it is
not caught, so the process exits 1 with a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import sys

import numpy as np

from . import fileio
from ._blockmap import map_blocks
from .config import load_config
from .errors import ConfigError, FormatError, ValidationError
from .fsq import fsq_dequantize, fsq_indices
from .losses import STFT_RESOLUTIONS, l1_loss, multi_res_stft, total_stage2
from .masking import generate_block_mask, masked_fraction
from .radix import TokenStream, pack_frames, token_rate, unpack_frames

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FORMAT = 3
EXIT_VALIDATION = 4
EXIT_IO = 5

_EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    FormatError: EXIT_FORMAT,
    ValidationError: EXIT_VALIDATION,
    OSError: EXIT_IO,
}


# Frames per kernel call.  Each block's temporaries stay cache-sized, and
# ``map_blocks`` spreads the blocks over the usable CPUs.  Measured in process
# on 2 shared cores, 90 000 default frames with file I/O (serial 512-frame
# blocks: tokenize 65-66 ms, detokenize 96 ms): threaded 512-frame blocks gain
# nothing (66-72 and 99-105 ms): per block, the Python and small ufunc calls
# hold the interpreter lock.  1024-frame blocks take 51-54 and 68-75 ms.
# 2048 frames were no faster here and raised the benchmark's pretrain peak
# memory to 80 MB (1024: 74-76 MB, serial: 69.5 MB; bound 10%).  On one CPU
# 1024-frame blocks are no slower than 512 (60 against 61 ms, 92 ms both).
_BLOCK_FRAMES = 1024


def _blocks(frames: int) -> list[slice]:
    """Slices covering ``frames`` in order, ``_BLOCK_FRAMES`` at a time."""
    return [slice(lo, lo + _BLOCK_FRAMES) for lo in range(0, frames, _BLOCK_FRAMES)]


def _vocab_summary(products: tuple[int, ...]) -> str:
    return ", ".join(f"{len(list(run))} x {p}" for p, run in itertools.groupby(products))


def _cmd_tokenize(args) -> int:
    cfg = load_config(args.config)
    data, frame_rate = fileio.read_feature_file(args.infile)
    if data.shape[0] != cfg.levels.dim:
        raise ValidationError(
            f"feature file has {data.shape[0]} channels but the configuration "
            f"defines {cfg.levels.dim} quantizer dimensions"
        )
    scheme = cfg.scheme
    tokens = np.empty((data.shape[1], scheme.group_count), dtype=scheme.token_dtype)

    def tokenize_block(block: slice) -> None:
        indices = fsq_indices(data[:, block], cfg.levels)
        tokens[block] = pack_frames(indices.T, scheme)

    map_blocks(tokenize_block, _blocks(data.shape[1]))
    stream = TokenStream(tokens=tokens, scheme=scheme, frame_rate_hz=frame_rate)
    fileio.write_token_file(args.out, stream)
    print(f"frames: {stream.frame_count}")
    print(f"frame rate: {frame_rate:g} Hz")
    print(f"tokens/sec: {stream.tokens_per_second:g}")
    print(f"per-group vocabulary: {_vocab_summary(scheme.group_products)}")
    return EXIT_OK


def _cmd_detokenize(args) -> int:
    stream = fileio.read_token_file(args.infile)
    values = np.empty((stream.scheme.dim, stream.frame_count), dtype=np.float32)

    def detokenize_block(block: slice) -> None:
        indices = unpack_frames(stream.tokens[block], stream.scheme)
        values[:, block] = fsq_dequantize(indices.T, stream.scheme.levels)

    map_blocks(detokenize_block, _blocks(stream.frame_count))
    fileio.write_feature_file(args.out, values, stream.frame_rate_hz)
    print(f"frames: {stream.frame_count}")
    print(f"dimensions: {stream.scheme.dim}")
    return EXIT_OK


def _cmd_info(args) -> int:
    cfg = load_config(args.config)
    scheme = cfg.scheme
    frame_rate, tps = token_rate(cfg.sample_rate, cfg.hop, scheme.group_count)
    vocab = scheme.group_products[0]
    _, baseline = token_rate(cfg.sample_rate, cfg.hop, cfg.levels.dim)
    print(f"frame rate: {frame_rate:g} Hz")
    print(
        f"groups per frame: {scheme.group_count} "
        f"(group size {scheme.group_size}, pad dims {scheme.pad_count})"
    )
    print(f"tokens/sec: {tps:g}")
    print(f"per-token vocabulary: {vocab}")
    print(f"bits/sec: {tps * math.log2(vocab):g}")
    print(f"no-packing baseline: {baseline:g} tokens/sec ({cfg.levels.dim} dims)")
    return EXIT_OK


def _cmd_score(args) -> int:
    cfg = load_config(args.config)
    ref, ref_rate = fileio.read_feature_file(args.ref)
    hyp, hyp_rate = fileio.read_feature_file(args.hyp)
    if ref.shape[0] != 1 or hyp.shape[0] != 1:
        raise ValidationError("score expects mono waveforms (channel count 1)")
    if ref_rate != hyp_rate:
        raise ValidationError(f"sample rate mismatch: {ref_rate:g} vs {hyp_rate:g}")
    rec = l1_loss(hyp[0], ref[0])
    stft_total, per_res = multi_res_stft(hyp[0], ref[0])
    print(f"l1: {rec:.6g}")
    for (fft, hop), (sc, mag) in zip(STFT_RESOLUTIONS, per_res):
        print(f"stft fft={fft} hop={hop}: sc={sc:.6g} log_mag={mag:.6g}")
    print(f"stft total: {stft_total:.6g}")
    weighted = total_stage2(rec, stft_total, lambda_stft=cfg.lambda_stft)
    print(f"weighted (l1 + {cfg.lambda_stft:g} * stft): {weighted:.6g}")
    return EXIT_OK


def _cmd_mask(args) -> int:
    cfg = load_config(args.config)
    mask_cfg = dataclasses.replace(cfg.mask, seed=args.seed)
    mask = generate_block_mask(
        args.frames, mask_cfg, count_overlaps=args.compat_paper_mask_counter
    )
    fileio.write_mask_file(args.out, mask)
    print(f"frames: {args.frames}")
    print(f"masked: {int(np.count_nonzero(mask == 0))}")
    print(f"masked fraction: {masked_fraction(mask):.4f}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    ``main(argv)`` may be called any number of times in one process, and
    every call parses with this one parser. ``parse_args`` keeps no state in
    the parser and returns a fresh namespace on each call. Callers must not
    add to or change the returned parser.
    """
    parser = argparse.ArgumentParser(
        prog="jdtok",
        description="Reversible feature-stream tokenizer: finite scalar "
        "quantization plus mixed-radix packing, with rate reporting, "
        "reconstruction scoring, and mask generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="configuration file (defaults used if omitted)")

    p = sub.add_parser("tokenize", help="quantize and pack a feature file", parents=[config])
    p.add_argument("--in", dest="infile", required=True, help="input feature file")
    p.add_argument("--out", required=True, help="output token file")
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("detokenize", help="unpack a token file to lattice features")
    p.add_argument("--in", dest="infile", required=True, help="input token file")
    p.add_argument("--out", required=True, help="output feature file")
    p.set_defaults(func=_cmd_detokenize)

    p = sub.add_parser("info", help="report rates and vocabularies for a config", parents=[config])
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("score", help="score a reconstruction against a reference", parents=[config])
    p.add_argument("--ref", required=True, help="reference waveform file")
    p.add_argument("--hyp", required=True, help="reconstructed waveform file")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("mask", help="emit a block mask as a 0/1 byte file", parents=[config])
    p.add_argument("--frames", type=int, required=True, help="sequence length")
    p.add_argument("--seed", type=int, default=0, help="mask seed")
    p.add_argument("--out", required=True, help="output mask file")
    p.add_argument(
        "--compat-paper-mask-counter",
        action="store_true",
        help="count full span lengths instead of newly masked frames "
        "(legacy counter; may undershoot the target fraction)",
    )
    p.set_defaults(func=_cmd_mask)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
