#!/usr/bin/env python3
"""Print token-rate and vocabulary tables for a range of packing choices.

Example:
    python3 scripts/rate_table.py --sample-rate 24000 --hop 9600 --dims 128
"""

import argparse
import math

from jdtok.fsq import FsqLevels
from jdtok.radix import build_scheme, token_rate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sample-rate", type=int, default=24000)
    parser.add_argument("--hop", type=int, default=9600)
    parser.add_argument("--dims", type=int, default=128)
    parser.add_argument("--level", type=int, default=4)
    args = parser.parse_args()

    levels = FsqLevels((args.level,) * args.dims)
    frame_rate, _ = token_rate(args.sample_rate, args.hop, groups=1)
    print(f"frame rate: {frame_rate:g} Hz "
          f"({args.sample_rate} Hz / hop {args.hop})\n")
    print(f"{'G':>3} {'groups':>7} {'pads':>5} {'tokens/s':>9} "
          f"{'vocab':>10} {'bits/s':>9}")
    for group_size in (1, 2, 3, 4, 5, 6, 7, 8, 10, 16):
        if group_size > args.dims:  # a group may not outnumber the dimensions
            break
        try:
            scheme = build_scheme(levels, group_size=group_size)
        except ValueError as exc:  # beyond what a token file holds, as are all larger groups
            print(f"{group_size:>3} {exc}")
            break
        _, tps = token_rate(args.sample_rate, args.hop, scheme.group_count)
        vocab = scheme.group_products[0]
        bits = tps * math.log2(vocab)
        print(f"{group_size:>3} {scheme.group_count:>7} {scheme.pad_count:>5} "
              f"{tps:>9g} {vocab:>10} {bits:>9.1f}")


if __name__ == "__main__":
    main()
